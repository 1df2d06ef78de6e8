import ast
import importlib
import pathlib
import pkgutil

import pytest

import footfit

MODULES = sorted(m.name for m in pkgutil.iter_modules(footfit.__path__))
SRC = pathlib.Path(footfit.__file__).parent

# Exported names with no use in src/, each kept for the reason given.
UNUSED_IN_SRC = {
    "geometry.euler_rotation": "AC-04's rotation error and the numpy reference rotation",
    "geometry.save_ply": "writer of the PLY clouds that align reads",
    "images.load_ppm": "reader of the PPM images that synth writes",
    "losses.expected_angular_error_quad": "quadrature oracle of AC-02 and perfbench",
}


def test_modules_found():
    assert {"autodiff", "camera", "cli", "renderer", "synth"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    module = importlib.import_module(f"footfit.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []
    assert len(set(module.__all__)) == len(module.__all__)


def _used_in_src(trees, module, name):
    """Whether ``module.name`` is read anywhere in src/: as a bare Name in
    its own module outside its own top-level definition, and elsewhere as
    ``alias.name`` of an imported module or the Name of a ``from`` import.
    Docstrings and comments do not count."""
    for mod, tree in trees.items():
        body = tree.body
        if mod == module:
            bare, aliases = {name}, set()
            body = [n for n in body if getattr(n, "name", None) != name]
        else:
            bare, aliases = set(), set()
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and node.level == 1:
                    for a in node.names:
                        if node.module is None and a.name == module:
                            aliases.add(a.asname or a.name)
                        elif node.module == module and a.name == name:
                            bare.add(a.asname or a.name)
        for node in ast.walk(ast.Module(body=body, type_ignores=[])):
            if isinstance(node, ast.Name) and node.id in bare:
                return True
            if (isinstance(node, ast.Attribute) and node.attr == name
                    and isinstance(node.value, ast.Name) and node.value.id in aliases):
                return True
    return False


def test_every_export_is_used_in_src():
    trees = {name: ast.parse((SRC / f"{name}.py").read_text()) for name in MODULES}
    unused = {f"{mod}.{name}"
              for mod in MODULES
              for name in importlib.import_module(f"footfit.{mod}").__all__
              if not _used_in_src(trees, mod, name)}
    # a new export needs a caller in src/; a stale entry must leave the list
    assert unused == set(UNUSED_IN_SRC)
