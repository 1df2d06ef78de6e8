import ast
import importlib
import pathlib
import pkgutil
import sys

import pytest

import footfit
from footfit import autodiff as ad
from footfit import cli
from footfit.gradcheck import gradient_suite

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


def _recording_ops():
    """Names of the autodiff functions that record a tape node."""
    tree = ast.parse((SRC / "autodiff.py").read_text())
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
                and call.func.attr == "_record" for call in ast.walk(node))}


def test_every_tape_op_is_recorded_by_the_pipeline(tmp_path, monkeypatch):
    # an op reached only through a Var operator has no name in __all__ to
    # check above; this checks every op by what the pipeline records
    callers = set()
    record = ad.Tape._record

    def recording(tape, *args):
        callers.add(sys._getframe(1).f_code.co_name)
        return record(tape, *args)

    monkeypatch.setattr(ad.Tape, "_record", recording)
    model, scene, fit = (str(tmp_path / name) for name in ("model", "scene", "fit"))
    assert cli.main(["make-model", "--out", model]) == 0
    assert cli.main(["synth", "--model", f"{model}/model.bin", "--out", scene,
                     "--views", "3", "--width", "160", "--height", "120"]) == 0
    assert cli.main(["fit", "--scene", scene, "--model", f"{model}/model.bin",
                     "--out", fit, "--stage1-epochs", "2", "--stage2-epochs", "2"]) == 0
    gradient_suite(configs=1)
    ops = _recording_ops()
    assert {"leaf", "custom"} <= ops
    assert ops - callers == set()
