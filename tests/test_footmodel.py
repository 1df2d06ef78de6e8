import struct

import numpy as np
import pytest

import chainref
from chainref import index, mul, stack, vsum
from footfit import autodiff as ad
from footfit import footmodel as fm
from footfit.geometry import Mesh, euler_rotation


def zero_field(d_s=8, d_p=8, hidden=64, n_hidden=3):
    dims = [3 + d_s + d_p] + [hidden] * n_hidden + [3]
    weights = [(np.zeros((dims[i], dims[i + 1])), np.zeros(dims[i + 1]))
               for i in range(len(dims) - 1)]
    return fm.DeformationField(weights, d_s, d_p)


def displacement(field, points, z_s, z_p):
    """The field at ``points`` for one code."""
    return fm._field(field, points, z_s, z_p)[-1]


@pytest.fixture(scope="module")
def asset():
    return fm.build_template()


@pytest.fixture(scope="module")
def field(asset):
    return fm.random_field(asset.mesh.vertices, seed=3)


class TestTemplate:
    def test_watertight_and_sized(self, asset):
        mesh = asset.mesh
        assert mesh.is_watertight()
        assert 2000 <= len(mesh.vertices) <= 3200
        ext = mesh.vertices.max(axis=0) - mesh.vertices.min(axis=0)
        assert 0.20 < ext[0] < 0.28       # heel to big toe
        assert 0.07 < ext[1] < 0.12       # width
        assert mesh.vertices[:, 2].min() > -1e-9
        assert 0.205 < mesh.vertices[:, 2].max() < 0.26   # leg stub past 0.20

    def test_keypoints_distinct_and_semantic(self, asset):
        ids = asset.keypoint_ids
        assert len(set(ids.tolist())) == 12
        v = asset.mesh.vertices[ids]
        names = list(asset.keypoint_names)
        toes = v[:5]
        assert np.all(np.diff(toes[:, 0]) < 0)     # big toe reaches farthest
        assert np.all(np.diff(toes[:, 1]) < 0)     # medial to lateral order
        bm, bl = v[names.index("ball_medial")], v[names.index("ball_lateral")]
        assert bm[1] > 0.03 and bl[1] < -0.03
        hb = v[names.index("heel_back")]
        assert hb[0] == asset.mesh.vertices[:, 0].min()
        arch = v[names.index("arch_mid")]
        assert arch[1] > 0.015 and arch[2] < 0.03  # medial side, low
        instep = v[names.index("instep_top")]
        assert abs(instep[1]) < 0.012              # on the dorsal midline
        assert instep[2] > 0.045                   # well above the sole
        ankle = v[names.index("ankle_outer")]
        assert ankle[1] < -0.02 and ankle[2] > 0.045

    def test_area_sane(self, asset):
        area = asset.mesh.face_areas().sum()
        assert 0.05 < area < 0.11

    def test_deterministic(self, asset):
        again = fm.build_template()
        assert np.array_equal(again.mesh.vertices, asset.mesh.vertices)
        assert np.array_equal(again.keypoint_ids, asset.keypoint_ids)


class TestForward:
    def test_identity_returns_template(self, asset):
        zero = zero_field()
        out = fm.forward_mesh(asset, zero, fm.FootParams.identity())
        assert np.array_equal(out.vertices, asset.mesh.vertices)
        assert out.faces is asset.mesh.faces

    def test_pure_translation(self, asset):
        zero = zero_field()
        p = fm.FootParams.identity()
        p.t = np.array([0.0, 0.0, 0.05])
        out = fm.forward_mesh(asset, zero, p)
        assert np.array_equal(out.vertices, asset.mesh.vertices + [0, 0, 0.05])

    def test_registration_equivariance(self, asset, field):
        rng = np.random.default_rng(8)
        p = fm.FootParams(r=rng.uniform(-0.5, 0.5, 3), t=rng.uniform(-0.1, 0.1, 3),
                          s=rng.uniform(0.9, 1.1, 3), z_s=rng.normal(size=8),
                          z_p=rng.normal(size=8))
        full = fm.forward_mesh(asset, field, p).vertices
        ident = fm.FootParams(np.zeros(3), np.zeros(3), np.ones(3), p.z_s, p.z_p)
        base = fm.forward_mesh(asset, field, ident).vertices
        manual = (base @ euler_rotation(p.r).T) * p.s + p.t
        np.testing.assert_allclose(full, manual, atol=1e-12)

    def test_gradients_match_fd(self, asset, field):
        w = np.random.default_rng(0).standard_normal(asset.mesh.vertices.shape)
        p = fm.FootParams(r=np.array([0.2, -0.1, 0.3]), t=np.array([0.01, 0.02, -0.01]),
                          s=np.array([1.05, 0.97, 1.01]), z_s=np.full(8, 0.3),
                          z_p=np.full(8, -0.2))

        def loss(r, t, s, z_s, z_p):
            pv = fm.ParamVars(r, t, s, z_s, z_p)
            return vsum(mul(fm.forward(asset, field, pv), w))

        err = ad.grad_check(loss, [p.r, p.t, p.s, p.z_s, p.z_p])
        assert err < 1e-4

    def test_rows_equal_full_forward_rows(self, asset, field):
        rows = asset.keypoint_ids
        p = fm.FootParams(r=np.array([0.2, -0.1, 0.3]), t=np.array([0.01, 0.02, -0.01]),
                          s=np.array([1.05, 0.97, 1.01]), z_s=np.full(8, 0.3),
                          z_p=np.full(8, -0.2))
        held = fm.deform(asset, field, p, rows)
        full = fm.forward(asset, field, fm.lift_params(ad.Tape(), p)).value
        part = fm.forward(asset, field, fm.lift_params(ad.Tape(), p), deformed=held).value
        assert part.shape == (len(rows), 3)
        assert np.abs(part - full[rows]).max() < 1e-13

        w = np.random.default_rng(1).standard_normal((len(rows), 3))

        def loss(r, t, s):
            pv = fm.ParamVars(r, t, s, r.tape.const(p.z_s), r.tape.const(p.z_p))
            return vsum(mul(fm.forward(asset, field, pv, deformed=held), w))

        err = ad.grad_check(loss, [p.r, p.t, p.s])
        assert err < 1e-4

    def test_constant_deformed_template_matches(self, asset, field):
        # the stage-1 form: codes fixed, the field evaluated once outside,
        # against the field run inside the node on the same rows
        rows = asset.keypoint_ids
        p = fm.FootParams(r=np.array([0.2, -0.1, 0.3]), t=np.array([0.01, 0.02, -0.01]),
                          s=np.array([1.05, 0.97, 1.01]), z_s=np.full(8, 0.3),
                          z_p=np.full(8, -0.2))
        deformed = fm.deform(asset, field, p, rows)
        w = np.random.default_rng(2).standard_normal((len(rows), 3))
        out = []
        for held in (False, True):
            tape = ad.Tape()
            pv = fm.lift_params(tape, p, train=("r", "t", "s"))
            if held:
                verts = fm.forward(asset, field, pv, deformed=deformed)
            else:
                verts = fm.forward(template_of(asset.mesh.vertices[rows]), field, pv)
            grads = tape.backward(vsum(mul(verts, w)))
            out.append((verts.value, [grads[getattr(pv, n)] for n in ("r", "t", "s")]))
        (v_field, g_field), (v_held, g_held) = out
        assert np.array_equal(v_field, v_held)
        for a, b in zip(g_field, g_held):
            assert np.array_equal(a, b)

    def test_rejects_nonpositive_scale(self, asset, field):
        tape = ad.Tape()
        p = fm.FootParams.identity()
        p.s = np.array([1.0, 0.0, 1.0])
        with pytest.raises(ValueError):
            fm.lift_params(tape, p)

    def test_rejects_code_mismatch(self, asset, field):
        tape = ad.Tape()
        pv = fm.lift_params(tape, fm.FootParams.identity())
        bad = fm.ParamVars(pv.r, pv.t, pv.s, tape.const(np.zeros(4)), pv.z_p)
        with pytest.raises(ValueError):
            fm.forward(asset, field, bad)

    def test_topology_preserved(self, asset, field):
        p = fm.FootParams.identity()
        p.z_s = np.full(8, 0.7)
        out = fm.forward_mesh(asset, field, p)
        assert out.faces is asset.mesh.faces
        assert out.is_watertight()


class TestFieldInit:
    def test_displacement_rms_calibrated(self, asset, field):
        rng = np.random.default_rng(123)
        sq = []
        for _ in range(12):
            code = rng.normal(size=16)
            d = displacement(field, asset.mesh.vertices, code[:8], code[8:])
            sq.append(np.mean(np.sum(d * d, axis=1)))
        rms = np.sqrt(np.mean(sq))
        assert rms <= 0.010
        assert rms > 0.002

    def test_zero_codes_give_some_displacement(self, asset, field):
        # biases are zero but x still drives the net
        d = displacement(field, asset.mesh.vertices, np.zeros(8), np.zeros(8))
        assert np.all(np.isfinite(d))

    def test_seed_reproducible(self, asset):
        a = fm.random_field(asset.mesh.vertices, seed=11)
        b = fm.random_field(asset.mesh.vertices, seed=11)
        for (wa, ba), (wb, bb) in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)
            assert np.array_equal(ba, bb)


@pytest.fixture(scope="module")
def suite_field(asset):
    """The gradient suite's field: two codes each, one hidden layer of 16."""
    return fm.random_field(asset.mesh.vertices, d_s=2, d_p=2, hidden=16,
                           n_hidden=1, seed=1)


def template_of(X):
    """A template of the rows ``X`` and no faces, which ``forward`` does not
    read."""
    return fm.TemplateAsset(Mesh(X, np.zeros((0, 3))), np.arange(0))


def chain_euler(r):
    """Reference: the rotation Rz @ Ry @ Rx as a chain of small tape ops."""
    tape = r.tape
    one = tape.const(1.0)
    zero = tape.const(0.0)
    cx, sx = chainref.cos(index(r, 0)), chainref.sin(index(r, 0))
    cy, sy = chainref.cos(index(r, 1)), chainref.sin(index(r, 1))
    cz, sz = chainref.cos(index(r, 2)), chainref.sin(index(r, 2))
    Rx = stack([stack([one, zero, zero]),
                stack([zero, cx, chainref.neg(sx)]),
                stack([zero, sx, cx])])
    Ry = stack([stack([cy, zero, sy]),
                stack([zero, one, zero]),
                stack([chainref.neg(sy), zero, cy])])
    Rz = stack([stack([cz, chainref.neg(sz), zero]),
                stack([sz, cz, zero]),
                stack([zero, zero, one])])
    return chainref.matmul(chainref.matmul(Rz, Ry), Rx)


def chain_forward(f, X, pv, held=None):
    """Reference: what :func:`fm.forward` computes, as the op chains of the
    field at the rows ``X``, the rotation and the registration.  A
    ``held`` template is a constant instead of the field."""
    u = pv.r.tape.const(held) if held is not None else chainref.field(f, X, pv.z_s, pv.z_p)
    return chainref.register(u, chain_euler(pv.r), pv.s, pv.t)


def node_and_chain(f, X, values, w, live=(True, True), held=None):
    """(tape nodes, value, gradients) of ``sum(forward · w)`` for the node
    and then the chain, over an asset of the template rows ``X``.  r, t and
    s are leaves, and a code is a leaf when its ``live`` entry is set."""
    out = []
    for node in (True, False):
        tape = ad.Tape()
        pv = fm.ParamVars(*(tape.leaf(v) for v in values[:3]),
                          *(tape.leaf(v, requires_grad=g) for v, g in zip(values[3:], live)))
        before = len(tape)
        if node:
            y = fm.forward(template_of(X), f, pv, deformed=held)
        else:
            y = chain_forward(f, X, pv, held)
        nodes = len(tape) - before
        grads = tape.backward(vsum(mul(y, w)))
        out.append((nodes, y.value, [grads[v] for v in (pv.r, pv.t, pv.s, pv.z_s, pv.z_p)
                                     if v.requires_grad]))
    return out


def assert_bit_equal(node, chain):
    (n_node, v_node, g_node), (_, v_chain, g_chain) = node, chain
    assert n_node == 1
    assert np.array_equal(v_node, v_chain)
    assert len(g_node) == len(g_chain)
    for a, b in zip(g_node, g_chain):
        assert np.array_equal(a, b)


def random_values(rng, f):
    """r, t, s and the codes of the field ``f``."""
    return [rng.uniform(-0.5, 0.5, 3), rng.uniform(-0.1, 0.1, 3), rng.uniform(0.9, 1.1, 3),
            rng.normal(size=f.d_s), rng.normal(size=f.d_p)]


class TestFieldNode:
    """The field runs inside the forward node on the full template or on
    the keypoint rows, with each set of live codes."""

    @pytest.mark.parametrize("which", ["default", "suite"])
    @pytest.mark.parametrize("rows", [False, True], ids=["all_rows", "kp_rows"])
    @pytest.mark.parametrize("live", [(True, True), (True, False), (False, True)],
                             ids=["codes_live", "z_p_const", "z_s_const"])
    def test_equals_chain_bit_for_bit(self, asset, field, suite_field, which, rows, live):
        f = field if which == "default" else suite_field
        X = asset.mesh.vertices[asset.keypoint_ids] if rows else asset.mesh.vertices
        rng = np.random.default_rng(5)
        values, w = random_values(rng, f), rng.normal(size=X.shape)
        node, chain = node_and_chain(f, X, values, w, live)
        assert len(node[2]) == 3 + sum(live)
        assert_bit_equal(node, chain)

    @pytest.mark.parametrize("which", ["default", "suite"])
    def test_gradient_matches_fd(self, asset, field, suite_field, which):
        # an identity registration leaves the field's own gradient
        f = field if which == "default" else suite_field
        kp_asset = template_of(asset.mesh.vertices[asset.keypoint_ids])
        rng = np.random.default_rng(6)
        w = rng.normal(size=kp_asset.mesh.vertices.shape)

        def loss(z_s, z_p):
            tape = z_s.tape
            pv = fm.ParamVars(tape.const(np.zeros(3)), tape.const(np.zeros(3)),
                              tape.const(np.ones(3)), z_s, z_p)
            return vsum(mul(fm.forward(kp_asset, f, pv), w))

        err = ad.grad_check(loss, [rng.normal(size=f.d_s), rng.normal(size=f.d_p)])
        assert err < 1e-8


class TestEulerNode:
    """The rotation inside the forward node, on a held template."""

    @pytest.mark.parametrize("r", [[0.0, 0.0, 0.0], [0.2, -0.1, 0.3],
                                   [3.0, -1.4, 2.2]])
    def test_equals_chain_bit_for_bit(self, field, r):
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        values = [np.array(r), np.zeros(3), np.ones(3), np.zeros(field.d_s), np.zeros(field.d_p)]
        node, chain = node_and_chain(field, x, values, w, held=x)
        assert_bit_equal(node, chain)
        R = np.ascontiguousarray(euler_rotation(np.array(r)).T)
        np.testing.assert_array_equal(node[1], x @ R)

    def test_one_node_and_gradient_matches_fd(self, asset, field):
        tape = ad.Tape()
        pv = fm.lift_params(tape, fm.FootParams.identity(), train=("r",))
        fm.forward(asset, field, pv, deformed=np.zeros((4, 3)))
        assert len(tape) == 6
        rng = np.random.default_rng(4)
        x, w = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))

        def loss(r):
            tape = r.tape
            pv = fm.ParamVars(r, tape.const(np.zeros(3)), tape.const(np.ones(3)),
                              tape.const(np.zeros(8)), tape.const(np.zeros(8)))
            return vsum(mul(fm.forward(asset, field, pv, deformed=x), w))

        assert ad.grad_check(loss, [np.array([0.4, -0.7, 1.1])]) < 1e-6


class TestRegistrationNode:
    """The whole forward node, with the field live or its template held."""

    @pytest.mark.parametrize("u_grad", [True, False])
    def test_equals_chain_bit_for_bit(self, asset, field, u_grad):
        rng = np.random.default_rng(6)
        X = asset.mesh.vertices
        values, w = random_values(rng, field), rng.normal(size=X.shape)
        held = None
        if not u_grad:
            held = fm.deform(asset, field, fm.FootParams(*values))
            scratch = ad.Tape()
            assert np.array_equal(held, chainref.field(
                field, X, scratch.const(values[3]), scratch.const(values[4])).value)
        node, chain = node_and_chain(field, X, values, w, held=held)
        assert_bit_equal(node, chain)
        if not u_grad:     # a held template gives the codes no cotangent
            assert not np.any(node[2][3]) and not np.any(node[2][4])

    def test_gradient_matches_fd(self, asset, suite_field):
        rng = np.random.default_rng(7)
        X = asset.mesh.vertices[asset.keypoint_ids]
        w = rng.normal(size=X.shape)
        inputs = [rng.normal(size=3), rng.normal(size=3), rng.uniform(0.9, 1.1, 3)]
        held = rng.normal(size=X.shape) * 0.1
        for node in (True, False):
            def loss(r, t, s):
                pv = fm.ParamVars(r, t, s, r.tape.const(np.zeros(2)), r.tape.const(np.zeros(2)))
                return vsum(mul(fm.forward(asset, suite_field, pv, deformed=held) if node
                                else chain_forward(suite_field, X, pv, held), w))

            assert ad.grad_check(loss, inputs) < 1e-6


class TestModelFile:
    def test_round_trip_bit_exact(self, asset, field, tmp_path):
        path = tmp_path / "foot.fmdl"
        fm.save_model(path, asset, field)
        asset2, field2 = fm.load_model(path)
        assert np.array_equal(asset2.mesh.vertices, asset.mesh.vertices)
        assert np.array_equal(asset2.mesh.faces, asset.mesh.faces)
        assert np.array_equal(asset2.keypoint_ids, asset.keypoint_ids)
        assert asset2.keypoint_names == asset.keypoint_names
        p = fm.FootParams(np.array([0.1, 0.2, 0.3]), np.array([0.01, 0.0, 0.02]),
                          np.array([1.02, 0.99, 1.0]), np.full(8, 0.4), np.full(8, -0.3))
        a = fm.forward_mesh(asset, field, p).vertices
        b = fm.forward_mesh(asset2, field2, p).vertices
        assert np.array_equal(a, b)

    def test_loads_file_with_blendshape_basis(self, asset, field, tmp_path):
        # files written before the basis was dropped end with a basis
        # count and count x V x 3 doubles; the loader skips them
        path = tmp_path / "foot.fmdl"
        fm.save_model(path, asset, field)
        raw = path.read_bytes()
        assert raw[-4:] == struct.pack("<I", 0)
        nv = len(asset.mesh.vertices)
        basis = np.random.default_rng(3).normal(size=(4, nv, 3)).astype("<f8")
        old = raw[:-4] + struct.pack("<I", 4) + basis.tobytes()
        old_path = tmp_path / "old.fmdl"
        old_path.write_bytes(old)
        asset2, field2 = fm.load_model(old_path)
        assert np.array_equal(asset2.mesh.vertices, asset.mesh.vertices)
        assert np.array_equal(asset2.mesh.faces, asset.mesh.faces)
        assert np.array_equal(asset2.keypoint_ids, asset.keypoint_ids)
        assert asset2.keypoint_names == asset.keypoint_names
        assert (field2.d_s, field2.d_p) == (field.d_s, field.d_p)
        for (w2, b2), (w, b) in zip(field2.weights, field.weights, strict=True):
            assert np.array_equal(w2, w)
            assert np.array_equal(b2, b)
        old_path.write_bytes(old[: len(raw) + basis.nbytes // 2])
        with pytest.raises(fm.ModelFormatError):
            fm.load_model(old_path)

    @pytest.mark.parametrize("count", ["vertices", "basis"])
    def test_huge_header_count(self, asset, field, tmp_path, count):
        # a count read from the header is checked against the bytes left
        # in the file before anything is allocated for it
        path = tmp_path / "foot.fmdl"
        fm.save_model(path, asset, field)
        raw = bytearray(path.read_bytes())
        off, before = ((8, len(asset.mesh.vertices)) if count == "vertices"
                       else (len(raw) - 4, 0))
        assert struct.unpack_from("<I", raw, off)[0] == before
        struct.pack_into("<I", raw, off, 0xFFFFFFFF)
        path.write_bytes(bytes(raw))
        with pytest.raises(fm.ModelFormatError, match="truncated"):
            fm.load_model(path)

    def test_corrupt_magic(self, asset, field, tmp_path):
        path = tmp_path / "foot.fmdl"
        fm.save_model(path, asset, field)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"JUNK"
        path.write_bytes(bytes(raw))
        with pytest.raises(fm.ModelFormatError):
            fm.load_model(path)

    def test_truncated(self, asset, field, tmp_path):
        path = tmp_path / "foot.fmdl"
        fm.save_model(path, asset, field)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(fm.ModelFormatError):
            fm.load_model(path)

    def test_wrong_version(self, asset, field, tmp_path):
        path = tmp_path / "foot.fmdl"
        fm.save_model(path, asset, field)
        raw = bytearray(path.read_bytes())
        raw[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(raw))
        with pytest.raises(fm.ModelFormatError):
            fm.load_model(path)

    def test_wrong_code_dimension(self, asset, field, tmp_path):
        path = tmp_path / "foot.fmdl"
        fm.save_model(path, asset, field)
        raw = bytearray(path.read_bytes())
        mesh = asset.mesh
        off = 4 + 4 + 8 + mesh.vertices.size * 8 + mesh.faces.size * 8
        off += 4 + len(asset.keypoint_ids) * 8
        for name in asset.keypoint_names:
            off += 2 + len(name.encode("utf-8"))
        assert struct.unpack_from("<I", raw, off)[0] == field.d_s
        struct.pack_into("<I", raw, off, field.d_s + 1)
        path.write_bytes(bytes(raw))
        with pytest.raises(fm.ModelFormatError):
            fm.load_model(path)

    def test_default_model_deterministic(self, tmp_path):
        a_asset, a_field = fm.make_default_model(seed=5)
        b_asset, b_field = fm.make_default_model(seed=5)
        assert np.array_equal(a_asset.mesh.vertices, b_asset.mesh.vertices)
        assert np.array_equal(a_field.weights[-1][0], b_field.weights[-1][0])
