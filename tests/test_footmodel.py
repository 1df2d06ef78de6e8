import struct

import numpy as np
import pytest

import chainref
from chainref import index, mul, stack, vsum
from footfit import autodiff as ad
from footfit import footmodel as fm
from footfit.geometry import euler_rotation


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
        tape = ad.Tape()
        pv = fm.lift_params(tape, p)
        full = fm.forward(asset, field, pv).value
        part = fm.forward(asset, field, pv,
                          deformed=fm.deform(asset, field, pv, rows).value).value
        assert part.shape == (len(rows), 3)
        assert np.abs(part - full[rows]).max() < 1e-13

        w = np.random.default_rng(1).standard_normal((len(rows), 3))

        def loss(r, t, s, z_s, z_p):
            pv = fm.ParamVars(r, t, s, z_s, z_p)
            return vsum(mul(fm.deform(asset, field, pv, rows), w))

        err = ad.grad_check(loss, [p.r, p.t, p.s, p.z_s, p.z_p])
        assert err < 1e-4

    def test_constant_deformed_template_matches(self, asset, field):
        # the stage-1 form: codes fixed, the field evaluated once outside
        rows = asset.keypoint_ids
        p = fm.FootParams(r=np.array([0.2, -0.1, 0.3]), t=np.array([0.01, 0.02, -0.01]),
                          s=np.array([1.05, 0.97, 1.01]), z_s=np.full(8, 0.3),
                          z_p=np.full(8, -0.2))
        deformed = fm.deform(asset, field, fm.lift_params(ad.Tape(), p), rows).value
        w = np.random.default_rng(2).standard_normal((len(rows), 3))
        out = []
        for held in (False, True):
            tape = ad.Tape()
            pv = fm.lift_params(tape, p, train=("r", "t", "s"))
            if held:
                verts = fm.forward(asset, field, pv, deformed=deformed)
            else:
                verts = fm._register_var(fm.deform(asset, field, pv, rows),
                                         fm._euler_var(pv.r), pv.s, pv.t)
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


class TestFieldNode:
    @pytest.mark.parametrize("which", ["default", "suite"])
    @pytest.mark.parametrize("rows", [False, True], ids=["all_rows", "kp_rows"])
    @pytest.mark.parametrize("live", [(True, True), (True, False), (False, True)],
                             ids=["codes_live", "z_p_const", "z_s_const"])
    def test_equals_chain_bit_for_bit(self, asset, field, suite_field, which, rows, live):
        f = field if which == "default" else suite_field
        X = asset.mesh.vertices[asset.keypoint_ids] if rows else asset.mesh.vertices
        rng = np.random.default_rng(5)
        z0, w = (rng.normal(size=f.d_s), rng.normal(size=f.d_p)), rng.normal(size=X.shape)
        out = []
        for build in (fm._field_var, chainref.field):
            tape = ad.Tape()
            z = [tape.leaf(v, requires_grad=g) for v, g in zip(z0, live)]
            before = len(tape)
            y = build(f, X, *z)
            nodes = len(tape) - before
            grads = tape.backward(vsum(mul(y, w)))
            out.append((nodes, y.value, [grads[v] for v in z if v.requires_grad]))
        (n_node, v_node, g_node), (_, v_chain, g_chain) = out
        assert n_node == 1
        assert np.array_equal(v_node, v_chain)
        assert len(g_node) == len(g_chain) == sum(live)
        for a, b in zip(g_node, g_chain):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("which", ["default", "suite"])
    def test_gradient_matches_fd(self, asset, field, suite_field, which):
        f = field if which == "default" else suite_field
        X = asset.mesh.vertices[asset.keypoint_ids]
        rng = np.random.default_rng(6)
        w = rng.normal(size=X.shape)
        err = ad.grad_check(lambda z_s, z_p: vsum(mul(fm._field_var(f, X, z_s, z_p), w)),
                            [rng.normal(size=f.d_s), rng.normal(size=f.d_p)])
        assert err < 1e-8


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


class TestEulerNode:
    @pytest.mark.parametrize("r", [[0.0, 0.0, 0.0], [0.2, -0.1, 0.3],
                                   [3.0, -1.4, 2.2]])
    def test_equals_chain_bit_for_bit(self, r):
        # transposed and applied to points, as fm.forward uses it
        rng = np.random.default_rng(2)
        x, w = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        out = []
        for build in (fm._euler_var, chain_euler):
            tape = ad.Tape()
            rv = tape.leaf(np.array(r))
            R = build(rv)
            loss = vsum(mul(chainref.matmul(tape.const(x), chainref.transpose(R)), w))
            out.append((R.value, tape.backward(loss)[rv]))
        (v_node, g_node), (v_chain, g_chain) = out
        assert np.array_equal(v_node, v_chain)
        assert np.array_equal(g_node, g_chain)
        np.testing.assert_array_equal(v_node, euler_rotation(np.array(r)))

    def test_one_node_and_gradient_matches_fd(self):
        tape = ad.Tape()
        fm._euler_var(tape.leaf(np.zeros(3)))
        assert len(tape) == 2
        w = np.random.default_rng(4).normal(size=(3, 3))
        assert ad.grad_check(lambda r: vsum(mul(fm._euler_var(r), w)),
                             [np.array([0.4, -0.7, 1.1])]) < 1e-6


class TestRegistrationNode:
    @pytest.mark.parametrize("u_grad", [True, False])
    def test_equals_chain_bit_for_bit(self, u_grad):
        rng = np.random.default_rng(6)
        u0, w = rng.normal(size=(7, 3)), rng.normal(size=(7, 3))
        r0, t0, s0 = rng.normal(size=3), rng.normal(size=3), rng.uniform(0.9, 1.1, 3)
        out = []
        for build in (fm._register_var, chainref.register):
            tape = ad.Tape()
            u = tape.leaf(u0, requires_grad=u_grad)
            r, t, s = tape.leaf(r0), tape.leaf(t0), tape.leaf(s0)
            before = len(tape)
            verts = build(u, fm._euler_var(r), s, t)
            nodes = len(tape) - before
            grads = tape.backward(vsum(mul(verts, w)))
            out.append((nodes, verts.value,
                        [grads[v] for v in ((u, r, t, s) if u_grad else (r, t, s))]))
        (n_node, v_node, g_node), (n_chain, v_chain, g_chain) = out
        assert n_node == 2 and n_chain == 5        # the rotation, then 1 or 4
        assert np.array_equal(v_node, v_chain)
        for a, b in zip(g_node, g_chain):
            assert np.array_equal(a, b)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(7)
        u0, w = rng.normal(size=(5, 3)), rng.normal(size=(5, 3))
        inputs = [u0, rng.normal(size=3), rng.normal(size=3), rng.uniform(0.9, 1.1, 3)]
        for build in (fm._register_var, chainref.register):
            def loss(u, r, t, s):
                return vsum(mul(build(u, fm._euler_var(r), s, t), w))

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
