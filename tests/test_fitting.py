import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

import chainref
from chainref import (add, div, index, mul, project_keypoints, rasterize_mesh, scatter_into,
                      sub, vsum)
from footfit import autodiff as ad
from footfit import camera as cam_mod
from footfit import fitting
from footfit import footmodel as fm
from footfit import losses, renderer, synth


def _camera_at_y(y):
    return cam_mod.Camera(100.0, 100.0, 50.0, 50.0, 100, 100,
                          np.eye(3), np.array([0.0, -y, 0.3]))


def _kp_only_observation(mesh, kp_ids, cam):
    """Stage-1 style bundle: real keypoints, placeholder normal maps."""
    kp, vis = project_keypoints(mesh.vertices, kp_ids, [cam])
    sigma = np.full((len(kp_ids), 2), 0.01)
    normals = losses.NormalObservation(np.zeros((2, 2, 3)), np.zeros((2, 2)))
    return losses.Observation(
        normals, losses.KeypointObservation(kp[0], sigma, vis[0]),
        np.zeros((2, 2), dtype=bool))


@pytest.fixture(scope="module")
def model():
    return fm.make_default_model(seed=0)


@pytest.fixture(scope="module")
def stage1_setup(model):
    asset, field = model
    rng = np.random.default_rng(21)
    gt = fm.FootParams(rng.uniform(-0.06, 0.06, 3),
                       rng.uniform(-0.01, 0.01, 3),
                       rng.uniform(0.98, 1.02, 3),
                       np.zeros(field.d_s), np.zeros(field.d_p))
    mesh = fm.forward_mesh(asset, field, gt)
    cams = [cam_mod.sample_arc(cam_mod.ArcSamplerConfig(width=120, height=160),
                               np.random.default_rng(100 + i))
            for i in range(8)]
    obs = [_kp_only_observation(mesh, asset.keypoint_ids, c) for c in cams]
    return gt, cams, obs


class TestAdamStep:
    def test_first_step_is_lr_sized(self):
        values = {"x": np.array([5.0, -3.0])}
        state = fitting.AdamState.for_params(values)
        out = fitting.adam_step(state, values,
                                {"x": np.array([2.0, -7.0])}, 0.01)
        delta = out["x"] - values["x"]
        # m_hat/sqrt(v_hat) is +/-1 on the first step
        assert np.abs(np.abs(delta) - 0.01).max() < 1e-9
        assert delta[0] < 0 and delta[1] > 0
        assert state.step == 1

    def test_zero_gradient_keeps_value(self):
        values = {"x": np.array([1.5])}
        state = fitting.AdamState.for_params(values)
        out = fitting.adam_step(state, values, {"x": np.array([0.0])}, 0.1)
        assert out["x"][0] == 1.5

    def test_minimizes_quadratic(self):
        values = {"x": np.array([1.0])}
        state = fitting.AdamState.for_params(values)
        for _ in range(200):
            values = fitting.adam_step(state, values,
                                       {"x": 2.0 * values["x"]}, 0.1)
        assert abs(values["x"][0]) < 1e-2

    def test_non_finite_gradient_names_parameter(self):
        values = {"r": np.zeros(3)}
        state = fitting.AdamState.for_params(values)
        with pytest.raises(FloatingPointError, match="r"):
            fitting.adam_step(state, values,
                              {"r": np.array([1.0, np.nan, 0.0])}, 0.1)

    def test_untracked_entries_pass_through(self):
        values = {"x": np.array([1.0]), "y": np.array([2.0])}
        state = fitting.AdamState.for_params({"x": values["x"]})
        out = fitting.adam_step(state, values, {"x": np.array([1.0])}, 0.1)
        assert out["y"][0] == 2.0


class TestSelectViews:
    def test_even_spread(self):
        ys = np.random.default_rng(0).permutation(30) / 100.0
        cams = [_camera_at_y(y) for y in ys]
        picked = fitting.select_views(cams, 3)
        ranks = np.argsort(ys, kind="stable")
        assert picked == [int(ranks[0]), int(ranks[15]), int(ranks[29])]

    def test_two_views_are_extremes(self):
        ys = [0.3, -0.1, 0.5, 0.0, 0.2]
        cams = [_camera_at_y(y) for y in ys]
        assert fitting.select_views(cams, 2) == [1, 2]

    def test_single_view_is_median(self):
        ys = [0.3, -0.1, 0.5, 0.0, 0.2]
        cams = [_camera_at_y(y) for y in ys]
        assert fitting.select_views(cams, 1) == [4]

    def test_all_views(self):
        cams = [_camera_at_y(y) for y in (0.2, 0.0, 0.1)]
        assert sorted(fitting.select_views(cams, 3)) == [0, 1, 2]

    def test_too_many(self):
        cams = [_camera_at_y(0.0)]
        with pytest.raises(ValueError, match="cannot select 2 of 1"):
            fitting.select_views(cams, 2)


class TestFitConfig:
    def test_defaults_valid(self):
        fitting.FitConfig().validate()

    @pytest.mark.parametrize("kw", [
        {"lr": 0.0},
        {"stage1_epochs": -1},
        {"sharpness": 0.0},
        {"sharpness": -1.0},
        {"lr": np.inf},
        {"lr": np.nan},
        {"w_kp": -1.0},
        {"w_sil": np.nan},
        {"w_norm": np.inf},
        {"sharpness": np.inf},
        {"sil_threshold_deg": np.nan},
        {"sil_threshold_deg": 0.0},
        {"sil_threshold_deg": np.inf},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            fitting.FitConfig(**kw).validate()


class TestStage1:
    def test_recovers_registration(self, model, stage1_setup):
        gt, cams, obs = stage1_setup
        config = fitting.FitConfig(stage1_epochs=500)
        fitted, rows = fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config),
                                          config)
        assert np.abs(fitted.r - gt.r).max() < 0.01
        assert np.abs(fitted.t - gt.t).max() < 0.001
        assert np.abs(fitted.s / gt.s - 1.0).max() < 0.005
        assert rows[-1][4] < rows[0][4]

    def test_trace_shape_and_codes_frozen(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        config = fitting.FitConfig(stage1_epochs=40)
        data = fitting.FitInput.build(cams, obs, config)
        fitted, rows = fitting.fit_stage1(model, data, config)
        assert len(rows) == 40
        # silhouette/normal columns stay zero without rendering
        assert all(r[2] == 0.0 and r[3] == 0.0 for r in rows)
        assert np.all(fitted.z_s == 0.0)
        assert np.all(fitted.z_p == 0.0)
        # with no epochs the stage returns its start, the identity
        start, _ = fitting.fit_stage1(model, data, fitting.FitConfig(stage1_epochs=0))
        assert np.all(start.r == 0.0) and np.all(start.s == 1.0)

    def test_deterministic(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        config = fitting.FitConfig(stage1_epochs=25)
        a, _ = fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config), config)
        b, _ = fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config), config)
        for name in fitting.PARAM_ORDER:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_under_constrained(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        blind = [losses.Observation(
            o.normals,
            losses.KeypointObservation(o.keypoints.k, o.keypoints.sigma,
                                       np.zeros_like(o.keypoints.v)),
            o.mask) for o in obs]
        data = fitting.FitInput.build(cams, blind, fitting.FitConfig())
        with pytest.raises(ValueError, match="under-constrained"):
            fitting.fit_stage1(model, data)

    def test_length_mismatch(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        with pytest.raises(ValueError, match="per camera"):
            fitting.FitInput.build(cams, obs[:-1], fitting.FitConfig())

    def test_keypoints_validated_once_per_stage(self, model, stage1_setup,
                                                monkeypatch):
        _, cams, obs = stage1_setup
        calls = []
        validate = losses.KeypointObservation.validate
        monkeypatch.setattr(losses.KeypointObservation, "validate",
                            lambda self: calls.append(self.k.shape) or validate(self))
        config = fitting.FitConfig(stage1_epochs=5)
        fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config), config)
        assert calls == [(len(cams), len(model[0].keypoint_ids), 2)]


def _stage1_full_mesh(model, observations, cameras, config):
    """Reference stage 1: the model forward over every template vertex,
    then the keypoint rows read out of each view's full projection."""
    free = fitting.STAGE1_FREE
    asset, field = model
    params = fm.FootParams.identity(field.d_s, field.d_p)
    state = fitting.AdamState.for_params({n: getattr(params, n) for n in free})
    kp_obs = losses.KeypointObservation.stack([o.keypoints for o in observations])
    rows = []
    for epoch in range(config.stage1_epochs):
        tape = ad.Tape()
        pv = fm.lift_params(tape, params, train=free)
        verts = fm.forward(asset, field, pv)
        proj = renderer.project_vertices_var(verts, cameras)
        kps, _ = renderer.project_keypoints_var(proj, asset.keypoint_ids,
                                                renderer.image_size(cameras))
        l_kp = losses.kp_fit_loss(kps, kp_obs)
        total = mul(l_kp, config.w_kp)
        rows.append((epoch, float(l_kp.value), 0.0, 0.0, float(total.value)))
        grads = tape.backward(total)
        params = replace(params, **fitting.adam_step(
            state, {n: getattr(params, n) for n in free},
            {n: grads[getattr(pv, n)] for n in free}, config.lr))
    return params, rows


class TestStage1KeypointRows:
    def test_matches_full_mesh_reference(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        config = fitting.FitConfig(stage1_epochs=50)
        fitted, rows = fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config),
                                          config)
        ref, ref_rows = _stage1_full_mesh(model, obs, cams, config)
        for name in fitting.PARAM_ORDER:
            assert np.abs(getattr(fitted, name) - getattr(ref, name)).max() < 1e-12, name
        got, want = np.array(rows), np.array(ref_rows)
        assert got.shape == want.shape == (50, 5)
        scale = np.maximum(np.abs(want), np.finfo(float).tiny)
        assert (np.abs(got - want) / scale)[:, [1, 4]].max() < 1e-12
        assert np.array_equal(got[:, [0, 2, 3]], want[:, [0, 2, 3]])

    def test_evaluates_and_projects_keypoint_rows_only(self, model, stage1_setup,
                                                       monkeypatch):
        # the codes stay fixed, so the field runs once per stage, off the
        # epoch tapes; each epoch projects the (12, 3) keypoint rows once
        asset, _ = model
        _, cams, obs = stage1_setup
        k = len(asset.keypoint_ids)
        seen = {"field": [], "forward": [], "project": []}

        def recording(key, fn, what):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                seen[key].append(what(args, out))
                return out
            return wrapped

        monkeypatch.setattr(fm, "_field", recording(
            "field", fm._field, lambda a, out: out[-1].shape))
        monkeypatch.setattr(fm, "forward", recording(
            "forward", fm.forward, lambda a, out: out.shape))
        monkeypatch.setattr(renderer, "project_vertices_var", recording(
            "project", renderer.project_vertices_var, lambda a, out: (a[0].shape, list(a[1]))))
        config = fitting.FitConfig(stage1_epochs=3)
        fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config), config)
        assert seen["field"] == [(k, 3)]
        assert seen["forward"] == [(k, 3)] * 3
        assert seen["project"] == [((k, 3), cams)] * 3


def test_stage1_tape_nodes_do_not_grow_with_views(model, stage1_setup, monkeypatch):
    _, cams, obs = stage1_setup
    nodes = []
    backward = ad.Tape.backward

    def counting(tape, out):
        nodes.append(len(tape))
        return backward(tape, out)

    monkeypatch.setattr(ad.Tape, "backward", counting)
    config = fitting.FitConfig(stage1_epochs=1)
    for n in (2, 3):
        fitting.fit_stage1(model, fitting.FitInput.build(cams[:n], obs[:n], config), config)
    assert nodes[0] == nodes[1] == 10


@pytest.fixture(scope="module")
def stage2_views(model):
    """Three views of a random foot at 60×80: (gt, cameras, observations)."""
    asset, field = model
    rng = np.random.default_rng(31)
    gt = synth.random_scene_params(rng, field.d_s, field.d_p)
    mesh = fm.forward_mesh(asset, field, gt)
    arc = cam_mod.ArcSamplerConfig(width=60, height=80)
    cams = [cam_mod.sample_arc(arc, np.random.default_rng(200 + i))
            for i in range(3)]
    obs = [synth.render_view(mesh, asset.keypoint_ids, c, 0.0, 0.01,
                             np.random.default_rng(300 + i)).obs
           for i, c in enumerate(cams)]
    return gt, cams, obs


@pytest.fixture(scope="module")
def stage2_setup(stage2_views):
    gt, cams, obs = stage2_views
    return gt, cams[:2], obs[:2]


class TestStage2:
    def test_descends_and_traces(self, model, stage2_setup):
        gt, cams, obs = stage2_setup
        config = fitting.FitConfig(stage1_epochs=150, stage2_epochs=30)
        data = fitting.FitInput.build(cams, obs, config)
        start, _ = fitting.fit_stage1(model, data, config)
        fitted, rows = fitting.fit_stage2(model, data, start, config)
        assert len(rows) == 30
        assert rows[-1][4] < rows[0][4]
        # silhouette and normal terms are live in stage 2
        assert any(r[2] > 0.0 for r in rows)
        assert any(r[3] != 0.0 for r in rows)
        assert not np.array_equal(fitted.z_s, start.z_s)

    def test_deterministic(self, model, stage2_setup):
        _, cams, obs = stage2_setup
        config = fitting.FitConfig(stage2_epochs=5)
        start = fm.FootParams.identity()
        a, _ = fitting.fit_stage2(model, fitting.FitInput.build(cams, obs, config), start, config)
        b, _ = fitting.fit_stage2(model, fitting.FitInput.build(cams, obs, config), start, config)
        for name in fitting.PARAM_ORDER:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_one_normal_pass_and_one_projection_per_view(self, model, stage2_setup,
                                                         monkeypatch):
        _, cams, obs = stage2_setup
        calls = {key: 0 for key in ("normals", "project", "rasterize", "render_normals",
                                    "soft", "normal_fit", "sil_l2")}

        def counting(key, fn, per_view=None):
            # args[per_view] holds the cameras, or one entry per camera
            def wrapped(*args, **kwargs):
                calls[key] += 1
                if per_view is not None:
                    seen = list(args[per_view])
                    assert len(seen) == len(cams)
                    if key in ("project", "render_normals", "soft"):
                        assert seen == cams
                return fn(*args, **kwargs)
            return wrapped

        for module, name, key, per_view in (
                (renderer, "vertex_normals_var", "normals", None),
                (renderer, "project_vertices_var", "project", 1),
                (renderer, "rasterize", "rasterize", None),
                (renderer, "render_normals_var", "render_normals", 2),
                (renderer, "render_silhouette_soft_var", "soft", 1),
                (losses, "normal_fit_loss", "normal_fit", 1),
                (losses, "silhouette_l2", "sil_l2", 3)):
            monkeypatch.setattr(module, name, counting(key, getattr(module, name), per_view))
        config = fitting.FitConfig(stage2_epochs=3)
        data = fitting.FitInput.build(cams, obs, config)
        fitting.fit_stage2(model, data, fm.FootParams.identity(), config)
        assert calls == {"normals": 3, "project": 3, "rasterize": 3 * len(cams),
                         "render_normals": 3, "soft": 3, "normal_fit": 3, "sil_l2": 3}

    def test_tape_nodes_do_not_grow_with_views(self, model, stage2_views, monkeypatch):
        _, cams, obs = stage2_views
        nodes = []
        backward = ad.Tape.backward

        def counting(tape, out):
            nodes.append(len(tape))
            return backward(tape, out)

        monkeypatch.setattr(ad.Tape, "backward", counting)
        config = fitting.FitConfig(stage2_epochs=1)
        for n in (2, 3):
            fitting.fit_stage2(model, fitting.FitInput.build(cams[:n], obs[:n], config),
                               fm.FootParams.identity(), config)
        assert nodes[0] == nodes[1] == 15

    def test_no_view_covers_the_foot(self, model, stage2_setup):
        # every view scores no pixel: the normal term is 0, not 0/0
        _, cams, obs = stage2_setup
        start = fm.FootParams.identity()
        start.t[0] = 5.0
        config = fitting.FitConfig(stage2_epochs=2)
        fitted, rows = fitting.fit_stage2(model, fitting.FitInput.build(cams, obs, config),
                                          start, config)
        targets = [losses.silhouette_from_uncertainty(o.normals.kappa,
                                                      config.sil_threshold_deg)
                   for o in obs]
        assert [r[3] for r in rows] == [0.0, 0.0]
        assert rows[0][2] == pytest.approx(np.mean([t.mean() for t in targets]))
        assert np.all(np.isfinite(fitted.t)) and not np.array_equal(fitted.t, start.t)

    def test_zero_epochs_builds_nothing(self, model, stage2_setup, monkeypatch):
        _, cams, obs = stage2_setup

        def forbidden(*args, **kwargs):
            raise AssertionError("stage 2 with no epochs built render inputs")

        config = fitting.FitConfig(stage2_epochs=0)
        data = fitting.FitInput.build(cams, obs, config)
        monkeypatch.setattr(renderer.ContourTopology, "build", forbidden)
        monkeypatch.setattr(losses, "silhouette_from_uncertainty", forbidden)
        start = fm.FootParams.identity()
        fitted, rows = fitting.fit_stage2(model, data, start, config)
        assert rows == []
        for name in fitting.PARAM_ORDER:
            assert np.array_equal(getattr(fitted, name), getattr(start, name))


@pytest.mark.parametrize("stage", [1, 2])
def test_each_epoch_tape_dies_before_the_next(model, stage1_setup, stage2_setup,
                                              stage, monkeypatch):
    # an epoch's tape holds every array of that epoch: a fit that keeps the
    # previous one alive while it builds the next peaks with two epochs live
    made, alive = [], []

    class RecordedTape(ad.Tape):
        def __init__(self):
            super().__init__()
            alive.append(sum(ref() is not None for ref in made))
            made.append(weakref.ref(self))

    monkeypatch.setattr(fitting.ad, "Tape", RecordedTape)
    config = fitting.FitConfig(stage1_epochs=3, stage2_epochs=3)
    gc.disable()
    try:
        if stage == 1:
            _, cams, obs = stage1_setup
            fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config), config)
        else:
            _, cams, obs = stage2_setup
            fitting.fit_stage2(model, fitting.FitInput.build(cams, obs, config),
                               fm.FootParams.identity(), config)
    finally:
        gc.enable()
    assert len(made) >= 3
    assert alive == [0] * len(made)


# ---------------------------------------------------------------------------
# Reference for stage 2: the per-view image chain that scoring the pixel
# lists of all views at once replaced, with the op-by-op vertex normals.

def _image_normals(n_world, faces, cam, frag):
    """One view's camera-frame normal map (H,W,3) as a Var."""
    tape = n_world.tape
    H, W = cam.height, cam.width
    n_cam = chainref.matmul(n_world, tape.const(cam.R.T))
    flat = frag.pixels
    if flat.size == 0:
        return tape.const(np.zeros((H, W, 3)))
    fsel, bary = frag.face, frag.bary
    n0 = chainref.take(n_cam, faces[fsel, 0])
    n1 = chainref.take(n_cam, faces[fsel, 1])
    n2 = chainref.take(n_cam, faces[fsel, 2])
    n_pix = add(add(mul(n0, bary[:, 0:1]), mul(n1, bary[:, 1:2])), mul(n2, bary[:, 2:3]))
    n_pix = div(n_pix, chainref.norm2(n_pix, axis=1, keepdims=True))
    idx = flat[:, None] * 3 + np.arange(3)[None, :]
    return chainref.reshape(scatter_into(np.zeros(H * W * 3), idx, n_pix), (H, W, 3))


def _image_normal_loss(n_map, obs, mask):
    flat = np.nonzero(mask.reshape(-1))[0]
    if flat.size == 0:
        return n_map.tape.const(0.0)
    H, W = mask.shape
    n_sel = chainref.take(chainref.reshape(n_map, (H * W, 3)), flat)
    dot = vsum(mul(n_sel, obs.mu.reshape(-1, 3)[flat]), axis=1)
    return mul(vsum(mul(chainref.acos_safe(dot), obs.kappa.reshape(-1)[flat])),
               1.0 / flat.size)


def _image_silhouette(pix_var, cam, frag, topo, sharpness):
    """One view's soft silhouette (H,W) as a Var, from its (V,2) pixels."""
    mask = frag.mask
    contour = renderer._contour_edges(topo, frag.front_faces)
    if contour.size == 0 or not mask.any() or mask.all():
        return pix_var.tape.const(mask.astype(np.float64))
    band = max(3.0, 12.0 / sharpness)
    flat = renderer._band_pixels(mask, band)
    pix = pix_var.value
    ii, jj = np.divmod(flat, cam.width)
    pc = np.stack([jj + 0.5, ii + 0.5], axis=1)
    nearest = contour[renderer._nearest_edge(pc, pix[contour[:, 0]],
                                             pix[contour[:, 1]], band + 1.5)]
    sign = np.where(mask.reshape(-1)[flat], 1.0, -1.0)
    vals = renderer._edge_sigmoid(pix_var, nearest[:, 0], nearest[:, 1], pc,
                                  sign * sharpness)
    return scatter_into(mask.astype(np.float64), flat, vals)


def _image_l2(soft, target):
    d = sub(soft, target)
    return mul(vsum(mul(d, d)), 1.0 / target.size)


def _image_stage2_epoch(model, observations, cameras, config, params):
    """One stage-2 epoch with every view's normal map and soft silhouette
    rendered as an image and scored on its own: (gradients, l_sil, l_norm)."""
    asset, field = model
    faces = asset.mesh.faces
    topo = renderer.ContourTopology.build(asset.mesh)
    targets = [losses.silhouette_from_uncertainty(o.normals.kappa, config.sil_threshold_deg)
               for o in observations]
    tape = ad.Tape()
    pv = fm.lift_params(tape, params, train=fitting.PARAM_ORDER)
    verts = fm.forward(asset, field, pv)
    mesh_now = asset.mesh.copy_with(verts.value)
    n_world = chainref.vertex_normals_var(verts, faces)
    proj = renderer.project_vertices_var(verts, cameras)
    kp, _ = renderer.project_keypoints_var(proj, asset.keypoint_ids,
                                           renderer.image_size(cameras))
    l_kp = losses.kp_fit_loss(kp, losses.KeypointObservation.stack(
        [o.keypoints for o in observations]))
    l_sil = l_norm = tape.const(0.0)
    for view, cam in enumerate(cameras):
        frag = rasterize_mesh(mesh_now, cam)
        n_map = _image_normals(n_world, faces, cam, frag)
        l_norm = add(l_norm, _image_normal_loss(n_map, observations[view].normals,
                                                frag.mask & targets[view]))
        soft = _image_silhouette(index(proj[0], view), cam, frag, topo, config.sharpness)
        l_sil = add(l_sil, _image_l2(soft, targets[view].astype(np.float64)))
    l_sil = mul(l_sil, 1.0 / len(cameras))
    l_norm = mul(l_norm, 1.0 / len(cameras))
    total = chainref.weighted_total((l_kp, l_sil, l_norm),
                                    (config.w_kp, config.w_sil, config.w_norm))
    grads = tape.backward(total)
    return ({n: grads[getattr(pv, n)] for n in fitting.PARAM_ORDER},
            float(l_sil.value), float(l_norm.value))


@pytest.fixture(scope="module")
def ac05_fit_start(model, tmp_path_factory):
    """AC-05's scene and its stage-1 fit: (gt mesh, cameras, observations,
    stage-1 parameters)."""
    asset, field = model
    gt = synth.random_scene_params(np.random.default_rng(23), field.d_s, field.d_p)
    spec = synth.SceneSpec(gt, arc=cam_mod.ArcSamplerConfig(width=160, height=120),
                           n_views=8, sigma_view_deg=5.0, seed=9)
    out = str(tmp_path_factory.mktemp("ac05"))
    synth.generate_scene(spec, model, out)
    _, cams, obs = synth.load_scene(out)
    config = fitting.FitConfig(stage1_epochs=150)
    start, _ = fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, config), config)
    return fm.forward_mesh(asset, field, gt), cams, obs, start


class TestFitInput:
    def test_views_hold_no_image_sized_float(self, ac05_fit_start):
        _, cams, obs, _ = ac05_fit_start
        data = fitting.FitInput.build(cams, obs, fitting.FitConfig())
        assert len(data.views) == len(cams)
        for cam, view in zip(cams, data.views):
            assert view.target.shape == (cam.height, cam.width)
            assert view.target.dtype == bool
            assert view.mu.shape == (3, view.target.sum())
            for name, value in vars(view).items():
                if value.dtype == np.float64:
                    assert value.size < cam.height * cam.width, name

    def test_reads_views_one_at_a_time(self, stage2_views):
        # a generator that loads views: each view's images are gone before
        # the next view loads
        _, cams, obs = stage2_views
        live, loaded = [], []

        def loaded_copy(o):
            live.append([ref() is not None for ref in loaded])
            normals = losses.NormalObservation(o.normals.mu.copy(), o.normals.kappa.copy())
            loaded.append(weakref.ref(normals.mu))
            return replace(o, normals=normals)

        def load():
            for o in obs:
                yield loaded_copy(o)

        gc.disable()
        try:
            data = fitting.FitInput.build(cams, load(), fitting.FitConfig())
        finally:
            gc.enable()
        assert live == [[False] * i for i in range(len(cams))]
        want = fitting.FitInput.build(cams, obs, fitting.FitConfig())
        for got, ref in zip(data.views, want.views):
            for name in ("target", "pixels", "mu", "kappa"):
                assert np.array_equal(getattr(got, name), getattr(ref, name))


def _blind_camera(cam):
    """``cam`` moved 5 m sideways: the foot leaves its image."""
    return replace(cam, t=cam.t + np.array([5.0, 0.0, 0.0]))


def _inside_camera(mesh, cam):
    """``cam`` zoomed 10× into an 8×6 image centred on the covered pixel of
    ``mesh`` farthest from the silhouette: full coverage, so no band."""
    mask = rasterize_mesh(mesh, cam).mask
    i, j = np.unravel_index(np.argmax(ndimage.distance_transform_edt(mask)), mask.shape)
    zoom = 10.0
    return replace(cam, fx=cam.fx * zoom, fy=cam.fy * zoom,
                   cx=4.0 - zoom * (j + 0.5 - cam.cx), cy=3.0 - zoom * (i + 0.5 - cam.cy),
                   width=8, height=6)


class TestStage2AgainstImageChain:
    @pytest.mark.parametrize("extra", ["none", "blind", "inside"])
    def test_one_epoch_matches(self, model, ac05_fit_start, monkeypatch, extra):
        asset, field = model
        gt_mesh, cams, obs, start = ac05_fit_start
        cams, obs = list(cams), list(obs)
        if extra != "none":
            start_mesh = fm.forward_mesh(asset, field, start)
            cam = (_blind_camera(cams[0]) if extra == "blind"
                   else _inside_camera(start_mesh, cams[0]))
            frag = rasterize_mesh(start_mesh, cam)
            if extra == "blind":
                assert not frag.mask.any()
            else:
                assert frag.mask.all()
            cams.append(cam)
            obs.append(synth.render_view(gt_mesh, asset.keypoint_ids, cam, 5.0, 0.01,
                                         np.random.default_rng(5)).obs)
        config = fitting.FitConfig(stage2_epochs=1)
        seen = []
        adam_step = fitting.adam_step

        def recording(state, values, grads, lr):
            seen.append(grads)
            return adam_step(state, values, grads, lr)

        monkeypatch.setattr(fitting, "adam_step", recording)
        _, rows = fitting.fit_stage2(model, fitting.FitInput.build(cams, obs, config),
                                     start, config)
        want, l_sil, l_norm = _image_stage2_epoch(model, obs, cams, config, start)
        # the fused normal nodes sum in another order than the image chain:
        # gradients agree to 1e-13 of each group's scale (measured 1.4e-14)
        for name in fitting.PARAM_ORDER:
            scale = np.abs(want[name]).max()
            np.testing.assert_allclose(seen[0][name], want[name], rtol=0,
                                       atol=1e-13 * scale, err_msg=name)
        _, _, got_sil, got_norm, _ = rows[0]
        assert l_sil > 0 and l_norm > 0
        assert abs(got_sil - l_sil) <= 1e-14 * l_sil
        assert abs(got_norm - l_norm) <= 1e-14 * l_norm
