import numpy as np
import pytest

from footfit import camera as cam_mod
from footfit import fitting
from footfit import footmodel as fm
from footfit import losses, renderer, synth


def _camera_at_y(y):
    return cam_mod.Camera(100.0, 100.0, 50.0, 50.0, 100, 100,
                          np.eye(3), np.array([0.0, -y, 0.3]))


def _kp_only_observation(mesh, kp_ids, cam):
    """Stage-1 style bundle: real keypoints, placeholder normal maps."""
    kp, vis = renderer.project_keypoints(mesh, kp_ids, cam)
    sigma = np.full((len(kp_ids), 2), 0.01)
    normals = losses.NormalObservation(np.zeros((2, 2, 3)), np.zeros((2, 2)))
    return losses.Observation(
        normals, losses.KeypointObservation(kp, sigma, vis),
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
        {"stage1_free": ("rot",)},
        {"stage2_free": ("r", "codes")},
    ])
    def test_rejects(self, kw):
        with pytest.raises(ValueError):
            fitting.FitConfig(**kw).validate()


class TestStage1:
    def test_recovers_registration(self, model, stage1_setup):
        gt, cams, obs = stage1_setup
        config = fitting.FitConfig(stage1_epochs=500)
        fitted, trace = fitting.fit_stage1(model, obs, cams, config)
        assert np.abs(fitted.r - gt.r).max() < 0.01
        assert np.abs(fitted.t - gt.t).max() < 0.001
        assert np.abs(fitted.s / gt.s - 1.0).max() < 0.005
        assert trace.totals()[-1] < trace.totals()[0]

    def test_trace_shape_and_codes_frozen(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        config = fitting.FitConfig(stage1_epochs=40)
        fitted, trace = fitting.fit_stage1(model, obs, cams, config)
        assert len(trace.rows) == 40
        assert len(trace.snapshots) == 2
        # silhouette/normal columns stay zero without rendering
        assert all(r[2] == 0.0 and r[3] == 0.0 for r in trace.rows)
        assert np.all(fitted.z_s == 0.0)
        assert np.all(fitted.z_p == 0.0)
        start = trace.snapshots[0]
        assert np.all(start.r == 0.0) and np.all(start.s == 1.0)

    def test_deterministic(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        config = fitting.FitConfig(stage1_epochs=25)
        a, _ = fitting.fit_stage1(model, obs, cams, config)
        b, _ = fitting.fit_stage1(model, obs, cams, config)
        for name in fitting.PARAM_ORDER:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_under_constrained(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        blind = [losses.Observation(
            o.normals,
            losses.KeypointObservation(o.keypoints.k, o.keypoints.sigma,
                                       np.zeros_like(o.keypoints.v)),
            o.mask) for o in obs]
        with pytest.raises(ValueError, match="under-constrained"):
            fitting.fit_stage1(model, blind, cams)

    def test_length_mismatch(self, model, stage1_setup):
        _, cams, obs = stage1_setup
        with pytest.raises(ValueError, match="per camera"):
            fitting.fit_stage1(model, obs[:-1], cams)


@pytest.fixture(scope="module")
def stage2_setup(model):
    asset, field = model
    rng = np.random.default_rng(31)
    gt = synth.random_scene_params(rng, field.d_s, field.d_p)
    mesh = fm.forward_mesh(asset, field, gt)
    arc = cam_mod.ArcSamplerConfig(width=60, height=80)
    cams = [cam_mod.sample_arc(arc, np.random.default_rng(200 + i))
            for i in range(2)]
    obs = [synth.render_view(mesh, asset.keypoint_ids, c, 0.0, 0.01,
                             np.random.default_rng(300 + i)).obs
           for i, c in enumerate(cams)]
    return gt, cams, obs


class TestStage2:
    def test_descends_and_traces(self, model, stage2_setup):
        gt, cams, obs = stage2_setup
        config = fitting.FitConfig(stage1_epochs=150, stage2_epochs=30)
        start, _ = fitting.fit_stage1(model, obs, cams, config)
        fitted, trace = fitting.fit_stage2(model, obs, cams, start, config)
        assert len(trace.rows) == 30
        assert trace.totals()[-1] < trace.totals()[0]
        # silhouette and normal terms are live in stage 2
        assert any(r[2] > 0.0 for r in trace.rows)
        assert any(r[3] != 0.0 for r in trace.rows)
        assert not np.array_equal(fitted.z_s, start.z_s)

    def test_deterministic(self, model, stage2_setup):
        _, cams, obs = stage2_setup
        config = fitting.FitConfig(stage2_epochs=5)
        start = fm.FootParams.identity()
        a, _ = fitting.fit_stage2(model, obs, cams, start, config)
        b, _ = fitting.fit_stage2(model, obs, cams, start, config)
        for name in fitting.PARAM_ORDER:
            assert np.array_equal(getattr(a, name), getattr(b, name)), name

    def test_one_normal_pass_and_one_projection_per_view(self, model, stage2_setup,
                                                         monkeypatch):
        _, cams, obs = stage2_setup
        calls = {"normals": 0, "project": 0}

        def counting(key, fn):
            def wrapped(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(renderer, "vertex_normals_var",
                            counting("normals", renderer.vertex_normals_var))
        monkeypatch.setattr(renderer, "project_vertices_var",
                            counting("project", renderer.project_vertices_var))
        config = fitting.FitConfig(stage2_epochs=3)
        fitting.fit_stage2(model, obs, cams, fm.FootParams.identity(), config)
        assert calls == {"normals": 3, "project": 3 * len(cams)}

    def test_zero_epochs_builds_nothing(self, model, stage2_setup, monkeypatch):
        _, cams, obs = stage2_setup

        def forbidden(*args, **kwargs):
            raise AssertionError("stage 2 with no epochs built render inputs")

        monkeypatch.setattr(renderer.ContourTopology, "build", forbidden)
        monkeypatch.setattr(losses, "silhouette_from_uncertainty", forbidden)
        start = fm.FootParams.identity()
        fitted, trace = fitting.fit_stage2(model, obs, cams, start,
                                           fitting.FitConfig(stage2_epochs=0))
        assert trace.rows == []
        for name in fitting.PARAM_ORDER:
            assert np.array_equal(getattr(fitted, name), getattr(start, name))
