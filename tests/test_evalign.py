import json

import numpy as np
import pytest
from scipy.spatial import cKDTree
from scipy.spatial.distance import cdist

from chainref import rasterize_mesh
from footfit import camera as cam_mod
from footfit import evalign, renderer
from footfit.footmodel import build_template
from footfit.geometry import euler_rotation, sample_surface


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def rotated_field(base, angle_deg, axis):
    """Constant normal map rotated away from base by a fixed angle."""
    axis = unit(axis)
    a = np.radians(angle_deg)
    rotated = (np.cos(a) * base + np.sin(a) * np.cross(axis, base))
    return rotated


@pytest.fixture(scope="module")
def template():
    return build_template()


class TestEvalNormals:
    def test_perfect_prediction(self):
        gt = np.tile(unit([0.3, -0.2, -0.9]), (6, 8, 1))
        mask = np.ones((6, 8), dtype=bool)
        rep = evalign.eval_normals(gt, gt, mask)
        assert rep["mean_deg"] == 0.0
        assert rep["median_deg"] == 0.0
        assert rep["rmse_deg"] == 0.0
        assert rep["pct_lt_11_25"] == 100.0
        assert rep["pct_lt_22_5"] == 100.0
        assert rep["pct_lt_30"] == 100.0
        assert rep["pixels"] == 48

    def test_uniform_ten_degrees(self):
        base = unit([0.0, 0.0, -1.0])
        gt = np.tile(base, (5, 5, 1))
        pred = np.tile(rotated_field(base, 10.0, [1.0, 0.0, 0.0]), (5, 5, 1))
        rep = evalign.eval_normals(pred, gt, np.ones((5, 5), dtype=bool))
        assert abs(rep["mean_deg"] - 10.0) < 1e-6
        assert abs(rep["median_deg"] - 10.0) < 1e-6
        assert abs(rep["rmse_deg"] - 10.0) < 1e-6
        assert rep["pct_lt_11_25"] == 100.0
        assert rep["pct_lt_22_5"] == 100.0

    def test_bimodal_half_forty(self):
        base = unit([0.0, 0.0, -1.0])
        gt = np.tile(base, (2, 10, 1))
        pred = gt.copy()
        pred[1, :] = rotated_field(base, 40.0, [0.0, 1.0, 0.0])
        rep = evalign.eval_normals(pred, gt, np.ones((2, 10), dtype=bool))
        assert rep["pct_lt_30"] == 50.0
        assert rep["median_deg"] == 0.0
        assert abs(rep["mean_deg"] - 20.0) < 1e-6
        assert abs(rep["rmse_deg"] - np.sqrt(800.0)) < 1e-6

    def test_cutoff_excludes_high_pixels(self):
        base = unit([0.0, 0.0, -1.0])
        gt = np.tile(base, (4, 4, 1))
        pred = gt.copy()
        pred[0, :] = rotated_field(base, 90.0, [1.0, 0.0, 0.0])
        heights = np.full((4, 4), 0.05)
        heights[0, :] = 0.5    # the corrupted row sits above the cutoff
        rep = evalign.eval_normals(pred, gt, np.ones((4, 4), dtype=bool),
                                   heights=heights)
        assert rep["pixels"] == 12
        assert rep["mean_deg"] == 0.0

    def test_empty_selection(self):
        gt = np.zeros((3, 3, 3))
        with pytest.raises(ValueError, match="empty"):
            evalign.eval_normals(gt, gt, np.zeros((3, 3), dtype=bool))

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(5)
        base = unit([0.0, 0.0, -1.0])
        gt = np.tile(base, (20, 20, 1))
        pred = np.empty_like(gt)
        angles = rng.uniform(0.0, 60.0, size=400).reshape(20, 20)
        for i in range(20):
            for j in range(20):
                pred[i, j] = rotated_field(base, angles[i, j], [1.0, 0.0, 0.0])
        rep = evalign.eval_normals(pred, gt, np.ones((20, 20), dtype=bool))
        assert rep["pct_lt_11_25"] <= rep["pct_lt_22_5"] <= rep["pct_lt_30"]


class TestPixelHeights:
    def test_matches_cutoff_fraction(self, template):
        mesh = template.mesh
        cam = cam_mod.sample_arc(
            cam_mod.ArcSamplerConfig(width=120, height=160),
            np.random.default_rng(2))
        frag = rasterize_mesh(mesh, cam)
        heights = renderer.pixel_heights(mesh, frag)
        assert np.all(np.isnan(heights[~frag.mask]))
        on = heights[frag.mask]
        assert on.min() >= mesh.vertices[:, 2].min() - 1e-9
        assert on.max() <= mesh.vertices[:, 2].max() + 1e-9
        frac = float((on > 0.1).mean())
        assert frac == renderer.cutoff_fraction(mesh, 0.1, frag)


def make_floor_cloud(rng, z=0.05, tilt=None, foot_sign=1.0):
    xs, ys = np.meshgrid(np.linspace(-0.15, 0.15, 20),
                         np.linspace(-0.15, 0.15, 20))
    plane = np.stack([xs.ravel(), ys.ravel(), np.full(400, z)], axis=1)
    foot = rng.normal(size=(44, 3)) * [0.05, 0.02, 0.02]
    foot[:, 2] = z + foot_sign * (0.02 + np.abs(foot[:, 2]))
    cloud = np.vstack([plane, foot])
    if tilt is not None:
        cloud = cloud @ tilt.T
    return cloud


class TestFitFloor:
    def test_plane_with_outliers(self):
        rng = np.random.default_rng(3)
        cloud = make_floor_cloud(rng)
        floor = evalign.fit_floor(cloud, seed=1)
        assert abs(floor.normal @ [0, 0, 1]) > np.cos(np.radians(0.5))
        assert np.abs(cloud[:400] @ floor.normal + floor.d).max() < 1e-9
        assert floor.inliers[:400].all()
        assert not floor.inliers[400:].any()

    def test_tilted_plane(self):
        rng = np.random.default_rng(4)
        R = euler_rotation((0.3, 0.2, 0.1))
        cloud = make_floor_cloud(rng, tilt=R)
        floor = evalign.fit_floor(cloud, seed=1)
        want = R @ np.array([0.0, 0.0, 1.0])
        assert abs(floor.normal @ want) > np.cos(np.radians(0.5))

    def test_coplanar_all_inliers(self):
        rng = np.random.default_rng(5)
        pts = np.zeros((50, 3))
        pts[:, :2] = rng.normal(size=(50, 2))
        floor = evalign.fit_floor(pts, seed=0)
        assert floor.inliers.all()

    def test_too_few_points(self):
        with pytest.raises(ValueError, match="at least 3"):
            evalign.fit_floor(np.zeros((2, 3)))

    def test_no_dominant_plane(self):
        rng = np.random.default_rng(6)
        blob = rng.uniform(-0.15, 0.15, size=(300, 3))
        with pytest.raises(ValueError, match="no dominant plane"):
            evalign.fit_floor(blob, seed=0)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        cloud = make_floor_cloud(rng)
        a = evalign.fit_floor(cloud, seed=9)
        b = evalign.fit_floor(cloud, seed=9)
        assert np.array_equal(a.normal, b.normal)
        assert a.d == b.d
        assert np.array_equal(a.inliers, b.inliers)


class TestLevelToFloor:
    def test_already_level_is_identity(self):
        rng = np.random.default_rng(8)
        cloud = make_floor_cloud(rng, z=0.0)
        floor = evalign.fit_floor(cloud, seed=0)
        _, R, t = evalign.level_to_floor(cloud, floor)
        assert np.abs(R - np.eye(3)).max() < 1e-12
        assert np.abs(t).max() < 1e-12

    def test_offset_plane_lands_at_zero(self):
        rng = np.random.default_rng(9)
        cloud = make_floor_cloud(rng, z=0.05)
        floor = evalign.fit_floor(cloud, seed=0)
        leveled, R, t = evalign.level_to_floor(cloud, floor)
        assert np.abs(leveled[:400, 2]).max() < 1e-9
        assert leveled[400:, 2].min() > 0.0

    def test_rigid(self):
        rng = np.random.default_rng(10)
        Rtilt = euler_rotation((0.4, -0.2, 0.9))
        cloud = make_floor_cloud(rng, tilt=Rtilt)
        floor = evalign.fit_floor(cloud, seed=0)
        leveled, R, t = evalign.level_to_floor(cloud, floor)
        assert abs(np.linalg.det(R) - 1.0) < 1e-12
        assert np.abs(R @ R.T - np.eye(3)).max() < 1e-12
        before = np.linalg.norm(cloud[:50] - cloud[50:100], axis=1)
        after = np.linalg.norm(leveled[:50] - leveled[50:100], axis=1)
        np.testing.assert_allclose(after, before, rtol=1e-12)

    def test_subject_ends_up_above(self):
        rng = np.random.default_rng(11)
        cloud = make_floor_cloud(rng, z=0.0, foot_sign=-1.0)
        floor = evalign.fit_floor(cloud, seed=0)
        leveled, _, _ = evalign.level_to_floor(cloud, floor)
        assert leveled[400:, 2].min() > 0.0
        assert np.abs(leveled[:400, 2]).max() < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        cloud = make_floor_cloud(rng, tilt=euler_rotation((0.2, 0.3, 0.0)))
        floor = evalign.fit_floor(cloud, seed=0)
        leveled, _, _ = evalign.level_to_floor(cloud, floor)
        floor2 = evalign.fit_floor(leveled, seed=0)
        again, R2, t2 = evalign.level_to_floor(leveled, floor2)
        assert np.abs(R2 - np.eye(3)).max() < 1e-9
        assert np.abs(t2).max() < 1e-9
        assert np.abs(again - leveled).max() < 1e-9


def blob_cloud(rng, n=800):
    return rng.normal(size=(n, 3)) * [0.08, 0.03, 0.02]


GT_ALIGN = evalign.AlignParams(0.3, 0.02, -0.01, 1.05)


class TestAlign4Param:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(14)
        src = blob_cloud(rng, 50)
        tgt = blob_cloud(rng, 60)
        a_idx = rng.integers(0, 60, size=50)
        b_idx = rng.integers(0, 50, size=60)
        pivot = src.mean(axis=0)
        vec = np.array([0.2, 0.01, -0.02, 1.1])
        _, grad = evalign._pooled_objective_and_grad(src, tgt, a_idx, b_idx,
                                                     vec, pivot)
        h = 1e-6
        for i in range(4):
            probe = vec.copy()
            probe[i] += h
            hi, _ = evalign._pooled_objective_and_grad(src, tgt, a_idx,
                                                       b_idx, probe, pivot)
            probe[i] -= 2 * h
            lo, _ = evalign._pooled_objective_and_grad(src, tgt, a_idx,
                                                       b_idx, probe, pivot)
            fd = (hi - lo) / (2 * h)
            assert abs(grad[i] - fd) < 1e-6 * max(1.0, abs(fd)), i

    def test_round_trip_recovery(self):
        rng = np.random.default_rng(15)
        src = blob_cloud(rng)
        tgt = GT_ALIGN.apply(src, src.mean(axis=0))
        res = evalign.align_4param(src, tgt)
        assert abs(res.params.theta_z - 0.3) < np.radians(0.5)
        assert abs(res.params.tx - 0.02) < 1e-3
        assert abs(res.params.ty + 0.01) < 1e-3
        assert abs(res.params.s / 1.05 - 1.0) < 0.005
        assert res.objective < 1e-3

    def test_identity_stays_identity(self):
        rng = np.random.default_rng(16)
        src = blob_cloud(rng)
        res = evalign.align_4param(src, src.copy())
        assert abs(res.params.theta_z) < np.radians(0.5)
        assert abs(res.params.tx) < 1e-3
        assert abs(res.params.ty) < 1e-3
        assert abs(res.params.s - 1.0) < 0.005

    def test_outlier_round(self):
        rng = np.random.default_rng(17)
        src = blob_cloud(rng)
        tgt = GT_ALIGN.apply(src, src.mean(axis=0))
        junk = rng.uniform(0.3, 0.6, size=(80, 3))
        res = evalign.align_4param(src, np.vstack([tgt, junk]))
        assert res.kept_target < len(tgt) + len(junk)
        assert abs(res.params.theta_z - 0.3) < np.radians(0.5)
        assert abs(res.params.tx - 0.02) < 1e-3
        assert abs(res.params.ty + 0.01) < 1e-3
        assert abs(res.params.s / 1.05 - 1.0) < 0.005

    def test_degenerate_cloud(self):
        with pytest.raises(ValueError, match="at least 10"):
            evalign.align_4param(np.zeros((5, 3)), np.zeros((50, 3)))

    def test_deterministic(self):
        rng = np.random.default_rng(19)
        src = blob_cloud(rng, 200)
        tgt = GT_ALIGN.apply(src, src.mean(axis=0))
        a = evalign.align_4param(src, tgt, steps=60)
        b = evalign.align_4param(src, tgt, steps=60)
        assert a.params == b.params

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError, match="scale"):
            evalign.AlignParams(s=0.0).validate()


class TestEval3D:
    def test_same_seed_all_zero(self, template):
        rep = evalign.eval_3d(template.mesh, template.mesh, n=500, seed=3)
        assert rep["mean_distance"] == 0.0
        assert rep["median_distance"] == 0.0
        # arccos of a self-dot carries ~1e-7 deg of rounding noise
        assert rep["mean_normal_deg"] < 1e-5
        assert rep["n_points"] == 500

    def test_different_seeds_within_sampling_density(self, template):
        rep = evalign.eval_3d(template.mesh, template.mesh, n=2000, seed=3,
                              gt_seed=4)
        pts = sample_surface(template.mesh, 2000, 3).points
        d, _ = cKDTree(pts).query(pts, k=2)
        spacing = d[:, 1].mean()
        assert 0.0 < rep["mean_distance"] < 2.0 * spacing

    def test_scaled_mesh_matches_brute_force(self, template):
        mesh = template.mesh
        c = mesh.vertices.mean(axis=0)
        scaled = mesh.copy_with(1.01 * (mesh.vertices - c) + c)
        rep = evalign.eval_3d(mesh, scaled, n=1500, seed=5)
        a = sample_surface(mesh, 1500, 5).points
        b = sample_surface(scaled, 1500, 5).points
        dm = cdist(a, b)
        brute = 0.5 * (dm.min(axis=1).mean() + dm.min(axis=0).mean())
        assert abs(rep["mean_distance"] - brute) < 1e-12
        assert 0.0002 < rep["mean_distance"] < 0.002


class TestReports:
    REPORT = {"mean_deg": 1.23456789, "pct_lt_30": 99.5, "pixels": 42}

    def test_json_round_trip(self):
        back = json.loads(evalign.report_json(self.REPORT))
        assert back == self.REPORT

    def test_table_alignment(self):
        text = evalign.report_table(self.REPORT, title="normals")
        lines = text.strip().split("\n")
        assert lines[0] == "normals"
        width = max(len(k) for k in self.REPORT)
        for line, key in zip(lines[2:], self.REPORT):
            assert line.startswith(f"{key:<{width}}  ")
        assert any("pixels" in line and "42" in line for line in lines)

    def test_csv(self):
        text = evalign.report_csv(self.REPORT)
        header, row = text.strip().split("\n")
        assert header.split(",") == list(self.REPORT)
        values = row.split(",")
        assert float(values[0]) == pytest.approx(1.23456789)
        assert values[2] == "42"
