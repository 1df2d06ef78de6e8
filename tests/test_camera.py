import numpy as np
import pytest

from footfit import camera as cam


def identity_camera(fx=500.0, fy=500.0, cx=320.0, cy=240.0, w=640, h=480):
    return cam.Camera(fx=fx, fy=fy, cx=cx, cy=cy, width=w, height=h,
                      R=np.eye(3), t=np.zeros(3))


def project_one(camera, point):
    """Pixel (2,) and depth of one world point in one camera."""
    pix, cam_pts = cam.project([camera], [point])
    return pix[0, 0], cam_pts[0, 0, 2]


class TestProject:
    def test_optical_axis(self):
        pixel, depth = project_one(identity_camera(), [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(pixel, [320.0, 240.0])
        assert depth == 1.0

    def test_offset_point(self):
        pixel, _ = project_one(identity_camera(), [0.1, 0.0, 1.0])
        np.testing.assert_allclose(pixel, [370.0, 240.0], rtol=1e-12)

    def test_behind_camera_flagged(self):
        # the divisor is clamped to Z_NEAR: finite pixels at and behind
        # the camera plane, flagged by their depth
        for z in (-1.0, 0.0):
            pixel, depth = project_one(identity_camera(), [0.1, 0.0, z])
            assert depth <= cam.Z_NEAR
            np.testing.assert_array_equal(pixel, [320.0 + 500.0 * 0.1 / cam.Z_NEAR, 240.0])

    def test_batched_over_cameras(self):
        c = identity_camera()
        other = cam.Camera(fx=300.0, fy=310.0, cx=20.0, cy=30.0, width=64, height=48,
                           R=cam.look_at([0.2, 0.1, -0.5], [0.0, 0.0, 0.3])[0],
                           t=[0.01, -0.02, 0.6])
        pts = np.random.default_rng(3).normal(size=(7, 3)) * 0.1 + [0.0, 0.0, 0.5]
        pix, cam_pts = cam.project([c, other], pts)
        assert pix.shape == (2, 7, 2) and cam_pts.shape == (2, 7, 3)
        for view, camera in enumerate([c, other]):
            X = pts @ camera.R.T + camera.t
            np.testing.assert_array_equal(cam_pts[view], X)
            np.testing.assert_array_equal(
                pix[view], np.stack([camera.fx * X[:, 0] / X[:, 2] + camera.cx,
                                     camera.fy * X[:, 1] / X[:, 2] + camera.cy], axis=1))


class TestLookAt:
    def test_axis_case(self):
        R, t = cam.look_at([0, 0, -1.0], [0, 0, 0])
        c = cam.Camera(fx=100, fy=100, cx=50, cy=50, width=100, height=100, R=R, t=t)
        pixel, depth = project_one(c, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(pixel, [50.0, 50.0], atol=1e-12)
        np.testing.assert_allclose(depth, 1.0, rtol=1e-12)

    def test_target_hits_principal_point(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            pos = rng.normal(size=3)
            target = rng.normal(size=3)
            if np.linalg.norm(target - pos) < 1e-3:
                continue
            view = target - pos
            up = rng.normal(size=3)
            if np.linalg.norm(np.cross(up, view)) < 1e-3:
                continue
            R, t = cam.look_at(pos, target, up)
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.linalg.det(R), 1.0, rtol=1e-12)
            c = cam.Camera(fx=200, fy=200, cx=64, cy=64, width=128, height=128, R=R, t=t)
            pixel, depth = project_one(c, target)
            assert depth > 0
            np.testing.assert_allclose(pixel, [64.0, 64.0], atol=1e-9)

    def test_degenerate_inputs(self):
        with pytest.raises(ValueError):
            cam.look_at([1, 2, 3], [1, 2, 3])
        with pytest.raises(ValueError):
            cam.look_at([0, 0, -1.0], [0, 0, 0], up=(0, 0, 1.0))


class TestSampleArc:
    def test_radius_and_framing(self):
        config = cam.ArcSamplerConfig()
        rng = np.random.default_rng(0)
        for _ in range(10_000):
            c = cam.sample_arc(config, rng)
            center = c.center()
            lateral_point = np.array([center[0], 0.0, 0.0])
            r = np.linalg.norm(center - lateral_point)
            assert 0.30 <= r <= 0.40
            pixel, depth = project_one(c, np.zeros(3))
            assert depth > 0
            assert 0 <= pixel[0] <= c.width and 0 <= pixel[1] <= c.height

    def test_degenerate_polar_range(self):
        config = cam.ArcSamplerConfig(polar_range=(0.0, 0.0), lateral_range=(0.0, 0.0))
        c = cam.sample_arc(config, np.random.default_rng(1))
        center = c.center()
        np.testing.assert_allclose(center[:2], [0.0, 0.0], atol=1e-12)
        assert 0.30 <= center[2] <= 0.40

    def test_same_seed_identical(self):
        config = cam.ArcSamplerConfig()
        a = cam.sample_arc(config, np.random.default_rng(7))
        b = cam.sample_arc(config, np.random.default_rng(7))
        np.testing.assert_array_equal(a.R, b.R)
        np.testing.assert_array_equal(a.t, b.t)


class TestCameraIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(9)
        config = cam.ArcSamplerConfig()
        cams = [cam.sample_arc(config, rng) for _ in range(5)]
        path = tmp_path / "cameras.json"
        cam.save_cameras(path, cams)
        back = cam.load_cameras(path)
        assert len(back) == len(cams)
        for a, b in zip(cams, back):
            np.testing.assert_array_equal(a.R, b.R)
            np.testing.assert_array_equal(a.t, b.t)
            assert (a.fx, a.fy, a.cx, a.cy, a.width, a.height) == \
                   (b.fx, b.fy, b.cx, b.cy, b.width, b.height)


class TestScaleCamera:
    def test_projection_scales_exactly(self):
        c = identity_camera()
        half = cam.scale_camera(c, 2)
        assert (half.width, half.height) == (320, 240)
        pts = np.random.default_rng(11).normal(size=(20, 3)) * 0.1
        pts[:, 2] += 0.5
        (full, small), _ = cam.project([c, half], pts)
        np.testing.assert_array_equal(small, full / 2.0)

    def test_factor_one_is_same_object(self):
        c = identity_camera()
        assert cam.scale_camera(c, 1) is c

    def test_rejects_indivisible(self):
        c = identity_camera(w=641, h=480)
        with pytest.raises(ValueError, match="divisible"):
            cam.scale_camera(c, 2)

    def test_rejects_bad_factor(self):
        c = identity_camera()
        with pytest.raises(ValueError):
            cam.scale_camera(c, 0)
