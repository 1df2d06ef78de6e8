"""Pinhole cameras, the package's one projection, and arc-of-views sampling.

Camera frame convention used across the package: right-handed with x
right, y down, z forward (the camera looks down +z).  World points map
to the camera frame as X = R p + t, and front-facing surface normals
expressed in this frame have n_z < 0.  The synthetic floor is the world
plane z = 0, so "vertical" means the world +z axis.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Camera", "ArcSamplerConfig", "project", "look_at",
    "make_camera", "sample_arc", "scale_camera",
    "save_cameras", "load_cameras", "Z_NEAR",
]

Z_NEAR = 1e-6   # m; the divisor clamp, the rasterizer's cull and keypoint visibility


@dataclass(frozen=True)
class Camera:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int
    R: np.ndarray            # (3,3) world→camera rotation
    t: np.ndarray            # (3,) world→camera translation, meters

    def __post_init__(self):
        object.__setattr__(self, "R", np.asarray(self.R, dtype=np.float64).reshape(3, 3))
        object.__setattr__(self, "t", np.asarray(self.t, dtype=np.float64).reshape(3))
        if self.fx <= 0 or self.fy <= 0:
            raise ValueError("focal lengths must be positive")
        if self.width < 1 or self.height < 1:
            raise ValueError("image size must be at least 1x1")

    def center(self):
        """Camera position in world coordinates."""
        return -self.R.T @ self.t


@dataclass(frozen=True)
class ArcSamplerConfig:
    radius_range: tuple = (0.30, 0.40)          # meters
    polar_range: tuple = (-0.4 * np.pi, 0.4 * np.pi)  # radians from vertical
    lateral_range: tuple = (0.0, 0.10)          # meters along world x
    focal_mm: float = 30.0
    sensor_mm: float = 36.0                     # virtual sensor width
    width: int = 480
    height: int = 640

    def focal_pixels(self):
        return self.focal_mm / self.sensor_mm * self.width


def project(cameras, points):
    """Pixels (N,V,2) and camera-frame points (N,V,3) of world points (V,3)
    in N cameras: ``X = R p + t``, then ``(fx X/Z + cx, fy Y/Z + cy)``, the
    package's one pinhole projection.  The divisor Z is clamped into
    [Z_NEAR, 1e12], so pixels are finite; a point counts as in front of the
    camera only at ``cam_pts[..., 2] > Z_NEAR``, which callers test."""
    points = np.asarray(points, dtype=np.float64)
    cam_pts = np.stack([points @ cam.R.T + cam.t for cam in cameras])
    focal = np.array([[[cam.fx, cam.fy]] for cam in cameras])
    centre = np.array([[[cam.cx, cam.cy]] for cam in cameras])
    z_safe = np.clip(cam_pts[..., 2:3], Z_NEAR, 1e12)
    return cam_pts[..., :2] * focal / z_safe + centre, cam_pts


def look_at(position, target, up=(0.0, 1.0, 0.0)):
    """World→camera (R, t) with the optical axis through ``target``.

    ``up`` orients the image: camera y (image down) points opposite it.
    """
    position = np.asarray(position, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    fwd = target - position
    norm = np.linalg.norm(fwd)
    if norm == 0.0:
        raise ValueError("camera position equals target")
    z = fwd / norm
    y0 = -np.asarray(up, dtype=np.float64)
    x = np.cross(y0, z)
    xn = np.linalg.norm(x)
    if xn < 1e-12:
        raise ValueError("up direction parallel to view direction")
    x /= xn
    y = np.cross(z, x)
    R = np.stack([x, y, z], axis=0)
    return R, -R @ position


def make_camera(config: ArcSamplerConfig, R, t) -> Camera:
    f = config.focal_pixels()
    return Camera(fx=f, fy=f, cx=config.width / 2.0, cy=config.height / 2.0,
                  width=config.width, height=config.height, R=R, t=t)


def sample_arc(config: ArcSamplerConfig, rng) -> Camera:
    """One camera on a vertical arc above the origin, looking at the origin.

    Radius, polar angle from vertical, and a lateral offset of the arc
    center along world x are each uniform over their configured ranges.
    """
    radius = rng.uniform(*config.radius_range)
    polar = rng.uniform(*config.polar_range)
    lateral = rng.uniform(*config.lateral_range)
    position = np.array([lateral,
                         radius * np.sin(polar),
                         radius * np.cos(polar)])
    R, t = look_at(position, np.zeros(3))
    return make_camera(config, R, t)


def scale_camera(camera: Camera, factor: int) -> Camera:
    """Camera for an image downsampled by an integer factor.

    With pixel centers at half-integers, block-mean downsampling maps
    continuous coordinates as u -> u/factor, so intrinsics divide
    uniformly.  The image size must be divisible by the factor.
    """
    f = int(factor)
    if f < 1:
        raise ValueError("factor must be a positive integer")
    if f == 1:
        return camera
    if camera.width % f or camera.height % f:
        raise ValueError("image size not divisible by downsample factor")
    return replace(camera, fx=camera.fx / f, fy=camera.fy / f,
                   cx=camera.cx / f, cy=camera.cy / f,
                   width=camera.width // f, height=camera.height // f)


def _f17(x):
    return format(float(x), ".17g")


def save_cameras(path, cameras):
    """cameras.json: doubles with 17 significant digits, R row-major."""
    rows = []
    for c in cameras:
        rows.append(
            "  {"
            + f'"fx": {_f17(c.fx)}, "fy": {_f17(c.fy)}, '
            + f'"cx": {_f17(c.cx)}, "cy": {_f17(c.cy)}, '
            + f'"width": {c.width}, "height": {c.height}, '
            + '"R": [' + ", ".join(_f17(v) for v in c.R.ravel()) + "], "
            + '"t": [' + ", ".join(_f17(v) for v in c.t) + "]}"
        )
    with open(path, "w") as fh:
        fh.write("[\n" + ",\n".join(rows) + "\n]\n")


def load_cameras(path):
    with open(path) as fh:
        doc = json.load(fh)
    cams = []
    for row in doc:
        cams.append(Camera(fx=row["fx"], fy=row["fy"], cx=row["cx"], cy=row["cy"],
                           width=int(row["width"]), height=int(row["height"]),
                           R=np.array(row["R"], dtype=np.float64).reshape(3, 3),
                           t=np.array(row["t"], dtype=np.float64)))
    return cams
