"""Synthetic multi-view label generation.

A scene is a ground-truth model instance observed from an arc of
cameras.  Each view gets a label bundle: noiseless GT normal map,
perturbed mean-direction map with a calibrated concentration map,
coverage mask, keypoints with visibility, and a Lambert-shaded image.
Noise on directions is a folded-normal angle about a random tangent
axis, and kappa is chosen so the expected angular error matches the
mean of that folded normal, making the synthesized uncertainty
calibrated by construction.

Scene directory layout::

    scene.json            spec echo (JSON)
    cameras.json
    view_000/
        image.ppm         shaded 8-bit image
        gt_normals.pfm    noiseless camera-frame normals
        mu.pfm            perturbed directions (what fitting consumes)
        kappa.pfm
        mask.pgm
        keypoints.json
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field as dc_field, asdict

import numpy as np

from . import autodiff as ad
from . import camera as cam_mod
from . import footmodel as fm
from . import images
from . import losses
from . import renderer

__all__ = [
    "SceneSpec", "ViewBundle", "synthesize_kappa", "render_view",
    "generate_scene", "load_scene_meta", "load_view", "load_scene",
    "scene_gt_params", "random_scene_params",
]

CALIBRATION = np.sqrt(2.0 / np.pi)   # mean of |N(0,1)|
CUTOFF_COVER_MAX = 0.20
AMBIENT, DIFFUSE = 0.25, 0.7
CODE_SCALE = 0.6                     # std of the drawn shape and pose codes


@dataclass
class SceneSpec:
    params: fm.FootParams
    arc: cam_mod.ArcSamplerConfig = dc_field(default_factory=cam_mod.ArcSamplerConfig)
    n_views: int = 8
    cutoff: float = 0.20
    sigma_view_deg: float = 5.0      # normal noise of every view
    kp_sigma: float = 0.01           # reported keypoint spread, normalized units
    seed: int = 0

    def validate(self):
        if self.n_views < 1:
            raise ValueError("need at least one view")
        if not 0 <= self.cutoff < np.inf:
            raise ValueError("cutoff height must be non-negative and finite")
        if not 0 <= self.sigma_view_deg < np.inf:
            raise ValueError("view noise must be non-negative and finite")
        if not 0 < self.kp_sigma < np.inf:
            raise ValueError("keypoint spread must be positive and finite")
        self.params.validate()
        return self


@dataclass
class ViewBundle:
    """Everything one view contributes: camera, labels, shaded image,
    and the noiseless normal map the labels were synthesized from."""
    camera: cam_mod.Camera
    obs: losses.Observation
    image: np.ndarray        # (H,W,3) float in [0,1]
    gt_normals: np.ndarray   # (H,W,3), zero off-mask


def random_scene_params(rng, d_s=8, d_p=8):
    """Registration and code draw used for synthetic scenes: a foot
    roughly at the origin, as a handheld capture rig would frame it."""
    return fm.FootParams(rng.uniform(-0.06, 0.06, 3),
                         rng.uniform(-0.01, 0.01, 3),
                         rng.uniform(0.98, 1.02, 3),
                         rng.normal(size=d_s) * CODE_SCALE,
                         rng.normal(size=d_p) * CODE_SCALE)


def synthesize_kappa(gt_normals, mask, sigma_deg, rng):
    """Perturbed direction map and calibrated concentration map.

    Foreground directions are the GT normals rotated by folded-normal
    angles about per-pixel random tangent axes; kappa solves
    expected_angular_error(kappa) = mean folded-normal angle.  sigma 0
    gives exact directions at the lookup's top concentration.
    Background stays (0,0,0) with kappa 0.
    """
    if sigma_deg < 0:
        raise ValueError("sigma must be non-negative")
    H, W = mask.shape
    mu = np.zeros((H, W, 3))
    kappa = np.zeros((H, W))
    n = gt_normals[mask]
    if sigma_deg == 0.0:
        kappa[mask] = losses.kappa_for_expected_error(0.0)
        mu[mask] = n
        return mu, kappa
    kappa[mask] = losses.kappa_for_expected_error(CALIBRATION * sigma_deg)
    P = len(n)
    alpha = np.abs(rng.normal(0.0, np.radians(sigma_deg), size=P))
    v = rng.normal(size=(P, 3))
    t = v - (v * n).sum(axis=1, keepdims=True) * n
    norms = np.linalg.norm(t, axis=1, keepdims=True)
    # a draw parallel to n has no tangent part; fall back to any
    # perpendicular direction (measure-zero event)
    bad = norms[:, 0] < 1e-9
    if bad.any():
        alt = np.cross(n[bad], [[1.0, 0.0, 0.0]])
        alt_n = np.linalg.norm(alt, axis=1, keepdims=True)
        small = alt_n[:, 0] < 1e-9
        alt[small] = np.cross(n[bad][small], [0.0, 1.0, 0.0])
        t[bad] = alt
        norms = np.linalg.norm(t, axis=1, keepdims=True)
    t = t / norms
    mu[mask] = n * np.cos(alpha)[:, None] + t * np.sin(alpha)[:, None]
    return mu, kappa


def lambert_image(gt_normals, mask):
    """Headlight-lit grayscale image replicated to RGB, in [0,1]."""
    shade = AMBIENT + DIFFUSE * np.clip(-gt_normals[..., 2], 0.0, 1.0)
    img = np.where(mask, shade, 1.0)
    return np.repeat(img[:, :, None], 3, axis=2)


def render_view(gt_mesh, kp_ids, camera, sigma_deg, kp_sigma, rng,
                frag=None) -> ViewBundle:
    """One view's labels; ``frag`` is ``gt_mesh`` rasterized into ``camera``
    (here when None).  Keypoints come from the fit's own projection."""
    proj = renderer.project_vertices_var(ad.Tape().const(gt_mesh.vertices), [camera])
    if frag is None:
        frag = renderer.rasterize(gt_mesh.faces, proj[0].value[0], proj[1][0], camera)
    gt_normals = renderer.render_normals(gt_mesh, camera, frag)
    mask = frag.mask
    mu, kappa = synthesize_kappa(gt_normals, mask, sigma_deg, rng)
    kp, vis = renderer.project_keypoints_var(proj, kp_ids, renderer.image_size([camera]))
    sigma = np.full((len(kp_ids), 2), float(kp_sigma))
    obs = losses.Observation(
        losses.NormalObservation(mu, kappa),
        losses.KeypointObservation(kp.value[0], sigma, vis[0]), mask)
    return ViewBundle(camera, obs, lambert_image(gt_normals, mask), gt_normals)


def _spec_echo(spec: SceneSpec):
    return {
        "seed": spec.seed,
        "n_views": spec.n_views,
        "cutoff": spec.cutoff,
        "sigma_view_deg": [float(spec.sigma_view_deg)] * spec.n_views,
        "kp_sigma": spec.kp_sigma,
        "lateral_axis": "world_x",
        "arc": asdict(spec.arc),
        "params": {
            "r": spec.params.r.tolist(),
            "t": spec.params.t.tolist(),
            "s": spec.params.s.tolist(),
            "z_s": spec.params.z_s.tolist(),
            "z_p": spec.params.z_p.tolist(),
        },
    }


def generate_scene(spec: SceneSpec, model, out_dir):
    """Write a complete scene directory; returns its path.

    Cameras are sampled per view from seed ``spec.seed ^ view`` (so the
    output does not depend on generation order) and resampled while the
    above-cutoff part of the render covers more than 20% of the
    silhouette, up to 100 attempts per view.
    """
    spec.validate()
    asset, field = model
    gt_mesh = fm.forward_mesh(asset, field, spec.params)
    os.makedirs(out_dir, exist_ok=True)
    cams = []
    for view in range(spec.n_views):
        rng = np.random.default_rng(spec.seed ^ view)
        for _ in range(100):
            cam = cam_mod.sample_arc(spec.arc, rng)
            frag = renderer.rasterize_views(gt_mesh, [cam])[0]
            if renderer.cutoff_fraction(gt_mesh, spec.cutoff, frag) <= CUTOFF_COVER_MAX:
                break
        else:
            raise ValueError(
                f"view {view}: no camera with above-cutoff coverage "
                f"<= {CUTOFF_COVER_MAX} in 100 attempts; loosen the arc "
                f"or raise the cutoff")
        cams.append(cam)
        bundle = render_view(gt_mesh, asset.keypoint_ids, cam,
                             float(spec.sigma_view_deg), spec.kp_sigma, rng,
                             frag=frag)
        view_dir = os.path.join(out_dir, f"view_{view:03d}")
        losses.save_observation(view_dir, bundle.obs)
        images.save_ppm(os.path.join(view_dir, "image.ppm"),
                        images.float_to_u8(bundle.image))
        images.save_pfm(os.path.join(view_dir, "gt_normals.pfm"),
                        bundle.gt_normals)
    cam_mod.save_cameras(os.path.join(out_dir, "cameras.json"), cams)
    with open(os.path.join(out_dir, "scene.json"), "w") as fh:
        json.dump(_spec_echo(spec), fh, indent=1)
        fh.write("\n")
    return out_dir


def load_scene_meta(scene_dir):
    """(meta dict, cameras) of a scene directory; reads no view."""
    meta_path = os.path.join(scene_dir, "scene.json")
    if not os.path.exists(meta_path):
        raise losses.MissingObservation(f"{scene_dir}: missing scene.json")
    with open(meta_path) as fh:
        meta = json.load(fh)
    if "n_views" not in meta:
        raise cam_mod.SceneFormatError(f"{meta_path}: no key 'n_views'")
    cam_path = os.path.join(scene_dir, "cameras.json")
    cams = cam_mod.load_cameras(cam_path)
    if len(cams) != meta["n_views"]:
        raise cam_mod.SceneFormatError(
            f"{cam_path}: {len(cams)} cameras for {meta['n_views']} views")
    return meta, cams


def load_view(scene_dir, view) -> losses.Observation:
    """The observation bundle of view ``view`` of a scene directory."""
    return losses.load_observation(os.path.join(scene_dir, f"view_{view:03d}"))


def load_scene(scene_dir):
    """(meta dict, cameras, observations) for a scene directory."""
    meta, cams = load_scene_meta(scene_dir)
    return meta, cams, [load_view(scene_dir, i) for i in range(meta["n_views"])]


def scene_gt_params(meta) -> fm.FootParams:
    """Ground-truth parameters of a loaded ``scene.json``."""
    try:
        p = meta["params"]
        return fm.FootParams(*(np.asarray(p[k]) for k in ("r", "t", "s", "z_s", "z_p")))
    except KeyError as exc:
        raise cam_mod.SceneFormatError(f"scene.json: no ground-truth key {exc}") from exc

