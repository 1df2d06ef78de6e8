"""The gradient suite that ``footfit gradcheck`` runs: central differences
against every hand-written gradient path of the fit."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import autodiff as ad
from . import camera as cam_mod
from . import footmodel as fm
from . import geometry
from . import losses
from . import renderer

__all__ = ["gradient_suite"]

BRANCH_MARGIN = 0.05    # px; see _stable_branch_weights


def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _unit(raw):
    """Rows of the (N,3) Var ``raw`` scaled to unit length, as one node."""
    out, norm = renderer._unit_cols(raw.value.T)
    return ad.custom((raw,), out.T, lambda g: (renderer._unit_cols_vjp(g.T, out, norm).T,))


def _weighted_sum(x, w, scale=1.0):
    """``sum(x · w) · scale`` of the Var ``x`` and the array ``w``, as one
    node: the scalar objective of a check."""
    return ad.custom((x,), (x.value * w).sum() * scale, lambda g: ((g * scale) * w,))


def _suite_camera():
    return cam_mod.Camera(40.0, 40.0, 16.0, 12.0, 32, 24, np.eye(3),
                          np.zeros(3))


def _check_angmf(rng, h):
    labels = _unit_rows(rng, 6)
    mu0 = _unit_rows(rng, 6)
    k0 = rng.uniform(0.3, 3.0, size=6)

    def fn(mu_raw, kappa):
        return losses.angmf_nll(_unit(mu_raw), kappa, labels)

    return ad.grad_check(fn, [mu0, k0], h=h)


def _check_kp_fit(rng, h):
    obs = [losses.KeypointObservation(
        rng.uniform(0.2, 0.8, size=(3, 2)),
        rng.uniform(0.05, 0.2, size=(3, 2)),
        np.array([1.0, 1.0, 0.0])) for _ in range(2)]
    p0 = np.stack([o.k + rng.normal(size=o.k.shape) * 0.05 for o in obs])
    stacked = losses.KeypointObservation.stack(obs)
    return ad.grad_check(lambda p: losses.kp_fit_loss(p, stacked), [p0], h=h)


def _check_normal_fit(rng, h):
    # two views of one four-pixel table, scoring 3 and 1 of its rows
    obs = losses.NormalObservation(_unit_rows(rng, 4).reshape(2, 2, 3),
                                   rng.uniform(0.5, 3.0, size=(2, 2)))
    table = losses.ViewTable.of(obs, 180.0)
    scored = [np.array([0, 2, 3]), np.array([1])]

    def fn(raw):
        return losses.normal_fit_loss(_unit(raw), [table, table], scored)

    return ad.grad_check(fn, [_unit_rows(rng, 4)], h=h)


def _check_silhouette_l2(rng, h):
    masks = [rng.uniform(size=(3, 3)) > 0.5, rng.uniform(size=(2, 4)) > 0.5]
    targets = [rng.uniform(size=m.shape) > 0.5 for m in masks]
    bands = [np.array([0, 4, 5, 8]), np.array([1, 2, 6])]
    return ad.grad_check(lambda s: losses.silhouette_l2(s, bands, masks, targets),
                         [rng.uniform(0.1, 0.9, size=7)], h=h)


def _two_cameras():
    # different R and t: the VJPs sum over the views
    R, t = cam_mod.look_at([0.06, -0.04, -0.05], [0.0, 0.0, 0.45])
    return [_suite_camera(), replace(_suite_camera(), R=R, t=t)]


def _base_triangle(rng):
    v = np.array([[-0.06, -0.05, 0.40], [0.07, -0.04, 0.50],
                  [0.00, 0.08, 0.45]])
    return v + rng.normal(size=v.shape) * 0.004


def _base_quad(rng):
    # large enough that the interior medial axis (argmin tie between
    # opposite contour edges) stays outside the sigmoid band
    v = np.array([[-0.10, -0.095, 0.45], [0.105, -0.09, 0.48],
                  [0.10, 0.10, 0.46], [-0.095, 0.105, 0.44]])
    return v + rng.normal(size=v.shape) * 0.004


def _check_render_normals(rng, h):
    cams = _two_cameras()
    v0 = _base_triangle(rng)
    faces = np.array([[0, 2, 1]])
    frags = renderer.rasterize_views(geometry.Mesh(v0, faces), cams)
    scored = [np.arange(len(frag.pixels)) for frag in frags]
    w = rng.normal(size=(sum(len(s) for s in scored), 3))

    def fn(verts):
        n_world = renderer.vertex_normals_var(verts, faces)
        return _weighted_sum(renderer.render_normals_var(n_world, faces, cams, frags, scored), w)

    return ad.grad_check(fn, [v0], h=h)


def _stable_branch_weights(verts, cam, rng):
    """Loss weights for the silhouette check, zeroed where the rendered
    value is not differentiable in a probe-sized neighborhood: pixels whose
    two nearest contour edges are nearly tied (argmin flips) and pixels
    lying on an edge (the unsigned distance folds at zero).  A probe moves
    projections by well under ``BRANCH_MARGIN`` px, so weighted pixels stay
    on one smooth branch and central differences are trustworthy."""
    pix = cam_mod.project([cam], verts)[0][0]
    ab = pix[[1, 2, 3, 0]] - pix        # the quad's four outer edges
    jj, ii = np.meshgrid(np.arange(cam.width) + 0.5, np.arange(cam.height) + 0.5)
    d = np.sort(np.sqrt(renderer._segment_d2(
        jj.reshape(-1, 1), ii.reshape(-1, 1), pix[:, 0], pix[:, 1], ab[:, 0], ab[:, 1],
        np.maximum((ab * ab).sum(axis=1), 1e-30))), axis=1)
    ok = ((d[:, 1] - d[:, 0]) > BRANCH_MARGIN) & (d[:, 0] > BRANCH_MARGIN)
    return rng.normal(size=cam.height * cam.width) * ok


def _check_soft_silhouette(rng, h):
    cams = _two_cameras()
    v0 = _base_quad(rng)
    faces = np.array([[0, 2, 1], [0, 3, 2]])
    mesh = geometry.Mesh(v0, faces)
    frags = renderer.rasterize_views(mesh, cams)
    topo = renderer.ContourTopology.build(mesh)
    w = [_stable_branch_weights(v0, cam, rng) for cam in cams]
    n_pixels = sum(cam.width * cam.height for cam in cams)

    def fn(verts):
        # weighted mean, mild sharpness: fd truncation error grows with the
        # cube of the sigmoid slope, and the per-pixel normalization keeps
        # it far below tolerance; the gradient code is the same either way
        proj, _ = renderer.project_vertices_var(verts, cams)
        soft, bands = renderer.render_silhouette_soft_var(proj, cams, frags, topo,
                                                          sharpness=8.0)
        w_band = np.concatenate([wv[band] for wv, band in zip(w, bands)])
        return _weighted_sum(soft, w_band, 1.0 / n_pixels)

    return ad.grad_check(fn, [v0], h=h)


def _check_project_keypoints(rng, h):
    cams = _two_cameras()
    v0 = _base_quad(rng)
    w = rng.normal(size=(2, 2, 2))

    def fn(verts):
        proj = renderer.project_vertices_var(verts, cams)
        kp, _ = renderer.project_keypoints_var(proj, np.array([0, 2]),
                                              renderer.image_size(cams))
        return _weighted_sum(kp, w)

    return ad.grad_check(fn, [v0], h=h)


_SUITE_ASSET = None


def _suite_model(seed):
    global _SUITE_ASSET
    if _SUITE_ASSET is None:
        _SUITE_ASSET = fm.build_template()
    field = fm.random_field(_SUITE_ASSET.mesh.vertices, d_s=2, d_p=2,
                            hidden=16, n_hidden=1, seed=seed)
    return _SUITE_ASSET, field


def _check_model_forward(rng, h, seed):
    asset, field = _suite_model(seed)
    w = rng.normal(size=asset.mesh.vertices.shape)
    r0 = rng.uniform(-0.2, 0.2, size=3)
    t0 = rng.uniform(-0.02, 0.02, size=3)
    s0 = rng.uniform(0.9, 1.1, size=3)
    zs0 = rng.normal(size=2) * 0.5
    zp0 = rng.normal(size=2) * 0.5

    def fn(r, t, s, z_s, z_p):
        pv = fm.ParamVars(r, t, s, z_s, z_p)
        return _weighted_sum(fm.forward(asset, field, pv), w)

    return ad.grad_check(fn, [r0, t0, s0, zs0, zp0], h=h)


CHECKS = {
    "angmf_nll": _check_angmf,
    "kp_fit_loss": _check_kp_fit,
    "normal_fit_loss": _check_normal_fit,
    "silhouette_l2": _check_silhouette_l2,
    "render_normals": _check_render_normals,
    "soft_silhouette": _check_soft_silhouette,
    "project_keypoints": _check_project_keypoints,
}


def gradient_suite(configs=20, h=1e-5, seed=0):
    """Finite-difference audit of every analytic gradient path: losses,
    normal renderer, soft silhouette, keypoint projector, and the model
    forward (registration transform plus deformation field).  Returns
    one row per (config, component) with the max relative error."""
    rows = []
    for i in range(configs):
        rng = np.random.default_rng(seed + 1000 * i)
        for name, run in CHECKS.items():
            rows.append({"config": i, "component": name,
                         "max_rel": float(run(rng, h))})
        rows.append({"config": i, "component": "model_forward",
                     "max_rel": float(_check_model_forward(rng, h, seed + i))})
    return rows
