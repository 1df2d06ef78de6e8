"""Op-by-op references for the fused tape nodes of ``footfit``.

Each function here builds, from small :mod:`footfit.autodiff` ops, what
one fused node of the package computes in a single step.  The tests
compare the fused nodes against them, values and gradients.
:func:`rasterize_mesh` and :func:`project_keypoints` are the numpy
rasterization and keypoint labels of a mesh that the tests share.
"""

import numpy as np

from footfit import autodiff as ad
from footfit import camera as cam_mod
from footfit import renderer


def rasterize_mesh(mesh, camera):
    """``mesh`` rasterized into ``camera`` from :func:`footfit.camera.project`."""
    pix, cam_pts = cam_mod.project([camera], mesh.vertices)
    return renderer.rasterize(mesh.faces, pix[0], cam_pts[0, :, 2], camera)


def project_keypoints(verts, kp_ids, cameras):
    """Normalized keypoints (N,K,2) and visibility (N,K) of the vertices
    ``verts`` as the fit and the scene labels project them."""
    proj = renderer.project_vertices_var(ad.Tape().const(verts), cameras)
    kp, vis = renderer.project_keypoints_var(proj, kp_ids, cameras)
    return kp.value, vis


def scatter_into(base, idx, values):
    """Copy of constant array ``base`` with ``base.flat[idx] = values``.

    ``idx`` must hold unique flat positions.  Gradient flows only to
    ``values``; the base stays constant.
    """
    idx = np.asarray(idx)
    out = np.asarray(base, dtype=np.float64).copy()
    out.reshape(-1)[idx] = values.value
    return ad.custom((values,), out, lambda g: (g.reshape(-1)[idx],))


def vertex_normals_var(verts, faces):
    """Area-weighted unit vertex normals (world frame), as the chain of
    takes, column products, a segment sum and a norm that
    :func:`footfit.renderer.vertex_normals_var` replaces."""
    a = ad.take(verts, faces[:, 0])
    b = ad.take(verts, faces[:, 1])
    c = ad.take(verts, faces[:, 2])
    e1 = b - a
    e2 = c - a
    cx = e1[:, 1] * e2[:, 2] - e1[:, 2] * e2[:, 1]
    cy = e1[:, 2] * e2[:, 0] - e1[:, 0] * e2[:, 2]
    cz = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    cross = ad.stack([cx, cy, cz], axis=1)
    idx = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    acc = ad.segment_sum(ad.concat([cross, cross, cross], axis=0), idx, verts.shape[0])
    return acc / ad.norm2(acc, axis=1, keepdims=True)


def render_normals_var(n_world, faces, cameras, frags, scored):
    """Unit camera-frame normals (P,3) at the scored pixels of every view,
    as the rotation node, three takes, the interpolation and a norm that
    :func:`footfit.renderer.render_normals_var` replaces."""
    n_verts = n_world.shape[0]
    corners, bary = [], []
    for view, (frag, flat) in enumerate(zip(frags, scored)):
        corners.append(faces[frag.face.reshape(-1)[flat]] + view * n_verts)
        bary.append(frag.bary.reshape(-1, 3)[flat])
    corners, bary = np.concatenate(corners), np.concatenate(bary)
    rots = [cam.R for cam in cameras]

    def vjp(g):
        g = g.reshape(len(rots), n_verts, 3)
        return (sum(g[v] @ rots[v] for v in reversed(range(len(rots)))),)

    n_cam = ad.custom((n_world,), np.concatenate([n_world.value @ R.T for R in rots]), vjp)
    n0 = ad.take(n_cam, corners[:, 0])
    n1 = ad.take(n_cam, corners[:, 1])
    n2 = ad.take(n_cam, corners[:, 2])
    n_pix = n0 * bary[:, 0:1] + n1 * bary[:, 1:2] + n2 * bary[:, 2:3]
    return n_pix / ad.norm2(n_pix, axis=1, keepdims=True)


def normal_fit_loss(rendered, observations, scored):
    """Mean over views of the per-view mean of kappa × angle, as the chain
    of a product, ``acos_safe``, a segment sum and the weighting that
    :func:`footfit.losses.normal_fit_loss` replaces."""
    n = len(observations)
    counts = np.array([len(f) for f in scored])
    mu = np.concatenate([o.mu.reshape(-1, 3)[f] for o, f in zip(observations, scored)])
    kappa = np.concatenate([o.kappa.reshape(-1)[f] for o, f in zip(observations, scored)])
    theta = ad.acos_safe((rendered * mu).sum(axis=1))
    per_view = ad.segment_sum(theta * kappa, np.repeat(np.arange(n), counts), n)
    weight = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    return (per_view * weight).sum() * (1.0 / n)
