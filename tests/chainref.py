"""Op-by-op references for the fused tape nodes of ``footfit``.

Each function here builds, from small :mod:`footfit.autodiff` ops, what
one fused node of the package computes in a single step.  The tests
compare the fused nodes against them, values and gradients.
:func:`rasterize_mesh` and :func:`project_keypoints` are the numpy
rasterization and keypoint labels of a mesh that the tests share.
:func:`dense_fragments` turns a sparse fragment buffer back into the
full-frame face and barycentric images, and :func:`render_normals_dense`,
:func:`pixel_heights_dense` and :func:`cutoff_fraction_dense` are the
dense-image paths the sparse buffer replaced.
The element-wise ops (:func:`neg`, :func:`sqrt`, :func:`sin`,
:func:`cos`, :func:`tanh`, :func:`clamp`, :func:`sigmoid`), the row
gather :func:`take`, :func:`matmul`, :func:`transpose` and
:func:`concat` are tape ops that only these references and the tests
use; each is one :func:`footfit.autodiff.custom` node.
"""

import numpy as np

from footfit import autodiff as ad
from footfit import renderer


def rasterize_mesh(mesh, camera):
    """``mesh`` rasterized into ``camera``."""
    return renderer.rasterize_views(mesh, [camera])[0]


def project_keypoints(verts, kp_ids, cameras):
    """Normalized keypoints (N,K,2) and visibility (N,K) of the vertices
    ``verts`` as the fit and the scene labels project them."""
    proj = renderer.project_vertices_var(ad.Tape().const(verts), cameras)
    kp, vis = renderer.project_keypoints_var(proj, kp_ids, renderer.image_size(cameras))
    return kp.value, vis


def dense_fragments(frag):
    """Full-frame images of the sparse ``frag``: the face (H,W) int64, -1
    off coverage, and the barycentric weights (H,W,3), zero off coverage."""
    face = np.full(frag.mask.shape, -1, dtype=np.int64)
    bary = np.zeros((*frag.mask.shape, 3))
    face.reshape(-1)[frag.pixels] = frag.face
    bary.reshape(-1, 3)[frag.pixels] = frag.bary
    return face, bary


def render_normals_dense(mesh, camera, frag):
    """Camera-frame normal map (H,W,3), zero off coverage, gathered from
    the dense images of ``frag`` at the covered flat indices with the
    arithmetic of :func:`footfit.renderer.render_normals_var`."""
    face, bary = dense_fragments(frag)
    covered = face >= 0
    flat = np.flatnonzero(covered)
    n_world = renderer.vertex_normals_var(ad.Tape().const(mesh.vertices), mesh.faces)
    n_cam = (n_world.value @ camera.R.T).T.copy()
    corners = np.take(np.ascontiguousarray(mesh.faces.T), np.take(face, flat), axis=1)
    weights = np.ascontiguousarray(np.take(bary.reshape(-1, 3), flat, axis=0).T)
    n_pix = np.take(n_cam, corners[0], axis=1) * weights[0]
    n_pix += np.take(n_cam, corners[1], axis=1) * weights[1]
    n_pix += np.take(n_cam, corners[2], axis=1) * weights[2]
    norm = np.sqrt(n_pix[0] * n_pix[0] + n_pix[1] * n_pix[1] + n_pix[2] * n_pix[2])
    img = np.zeros((camera.height, camera.width, 3))
    img[covered] = (n_pix / norm).T
    return img


def pixel_heights_dense(mesh, frag):
    """World z (H,W) under each covered pixel, NaN off coverage, from the
    dense images of ``frag``."""
    face, bary = dense_fragments(frag)
    sel = face >= 0
    z = np.full(face.shape, np.nan)
    z[sel] = np.sum(bary[sel] * mesh.vertices[mesh.faces[face[sel]], 2], axis=1)
    return z


def cutoff_fraction_dense(mesh, cutoff_height, frag):
    """Fraction of covered pixels above z = cutoff_height from the dense
    height image; 0 for empty coverage."""
    if not frag.mask.any():
        return 0.0
    return float(np.mean(pixel_heights_dense(mesh, frag)[frag.mask] > cutoff_height))


def neg(a):
    return ad.custom((a,), -a.value, lambda g: (-g,))


def sqrt(a):
    av = a.value
    if np.any(av < 0.0):
        raise ad.DomainError("sqrt of negative value")
    out = np.sqrt(av)
    return ad.custom((a,), out, lambda g: (g * 0.5 / out,))


def sin(a):
    av = a.value
    return ad.custom((a,), np.sin(av), lambda g: (g * np.cos(av),))


def cos(a):
    av = a.value
    return ad.custom((a,), np.cos(av), lambda g: (-g * np.sin(av),))


def tanh(a):
    out = np.tanh(a.value)
    return ad.custom((a,), out, lambda g: (g * (1.0 - out * out),))


def clamp(a, lo, hi):
    """``np.clip``; gradient passes only where the input is inside the
    closed interval [lo, hi]."""
    av = a.value
    mask = (av >= lo) & (av <= hi)
    return ad.custom((a,), np.clip(av, lo, hi), lambda g: (g * mask,))


def sigmoid(a):
    out = ad.logistic(a.value)
    return ad.custom((a,), out, lambda g: (g * out * (1.0 - out),))


def take(a, idx):
    """Rows ``a[idx]`` along axis 0 for an integer index array."""
    idx = np.asarray(idx)
    shape = a.shape
    return ad.custom((a,), a.value[idx], lambda g: (ad.scatter_rows(g, idx, shape),))


def matmul(a, b):
    """2-d ``a @ b``.  A parent that needs no gradient gets no cotangent."""
    av, bv = a.value, b.value
    if av.ndim != 2 or bv.ndim != 2:
        raise ValueError("matmul expects 2-d operands")
    ga, gb = a.requires_grad, b.requires_grad
    return ad.custom((a, b), av @ bv,
                     lambda g: (g @ bv.T if ga else None, av.T @ g if gb else None))


def transpose(a):
    if a.ndim != 2:
        raise ValueError("transpose expects a 2-d Var")
    return ad.custom((a,), a.value.T.copy(), lambda g: (g.T,))


def concat(vars_, axis=0):
    values = [v.value for v in vars_]
    offsets = np.cumsum([v.shape[axis] for v in values])[:-1]
    return ad.custom(tuple(vars_), np.concatenate(values, axis=axis),
                     lambda g: tuple(np.split(g, offsets, axis=axis)))


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
    a = take(verts, faces[:, 0])
    b = take(verts, faces[:, 1])
    c = take(verts, faces[:, 2])
    e1 = b - a
    e2 = c - a
    cx = e1[:, 1] * e2[:, 2] - e1[:, 2] * e2[:, 1]
    cy = e1[:, 2] * e2[:, 0] - e1[:, 0] * e2[:, 2]
    cz = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    cross = ad.stack([cx, cy, cz], axis=1)
    idx = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    acc = ad.segment_sum(concat([cross, cross, cross], axis=0), idx, verts.shape[0])
    return acc / ad.norm2(acc, axis=1, keepdims=True)


def render_normals_var(n_world, faces, cameras, frags, scored):
    """Unit camera-frame normals (P,3) at the scored positions into each
    view's pixels, as the rotation node, three takes, the interpolation and
    a norm that :func:`footfit.renderer.render_normals_var` replaces."""
    n_verts = n_world.shape[0]
    corners, bary = [], []
    for view, (frag, pos) in enumerate(zip(frags, scored)):
        corners.append(faces[frag.face[pos]] + view * n_verts)
        bary.append(frag.bary[pos])
    corners, bary = np.concatenate(corners), np.concatenate(bary)
    rots = [cam.R for cam in cameras]

    def vjp(g):
        g = g.reshape(len(rots), n_verts, 3)
        return (sum(g[v] @ rots[v] for v in reversed(range(len(rots)))),)

    n_cam = ad.custom((n_world,), np.concatenate([n_world.value @ R.T for R in rots]), vjp)
    n0 = take(n_cam, corners[:, 0])
    n1 = take(n_cam, corners[:, 1])
    n2 = take(n_cam, corners[:, 2])
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


def field(mlp, X, z_s, z_p):
    """``X + F(X, z_s, z_p)`` at the constant (V,3) rows ``X``, as the lift
    of each code to every row, the concat, the matmul and bias add of each
    layer and the tanh of each hidden layer that the field node of
    :func:`footfit.footmodel.deform` replaces."""
    tape = z_s.tape
    X = tape.const(X)
    ones = tape.const(np.ones((X.shape[0], 1)))
    h = concat([X, matmul(ones, z_s.reshape((1, mlp.d_s))),
                matmul(ones, z_p.reshape((1, mlp.d_p)))], axis=1)
    for i, (W, b) in enumerate(mlp.weights):
        h = matmul(h, tape.const(W)) + tape.const(b)
        if i < len(mlp.weights) - 1:
            h = tanh(h)
    return X + h


def register(u, R, s, t):
    """``(u @ R^T) * s + t`` as the transpose, matmul, mul and add ops
    that the registration node of :func:`footfit.footmodel.forward`
    replaces."""
    return matmul(u, transpose(R)) * s + t


def kp_fit_loss(projected, observations):
    """v-gated mean of squared sigma-normalized reprojection errors, as the
    chain of a difference, a quotient, a square and three weighted sums
    that :func:`footfit.losses.kp_fit_loss` replaces.  ``projected`` is an
    (N,K,2) Var; ``observations`` the stacked observation."""
    k, sigma, v = observations.k, observations.sigma, observations.v
    d = (projected - k) / sigma
    return ((d * d).sum(axis=2) * v).sum() * (1.0 / v.size)
