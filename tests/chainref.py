"""Op-by-op references for the fused tape nodes of ``footfit``.

Each function here builds, from small tape ops, what one fused node of the
package computes in a single step.  The tests compare the fused nodes
against them, values and gradients.  :func:`rasterize_mesh` and
:func:`project_keypoints` are the numpy rasterization and keypoint labels
of a mesh that the tests share.  :func:`dense_fragments` turns a sparse
fragment buffer back into the full-frame face and barycentric images, and
:func:`render_normals_dense`, :func:`pixel_heights_dense` and
:func:`cutoff_fraction_dense` are the dense-image paths the sparse buffer
replaced, and :func:`image_normal_fit_loss` the normal-loss node that read
full observation images before the fit kept them only at its target
pixels.

The tape ops are each one :func:`footfit.autodiff.custom` node, and only
these references and the tests use them: the broadcasting arithmetic
:func:`add`, :func:`sub`, :func:`mul` and :func:`div` (a plain array
operand becomes a constant on the tape, and a constant parent gets no
cotangent), the reductions :func:`vsum`, :func:`mean`, :func:`norm2` and
:func:`segment_sum`, the element-wise :func:`exp`, :func:`log`,
:func:`acos_safe`, :func:`neg`, :func:`sqrt`, :func:`sin`, :func:`cos`,
:func:`tanh`, :func:`clamp` and :func:`sigmoid`, the row gather
:func:`take`, :func:`matmul`, :func:`transpose`, the shape ops
:func:`stack`, :func:`concat`, :func:`reshape`, :func:`index` and its
column form :func:`col`, and the image scatter :func:`scatter_into`.  Cotangents of a broadcast operand are
summed back down to its shape.
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


def _unbroadcast(g, shape):
    """Sum cotangent ``g`` down to ``shape`` (inverse of numpy broadcast)."""
    if g.shape == shape:
        return g
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return np.asarray(g).reshape(shape)


def _lift(tape, x):
    """``x`` if it is a Var, else ``x`` as a constant on ``tape``."""
    if isinstance(x, ad.Var):
        return x
    return tape.const(np.asarray(x, dtype=np.float64))


def _binary(a, b):
    """Both operands as Vars on one tape, their values, and which require
    grad."""
    tape = (a if isinstance(a, ad.Var) else b).tape
    a, b = _lift(tape, a), _lift(tape, b)
    return a, b, a.value, b.value, a.requires_grad, b.requires_grad


def add(a, b):
    a, b, av, bv, ga, gb = _binary(a, b)
    return ad.custom((a, b), av + bv, lambda g: (
        _unbroadcast(g, av.shape) if ga else None,
        _unbroadcast(g, bv.shape) if gb else None))


def sub(a, b):
    a, b, av, bv, ga, gb = _binary(a, b)
    return ad.custom((a, b), av - bv, lambda g: (
        _unbroadcast(g, av.shape) if ga else None,
        _unbroadcast(-g, bv.shape) if gb else None))


def mul(a, b):
    a, b, av, bv, ga, gb = _binary(a, b)
    return ad.custom((a, b), av * bv, lambda g: (
        _unbroadcast(g * bv, av.shape) if ga else None,
        _unbroadcast(g * av, bv.shape) if gb else None))


def div(a, b):
    a, b, av, bv, ga, gb = _binary(a, b)
    return ad.custom((a, b), av / bv, lambda g: (
        _unbroadcast(g / bv, av.shape) if ga else None,
        _unbroadcast(-g * av / (bv * bv), bv.shape) if gb else None))


def vsum(a, axis=None, keepdims=False):
    av = a.value

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, av.shape).copy(),)

    return ad.custom((a,), av.sum(axis=axis, keepdims=keepdims), vjp)


def mean(a, axis=None):
    n = a.value.size if axis is None else a.shape[axis]
    return mul(vsum(a, axis=axis), 1.0 / n)


def exp(a):
    out = np.exp(a.value)
    return ad.custom((a,), out, lambda g: (g * out,))


def log(a):
    av = a.value
    if np.any(av <= 0.0):
        raise ad.DomainError("log of non-positive value")
    return ad.custom((a,), np.log(av), lambda g: (g / av,))


def acos_safe(a):
    """arccos with exact values on [-1, 1] and the bounded gradient of
    :func:`footfit.autodiff.acos_safe_slope`."""
    av = a.value
    return ad.custom((a,), np.arccos(np.clip(av, -1.0, 1.0)),
                     lambda g: (g * ad.acos_safe_slope(av),))


def norm2(a, axis=None, keepdims=False):
    """Euclidean norm.  Gradient is x/|x|; keep inputs away from zero."""
    av = a.value
    nk = np.sqrt(np.sum(av * av, axis=axis, keepdims=True))
    out = nk if keepdims else nk.squeeze() if axis is None else np.squeeze(nk, axis)

    def vjp(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (g * av / nk,)

    return ad.custom((a,), out, vjp)


def segment_sum(a, idx, num):
    """out[i] = sum of rows a[j] with idx[j] == i, for i in range(num)."""
    idx = np.asarray(idx)
    av = a.value
    return ad.custom((a,), ad.scatter_rows(av, idx, (num,) + av.shape[1:]),
                     lambda g: (g[idx],))


def stack(vars_, axis=0):
    tape = next(v.tape for v in vars_ if isinstance(v, ad.Var))
    vars_ = [_lift(tape, v) for v in vars_]
    n = len(vars_)   # the closure must not hold the Vars: Var -> tape -> closure
    return ad.custom(tuple(vars_), np.stack([v.value for v in vars_], axis=axis),
                     lambda g: tuple(np.take(g, k, axis=axis) for k in range(n)))


def reshape(a, shape):
    shape_in = a.shape
    return ad.custom((a,), a.value.reshape(shape), lambda g: (g.reshape(shape_in),))


def index(a, key):
    """``a[key]`` for a basic (slice and integer) index ``key``."""
    av = a.value

    def vjp(g):
        z = np.zeros_like(av)
        z[key] = g
        return (z,)

    return ad.custom((a,), av[key], vjp)


def col(a, j):
    """Column ``j`` of the 2-d ``a``."""
    return index(a, (slice(None), j))


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
    e1 = sub(b, a)
    e2 = sub(c, a)
    cx = sub(mul(col(e1, 1), col(e2, 2)), mul(col(e1, 2), col(e2, 1)))
    cy = sub(mul(col(e1, 2), col(e2, 0)), mul(col(e1, 0), col(e2, 2)))
    cz = sub(mul(col(e1, 0), col(e2, 1)), mul(col(e1, 1), col(e2, 0)))
    cross = stack([cx, cy, cz], axis=1)
    idx = np.concatenate([faces[:, 0], faces[:, 1], faces[:, 2]])
    acc = segment_sum(concat([cross, cross, cross], axis=0), idx, verts.shape[0])
    return div(acc, norm2(acc, axis=1, keepdims=True))


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
    n_pix = add(add(mul(n0, bary[:, 0:1]), mul(n1, bary[:, 1:2])), mul(n2, bary[:, 2:3]))
    return div(n_pix, norm2(n_pix, axis=1, keepdims=True))


def normal_fit_loss(rendered, observations, scored):
    """Mean over views of the per-view mean of kappa × angle, as the chain
    of a product, ``acos_safe``, a segment sum and the weighting that
    :func:`footfit.losses.normal_fit_loss` replaces."""
    n = len(observations)
    counts = np.array([len(f) for f in scored])
    mu = np.concatenate([o.mu.reshape(-1, 3)[f] for o, f in zip(observations, scored)])
    kappa = np.concatenate([o.kappa.reshape(-1)[f] for o, f in zip(observations, scored)])
    theta = acos_safe(vsum(mul(rendered, mu), axis=1))
    per_view = segment_sum(mul(theta, kappa), np.repeat(np.arange(n), counts), n)
    weight = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    return mul(vsum(mul(per_view, weight)), 1.0 / n)


def image_normal_fit_loss(rendered, observations, scored):
    """:func:`footfit.losses.normal_fit_loss` as one node that gathers
    ``mu`` and ``kappa`` from each view's full (H,W,3) and (H,W) images at
    the flat indices ``scored[v]``: the node that reading the compact
    :class:`footfit.losses.ViewTable` replaced."""
    n = len(observations)
    counts = np.array([len(f) for f in scored])
    mu = np.ascontiguousarray(np.concatenate(
        [np.take(o.mu.reshape(-1, 3), f, axis=0) for o, f in zip(observations, scored)]).T)
    kappa = np.concatenate([np.take(o.kappa, f) for o, f in zip(observations, scored)])
    views = np.repeat(np.arange(n), counts)
    weight = np.where(counts > 0, 1.0 / np.maximum(counts, 1), 0.0)
    r = rendered.value
    dot = r[:, 0] * mu[0] + r[:, 1] * mu[1] + r[:, 2] * mu[2]
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    per_view = np.bincount(views, weights=theta * kappa, minlength=n)

    def vjp(g):
        g_theta = (g * (1.0 / n) * weight)[views] * kappa
        return ((mu * (g_theta * ad.acos_safe_slope(dot))).T,)

    return ad.custom((rendered,), (per_view * weight).sum() * (1.0 / n), vjp)


def field(mlp, X, z_s, z_p):
    """``X + F(X, z_s, z_p)`` at the constant (V,3) rows ``X``, as the lift
    of each code to every row, the concat, the matmul and bias add of each
    layer and the tanh of each hidden layer that the field node of
    :func:`footfit.footmodel.deform` replaces."""
    tape = z_s.tape
    X = tape.const(X)
    ones = tape.const(np.ones((X.shape[0], 1)))
    h = concat([X, matmul(ones, reshape(z_s, (1, mlp.d_s))),
                matmul(ones, reshape(z_p, (1, mlp.d_p)))], axis=1)
    for i, (W, b) in enumerate(mlp.weights):
        h = add(matmul(h, tape.const(W)), tape.const(b))
        if i < len(mlp.weights) - 1:
            h = tanh(h)
    return add(X, h)


def register(u, R, s, t):
    """``(u @ R^T) * s + t`` as the transpose, matmul, mul and add ops
    that the registration node of :func:`footfit.footmodel.forward`
    replaces."""
    return add(mul(matmul(u, transpose(R)), s), t)


def kp_fit_loss(projected, observations):
    """v-gated mean of squared sigma-normalized reprojection errors, as the
    chain of a difference, a quotient, a square and three weighted sums
    that :func:`footfit.losses.kp_fit_loss` replaces.  ``projected`` is an
    (N,K,2) Var; ``observations`` the stacked observation."""
    k, sigma, v = observations.k, observations.sigma, observations.v
    d = div(sub(projected, k), sigma)
    return mul(vsum(mul(vsum(mul(d, d), axis=2), v)), 1.0 / v.size)


def silhouette_l2(soft, bands, masks, targets):
    """Mean over views of each view's mean squared soft-silhouette error,
    as the difference, square, segment sum, off-band count, area weight and
    view mean that :func:`footfit.losses.silhouette_l2` replaces."""
    n = len(targets)
    off = np.array([np.count_nonzero(m != t) - np.count_nonzero((m != t).reshape(-1)[b])
                    for b, m, t in zip(bands, masks, targets)], dtype=np.float64)
    inv_area = np.array([1.0 / t.size for t in targets])
    d = sub(soft, np.concatenate([t.reshape(-1)[b] for b, t in zip(bands, targets)]))
    views = np.repeat(np.arange(n), [len(b) for b in bands])
    return mul(vsum(mul(add(segment_sum(mul(d, d), views, n), off), inv_area)), 1.0 / n)


def project_keypoints_var(proj, kp_vertex_ids, size):
    """Normalized keypoints (N,K,2) as the row index and the division by
    the image size that :func:`footfit.renderer.project_keypoints_var`
    replaces; ``kp_vertex_ids`` None reads every row."""
    kp_pix = proj[0]
    if kp_vertex_ids is not None:
        kp_pix = index(kp_pix, (slice(None), np.asarray(kp_vertex_ids)))
    return div(kp_pix, size)


def weighted_total(terms, weights):
    """``terms[0]·weights[0] + ...`` as the products and sums that the total
    node of :func:`footfit.fitting._run_stage` replaces."""
    total = mul(terms[0], weights[0])
    for term, w in zip(terms[1:], weights[1:]):
        total = add(total, mul(term, w))
    return total


def angmf_nll(mu, kappa, n_gt):
    """Mean negative log likelihood of ``n_gt`` under (mu, kappa), as the
    reshapes, the dot product, ``acos_safe`` and the log normalizer that
    :func:`footfit.losses.angmf_nll` replaces."""
    P = int(np.prod(mu.shape[:-1]))
    mu_f = reshape(mu, (P, 3))
    k_f = reshape(kappa, (P,))
    theta = acos_safe(vsum(mul(mu_f, np.reshape(n_gt, (P, 3))), axis=1))
    log_norm = sub(log(add(exp(mul(k_f, -np.pi)), 1.0)), log(add(mul(k_f, k_f), 1.0)))
    return mul(vsum(add(mul(k_f, theta), log_norm)), 1.0 / P)
