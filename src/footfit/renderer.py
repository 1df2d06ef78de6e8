"""Differentiable rasterization: normal maps, soft silhouettes, keypoints.

The rasterizer produces a hard pixel→face assignment with
perspective-correct barycentric weights.  That assignment is treated as
a constant during backward (straight-through visibility): gradients
reach the mesh vertices only through interpolated normal values,
projected keypoints, and the soft silhouette's edge distances.

Pixel centers sit at (column + 0.5, row + 0.5).  Coverage is the
inclusive half-plane edge-function test.  Back-face culling is on:
with the y-down camera frame of :mod:`footfit.camera`, front-facing
triangles have negative signed area in pixel coordinates.  Faces with
any vertex closer than ``Z_NEAR`` are dropped entirely (no near-plane
clipping); synthetic desk scenes keep the mesh far in front of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import ndimage, special

from . import autodiff as ad
from .geometry import Mesh

__all__ = [
    "FragmentBuffer", "rasterize", "render_normals", "render_normals_var",
    "render_silhouette_soft", "render_silhouette_soft_var",
    "project_keypoints", "project_keypoints_var", "project_vertices_var",
    "vertex_normals_var", "cutoff_fraction", "ContourTopology",
]

Z_NEAR = 1e-6


@dataclass
class FragmentBuffer:
    face: np.ndarray      # (H,W) int64, -1 where empty
    bary: np.ndarray      # (H,W,3) perspective-correct weights
    depth: np.ndarray     # (H,W) meters, 0 where empty
    front_faces: np.ndarray   # bool per face: z-valid and camera-facing

    @property
    def mask(self):
        return self.face >= 0


def _project_np(vertices, camera):
    cam = vertices @ camera.R.T + camera.t
    z = cam[:, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        px = camera.fx * cam[:, 0] / z + camera.cx
        py = camera.fy * cam[:, 1] / z + camera.cy
    return np.stack([px, py], axis=1), z


def rasterize(mesh: Mesh, camera) -> FragmentBuffer:
    H, W = camera.height, camera.width
    face_buf = np.full((H, W), -1, dtype=np.int64)
    bary_buf = np.zeros((H, W, 3))
    depth_buf = np.zeros((H, W))
    pix, z = _project_np(mesh.vertices, camera)
    tri = mesh.faces
    front = np.all(z[tri] > Z_NEAR, axis=1)

    p0, p1, p2 = (pix[tri[:, k]] for k in range(3))
    area2 = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
             - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    front &= area2 < -1e-14          # camera-facing under y-down pixel coords
    frag = FragmentBuffer(face_buf, bary_buf, depth_buf, front)
    if not np.any(front):
        return frag

    fids = np.nonzero(front)[0]
    q0, q1, q2 = p0[fids], p1[fids], p2[fids]
    a2 = area2[fids]
    # pixel-center bounding boxes, clipped to the image
    xs = np.stack([q0[:, 0], q1[:, 0], q2[:, 0]], axis=1)
    ys = np.stack([q0[:, 1], q1[:, 1], q2[:, 1]], axis=1)
    j0 = np.maximum(np.ceil(xs.min(axis=1) - 0.5), 0).astype(np.int64)
    j1 = np.minimum(np.floor(xs.max(axis=1) - 0.5), W - 1).astype(np.int64)
    i0 = np.maximum(np.ceil(ys.min(axis=1) - 0.5), 0).astype(np.int64)
    i1 = np.minimum(np.floor(ys.max(axis=1) - 0.5), H - 1).astype(np.int64)
    keep = (j1 >= j0) & (i1 >= i0)
    if not np.any(keep):
        return frag
    fids, q0, q1, q2, a2 = fids[keep], q0[keep], q1[keep], q2[keep], a2[keep]
    j0, j1, i0, i1 = j0[keep], j1[keep], i0[keep], i1[keep]

    bw = j1 - j0 + 1
    bh = i1 - i0 + 1
    counts = bw * bh
    total = int(counts.sum())
    cand = np.repeat(np.arange(len(fids)), counts)
    base = np.repeat(np.cumsum(counts) - counts, counts)
    off = np.arange(total) - base
    jj = j0[cand] + off % bw[cand]
    ii = i0[cand] + off // bw[cand]
    px_c = jj + 0.5
    py_c = ii + 0.5

    c0, c1, c2 = q0[cand], q1[cand], q2[cand]
    w0 = (c2[:, 0] - c1[:, 0]) * (py_c - c1[:, 1]) - (c2[:, 1] - c1[:, 1]) * (px_c - c1[:, 0])
    w1 = (c0[:, 0] - c2[:, 0]) * (py_c - c2[:, 1]) - (c0[:, 1] - c2[:, 1]) * (px_c - c2[:, 0])
    w2 = (c1[:, 0] - c0[:, 0]) * (py_c - c0[:, 1]) - (c1[:, 1] - c0[:, 1]) * (px_c - c0[:, 0])
    inside = (w0 <= 0) & (w1 <= 0) & (w2 <= 0)   # same sign as the negative area
    if not np.any(inside):
        return frag
    cand, jj, ii = cand[inside], jj[inside], ii[inside]
    lam = np.stack([w0[inside], w1[inside], w2[inside]], axis=1) / a2[cand][:, None]

    zt = z[tri[fids]]                             # (Fkept, 3)
    inv_z = lam / zt[cand]
    inv_sum = inv_z.sum(axis=1)
    depth = 1.0 / inv_sum
    bary = inv_z / inv_sum[:, None]

    flat = ii * W + jj
    global_face = fids[cand]
    order = np.lexsort((global_face, depth, flat))
    flat_s = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_s[1:] != flat_s[:-1]
    sel = order[first]

    face_buf.reshape(-1)[flat[sel]] = global_face[sel]
    depth_buf.reshape(-1)[flat[sel]] = depth[sel]
    bary_buf.reshape(-1, 3)[flat[sel]] = bary[sel]
    return frag


# ---------------------------------------------------------------------------
# Differentiable attribute rendering on top of a fixed FragmentBuffer.

def project_vertices_var(verts: ad.Var, camera):
    """Projected pixel coordinates (V,2) as a Var plus raw depths (values).

    Depths are clamped away from zero before the divide so behind-camera
    vertices (always culled by the rasterizer) cannot poison gradients.
    """
    tape = verts.tape
    cam_pts = verts @ tape.const(camera.R.T) + tape.const(camera.t)
    z = cam_pts[:, 2:3]
    z_safe = ad.clamp(z, Z_NEAR, 1e12)
    px = cam_pts[:, 0:1] * camera.fx / z_safe + camera.cx
    py = cam_pts[:, 1:2] * camera.fy / z_safe + camera.cy
    return ad.concat([px, py], axis=1), cam_pts.value[:, 2]


def vertex_normals_var(verts: ad.Var, faces) -> ad.Var:
    """Differentiable area-weighted unit vertex normals (world frame)."""
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


def render_normals_var(verts: ad.Var, faces, camera, frag: FragmentBuffer = None,
                       n_world: ad.Var = None):
    """Camera-frame normal map (H,W,3) as a Var; zero outside coverage.

    ``n_world`` takes the result of :func:`vertex_normals_var`, so that
    callers rendering several views can compute it once.
    """
    if frag is None:
        frag = rasterize(Mesh(verts.value, faces), camera)
    tape = verts.tape
    H, W = camera.height, camera.width
    if n_world is None:
        n_world = vertex_normals_var(verts, faces)
    n_cam = n_world @ tape.const(camera.R.T)
    flat = np.nonzero(frag.face.reshape(-1) >= 0)[0]
    if flat.size == 0:
        return tape.const(np.zeros((H, W, 3))), frag
    fsel = frag.face.reshape(-1)[flat]
    bary = frag.bary.reshape(-1, 3)[flat]
    n0 = ad.take(n_cam, faces[fsel, 0])
    n1 = ad.take(n_cam, faces[fsel, 1])
    n2 = ad.take(n_cam, faces[fsel, 2])
    n_pix = n0 * bary[:, 0:1] + n1 * bary[:, 1:2] + n2 * bary[:, 2:3]
    n_pix = n_pix / ad.norm2(n_pix, axis=1, keepdims=True)
    idx = (flat[:, None] * 3 + np.arange(3)[None, :])
    img = ad.scatter_into(np.zeros(H * W * 3), idx, n_pix)
    return img.reshape((H, W, 3)), frag


def render_normals(mesh: Mesh, camera, frag: FragmentBuffer = None):
    """Numpy normal map for label generation; same code path as the Var form."""
    tape = ad.Tape()
    img, frag = render_normals_var(tape.const(mesh.vertices), mesh.faces, camera, frag)
    return img.value, frag


@dataclass
class ContourTopology:
    """Edge table reused across renders of one mesh topology."""
    edges: np.ndarray        # (E,2) vertex ids
    edge_faces: np.ndarray   # (E,2) adjacent face ids, -1 padding
    n_adjacent: np.ndarray   # (E,) 1 or 2

    @classmethod
    def build(cls, mesh: Mesh):
        uniq, face_ids, start, counts = mesh.edges_with_faces()
        if np.any(counts > 2):
            raise ValueError("non-manifold edge (more than two incident faces)")
        ef = np.full((len(uniq), 2), -1, dtype=np.int64)
        ef[:, 0] = face_ids[start]
        two = counts == 2
        ef[two, 1] = face_ids[start[two] + 1]
        return cls(uniq, ef, counts)


def _contour_edges(topo: ContourTopology, front_faces):
    """Edges with exactly one camera-facing adjacent face (the occluding
    contour plus open boundaries)."""
    f0 = np.where(topo.edge_faces[:, 0] >= 0, front_faces[topo.edge_faces[:, 0]], False)
    f1 = np.where(topo.edge_faces[:, 1] >= 0, front_faces[topo.edge_faces[:, 1]], False)
    return topo.edges[f0.astype(int) + f1.astype(int) == 1]


def _band_pixels(mask, band):
    """Flat indices, ascending, of the pixels whose centre lies within
    ``band + 1.5`` px of a centre of the other coverage class.

    Both distance transforms run on the mask's bounding box grown by
    ``ceil(band + 2)`` px and clipped to the image.  A pixel within the
    reach of the other class has its nearest such pixel inside that crop,
    so the result equals the full-image transforms'; pixels outside the
    crop are farther than the reach from any covered pixel.
    """
    H, W = mask.shape
    grow = int(np.ceil(band + 2.0))
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    r0, r1 = max(rows[0] - grow, 0), min(rows[-1] + grow + 1, H)
    c0, c1 = max(cols[0] - grow, 0), min(cols[-1] + grow + 1, W)
    crop = mask[r0:r1, c0:c1]
    dist = np.where(crop, ndimage.distance_transform_edt(crop),
                    ndimage.distance_transform_edt(~crop))
    ii, jj = np.nonzero(dist <= band + 1.5)
    return (ii + r0) * W + (jj + c0)


def _segment_d2(px, py, ax, ay, abx, aby, denom):
    """Squared distance from points (px, py) to segments a + t·ab, t in
    [0, 1]; the arguments broadcast against each other."""
    t = (px - ax) * abx
    t += (py - ay) * aby
    t = np.clip(t / denom, 0.0, 1.0)
    dx = ax + t * abx - px
    dy = ay + t * aby - py
    return dx * dx + dy * dy


def _nearest_edge(pc, a, b, radius):
    """Index of the segment (a[e], b[e]) nearest to each point of ``pc``.

    Exact for any ``radius > 0``; the radius only sets the work.  Each
    segment goes into every cell of a uniform grid (side ``radius``) that
    its bounding box, grown by ``radius``, touches, so a point's cell holds
    every segment within ``radius`` of it.  Only those candidates are
    tested.  A point whose nearest candidate is farther than ``radius``
    (or that has none) is searched densely over all segments.  Ties in the
    squared distance go to the lowest segment index, as ``np.argmin`` does.
    """
    ab = b - a
    denom = np.maximum(np.sum(ab * ab, axis=1), 1e-30)
    P, E = len(pc), len(a)
    origin = pc.min(axis=0)
    pcell = np.floor((pc - origin) / radius).astype(np.int64)
    gw, gh = pcell.max(axis=0) + 1
    # grown boxes; the 1e-6 px slack covers rounding at the box edge
    reach = radius + 1e-6
    lo = np.floor((np.minimum(a, b) - reach - origin) / radius)
    hi = np.floor((np.maximum(a, b) + reach - origin) / radius)
    top = np.array([gw - 1, gh - 1])
    live = np.all((hi >= 0) & (lo <= top), axis=1)
    lo = np.clip(lo, 0, top).astype(np.int64)
    hi = np.clip(hi, 0, top).astype(np.int64)
    nx = hi[:, 0] - lo[:, 0] + 1
    cells_per_edge = np.where(live, nx * (hi[:, 1] - lo[:, 1] + 1), 0)

    eid = np.repeat(np.arange(E), cells_per_edge)
    off = np.arange(len(eid)) - np.repeat(np.cumsum(cells_per_edge) - cells_per_edge,
                                          cells_per_edge)
    cell = ((lo[eid, 1] + off // nx[eid]) * gw + lo[eid, 0] + off % nx[eid])
    bucket = eid[np.argsort(cell, kind="stable")]
    count = np.bincount(cell, minlength=gw * gh)
    first = np.cumsum(count) - count

    pid = pcell[:, 1] * gw + pcell[:, 0]
    n = count[pid]
    n_pairs = int(n.sum())
    nearest = np.zeros(P, dtype=np.int64)
    dense = n == 0
    if n_pairs:
        seg_start = np.cumsum(n) - n
        pix = np.repeat(np.arange(P), n)
        edge = bucket[np.repeat(first[pid] - seg_start, n) + np.arange(n_pairs)]
        d2 = _segment_d2(pc[pix, 0], pc[pix, 1], a[edge, 0], a[edge, 1],
                         ab[edge, 0], ab[edge, 1], denom[edge])
        has = ~dense
        starts = seg_start[has]
        best = np.minimum.reduceat(d2, starts)
        tied = d2 == np.repeat(best, n[has])
        nearest[has] = np.minimum.reduceat(np.where(tied, edge, E), starts)
        dense[has] = best > radius * radius
    if dense.any():
        q = pc[dense]
        nearest[dense] = np.argmin(_segment_d2(
            q[:, None, 0], q[:, None, 1], a[None, :, 0], a[None, :, 1],
            ab[None, :, 0], ab[None, :, 1], denom[None, :]), axis=1)
    return nearest


def _edge_sigmoid(pix_var: ad.Var, ia, ib, pc, scale):
    """One tape node: ``sigmoid(scale · |pc − a − t·(b − a)|)`` per row,
    with ``a = pix[ia]``, ``b = pix[ib]`` and t the clamped foot parameter.

    The VJP keeps the clamp conventions of :mod:`footfit.autodiff`:
    gradient passes only inside the closed intervals of t (``[0, 1]``),
    the denominator ``|b − a|²`` (``[1e-30, 1e30]``) and the squared
    distance (``[1e-24, 1e60]``; the lower clamp keeps the gradient finite
    for pixel centres exactly on an edge).
    """
    pix = pix_var.value
    n_verts = len(pix)
    pa = pc - pix[ia]
    ab = pix[ib] - pix[ia]
    num = (pa * ab).sum(axis=1)
    dd = (ab * ab).sum(axis=1)
    den = np.clip(dd, 1e-30, 1e30)
    q = num / den
    t = np.clip(q, 0.0, 1.0)
    res = pa - t[:, None] * ab
    sq = (res * res).sum(axis=1)
    dist = np.sqrt(np.clip(sq, 1e-24, 1e60))
    out = special.expit(dist * scale)
    pass_t = (q >= 0.0) & (q <= 1.0)
    pass_den = (dd >= 1e-30) & (dd <= 1e30)
    pass_sq = (sq >= 1e-24) & (sq <= 1e60)
    rows = np.concatenate([ia, ib])

    def vjp(g):
        g_sq = g * out * (1.0 - out) * scale * 0.5 / dist * pass_sq
        g_res = 2.0 * res * g_sq[:, None]
        g_q = -(g_res * ab).sum(axis=1) * pass_t
        g_num = g_q / den
        g_den = -g_q * num / (den * den) * pass_den
        g_pa = g_res + g_num[:, None] * ab
        g_ab = (-t[:, None] * g_res + g_num[:, None] * pa
                + 2.0 * g_den[:, None] * ab)
        g_a = -g_pa - g_ab
        grad = np.empty((n_verts, 2))
        for c in range(2):
            grad[:, c] = np.bincount(rows, np.concatenate([g_a[:, c], g_ab[:, c]]),
                                     minlength=n_verts)
        return (grad,)

    return ad.custom((pix_var,), out, vjp)


def render_silhouette_soft_var(verts: ad.Var, faces, camera, sharpness=40.0,
                               frag: FragmentBuffer = None, topo: ContourTopology = None,
                               proj=None):
    """Soft silhouette: sigmoid(sharpness × signed distance to the nearest
    occluding-contour edge in pixel space), positive inside coverage.

    Pixels farther than a saturation band from the contour take their
    limit values (1 inside, 0 outside) with zero gradient; the sigmoid
    there differs from the limit by less than exp(-sharpness × band).
    ``proj`` takes the result of :func:`project_vertices_var` for this
    camera, so that callers can share one projection per view.

    The band holds the pixels within ``R = band + 1.5`` px of a pixel of
    the other coverage class.  Each band pixel's nearest contour edge lies
    within R of it: the segment to that other pixel leaves (or enters) the
    union of camera-facing triangles, and the union's boundary lies on
    contour edges.  The nearest-edge search therefore looks only at edges
    near each pixel (see :func:`_nearest_edge`).  Ties in the squared
    distance go to the lowest contour-edge row.
    """
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    tape = verts.tape
    if frag is None:
        frag = rasterize(Mesh(verts.value, faces), camera)
    if topo is None:
        topo = ContourTopology.build(Mesh(verts.value, faces))
    mask = frag.mask
    contour = _contour_edges(topo, frag.front_faces)
    if contour.size == 0 or not mask.any() or mask.all():
        return tape.const(mask.astype(np.float64)), frag

    band = max(3.0, 12.0 / sharpness)
    flat = _band_pixels(mask, band)
    pix_var, _ = project_vertices_var(verts, camera) if proj is None else proj
    pix = pix_var.value
    ii, jj = np.divmod(flat, camera.width)
    pc = np.stack([jj + 0.5, ii + 0.5], axis=1)

    # nearest contour edge per band pixel, chosen outside the tape
    nearest = contour[_nearest_edge(pc, pix[contour[:, 0]], pix[contour[:, 1]],
                                    band + 1.5)]
    sign = np.where(mask.reshape(-1)[flat], 1.0, -1.0)
    vals = _edge_sigmoid(pix_var, nearest[:, 0], nearest[:, 1], pc, sign * sharpness)
    return ad.scatter_into(mask.astype(np.float64), flat, vals), frag


def render_silhouette_soft(mesh: Mesh, camera, sharpness=40.0):
    tape = ad.Tape()
    img, frag = render_silhouette_soft_var(tape.const(mesh.vertices), mesh.faces,
                                           camera, sharpness)
    return img.value, frag


def project_keypoints_var(verts: ad.Var, kp_vertex_ids, camera, proj=None):
    """Normalized keypoint positions (K,2) as a Var plus 0/1 visibility.

    A keypoint is visible when it lands in [0, W) × [0, H) pixel bounds
    with positive depth.  Visibility is a value, not a Var.  ``proj``
    takes the result of :func:`project_vertices_var` for this camera.
    """
    kp_ids = np.asarray(kp_vertex_ids)
    pix_var, z = project_vertices_var(verts, camera) if proj is None else proj
    kp_pix = ad.take(pix_var, kp_ids)
    norm = kp_pix / np.array([camera.width, camera.height], dtype=np.float64)
    p = kp_pix.value
    zk = z[kp_ids]
    visible = ((zk > 0) & (p[:, 0] >= 0) & (p[:, 0] < camera.width)
               & (p[:, 1] >= 0) & (p[:, 1] < camera.height)).astype(np.float64)
    return norm, visible


def project_keypoints(mesh: Mesh, kp_vertex_ids, camera):
    tape = ad.Tape()
    norm, visible = project_keypoints_var(tape.const(mesh.vertices), kp_vertex_ids, camera)
    return norm.value, visible


def cutoff_fraction(mesh: Mesh, cutoff_height, camera, frag: FragmentBuffer = None) -> float:
    """Fraction of covered pixels whose surface point lies above the
    horizontal plane z = cutoff_height.  Empty coverage gives 0."""
    if frag is None:
        frag = rasterize(mesh, camera)
    sel = frag.face.reshape(-1) >= 0
    if not sel.any():
        return 0.0
    fsel = frag.face.reshape(-1)[sel]
    bary = frag.bary.reshape(-1, 3)[sel]
    z_corners = mesh.vertices[mesh.faces[fsel], 2]
    z_pix = np.sum(bary * z_corners, axis=1)
    return float(np.mean(z_pix > cutoff_height))
