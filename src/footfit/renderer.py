"""Differentiable rasterization: normal maps, soft silhouettes, keypoints.

The rasterizer produces a :class:`FragmentBuffer`: a hard pixel→face
assignment with perspective-correct barycentric weights, and the
camera-facing faces.  It keeps no depth image; a pixel's depth or world
height is the barycentric mix of its face's corners.  The assignment is
treated as a constant during backward (straight-through visibility):
gradients reach the mesh vertices only through interpolated normal
values, projected keypoints, and the soft silhouette's edge distances.

Pixel centers sit at (column + 0.5, row + 0.5).  Coverage is the
inclusive half-plane edge-function test.  Back-face culling is on:
with the y-down camera frame of :mod:`footfit.camera`, front-facing
triangles have negative signed area in pixel coordinates.  Faces with
any vertex at depth ≤ ``Z_NEAR`` are dropped entirely (no near-plane
clipping); synthetic desk scenes keep the mesh far in front of it.

The rasterizer enumerates only each face's row spans: per pixel-centre
row it intersects the three edges, widens the span by one column each
side against rounding, and runs the exact edge test there.  Only pixels
covered by more than one face are sorted for visibility.  The soft
silhouette's band (pixels near the other coverage class) is built by
dilating each class's boundary pixels with an integer disk, not by
distance transforms.

Each differentiable step is one tape node with a hand-written VJP: the
projection of the vertices into all cameras, the area-weighted vertex
normals, the pixel normals of all views (rotation, corner gather,
interpolation and normalisation in one pass) and the soft silhouette's
edge sigmoid.  The op-by-op chains they replace are test references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import camera as cam_mod
from .camera import Z_NEAR
from .geometry import Mesh

__all__ = [
    "FragmentBuffer", "rasterize", "render_normals", "render_normals_var",
    "render_silhouette_soft_var", "project_keypoints_var",
    "project_vertices_var", "vertex_normals_var", "pixel_heights",
    "cutoff_fraction", "ContourTopology",
]


@dataclass
class FragmentBuffer:
    face: np.ndarray      # (H,W) int64, -1 where empty
    bary: np.ndarray      # (H,W,3) perspective-correct weights
    front_faces: np.ndarray   # bool per face: z-valid and camera-facing

    @property
    def mask(self):
        return self.face >= 0


def rasterize(faces, pix, z, camera) -> FragmentBuffer:
    """Hard visibility in ``camera`` of the triangles ``faces`` whose
    vertices project to ``pix`` (V,2) at depths ``z`` (V,), one view of
    :func:`footfit.camera.project`: per pixel the nearest camera-facing
    face and its perspective-correct barycentrics.

    Each front face is traversed only over its pixel-centre rows within
    its bounding box, and on each row only over the columns the three
    edges bound.  Edge ``a → b`` passes a centre (px, py) when
    ``(bx − ax)(py − ay) − (by − ay)(px − ax) ≤ 0``; along a row that is a
    half-line in px with end ``ax + (bx − ax)(py − ay)/(by − ay)`` (all or
    nothing when ``by = ay``), and the float test is monotone in px, so the
    inside columns of a row are contiguous.  The ends are widened by one
    column each side, which absorbs their rounding, and clipped to the
    box; the edge test then decides every column exactly.  Candidates run
    face by face, row by row, column by column.  Only pixels that more than
    one face covers are sorted by (depth, face) to pick the winner; the
    rest are written directly.
    """
    H, W = camera.height, camera.width
    face_buf = np.full((H, W), -1, dtype=np.int64)
    bary_buf = np.zeros((H, W, 3))
    corners = faces.T
    # (3, F): x, y and depth of corner k of every face
    x, y, zc = pix[:, 0][corners], pix[:, 1][corners], z[corners]
    area2 = (x[1] - x[0]) * (y[2] - y[0]) - (y[1] - y[0]) * (x[2] - x[0])
    front = ((zc[0] > Z_NEAR) & (zc[1] > Z_NEAR) & (zc[2] > Z_NEAR)
             & (area2 < -1e-14))     # camera-facing under y-down pixel coords
    frag = FragmentBuffer(face_buf, bary_buf, front)
    if not np.any(front):
        return frag

    fids = np.nonzero(front)[0]
    x, y, zc = (np.take(c, fids, axis=1) for c in (x, y, zc))
    a2 = area2[fids]
    # pixel-center bounding boxes, clipped to the image
    j0 = np.maximum(np.ceil(np.minimum(np.minimum(x[0], x[1]), x[2]) - 0.5), 0)
    j1 = np.minimum(np.floor(np.maximum(np.maximum(x[0], x[1]), x[2]) - 0.5), W - 1)
    i0 = np.maximum(np.ceil(np.minimum(np.minimum(y[0], y[1]), y[2]) - 0.5), 0)
    i1 = np.minimum(np.floor(np.maximum(np.maximum(y[0], y[1]), y[2]) - 0.5), H - 1)
    n_rows = np.where(j1 >= j0, np.maximum(i1 - i0 + 1, 0), 0).astype(np.int64)

    # one entry per (face, row)
    row_face = np.repeat(np.arange(len(fids)), n_rows)
    ii = i0[row_face].astype(np.int64) + np.arange(len(row_face)) - np.repeat(
        np.cumsum(n_rows) - n_rows, n_rows)
    py_c = ii + 0.5
    # the columns j with j + 0.5 ≥ end (rise > 0) or ≤ end (rise < 0) of
    # each edge, one more on each side, within the box
    lo, hi = j0[row_face], j1[row_face]
    edges = []          # per edge and row: (bx − ax)(py − ay), by − ay, ax
    for a, b in ((1, 2), (2, 0), (0, 1)):
        ax = x[a][row_face]
        rise = (y[b] - y[a])[row_face]
        run = (x[b] - x[a])[row_face] * (py_c - y[a][row_face])
        with np.errstate(divide="ignore", invalid="ignore"):
            end = ax + run / rise
        lo = np.where(rise > 0, np.maximum(lo, np.ceil(end - 1.5)), lo)
        hi = np.where(rise < 0, np.minimum(hi, np.floor(end + 0.5)), hi)
        hi = np.where((rise == 0) & (run > 0), -1.0, hi)   # fails the whole row
        edges.append((run, rise, ax))
    width = np.where(hi >= lo, hi - lo + 1, 0).astype(np.int64)

    # one entry per candidate pixel
    row = np.repeat(np.arange(len(row_face)), width)
    jj = lo[row].astype(np.int64) + np.arange(len(row)) - np.repeat(
        np.cumsum(width) - width, width)
    px_c = jj + 0.5
    w0, w1, w2 = (run[row] - rise[row] * (px_c - ax[row]) for run, rise, ax in edges)
    inside = (w0 <= 0) & (w1 <= 0) & (w2 <= 0)   # same sign as the negative area
    if not np.any(inside):
        return frag
    row, jj = row[inside], jj[inside]
    cand = row_face[row]
    lam = np.stack([w0[inside], w1[inside], w2[inside]], axis=1) / a2[cand][:, None]

    inv_z = lam / zc.T[cand]
    inv_sum = inv_z.sum(axis=1)
    depth = 1.0 / inv_sum
    bary = inv_z / inv_sum[:, None]

    flat = ii[row] * W + jj
    global_face = fids[cand]
    shared = np.bincount(flat)[flat] > 1
    dup = np.nonzero(shared)[0]
    order = dup[np.lexsort((global_face[dup], depth[dup], flat[dup]))]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat[order[1:]] != flat[order[:-1]]
    sel = np.concatenate([np.nonzero(~shared)[0], order[first]])

    face_buf.reshape(-1)[flat[sel]] = global_face[sel]
    bary_buf.reshape(-1, 3)[flat[sel]] = bary[sel]
    return frag


# ---------------------------------------------------------------------------
# Differentiable attribute rendering on top of a fixed FragmentBuffer.

def project_vertices_var(verts: ad.Var, cameras):
    """Pixels (N,V,2) of ``verts`` in N cameras as one Var, plus the raw
    depths (N,V): :func:`footfit.camera.project` on the tape.  Its clamped
    divisor passes gradient only inside [Z_NEAR, 1e12], so behind-camera
    vertices (always culled by the rasterizer) cannot poison gradients."""
    pix, cam_pts = cam_mod.project(cameras, verts.value)
    z = cam_pts[..., 2:3]

    def vjp(g):
        focal = np.array([[[cam.fx, cam.fy]] for cam in cameras])
        z_safe = np.clip(z, Z_NEAR, 1e12)
        inside = (z >= Z_NEAR) & (z <= 1e12)
        g_z = -g * (cam_pts[..., :2] * focal) / (z_safe * z_safe)
        g_cam = np.concatenate(
            [g / z_safe * focal, (g_z[..., 1:2] + g_z[..., 0:1]) * inside], axis=2)
        return (sum(g_cam[v] @ cameras[v].R for v in reversed(range(len(cameras)))),)

    return ad.custom((verts,), pix, vjp), cam_pts[..., 2]


def _unit_cols(x):
    """Columns of the (3,N) ``x`` scaled to unit length, and their (N,)
    lengths.  Component-major arrays keep numpy's inner loops N long."""
    norm = np.sqrt(x[0] * x[0] + x[1] * x[1] + x[2] * x[2])
    return x / norm, norm


def _unit_cols_vjp(g, unit, norm):
    """Cotangent of x for ``unit = x / |x|`` column by column."""
    return (g - unit * (g[0] * unit[0] + g[1] * unit[1] + g[2] * unit[2])) / norm


def vertex_normals_var(verts: ad.Var, faces) -> ad.Var:
    """Differentiable area-weighted unit vertex normals (world frame), as
    one tape node: each face's edge cross product (b − a) × (c − a) is
    summed onto its three corners, and each vertex's sum is normalised."""
    v = verts.value
    corners = faces.T.reshape(-1)          # corner 0 of every face, then 1, 2
    e1 = v[faces[:, 1]] - v[faces[:, 0]]
    e2 = v[faces[:, 2]] - v[faces[:, 0]]
    acc = ad.scatter_rows(np.tile(np.cross(e1, e2), (3, 1)), corners, v.shape)
    out, norm = _unit_cols(acc.T)

    def vjp(g):
        g_acc = _unit_cols_vjp(g.T, out, norm).T[faces]
        g_cross = g_acc[:, 0] + g_acc[:, 1] + g_acc[:, 2]
        g_e1, g_e2 = np.cross(e2, g_cross), np.cross(g_cross, e1)
        return (ad.scatter_rows(np.concatenate([-g_e1 - g_e2, g_e1, g_e2]),
                                corners, v.shape),)

    return ad.custom((verts,), out.T, vjp)


def render_normals_var(n_world: ad.Var, faces, cameras, frags, scored):
    """Unit camera-frame normals (P,3) at the ``scored`` pixels (ascending
    flat indices inside coverage, one array per view) of every view, as one
    Var whose rows run view by view.  ``n_world`` is
    :func:`vertex_normals_var` of the mesh rasterized into ``frags``.  One
    node rotates the normals into all cameras, takes each pixel's three
    corners, interpolates them with the perspective-correct barycentrics
    and normalises, over the pixels of all views at once."""
    n_verts = n_world.shape[0]
    face_corners = np.ascontiguousarray(faces.T)
    corners, bary = [], []
    for view, (frag, flat) in enumerate(zip(frags, scored)):
        corners.append(np.take(face_corners, np.take(frag.face, flat), axis=1)
                       + view * n_verts)
        bary.append(np.take(frag.bary.reshape(-1, 3), flat, axis=0))
    # (3,P): corner k of every pixel, and its weight
    corners = np.concatenate(corners, axis=1)
    bary = np.ascontiguousarray(np.concatenate(bary).T)
    rots = [cam.R for cam in cameras]
    n_cam = np.concatenate([n_world.value @ R.T for R in rots]).T.copy()
    n_pix = np.take(n_cam, corners[0], axis=1) * bary[0]
    n_pix += np.take(n_cam, corners[1], axis=1) * bary[1]
    n_pix += np.take(n_cam, corners[2], axis=1) * bary[2]
    out, norm = _unit_cols(n_pix)
    corners = corners.reshape(-1)

    def vjp(g):
        g_pix = _unit_cols_vjp(g.T, out, norm)
        g_cam = np.stack([np.bincount(corners, (bary * g_pix[c]).reshape(-1),
                                      minlength=n_cam.shape[1]) for c in range(3)], axis=1)
        g_cam = g_cam.reshape(len(rots), n_verts, 3)
        return (sum(g_cam[v] @ rots[v] for v in reversed(range(len(rots)))),)

    return ad.custom((n_world,), out.T, vjp)


def render_normals(mesh: Mesh, camera, frag: FragmentBuffer):
    """Numpy camera-frame normal map (H,W,3) of ``mesh`` rasterized into
    ``frag``, zero outside coverage, from the rows of
    :func:`render_normals_var`."""
    n_world = vertex_normals_var(ad.Tape().const(mesh.vertices), mesh.faces)
    img = np.zeros((camera.height, camera.width, 3))
    img[frag.mask] = render_normals_var(n_world, mesh.faces, [camera], [frag],
                                        [np.flatnonzero(frag.mask)]).value
    return img


@dataclass
class ContourTopology:
    """Edge table reused across renders of one mesh topology."""
    edges: np.ndarray        # (E,2) vertex ids
    edge_faces: np.ndarray   # (E,2) adjacent face ids, -1 padding

    @classmethod
    def build(cls, mesh: Mesh):
        uniq, face_ids, start, counts = mesh.edges_with_faces()
        if np.any(counts > 2):
            raise ValueError("non-manifold edge (more than two incident faces)")
        ef = np.full((len(uniq), 2), -1, dtype=np.int64)
        ef[:, 0] = face_ids[start]
        two = counts == 2
        ef[two, 1] = face_ids[start[two] + 1]
        return cls(uniq, ef)


def _contour_edges(topo: ContourTopology, front_faces):
    """Edges with exactly one camera-facing adjacent face (the occluding
    contour plus open boundaries)."""
    f0 = np.where(topo.edge_faces[:, 0] >= 0, front_faces[topo.edge_faces[:, 0]], False)
    f1 = np.where(topo.edge_faces[:, 1] >= 0, front_faces[topo.edge_faces[:, 1]], False)
    return topo.edges[f0.astype(int) + f1.astype(int) == 1]


def _band_pixels(mask, band):
    """Flat indices, ascending, of the pixels whose centre lies within
    ``R = band + 1.5`` px of a centre of the other coverage class; pixels
    outside the image do not count.

    A pixel's nearest pixel q of the other class has a 4-neighbour of the
    pixel's own class: the step from q towards the pixel stays inside the
    image and is nearer to the pixel, so it cannot be of q's class.  The
    band of one class is therefore the set of its pixels within R of the
    other class's boundary pixels (those with a 4-neighbour of the first
    class), and each class's boundary is dilated by the integer disk of
    radius R.  The work runs on the mask's bounding box grown by
    ``floor(R)`` px and clipped to the image; everything beyond it is
    uncovered and farther than R from any covered pixel.
    """
    H, W = mask.shape
    reach = band + 1.5
    r = int(reach)
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    r0, r1 = max(rows[0] - r, 0), min(rows[-1] + r + 1, H)
    c0, c1 = max(cols[0] - r, 0), min(cols[-1] + r + 1, W)
    crop = mask[r0:r1, c0:c1]
    h, w = crop.shape
    # edge padding: lying on the image border does not make a pixel a
    # boundary pixel (a superset of the boundary would only cost time)
    pad = np.pad(crop, 1, mode="edge")
    edge = ((pad[:-2, 1:-1] != crop) | (pad[2:, 1:-1] != crop)
            | (pad[1:-1, :-2] != crop) | (pad[1:-1, 2:] != crop))
    wide = w + 2 * r            # row length of the dilation buffer
    dy, dx = np.mgrid[-r:r + 1, -r:r + 1]
    disk = (dy * wide + dx)[np.sqrt(dy * dy + dx * dx) <= reach]

    def near(boundary):
        ii, jj = np.nonzero(boundary)
        out = np.zeros((h + 2 * r, wide), dtype=bool)
        out.reshape(-1)[((ii + r) * wide + jj + r)[:, None] + disk] = True
        return out[r:r + h, r:r + w]

    ii, jj = np.nonzero(np.where(crop, near(edge & ~crop), near(edge & crop)))
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
    P, E = len(pc), len(a)
    if P == 0:
        return np.zeros(0, dtype=np.int64)
    ab = b - a
    denom = np.maximum(np.sum(ab * ab, axis=1), 1e-30)
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
    with ``a = pix[ia]``, ``b = pix[ib]`` and t the clamped foot parameter;
    ``pix`` lists ``pix_var``'s rows, so row v·V + i of an (N,V,2) Var is
    vertex i in view v.

    The VJP keeps the clamp conventions of :mod:`footfit.autodiff`:
    gradient passes only inside the closed intervals of t (``[0, 1]``),
    the denominator ``|b − a|²`` (``[1e-30, 1e30]``) and the squared
    distance (``[1e-24, 1e60]``; the lower clamp keeps the gradient finite
    for pixel centres exactly on an edge).
    """
    pix = pix_var.value.reshape(-1, 2)
    n_rows = len(pix)
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
    out = ad.logistic(dist * scale)
    pass_t = (q >= 0.0) & (q <= 1.0)
    pass_den = (dd >= 1e-30) & (dd <= 1e30)
    pass_sq = (sq >= 1e-24) & (sq <= 1e60)
    rows = np.concatenate([ia, ib])
    shape = pix_var.shape

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
        grad = np.empty((n_rows, 2))
        for c in range(2):
            grad[:, c] = np.bincount(rows, np.concatenate([g_a[:, c], g_ab[:, c]]),
                                     minlength=n_rows)
        return (grad.reshape(shape),)

    return ad.custom((pix_var,), out, vjp)


def render_silhouette_soft_var(proj: ad.Var, cameras, frags, topo: ContourTopology,
                               sharpness=40.0):
    """Soft silhouette at the band pixels of every view, from one
    :func:`_edge_sigmoid` node (rows view by view), and each view's band as
    ascending flat pixel indices.  ``proj`` is the (N,V,2) pixel Var of
    :func:`project_vertices_var` for the N ``cameras``.

    The value is sigmoid(sharpness × signed distance to the nearest
    occluding-contour edge in pixel space), positive inside coverage.  Off
    the band it is taken as the hard mask, with zero gradient; it differs
    from that by less than exp(-sharpness × band).  A view with no contour,
    no coverage or full coverage has an empty band.

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
    band = max(3.0, 12.0 / sharpness)
    bands, rows = [], []
    for view, (camera, frag) in enumerate(zip(cameras, frags)):
        mask = frag.mask
        contour = _contour_edges(topo, frag.front_faces)
        flat = np.zeros(0, dtype=np.int64)
        if contour.size and mask.any() and not mask.all():
            flat = _band_pixels(mask, band)
        ii, jj = np.divmod(flat, camera.width)
        pc = np.stack([jj + 0.5, ii + 0.5], axis=1)
        # nearest contour edge per band pixel, chosen outside the tape
        pix = proj.value[view]
        nearest = contour[_nearest_edge(pc, pix[contour[:, 0]], pix[contour[:, 1]],
                                        band + 1.5)]
        bands.append(flat)
        rows.append((nearest + view * len(pix), pc,
                     np.where(mask.reshape(-1)[flat], sharpness, -sharpness)))
    ends, pc, scale = (np.concatenate(r) for r in zip(*rows))
    return _edge_sigmoid(proj, ends[:, 0], ends[:, 1], pc, scale), bands


def project_keypoints_var(proj, kp_vertex_ids, cameras):
    """Normalized positions (N,K,2) as a Var and 0/1 visibility (N,K) of
    distinct keypoint vertices, read from ``proj``, the result of
    :func:`project_vertices_var` for the N cameras.  A keypoint is visible
    when it lands in [0, W) × [0, H) pixel bounds at depth above ``Z_NEAR``."""
    pix_var, z = proj
    kp_ids = np.asarray(kp_vertex_ids)
    if len(np.unique(kp_ids)) != len(kp_ids):
        raise ValueError("keypoint vertex ids must be distinct")
    size = np.array([[[cam.width, cam.height]] for cam in cameras], dtype=np.float64)
    kp_pix = pix_var[:, kp_ids]
    p = kp_pix.value
    visible = (z[:, kp_ids] > Z_NEAR) & np.all((p >= 0) & (p < size), axis=2)
    return kp_pix / size, visible.astype(np.float64)


def pixel_heights(mesh: Mesh, frag: FragmentBuffer):
    """World z (H,W) of the surface point under each covered pixel of
    ``mesh`` rasterized into ``frag``, NaN off coverage."""
    z = np.full(frag.face.shape, np.nan)
    sel = frag.mask
    z[sel] = np.sum(frag.bary[sel] * mesh.vertices[mesh.faces[frag.face[sel]], 2], axis=1)
    return z


def cutoff_fraction(mesh: Mesh, cutoff_height, frag: FragmentBuffer) -> float:
    """Fraction of covered pixels whose surface point lies above the
    horizontal plane z = cutoff_height.  Empty coverage gives 0."""
    mask = frag.mask
    if not mask.any():
        return 0.0
    return float(np.mean(pixel_heights(mesh, frag)[mask] > cutoff_height))
