"""Triangle meshes, surface sampling, nearest neighbors and chamfer statistics.

Lengths are in meters throughout the package; anything quoted in cm/mm is
converted at the boundary.  Medians are lower-medians for even counts so
every statistic is an order statistic of the data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Mesh", "SurfaceSample", "sample_surface",
    "nearest_neighbors", "chamfer_stats", "euler_rotation", "lower_median",
    "load_obj", "save_obj", "load_ply", "save_ply",
]


class MeshError(ValueError):
    pass


@dataclass
class Mesh:
    vertices: np.ndarray          # (V, 3) float64, meters
    faces: np.ndarray             # (F, 3) int

    def __post_init__(self):
        self.vertices = np.asarray(self.vertices, dtype=np.float64)
        self.faces = np.asarray(self.faces, dtype=np.int64)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 3:
            raise MeshError("vertices must be (V, 3)")
        if self.faces.ndim != 2 or self.faces.shape[1] != 3:
            raise MeshError("faces must be (F, 3) triangles")

    def check_indices(self):
        """Every face index names a vertex."""
        if self.faces.size and (self.faces.min() < 0 or self.faces.max() >= len(self.vertices)):
            raise MeshError("face index out of range")
        return self

    def validate(self):
        self.check_indices()
        if np.any(self.face_areas() <= 0.0):
            raise MeshError("degenerate (zero-area) face")
        return self

    def triangles(self):
        return self.vertices[self.faces]

    def face_cross(self):
        tri = self.triangles()
        return np.cross(tri[:, 1] - tri[:, 0], tri[:, 2] - tri[:, 0])

    def face_areas(self):
        return 0.5 * np.linalg.norm(self.face_cross(), axis=1)

    def face_normals(self):
        c = self.face_cross()
        return c / np.linalg.norm(c, axis=1, keepdims=True)

    def edges_with_faces(self):
        """Undirected edges (E, 2) and the list of incident face ids per edge."""
        f = self.faces
        raw = np.concatenate([f[:, [0, 1]], f[:, [1, 2]], f[:, [2, 0]]], axis=0)
        key = np.sort(raw, axis=1)
        face_ids = np.tile(np.arange(len(f)), 3)
        order = np.lexsort((key[:, 1], key[:, 0]))
        key, face_ids = key[order], face_ids[order]
        uniq, start = np.unique(key, axis=0, return_index=True)
        counts = np.diff(np.append(start, len(key)))
        return uniq, face_ids, start, counts

    def is_watertight(self):
        """True when every edge is shared by exactly two faces."""
        _, _, _, counts = self.edges_with_faces()
        return bool(np.all(counts == 2))

    def copy_with(self, vertices):
        return Mesh(np.asarray(vertices, dtype=np.float64), self.faces)


@dataclass
class SurfaceSample:
    points: np.ndarray       # (N, 3)
    normals: np.ndarray      # (N, 3) unit
    face_ids: np.ndarray = field(default=None)


def sample_surface(mesh: Mesh, n: int, seed) -> SurfaceSample:
    """n points uniform over surface area; face normals attached; seeded."""
    if n <= 0:
        raise ValueError("sample count must be positive")
    areas = mesh.face_areas()
    total = areas.sum()
    if total <= 0.0:
        raise MeshError("mesh has no positive area")
    rng = np.random.default_rng(seed)
    cdf = np.cumsum(areas) / total
    face_ids = np.searchsorted(cdf, rng.random(n), side="right")
    face_ids = np.minimum(face_ids, len(areas) - 1)
    u = rng.random(n)
    v = rng.random(n)
    flip = u + v > 1.0
    u[flip], v[flip] = 1.0 - u[flip], 1.0 - v[flip]
    tri = mesh.triangles()[face_ids]
    pts = tri[:, 0] + u[:, None] * (tri[:, 1] - tri[:, 0]) + v[:, None] * (tri[:, 2] - tri[:, 0])
    return SurfaceSample(pts, mesh.face_normals()[face_ids], face_ids)


def nearest_neighbors(query: np.ndarray, target: np.ndarray):
    """Exact Euclidean nearest neighbor of each query in target: (index, distance)."""
    # imported on use: only eval3d needs it, and scipy.spatial adds about
    # 0.13 s to the start-up of every process that imports this module
    from scipy.spatial import cKDTree

    target = np.asarray(target, dtype=np.float64)
    if len(target) == 0:
        raise ValueError("empty target")
    dist, idx = cKDTree(target).query(np.asarray(query, dtype=np.float64), k=1)
    return idx, dist


def lower_median(values: np.ndarray) -> float:
    """Order-statistic median: element (n-1)//2 of the sorted data."""
    values = np.sort(np.asarray(values).ravel())
    return float(values[(len(values) - 1) // 2])


def chamfer_stats(a: SurfaceSample, b: SurfaceSample) -> dict:
    """Bidirectional chamfer statistics pooled over a→b and b→a pairs.

    Angular error is arccos of the clamped dot of unit normals, in
    degrees.  Pooling both directions makes the result symmetric.
    """
    ia, da = nearest_neighbors(a.points, b.points)
    ib, db = nearest_neighbors(b.points, a.points)
    dists = np.concatenate([da, db])
    cos_ab = np.sum(a.normals * b.normals[ia], axis=1)
    cos_ba = np.sum(b.normals * a.normals[ib], axis=1)
    ang = np.degrees(np.arccos(np.clip(np.concatenate([cos_ab, cos_ba]), -1.0, 1.0)))
    return {
        "mean_distance": float(dists.mean()),
        "median_distance": lower_median(dists),
        "mean_normal_deg": float(ang.mean()),
        "median_normal_deg": lower_median(ang),
    }


def euler_rotation(r) -> np.ndarray:
    """Extrinsic XYZ Euler rotation: R = Rz(rz) @ Ry(ry) @ Rx(rx)."""
    rx, ry, rz = np.asarray(r, dtype=np.float64)
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    Rx = np.array([[1, 0, 0], [0, cx, -sx], [0, sx, cx]])
    Ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    Rz = np.array([[cz, -sz, 0], [sz, cz, 0], [0, 0, 1]])
    return Rz @ Ry @ Rx


# ---------------------------------------------------------------------------
# Mesh file formats: ASCII OBJ and binary little-endian PLY.

def save_obj(path, mesh: Mesh):
    with open(path, "w") as fh:
        for v in mesh.vertices:
            fh.write(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}\n")
        for f in mesh.faces:
            fh.write(f"f {f[0] + 1} {f[1] + 1} {f[2] + 1}\n")


def load_obj(path) -> Mesh:
    """The ``v`` and ``f`` lines of an OBJ file.  A vertex with fewer than
    three coordinates, a number that does not parse, a face that is not a
    triangle and a face index outside the vertex list raise MeshError."""
    verts, faces = [], []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            parts = line.split()
            if not parts or parts[0].startswith("#"):
                continue
            if parts[0] == "v" and len(parts) < 4:
                raise MeshError(f"{path}:{n}: a vertex needs three coordinates")
            if parts[0] == "f" and len(parts) != 4:
                raise MeshError("only triangular faces are supported")
            try:
                if parts[0] == "v":
                    verts.append([float(x) for x in parts[1:4]])
                elif parts[0] == "f":
                    faces.append([int(p.split("/")[0]) - 1 for p in parts[1:]])
            except ValueError as exc:
                raise MeshError(f"{path}:{n}: {exc}") from exc
    if not verts:
        raise MeshError("OBJ contains no vertices")
    return Mesh(np.array(verts, dtype=np.float64),
                np.array(faces, dtype=np.int64).reshape(-1, 3)).check_indices()


_PLY_HEADER = """ply
format binary_little_endian 1.0
element vertex {nv}
property double x
property double y
property double z
element face {nf}
property list uchar int vertex_indices
end_header
"""


_PLY_FACE = np.dtype([("n", "u1"), ("v", "<i4", (3,))])    # 13 bytes, unpadded
# the header lines load_ply accepts, element lines without their counts
_PLY_LAYOUT = [" ".join(line.split())
               for line in _PLY_HEADER.format(nv="", nf="").splitlines()[:-1]]


def save_ply(path, mesh: Mesh):
    with open(path, "wb") as fh:
        fh.write(_PLY_HEADER.format(nv=len(mesh.vertices), nf=len(mesh.faces)).encode("ascii"))
        fh.write(np.ascontiguousarray(mesh.vertices, dtype="<f8").tobytes())
        rec = np.zeros(len(mesh.faces), dtype=_PLY_FACE)
        rec["n"] = 3
        rec["v"] = mesh.faces
        fh.write(rec.tobytes())


def load_ply(path) -> Mesh:
    """A binary little-endian PLY in the layout :func:`save_ply` writes:
    vertices of ``double x``, ``y``, ``z``, then faces of ``list uchar int
    vertex_indices`` (the face element may be missing).  Comment lines are
    skipped; any other header raises :class:`MeshError` naming the layout."""
    with open(path, "rb") as fh:
        data = fh.read()
    end = data.find(b"end_header\n")
    if not data.startswith(b"ply") or end < 0:
        raise MeshError("not a PLY file")
    # a non-ASCII byte becomes U+FFFD, which no accepted header line holds
    header = data[:end].decode("ascii", errors="replace").splitlines()
    if "format binary_little_endian 1.0" not in header:
        raise MeshError("only binary little-endian PLY is supported")
    counts = {"vertex": 0, "face": 0}
    layout = []
    for line in header:
        parts = line.split()
        if parts[:1] == ["comment"]:
            continue
        if parts[:1] == ["element"] and len(parts) == 3 and parts[1] in counts:
            if not parts[2].isdigit():
                raise MeshError(f"bad {parts[1]} count {parts[2]!r}")
            counts[parts[1]] = int(parts[2])
            del parts[2]
        layout.append(" ".join(parts))
    if layout not in (_PLY_LAYOUT, _PLY_LAYOUT[:-2]):
        raise MeshError(f"{path}: unsupported PLY layout; only 'element vertex' with "
                        "'property double x', 'y', 'z', then 'element face' with "
                        "'property list uchar int vertex_indices' is read")
    nv, nf = counts["vertex"], counts["face"]
    body = data[end + len(b"end_header\n"):]
    need = nv * 24 + nf * _PLY_FACE.itemsize
    if len(body) < need:
        raise MeshError(f"truncated PLY: {nv} vertices and {nf} triangles need "
                        f"{need} bytes after the header, the file has {len(body)}")
    verts = np.frombuffer(body, dtype="<f8", count=nv * 3).reshape(nv, 3).astype(np.float64)
    rec = np.frombuffer(body, dtype=_PLY_FACE, count=nf, offset=nv * 24)
    if np.any(rec["n"] != 3):
        raise MeshError("only triangular faces are supported")
    return Mesh(verts, rec["v"])
