"""Output checks computed apart from the program.

The chamfer here has its own surface sampler and a brute-force nearest
neighbour; the expected angular error uses its closed form, not footfit's
quadrature table.  File readers are the benchmark's own too.
"""

import numpy as np

# Both meshes are sampled from one stream of uniforms, as ``eval3d`` does by
# default (one seed for both meshes), so a mesh identical to the reference
# reads about 0 and a rigid shift by d reads about d.
SAMPLES = 10000
SAMPLE_SEED = 12345
NN_CHUNK = 128


def read_obj(path):
    """(vertices (V,3), faces (F,3) zero-based) of a triangle OBJ file."""
    verts, faces = [], []
    with open(path) as fh:
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(x) for x in parts[1:4]])
            elif parts[0] == "f":
                faces.append([int(p.split("/")[0]) - 1 for p in parts[1:4]])
    return np.array(verts), np.array(faces, dtype=np.int64)


def read_pfm(path):
    """Single-channel little-endian PFM as a float64 (H,W) array."""
    with open(path, "rb") as fh:
        if fh.readline().strip() != b"Pf":
            raise ValueError(f"{path}: not a one-channel PFM file")
        w, h = (int(x) for x in fh.readline().split())
        if float(fh.readline()) >= 0:
            raise ValueError(f"{path}: not little-endian")
        data = np.frombuffer(fh.read(4 * w * h), dtype="<f4")
    return data.reshape(h, w).astype(np.float64)


def surface_samples(verts, faces, uniforms):
    """Area-uniform surface points from three (N,) uniform streams:
    face by area, then the square-root barycentric map."""
    a, b, c = (verts[faces[:, k]] for k in range(3))
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    cdf = np.cumsum(areas) / areas.sum()
    u0, u1, u2 = uniforms
    f = np.minimum(np.searchsorted(cdf, u0, side="right"), len(faces) - 1)
    r = np.sqrt(u1)
    return ((1.0 - r)[:, None] * a[f] + (r * (1.0 - u2))[:, None] * b[f]
            + (r * u2)[:, None] * c[f])


def nearest_distances(query, target):
    """Distance from each query point to its nearest target point, by
    checking every pair."""
    t2 = np.sum(target * target, axis=1)
    minus_2t = -2.0 * target.T
    out = np.empty(len(query))
    for lo in range(0, len(query), NN_CHUNK):
        q = query[lo:lo + NN_CHUNK]
        d2 = q @ minus_2t
        d2 += t2
        out[lo:lo + NN_CHUNK] = d2.min(axis=1) + np.sum(q * q, axis=1)
    return np.sqrt(np.maximum(out, 0.0))


def chamfer(mesh_a, mesh_b, n=SAMPLES, seed=SAMPLE_SEED):
    """Mean of the pooled a->b and b->a nearest-sample distances, in the
    meshes' length unit."""
    uniforms = np.random.default_rng(seed).random((3, n))
    pa = surface_samples(*mesh_a, uniforms)
    pb = surface_samples(*mesh_b, uniforms)
    return float(np.concatenate([nearest_distances(pa, pb),
                                 nearest_distances(pb, pa)]).mean())


def expected_error_deg(kappa):
    """E[theta] in degrees under p(theta) ~ exp(-kappa theta) sin(theta)
    on [0, pi], in closed form: pi/(1+e^(kappa pi)) + 2 kappa/(kappa^2+1)."""
    k = np.asarray(kappa, dtype=np.float64)
    with np.errstate(over="ignore"):
        tail = np.pi / (1.0 + np.exp(k * np.pi))
    return np.degrees(tail + 2.0 * k / (k * k + 1.0))
