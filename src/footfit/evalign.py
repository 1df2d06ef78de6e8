"""Evaluation metrics and cloud alignment.

Normal-map evaluation works below a leg-cutoff height so shank pixels
do not pollute foot metrics.  3D evaluation samples both meshes and
reports bidirectional chamfer statistics.  Alignment first levels both
geometries with a RANSAC floor fit, then optimizes in-plane rotation,
in-plane translation and isotropic scale against the chamfer objective
with periodic nearest-neighbor re-association and one outlier-rejection
round.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import fitting
from .geometry import (Mesh, chamfer_stats, lower_median, nearest_neighbors,
                       sample_surface)

__all__ = [
    "FloorFit", "AlignParams", "AlignResult",
    "eval_normals", "fit_floor", "level_to_floor",
    "align_4param", "eval_3d", "report_json", "report_table", "report_csv",
]

LEG_CUTOFF = 0.20
THRESHOLDS_DEG = (11.25, 22.5, 30.0)

# RANSAC floor fit: iterations, inlier distance (m), least inlier share
FLOOR_ITERS = 1000
FLOOR_THRESHOLD = 0.003
FLOOR_MIN_INLIER_FRAC = 0.20
# chamfer alignment: Adam steps between re-associations, and the outlier
# cut as a multiple of the median nearest-neighbour distance
REASSOC_EVERY = 25
OUTLIER_FACTOR = 3.0


def eval_normals(pred_mu, gt_normals, mask, heights=None,
                 leg_cutoff=LEG_CUTOFF):
    """Angular-error report dict over masked pixels, optionally dropping
    pixels at or above the cutoff height."""
    sel = np.asarray(mask, dtype=bool).copy()
    if heights is not None:
        with np.errstate(invalid="ignore"):
            sel &= np.nan_to_num(heights, nan=np.inf) < leg_cutoff
    if not sel.any():
        raise ValueError("empty evaluation set")
    dots = np.clip(np.sum(pred_mu[sel] * gt_normals[sel], axis=1), -1.0, 1.0)
    err = np.degrees(np.arccos(dots))
    pcts = [float((err < t).mean() * 100.0) for t in THRESHOLDS_DEG]
    return {"mean_deg": float(err.mean()), "median_deg": lower_median(err),
            "rmse_deg": float(np.sqrt(np.mean(err ** 2))),
            "pct_lt_11_25": pcts[0], "pct_lt_22_5": pcts[1],
            "pct_lt_30": pcts[2], "pixels": int(sel.sum())}


# ---------------------------------------------------------------------------
# Floor handling.

@dataclass
class FloorFit:
    normal: np.ndarray     # unit plane normal
    d: float               # plane is normal . x + d = 0
    inliers: np.ndarray    # (N,) bool against the fitted points


def fit_floor(points, seed=0) -> FloorFit:
    """Seeded RANSAC plane with a least-squares refinement on inliers.

    Winner is (inlier count, lowest iteration index); substreams are
    spawned per iteration so a parallel schedule cannot change the
    result.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3 or len(pts) < 3:
        raise ValueError("need at least 3 points")
    streams = np.random.SeedSequence(seed).spawn(FLOOR_ITERS)
    best_count, best_plane = 0, None
    for i in range(FLOOR_ITERS):
        rng = np.random.default_rng(streams[i])
        a, b, c = pts[rng.choice(len(pts), size=3, replace=False)]
        n = np.cross(b - a, c - a)
        nn = np.linalg.norm(n)
        if nn < 1e-12:
            continue
        n = n / nn
        d = -float(n @ a)
        count = int((np.abs(pts @ n + d) <= FLOOR_THRESHOLD).sum())
        if count > best_count:
            best_count, best_plane = count, (n, d)
    if best_count < FLOOR_MIN_INLIER_FRAC * len(pts):
        raise ValueError(
            f"no dominant plane: best inlier fraction "
            f"{best_count / len(pts):.3f} < {FLOOR_MIN_INLIER_FRAC}")
    n, d = best_plane
    inl = np.abs(pts @ n + d) <= FLOOR_THRESHOLD
    centroid = pts[inl].mean(axis=0)
    _, _, vt = np.linalg.svd(pts[inl] - centroid, full_matrices=False)
    refined = vt[-1]
    if refined @ n < 0:
        refined = -refined
    n, d = refined, -float(refined @ centroid)
    return FloorFit(n, d, np.abs(pts @ n + d) <= FLOOR_THRESHOLD)


def _rotation_to_z(n):
    axis = np.cross(n, [0.0, 0.0, 1.0])
    s = np.linalg.norm(axis)
    c = float(n[2])
    if s < 1e-12:
        if c > 0:
            return np.eye(3)
        return np.diag([1.0, -1.0, -1.0])   # upside down: half turn about x
    axis = axis / s
    K = np.array([[0.0, -axis[2], axis[1]],
                  [axis[2], 0.0, -axis[0]],
                  [-axis[1], axis[0], 0.0]])
    theta = np.arctan2(s, c)
    return np.eye(3) + np.sin(theta) * K + (1.0 - np.cos(theta)) * (K @ K)


def level_to_floor(points, floor: FloorFit):
    """Rigid transform putting the floor at z=0 with normal +z.

    The plane normal is oriented so the majority of the off-floor
    points (the subject) ends up above the floor.  Takes an (N,3) cloud;
    returns (moved cloud, R, t) with x' = Rx + t.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = floor.normal / np.linalg.norm(floor.normal)
    d = float(floor.d)
    outliers = pts[~floor.inliers] if len(floor.inliers) == len(pts) else pts
    if len(outliers):
        if np.mean(outliers @ n + d) < 0:
            n, d = -n, -d
    elif n[2] < 0:
        n, d = -n, -d
    R = _rotation_to_z(n)
    t = np.array([0.0, 0.0, d])
    return pts @ R.T + t, R, t


# ---------------------------------------------------------------------------
# 4-parameter chamfer alignment.

@dataclass
class AlignParams:
    theta_z: float = 0.0
    tx: float = 0.0
    ty: float = 0.0
    s: float = 1.0

    def validate(self):
        if not self.s > 0:
            raise ValueError("scale must be positive")
        return self

    def apply(self, points, pivot):
        c, sn = np.cos(self.theta_z), np.sin(self.theta_z)
        R = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
        local = (np.asarray(points, dtype=np.float64) - pivot) @ R.T
        return self.s * local + pivot + np.array([self.tx, self.ty, 0.0])


@dataclass
class AlignResult:
    params: AlignParams
    pivot: np.ndarray        # scale/rotation pivot (source centroid)
    objective: float
    kept_source: int
    kept_target: int


def _pooled_objective_and_grad(src, tgt, a_idx, b_idx, vec, pivot):
    """Mean pooled NN distance under fixed associations and its
    gradient in (theta, tx, ty, s)."""
    theta, tx, ty, s = vec
    c, sn = np.cos(theta), np.sin(theta)
    R = np.array([[c, -sn, 0.0], [sn, c, 0.0], [0.0, 0.0, 1.0]])
    dR = np.array([[-sn, -c, 0.0], [c, -sn, 0.0], [0.0, 0.0, 0.0]])
    # source points contributing: every source point once for the a
    # side, plus the ones targets picked on the b side
    p = np.concatenate([src, src[b_idx]])
    q = np.concatenate([tgt[a_idx], tgt])
    local = (p - pivot) @ R.T
    moved = s * local + pivot + np.array([tx, ty, 0.0])
    v = moved - q
    dist = np.linalg.norm(v, axis=1)
    m = len(v)
    obj = float(dist.mean())
    u = v / np.maximum(dist, 1e-300)[:, None]
    g_theta = float(np.sum(u * (s * ((p - pivot) @ dR.T))) / m)
    g_s = float(np.sum(u * local) / m)
    g_tx = float(u[:, 0].sum() / m)
    g_ty = float(u[:, 1].sum() / m)
    return obj, np.array([g_theta, g_tx, g_ty, g_s])


def _associate(vec, src, tgt, pivot):
    """Nearest neighbours both ways under the align params ``vec``: (index,
    distance) into ``tgt`` of each moved source point, and into the moved
    source of each target point."""
    moved = AlignParams(*vec).apply(src, pivot)
    return nearest_neighbors(moved, tgt), nearest_neighbors(tgt, moved)


def _optimize(src, tgt, init_vec, pivot, lr, steps):
    """Best align params seen over ``steps`` Adam steps and at the end."""
    vec = init_vec.copy()
    state = fitting.AdamState.for_params({"p": vec})
    best_obj, best_vec = np.inf, vec.copy()
    a_idx = b_idx = None
    for step in range(steps):
        if step % REASSOC_EVERY == 0:
            (a_idx, _), (b_idx, _) = _associate(vec, src, tgt, pivot)
        obj, grad = _pooled_objective_and_grad(src, tgt, a_idx, b_idx, vec,
                                               pivot)
        if obj < best_obj:
            best_obj, best_vec = obj, vec.copy()
        vec = fitting.adam_step(state, {"p": vec}, {"p": grad}, lr)["p"]
    (_, da), (_, db) = _associate(vec, src, tgt, pivot)
    if float(np.concatenate([da, db]).mean()) < best_obj:
        best_vec = vec.copy()
    return best_vec


def align_4param(source, target, lr=0.01, steps=500) -> AlignResult:
    """Chamfer alignment of source onto target over (theta_z, tx, ty, s).

    Adam from the identity with periodic re-association, then one
    outlier-rejection round: points whose nearest neighbor sits beyond
    ``OUTLIER_FACTOR`` times the median distance are dropped on both
    sides and the optimization repeats from the first-round answer.  Each
    round returns the best params it saw.
    """
    src = np.asarray(source, dtype=np.float64)
    tgt = np.asarray(target, dtype=np.float64)
    for name, cloud in (("source", src), ("target", tgt)):
        if cloud.ndim != 2 or cloud.shape[1] != 3 or len(cloud) < 10:
            raise ValueError(f"degenerate {name} cloud: need at least 10 points")
    pivot = src.mean(axis=0)
    vec1 = _optimize(src, tgt, np.array([0.0, 0.0, 0.0, 1.0]), pivot, lr, steps)

    (_, da), (_, db) = _associate(vec1, src, tgt, pivot)
    keep_s = da <= OUTLIER_FACTOR * np.median(da)
    keep_t = db <= OUTLIER_FACTOR * np.median(db)
    if (~keep_s).any() or (~keep_t).any():
        if keep_s.sum() >= 10 and keep_t.sum() >= 10:
            vec1 = _optimize(src[keep_s], tgt[keep_t], vec1, pivot, lr, steps)

    params = AlignParams(*[float(x) for x in vec1]).validate()
    (_, da), (_, db) = _associate(vec1, src[keep_s], tgt[keep_t], pivot)
    objective = float(np.concatenate([da, db]).mean())
    return AlignResult(params, pivot, objective,
                       int(keep_s.sum()), int(keep_t.sum()))


# ---------------------------------------------------------------------------
# 3D evaluation and report output.

def eval_3d(fitted: Mesh, gt: Mesh, n=10000, seed=0, gt_seed=None):
    """Bidirectional chamfer report over n surface samples per mesh."""
    a = sample_surface(fitted, n, seed)
    b = sample_surface(gt, n, seed if gt_seed is None else gt_seed)
    report = chamfer_stats(a, b)
    report["n_points"] = n
    return report


def _fmt(value):
    if isinstance(value, (bool, np.bool_)):
        return str(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{value:.6g}"
    return str(value)


def report_json(report):
    clean = {k: (float(v) if isinstance(v, np.floating) else
                 int(v) if isinstance(v, np.integer) else v)
             for k, v in report.items()}
    return json.dumps(clean, indent=1, sort_keys=True) + "\n"


def report_table(report, title=None):
    width = max(len(k) for k in report)
    lines = []
    if title:
        lines += [title, "-" * max(len(title), width)]
    for k, v in report.items():
        lines.append(f"{k:<{width}}  {_fmt(v)}")
    return "\n".join(lines) + "\n"


def report_csv(report):
    keys = list(report)
    row = ",".join(f"{report[k]:.10g}" if isinstance(report[k], (float, np.floating))
                   else str(report[k]) for k in keys)
    return ",".join(keys) + "\n" + row + "\n"
