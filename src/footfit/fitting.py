"""Two-stage mesh fitting.

Stage 1 registers the template rigidly (rotation, translation, per-axis
scale) against keypoints only.  Stage 2 frees the shape and pose codes
as well and adds soft-silhouette and normal-map terms.  Both stages run
full-batch Adam with a fixed epoch count; each epoch builds one tape,
runs the model forward once, and shares the resulting vertices across
all views.  Stage 2 computes the world-frame vertex normals once per
epoch, and each view's projection feeds both its keypoint and its
silhouette term.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from . import autodiff as ad
from . import footmodel as fm
from . import losses
from . import renderer

__all__ = [
    "FitConfig", "AdamState", "FitTrace", "select_views", "adam_step",
    "fit_stage1", "fit_stage2",
]

PARAM_ORDER = ("r", "t", "s", "z_s", "z_p")
STAGE1_FREE = ("r", "t", "s")

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class FitConfig:
    lr: float = 0.001
    stage1_epochs: int = 250
    stage2_epochs: int = 1000
    w_kp: float = 1.0
    w_sil: float = 1.0
    w_norm: float = 0.5
    sharpness: float = 40.0
    sil_threshold_deg: float = 30.0
    stage1_free: tuple = STAGE1_FREE
    stage2_free: tuple = PARAM_ORDER

    def validate(self):
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        for name in tuple(self.stage1_free) + tuple(self.stage2_free):
            if name not in PARAM_ORDER:
                raise ValueError(f"unknown parameter group {name!r}")
        return self


@dataclass
class FitTrace:
    """Per-epoch loss breakdown plus parameter snapshots at the stage
    entry and exit."""
    rows: list = dc_field(default_factory=list)   # (epoch, kp, sil, norm, total)
    snapshots: list = dc_field(default_factory=list)

    def totals(self):
        return np.array([r[4] for r in self.rows])


@dataclass
class AdamState:
    m: dict
    v: dict
    step: int = 0

    @classmethod
    def for_params(cls, values):
        return cls({k: np.zeros_like(v) for k, v in values.items()},
                   {k: np.zeros_like(v) for k, v in values.items()})


def adam_step(state: AdamState, values, grads, lr):
    """One bias-corrected Adam update over a dict of parameter arrays."""
    state.step += 1
    t = state.step
    out = dict(values)
    for name in state.m:
        g = np.asarray(grads[name], dtype=np.float64)
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(f"non-finite gradient for {name}")
        state.m[name] = BETA1 * state.m[name] + (1 - BETA1) * g
        state.v[name] = BETA2 * state.v[name] + (1 - BETA2) * g * g
        m_hat = state.m[name] / (1 - BETA1 ** t)
        v_hat = state.v[name] / (1 - BETA2 ** t)
        out[name] = values[name] - lr * m_hat / (np.sqrt(v_hat) + EPS)
    return out


def select_views(cameras, m):
    """Indices of m views spread evenly along the camera-center y axis.

    Views are ranked by center y; rank i*(N-1)/(m-1) (round half up) is
    taken for each i.  m=1 picks the median view.
    """
    n = len(cameras)
    if not 1 <= m <= n:
        raise ValueError(f"cannot select {m} of {n} views")
    ys = np.array([cam.center()[1] for cam in cameras])
    order = np.argsort(ys, kind="stable")
    if m == 1:
        ranks = [int(np.floor((n - 1) / 2 + 0.5))]
    else:
        ranks = [int(np.floor(i * (n - 1) / (m - 1) + 0.5)) for i in range(m)]
    return [int(order[r]) for r in ranks]


def _values_of(params: fm.FootParams):
    return {"r": params.r.copy(), "t": params.t.copy(), "s": params.s.copy(),
            "z_s": params.z_s.copy(), "z_p": params.z_p.copy()}


def _params_of(values):
    return fm.FootParams(values["r"], values["t"], values["s"],
                         values["z_s"], values["z_p"])


def _count_visible(observations):
    return int(sum((o.keypoints.v > 0.5).sum() for o in observations))


def _run_stage(asset, field, observations, cameras, config, params, epochs,
               free, with_render):
    if len(observations) != len(cameras):
        raise ValueError("one observation bundle per camera required")
    visible = _count_visible(observations)
    if visible < 2:
        raise ValueError(
            f"under-constrained fit: {visible} visible keypoints in total")
    free = tuple(n for n in PARAM_ORDER if n in free)
    values = _values_of(params)
    state = AdamState.for_params({n: values[n] for n in free})
    faces = asset.mesh.faces
    kp_obs = [o.keypoints for o in observations]
    topo = None
    sil_targets = None
    if with_render and epochs > 0:
        topo = renderer.ContourTopology.build(asset.mesh)
        sil_targets = [losses.silhouette_from_uncertainty(
            o.normals.kappa, config.sil_threshold_deg) for o in observations]

    trace = FitTrace()
    trace.snapshots.append(_params_of(values))
    n_views = len(cameras)
    for epoch in range(epochs):
        tape = ad.Tape()
        pv = fm.lift_params(tape, _params_of(values), train=free)
        verts = fm.forward(asset, field, pv)
        projections = []
        l_sil = tape.const(0.0)
        l_norm = tape.const(0.0)
        if with_render:
            mesh_now = asset.mesh.copy_with(verts.value)
            n_world = renderer.vertex_normals_var(verts, faces)
        for view, cam in enumerate(cameras):
            proj = renderer.project_vertices_var(verts, cam)
            kp, _vis = renderer.project_keypoints_var(
                verts, asset.keypoint_ids, cam, proj=proj)
            projections.append(kp)
            if not with_render:
                continue
            frag = renderer.rasterize(mesh_now, cam)
            target = sil_targets[view]
            n_map, _ = renderer.render_normals_var(verts, faces, cam, frag=frag,
                                                   n_world=n_world)
            l_norm = l_norm + losses.normal_fit_loss(
                n_map, observations[view].normals, frag.mask & target)
            soft, _ = renderer.render_silhouette_soft_var(
                verts, faces, cam, sharpness=config.sharpness,
                frag=frag, topo=topo, proj=proj)
            l_sil = l_sil + losses.silhouette_l2(soft, target.astype(np.float64))
        l_kp = losses.kp_fit_loss(projections, kp_obs)
        if with_render:
            l_sil = l_sil * (1.0 / n_views)
            l_norm = l_norm * (1.0 / n_views)
            total = (l_kp * config.w_kp + l_sil * config.w_sil
                     + l_norm * config.w_norm)
        else:
            total = l_kp * config.w_kp
        trace.rows.append((epoch, float(l_kp.value), float(l_sil.value),
                           float(l_norm.value), float(total.value)))
        grads = tape.backward(total)
        free_grads = {n: grads[getattr(pv, n)] for n in free}
        stepped = adam_step(state, {n: values[n] for n in free},
                            free_grads, config.lr)
        values.update(stepped)
    fitted = _params_of(values).validate()
    trace.snapshots.append(fitted)
    return fitted, trace


def fit_stage1(model, observations, cameras, config=None,
               init: fm.FootParams | None = None):
    """Keypoint-only registration from the identity initialization."""
    asset, field = model
    config = (config or FitConfig()).validate()
    if init is None:
        init = fm.FootParams.identity(field.d_s, field.d_p)
    return _run_stage(asset, field, observations, cameras, config, init,
                      config.stage1_epochs, config.stage1_free,
                      with_render=False)


def fit_stage2(model, observations, cameras, params, config=None):
    """Joint refinement over registration and deformation codes with
    keypoint, silhouette and normal terms."""
    asset, field = model
    config = (config or FitConfig()).validate()
    return _run_stage(asset, field, observations, cameras, config, params,
                      config.stage2_epochs, config.stage2_free,
                      with_render=True)
