"""Two-stage mesh fitting.

Stage 1 registers the template rigidly (rotation, translation, per-axis
scale; ``STAGE1_FREE``) against keypoints only.  Stage 2 frees the shape
and pose codes as well (``PARAM_ORDER``) and adds soft-silhouette and
normal-map terms.  Each stage returns the fitted parameters and a
:class:`FitTrace` of per-epoch losses.  Both stages run full-batch Adam
with a fixed epoch count; each epoch builds one tape, runs the model
forward once and projects into all views in one tape node.  Stage 1
evaluates and projects only the keypoint rows, the only rows its loss
reads.  Stage 2 evaluates the whole mesh, rasterizes its projection into
each view in numpy, and scores the pixels of all views at once: the
normal term over every view's covered target pixels, the silhouette term
over every view's contour band, each a mean over views of per-view means.
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

    def validate(self):
        if not self.lr > 0:
            raise ValueError("lr must be positive")
        if self.stage1_epochs < 0 or self.stage2_epochs < 0:
            raise ValueError("epoch counts must be non-negative")
        if not self.sharpness > 0:
            raise ValueError("sharpness must be positive")
        return self


@dataclass
class FitTrace:
    """Per-epoch loss breakdown."""
    rows: list = dc_field(default_factory=list)   # (epoch, kp, sil, norm, total)

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


def _run_stage(asset, field, observations, cameras, config, params, epochs,
               free, with_render):
    if len(observations) != len(cameras):
        raise ValueError("one observation bundle per camera required")
    kp_obs = losses.KeypointObservation.stack([o.keypoints for o in observations])
    visible = int((kp_obs.v > 0.5).sum())
    if visible < 2:
        raise ValueError(
            f"under-constrained fit: {visible} visible keypoints in total")
    values = _values_of(params)
    state = AdamState.for_params({n: values[n] for n in free})
    faces = asset.mesh.faces
    if with_render and epochs > 0:
        normal_obs = [o.normals for o in observations]
        topo = renderer.ContourTopology.build(asset.mesh)
        sil_targets = [losses.silhouette_from_uncertainty(
            o.normals.kappa, config.sil_threshold_deg) for o in observations]

    # the keypoint loss reads only the keypoint rows, so without rendering
    # only those rows are evaluated and projected
    rows = None if with_render else asset.keypoint_ids
    kp_ids = asset.keypoint_ids if with_render else np.arange(len(rows))

    trace = FitTrace()
    for epoch in range(epochs):
        tape = ad.Tape()
        pv = fm.lift_params(tape, _params_of(values), train=free)
        verts = fm.forward(asset, field, pv, rows=rows)
        if with_render:
            n_world = renderer.vertex_normals_var(verts, faces)
        proj = renderer.project_vertices_var(verts, cameras)
        kp, _ = renderer.project_keypoints_var(proj, kp_ids, cameras)
        l_kp = losses.kp_fit_loss(kp, kp_obs)
        if with_render:
            frags = [renderer.rasterize(faces, proj[0].value[v], proj[1][v], cam)
                     for v, cam in enumerate(cameras)]
            masks = [frag.mask for frag in frags]
            scored = [np.flatnonzero(mask & target)
                      for mask, target in zip(masks, sil_targets)]
            n_pix = renderer.render_normals_var(n_world, faces, cameras, frags, scored)
            l_norm = losses.normal_fit_loss(n_pix, normal_obs, scored)
            soft, bands = renderer.render_silhouette_soft_var(
                proj[0], cameras, frags, topo, config.sharpness)
            l_sil = losses.silhouette_l2(soft, bands, masks, sil_targets)
            total = (l_kp * config.w_kp + l_sil * config.w_sil
                     + l_norm * config.w_norm)
        else:
            l_sil = l_norm = tape.const(0.0)
            total = l_kp * config.w_kp
        trace.rows.append((epoch, float(l_kp.value), float(l_sil.value),
                           float(l_norm.value), float(total.value)))
        grads = tape.backward(total)
        free_grads = {n: grads[getattr(pv, n)] for n in free}
        stepped = adam_step(state, {n: values[n] for n in free},
                            free_grads, config.lr)
        values.update(stepped)
    return _params_of(values).validate(), trace


def fit_stage1(model, observations, cameras, config=None,
               init: fm.FootParams | None = None):
    """Keypoint-only registration from the identity initialization; each
    epoch evaluates and projects the keypoint rows of the model only."""
    asset, field = model
    config = (config or FitConfig()).validate()
    if init is None:
        init = fm.FootParams.identity(field.d_s, field.d_p)
    return _run_stage(asset, field, observations, cameras, config, init,
                      config.stage1_epochs, STAGE1_FREE, with_render=False)


def fit_stage2(model, observations, cameras, params, config=None):
    """Joint refinement over registration and deformation codes with
    keypoint, silhouette and normal terms."""
    asset, field = model
    config = (config or FitConfig()).validate()
    return _run_stage(asset, field, observations, cameras, config, params,
                      config.stage2_epochs, PARAM_ORDER, with_render=True)
