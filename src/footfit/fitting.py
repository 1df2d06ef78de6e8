"""Two-stage mesh fitting.

Stage 1 registers the template rigidly (rotation, translation, per-axis
scale; ``STAGE1_FREE``) against keypoints only.  Stage 2 frees the shape
and pose codes as well (``PARAM_ORDER``) and adds soft-silhouette and
normal-map terms.  Each stage returns the fitted parameters and one
``(epoch, kp, sil, norm, total)`` loss row per epoch.

Both stages read one :class:`FitInput`, built once per fit from the
picked views: the cameras and their image sizes, the views' stacked
keypoints, and per view a :class:`losses.ViewTable`, the bool silhouette
target with ``mu`` (3,T) and ``kappa`` (T,) kept only at its T target
pixels, beside their ascending flat indices.  The build reads the views
one at a time and cuts each to its table before the next is read, so no
full ``mu`` or ``kappa`` image outlives its view's loading.

Both stages run full-batch Adam with a fixed epoch count; each epoch
builds one tape, registers the deformed template once, projects into all
views in one tape node and sums its weighted loss terms in one more,
whose cotangent to each term is that term's weight.  Stage 1 always frees
r, t and s only, so its deformed template is a constant: it runs the
deformation field once per stage, off the epoch tapes and only on the
keypoint rows, the only rows its loss reads, and each epoch registers and
projects those rows and reads the keypoints as every row of that
projection.  Stage 2 evaluates the field over the whole mesh every epoch,
rasterizes its projection into each view's sparse fragment lists in
numpy, and scores the pixels of all views at once: the normal term over
every view's covered target pixels (picked as positions into the view's
covered pixels and as rows of its table), the silhouette term over every
view's contour band, each a mean over views of per-view means.  No
image-sized face or barycentric buffer is built.  Only an epoch's loss row
and parameter gradients outlive it: its tape, fragments and every other
array are freed before the next epoch builds its tape, so a fit holds one
epoch at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from . import footmodel as fm
from . import losses
from . import renderer

__all__ = [
    "FitConfig", "FitInput", "AdamState", "select_views", "adam_step",
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


class UnderConstrainedError(ValueError):
    """Too few visible keypoints to fit."""


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


def _weighted_total(terms, weights):
    """``terms[0]·weights[0] + terms[1]·weights[1] + ...`` of 0-d Vars, added
    left to right, as one tape node; each term's cotangent is g times its
    weight."""
    weights = [np.float64(w) for w in weights]
    value = terms[0].value * weights[0]
    for term, w in zip(terms[1:], weights[1:]):
        value = value + term.value * w
    return ad.custom(terms, value, lambda g: tuple(g * w for w in weights))


@dataclass
class FitInput:
    """What both stages of a fit read of its views, built once per fit by
    :meth:`build`."""
    cameras: list
    keypoints: losses.KeypointObservation   # the views' stack, (N,K,2)
    views: list          # one losses.ViewTable per camera
    size: np.ndarray     # renderer.image_size(cameras)

    @classmethod
    def build(cls, cameras, observations, config):
        """The fit input of ``cameras`` and their ``observations``: any
        iterable of one :class:`losses.Observation` per camera, read once
        in order.  Each is cut to its keypoints and its
        :class:`losses.ViewTable` at ``config.sil_threshold_deg`` before
        the next is read, so a generator that loads views one at a time
        keeps one view's images alive at a time."""
        keypoints, views = [], []
        for obs in observations:
            keypoints.append(obs.keypoints)
            views.append(losses.ViewTable.of(obs.normals, config.sil_threshold_deg))
            del obs     # the view's images die before the next view loads
        if len(views) != len(cameras):
            raise ValueError("one observation bundle per camera required")
        return cls(list(cameras), losses.KeypointObservation.stack(keypoints), views,
                   renderer.image_size(cameras))


def _run_stage(asset, field, data, config, params, epochs, with_render):
    cameras, kp_obs, views = data.cameras, data.keypoints, data.views
    visible = int((kp_obs.v > 0.5).sum())
    if visible < 2:
        raise UnderConstrainedError(
            f"under-constrained fit: {visible} visible keypoints in total")
    free = PARAM_ORDER if with_render else STAGE1_FREE
    state = AdamState.for_params({n: getattr(params, n) for n in free})
    faces = asset.mesh.faces
    if with_render and epochs > 0:
        topo = renderer.ContourTopology.build(asset.mesh)
        targets = [view.target for view in views]

    # stage 1 holds the codes fixed and its loss reads only the keypoint
    # rows, so their deformed template is the same in every epoch: evaluate
    # the field on those rows once, off the epoch tapes, and read every row
    # of their projection
    kp_ids, deformed = asset.keypoint_ids, None
    if not with_render:
        deformed = fm.deform(asset, field, fm.lift_params(ad.Tape(), params),
                             kp_ids).value
        kp_ids = None

    def run_epoch(params):
        """One epoch's (kp, sil, norm, total) losses and the gradient of each
        free parameter.  The tape and every array on it die on return."""
        tape = ad.Tape()
        pv = fm.lift_params(tape, params, train=free)
        verts = fm.forward(asset, field, pv, deformed=deformed)
        if with_render:
            n_world = renderer.vertex_normals_var(verts, faces)
        proj = renderer.project_vertices_var(verts, cameras)
        kp, _ = renderer.project_keypoints_var(proj, kp_ids, data.size)
        l_kp = losses.kp_fit_loss(kp, kp_obs)
        if with_render:
            frags = [renderer.rasterize(faces, proj[0].value[v], proj[1][v], cam)
                     for v, cam in enumerate(cameras)]
            masks = [frag.mask for frag in frags]
            pos, table_rows = zip(*(view.scored(frag) for view, frag in zip(views, frags)))
            n_pix = renderer.render_normals_var(n_world, faces, cameras, frags, pos)
            l_norm = losses.normal_fit_loss(n_pix, views, table_rows)
            soft, bands = renderer.render_silhouette_soft_var(
                proj[0], cameras, frags, topo, config.sharpness)
            l_sil = losses.silhouette_l2(soft, bands, masks, targets)
            total = _weighted_total((l_kp, l_sil, l_norm),
                                    (config.w_kp, config.w_sil, config.w_norm))
            terms = float(l_sil.value), float(l_norm.value)
        else:
            total = _weighted_total((l_kp,), (config.w_kp,))
            terms = 0.0, 0.0
        row = float(l_kp.value), *terms, float(total.value)
        grads = tape.backward(total)
        return row, {n: grads[getattr(pv, n)] for n in free}

    rows = []
    for epoch in range(epochs):
        row, grads = run_epoch(params)
        rows.append((epoch, *row))
        params = replace(params, **adam_step(
            state, {n: getattr(params, n) for n in free}, grads, config.lr))
    return params.validate(), rows


def fit_stage1(model, data, config=None):
    """Keypoint-only registration from the identity initialization, on the
    :class:`FitInput` ``data``.  Only r, t and s are free, so the deformed
    template is a constant: the field runs once, over the keypoint rows,
    and each epoch registers and projects only those rows."""
    asset, field = model
    config = (config or FitConfig()).validate()
    return _run_stage(asset, field, data, config,
                      fm.FootParams.identity(field.d_s, field.d_p),
                      config.stage1_epochs, with_render=False)


def fit_stage2(model, data, params, config=None):
    """Joint refinement over registration and deformation codes with
    keypoint, silhouette and normal terms, on the :class:`FitInput`
    ``data``, whose targets ``config.sil_threshold_deg`` does not change."""
    asset, field = model
    config = (config or FitConfig()).validate()
    return _run_stage(asset, field, data, config, params,
                      config.stage2_epochs, with_render=True)
