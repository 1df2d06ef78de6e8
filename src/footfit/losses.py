"""Uncertainty-weighted objectives over normals, keypoints and silhouettes.

The angular distribution over surface normals is
p(n | mu, kappa) ∝ exp(-kappa * theta(n, mu)); its negative log
likelihood (dropping the constant solid-angle normalizer) is

    kappa * theta + log((1 + exp(-kappa*pi)) / (kappa^2 + 1)).

``expected_angular_error`` maps kappa to the mean of theta under that
density, in closed form:

    E[theta] = pi * exp(-kappa*pi) / (1 + exp(-kappa*pi)) + 2*kappa / (kappa^2 + 1),

which does not overflow for large kappa.  Kappa above 100 clamps to 100.

Loss functions return 0-d tape variables.  ``angmf_nll`` also takes plain
arrays, for a detached evaluation: read ``.value`` of its result.
``normal_fit_loss`` is one tape node with a hand-written VJP, from the
rendered normals to the mean over views.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import images

__all__ = [
    "NormalObservation", "KeypointObservation", "Observation",
    "MissingObservation", "angmf_nll",
    "expected_angular_error", "expected_angular_error_quad",
    "kappa_for_expected_error",
    "silhouette_from_uncertainty", "kp_fit_loss",
    "normal_fit_loss", "silhouette_l2",
    "save_observation", "load_observation", "downsample_observation",
]


class MissingObservation(FileNotFoundError):
    pass


@dataclass
class NormalObservation:
    mu: np.ndarray       # (H,W,3) unit mean directions, camera frame
    kappa: np.ndarray    # (H,W) concentrations, 0 = fully uncertain

    def validate(self):
        if self.mu.shape[:2] != self.kappa.shape or self.mu.shape[2] != 3:
            raise ValueError("mu and kappa shapes disagree")
        if not np.all(np.isfinite(self.kappa)) or np.any(self.kappa < 0):
            raise ValueError("kappa must be finite and non-negative")
        live = self.kappa > 0
        norms = np.linalg.norm(self.mu[live], axis=-1)
        if live.any() and np.abs(norms - 1.0).max() > 1e-4:
            raise ValueError("mu must be unit length where kappa > 0")
        return self


@dataclass
class KeypointObservation:
    """One view's keypoints, or with a leading view axis on every field,
    several views' (see :meth:`stack`)."""
    k: np.ndarray        # (K,2) normalized image positions
    sigma: np.ndarray    # (K,2) per-axis spread, > 0
    v: np.ndarray        # (K,) visibility in [0,1]

    @classmethod
    def stack(cls, observations):
        """The N views' observations as one, fields (N,K,2), (N,K,2) and
        (N,K), validated."""
        return cls(*(np.stack([getattr(o, name) for o in observations])
                     for name in ("k", "sigma", "v"))).validate()

    def validate(self):
        if (self.k.shape[-1:] != (2,) or self.sigma.shape != self.k.shape
                or self.v.shape != self.k.shape[:-1]):
            raise ValueError("keypoint field shapes disagree")
        if not np.all(np.isfinite(self.k)):
            raise ValueError("keypoint positions must be finite")
        if np.any(self.sigma <= 0):
            raise ValueError("sigma must be positive")
        return self


@dataclass
class Observation:
    normals: NormalObservation
    keypoints: KeypointObservation
    mask: np.ndarray     # (H,W) bool pseudo-GT silhouette


def _lift(tape, x):
    if isinstance(x, ad.Var):
        return x
    return tape.const(np.asarray(x, dtype=np.float64))


def _shared_tape(*xs):
    for x in xs:
        if isinstance(x, ad.Var):
            return x.tape
    return ad.Tape()


def _check_unit(name, vecs):
    norms = np.linalg.norm(vecs, axis=-1)
    if np.abs(norms - 1.0).max() > 1e-6:
        raise ValueError(f"{name} must be unit vectors (worst deviation "
                         f"{np.abs(norms - 1.0).max():.2e})")


def angmf_nll(mu, kappa, n_gt):
    """Mean negative log likelihood of ``n_gt`` under (mu, kappa) maps.

    Differentiable in mu and kappa.  Shapes: mu and n_gt (...,3) with
    matching leading dims, kappa (...).
    """
    tape = _shared_tape(mu, kappa)
    mu = _lift(tape, mu)
    kappa = _lift(tape, kappa)
    n_gt = np.asarray(n_gt, dtype=np.float64)
    _check_unit("mu", mu.value)
    _check_unit("n_gt", n_gt)
    if np.any(kappa.value < 0):
        raise ValueError("kappa must be non-negative")
    P = int(np.prod(mu.shape[:-1]))
    mu_f = mu.reshape((P, 3))
    k_f = kappa.reshape((P,))
    dot = (mu_f * n_gt.reshape(P, 3)).sum(axis=1)
    theta = ad.acos_safe(dot)
    log_norm = ad.log(ad.exp(k_f * (-np.pi)) + 1.0) - ad.log(k_f * k_f + 1.0)
    return (k_f * theta + log_norm).sum() * (1.0 / P)


# ---------------------------------------------------------------------------
# kappa -> expected angular error (degrees).

KAPPA_MAX = 100.0


def expected_angular_error_quad(kappa: float) -> float:
    """Direct adaptive quadrature of E[theta] in degrees (scalar): the
    oracle the closed form is checked against."""
    # imported on use: scipy.integrate adds about 0.2 s to the start-up of
    # every process that imports this module
    from scipy import integrate

    k = float(kappa)
    if not np.isfinite(k) or k < 0:
        raise ValueError("kappa must be finite and non-negative")
    # a pure relative tolerance: at large kappa both integrals are small
    # (about 7e-6 and 2e-4 at kappa 67), and the default absolute
    # tolerance of 1.5e-8 left their ratio off by up to 4e-4 relative
    num = integrate.quad(lambda t: t * np.exp(-k * t) * np.sin(t),
                         0.0, np.pi, limit=200, epsabs=0.0, epsrel=1e-12)[0]
    den = integrate.quad(lambda t: np.exp(-k * t) * np.sin(t),
                         0.0, np.pi, limit=200, epsabs=0.0, epsrel=1e-12)[0]
    return float(np.degrees(num / den))


def _expected_error_rad(k):
    e = np.exp(-np.pi * k)
    return np.pi * e / (1.0 + e) + 2.0 * k / (k * k + 1.0)


def expected_angular_error(kappa):
    """E[theta] in degrees, closed form; ndarray in, ndarray out.  Kappa
    above ``KAPPA_MAX`` clamps to it."""
    k = np.asarray(kappa, dtype=np.float64)
    if not np.all(np.isfinite(k)) or np.any(k < 0):
        raise ValueError("kappa must be finite and non-negative")
    out = np.degrees(_expected_error_rad(np.minimum(k, KAPPA_MAX)))
    return float(out) if np.isscalar(kappa) else out


def kappa_for_expected_error(err_deg):
    """Inverse of expected_angular_error by bisection (scalar).

    E[theta] is strictly decreasing in kappa.  Targets at or below the
    error at ``KAPPA_MAX`` give ``KAPPA_MAX``; targets at or above 90
    degrees give 0.
    """
    e = float(err_deg)
    if not np.isfinite(e) or e < 0:
        raise ValueError("error target must be finite and non-negative")
    target = np.radians(e)
    if target <= _expected_error_rad(KAPPA_MAX):
        return KAPPA_MAX
    if target >= _expected_error_rad(0.0):
        return 0.0
    lo, hi = 0.0, KAPPA_MAX
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return hi
        if _expected_error_rad(mid) > target:
            lo = mid
        else:
            hi = mid


def silhouette_from_uncertainty(kappa_map, threshold_deg=30.0):
    """Pseudo-GT silhouette: pixels whose expected angular error is at
    most the threshold (inclusive)."""
    return expected_angular_error(kappa_map) <= threshold_deg


# ---------------------------------------------------------------------------
# Keypoint losses.

def kp_fit_loss(projected, observations):
    """Fitting loss over views: (1/(N*K)) sum of v-gated squared
    sigma-normalized reprojection errors.  ``projected`` is an (N,K,2) Var
    or a list of N (K,2) Vars; ``observations`` is the N views'
    :meth:`KeypointObservation.stack`, or a list of their observations,
    which is then stacked and validated on each call.  Gradient reaches
    only the projections; observations are fixed."""
    if not isinstance(projected, ad.Var):
        projected = ad.stack(projected)
    if not isinstance(observations, KeypointObservation):
        observations = KeypointObservation.stack(observations)
    k, sigma, v = observations.k, observations.sigma, observations.v
    if projected.shape[0] != len(k):
        raise ValueError("views mismatch between projections and observations")
    if projected.shape != k.shape:
        raise ValueError("keypoint count mismatch")
    d = (projected - k) / sigma
    return ((d * d).sum(axis=2) * v).sum() * (1.0 / v.size)


def normal_fit_loss(rendered, observations, scored):
    """Mean over views of each view's mean, over its pixels ``scored[v]``
    (ascending flat indices), of kappa × angle(mu, rendered normal); a view
    with no scored pixel adds 0.  ``rendered`` holds the (P,3) normals at
    the scored pixels of every view, as :func:`renderer.render_normals_var`
    returns them.  One tape node takes the dot with mu, the arccos (with the
    zero-gradient cut of :func:`autodiff.acos_safe`), the kappa weight and
    the per-view means.  Gradient flows to the rendered normals only."""
    n = len(observations)
    counts = np.array([len(f) for f in scored])
    if len(scored) != n or rendered.shape != (counts.sum(), 3):
        raise ValueError("one rendered normal per scored pixel required")
    # (3,P), component-major: numpy's inner loops run over the P pixels
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


def silhouette_l2(soft, bands, masks, targets):
    """Mean over views of the mean squared difference between a view's soft
    silhouette and its binary target.  ``soft`` and ``bands`` come from
    :func:`renderer.render_silhouette_soft_var`; off its band a view's soft
    silhouette is its hard mask ``masks[v]``: a constant count of mask ≠ target."""
    n = len(targets)
    band_target, off, inv_area = [], np.zeros(n), np.zeros(n)
    for v, (band, mask, target) in enumerate(zip(bands, masks, targets)):
        if mask.shape != target.shape:
            raise ValueError("silhouette shapes disagree")
        wrong = (mask != target).reshape(-1)
        off[v] = np.count_nonzero(wrong) - np.count_nonzero(wrong[band])
        band_target.append(target.reshape(-1)[band])
        inv_area[v] = 1.0 / target.size
    d = soft - np.concatenate(band_target)
    views = np.repeat(np.arange(n), [len(b) for b in bands])
    return ((ad.segment_sum(d * d, views, n) + off) * inv_area).sum() * (1.0 / n)


# ---------------------------------------------------------------------------
# Per-view observation bundles on disk.

def save_observation(view_dir, obs: Observation):
    obs.normals.validate()
    obs.keypoints.validate()
    os.makedirs(view_dir, exist_ok=True)
    images.save_pfm(os.path.join(view_dir, "mu.pfm"), obs.normals.mu)
    images.save_pfm(os.path.join(view_dir, "kappa.pfm"), obs.normals.kappa)
    images.save_pgm(os.path.join(view_dir, "mask.pgm"), obs.mask)
    kp = obs.keypoints
    payload = {"k": kp.k.tolist(), "sigma": kp.sigma.tolist(), "v": kp.v.tolist()}
    with open(os.path.join(view_dir, "keypoints.json"), "w") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


def _require(view_dir, name):
    path = os.path.join(view_dir, name)
    if not os.path.exists(path):
        raise MissingObservation(f"{view_dir}: missing {name}")
    return path


def load_observation(view_dir) -> Observation:
    mu = images.load_pfm(_require(view_dir, "mu.pfm")).astype(np.float64)
    kappa = images.load_pfm(_require(view_dir, "kappa.pfm")).astype(np.float64)
    mask = images.load_pgm(_require(view_dir, "mask.pgm"))
    with open(_require(view_dir, "keypoints.json")) as fh:
        payload = json.load(fh)
    kp = KeypointObservation(np.asarray(payload["k"], dtype=np.float64),
                             np.asarray(payload["sigma"], dtype=np.float64),
                             np.asarray(payload["v"], dtype=np.float64)).validate()
    # float32 storage leaves mu a hair off unit; renormalize live pixels
    live = kappa > 0
    norms = np.linalg.norm(mu[live], axis=-1, keepdims=True)
    mu[live] = mu[live] / np.maximum(norms, 1e-12)
    normals = NormalObservation(mu, kappa).validate()
    return Observation(normals, kp, mask)


def downsample_observation(obs: Observation, factor: int) -> Observation:
    """Block-mean downsampling by an integer factor; mean directions are
    renormalized, the mask takes majority vote, keypoints are untouched
    (they live in normalized coordinates)."""
    if factor == 1:
        return obs
    H, W = obs.normals.kappa.shape
    if H % factor or W % factor:
        raise ValueError("image size not divisible by downsample factor")
    h, w = H // factor, W // factor

    def block(a):
        extra = a.shape[2:]
        return a.reshape(h, factor, w, factor, *extra).mean(axis=(1, 3))

    mu = block(obs.normals.mu)
    norms = np.linalg.norm(mu, axis=-1, keepdims=True)
    zero = norms[..., 0] < 1e-12
    mu = mu / np.maximum(norms, 1e-12)
    mu[zero] = [0.0, 0.0, -1.0]
    kappa = block(obs.normals.kappa)
    mask = block(obs.mask.astype(np.float64)) > 0.5
    normals = NormalObservation(mu, kappa).validate()
    return Observation(normals, obs.keypoints, mask)
