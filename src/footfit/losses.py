"""Uncertainty-weighted objectives over normals, keypoints and silhouettes.

The angular distribution over surface normals is
p(n | mu, kappa) ∝ exp(-kappa * theta(n, mu)); its negative log
likelihood (dropping the constant solid-angle normalizer) is

    kappa * theta + log((1 + exp(-kappa*pi)) / (kappa^2 + 1)).

``expected_angular_error`` maps kappa to the mean of theta under that
density, in closed form:

    E[theta] = pi * exp(-kappa*pi) / (1 + exp(-kappa*pi)) + 2*kappa / (kappa^2 + 1),

which does not overflow for large kappa.  Kappa above 100 clamps to 100.

Loss functions return 0-d tape variables; pass plain arrays for a
detached evaluation and read ``.value``.
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
    "MissingObservation", "angmf_nll", "background_nll",
    "expected_angular_error", "expected_angular_error_quad",
    "kappa_for_expected_error",
    "silhouette_from_uncertainty", "kp_train_nll", "kp_fit_loss",
    "normal_fit_loss", "silhouette_l2", "visibility_l2",
    "save_observation", "load_observation", "downsample_observation",
]

BACKGROUND_WEIGHT = 0.1


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
    k: np.ndarray        # (K,2) normalized image positions
    sigma: np.ndarray    # (K,2) per-axis spread, > 0
    v: np.ndarray        # (K,) visibility in [0,1]

    def validate(self):
        K = len(self.k)
        if self.sigma.shape != (K, 2) or self.v.shape != (K,):
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


def sample_hemisphere(n, rng):
    """Uniform unit directions on the camera-facing hemisphere (z < 0)."""
    labels = rng.normal(size=(n, 3))
    labels /= np.maximum(np.linalg.norm(labels, axis=1, keepdims=True), 1e-300)
    labels[:, 2] = -np.abs(labels[:, 2])
    return labels


def background_nll(mu, kappa, rng):
    """Angular NLL against hemisphere-uniform pseudo normals for background
    pixels, scaled by 0.1; mu is detached (kappa learns only)."""
    tape = _shared_tape(mu, kappa)
    mu = _lift(tape, mu)
    P = int(np.prod(mu.shape[:-1]))
    labels = sample_hemisphere(P, rng)
    return angmf_nll(ad.detach(mu), kappa, labels.reshape(mu.shape)) * BACKGROUND_WEIGHT


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
    num = integrate.quad(lambda t: t * np.exp(-k * t) * np.sin(t),
                         0.0, np.pi, limit=200)[0]
    den = integrate.quad(lambda t: np.exp(-k * t) * np.sin(t),
                         0.0, np.pi, limit=200)[0]
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

def kp_train_nll(k_pred, sigma, v, k_gt):
    """Training NLL: mean over images of the visibility-gated sum of
    squared sigma-normalized errors plus log(sx^2 sy^2)."""
    tape = _shared_tape(k_pred, sigma)
    k_pred = _lift(tape, k_pred)
    sigma = _lift(tape, sigma)
    if np.any(sigma.value <= 0):
        raise ValueError("sigma must be positive")
    k_gt = np.asarray(k_gt, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    n_img = k_pred.shape[0]
    d = (k_pred - k_gt) / sigma
    sq = (d * d).sum(axis=2)
    log_det = ad.log(sigma).sum(axis=2) * 2.0
    per_image = ((sq + log_det) * v).sum(axis=1)
    return per_image.sum() * (1.0 / n_img)


def kp_fit_loss(projected, observations):
    """Fitting loss over views: (1/(N*K)) sum of v-gated squared
    sigma-normalized reprojection errors.  Gradient reaches only the
    projections; observations are fixed."""
    if len(projected) != len(observations):
        raise ValueError("views mismatch between projections and observations")
    n_views = len(projected)
    total = None
    K = None
    for proj, obs in zip(projected, observations):
        obs.validate()
        if K is None:
            K = len(obs.k)
        if proj.shape != (K, 2) or len(obs.k) != K:
            raise ValueError("keypoint count mismatch")
        d = (proj - obs.k) / obs.sigma
        term = ((d * d).sum(axis=1) * obs.v).sum()
        total = term if total is None else total + term
    return total * (1.0 / (n_views * K))


def normal_fit_loss(rendered, obs: NormalObservation, mask):
    """Mean over masked pixels of kappa * angle(mu, rendered normal).

    Gradient flows to the rendered normals only.  An empty mask gives 0.
    """
    tape = rendered.tape
    H, W = mask.shape
    flat = np.nonzero(mask.reshape(-1))[0]
    if flat.size == 0:
        return tape.const(0.0)
    n_sel = ad.take(rendered.reshape((H * W, 3)), flat)
    mu_sel = obs.mu.reshape(-1, 3)[flat]
    k_sel = obs.kappa.reshape(-1)[flat]
    dot = (n_sel * mu_sel).sum(axis=1)
    theta = ad.acos_safe(dot)
    return (theta * k_sel).sum() * (1.0 / flat.size)


def silhouette_l2(soft, target):
    """Mean squared difference between a soft render and a binary mask."""
    target = np.asarray(target, dtype=np.float64)
    if soft.shape != target.shape:
        raise ValueError("silhouette shapes disagree")
    d = soft - target
    return (d * d).sum() * (1.0 / target.size)


def visibility_l2(v_pred, v_gt):
    tape = _shared_tape(v_pred)
    v_pred = _lift(tape, v_pred)
    v_gt = np.asarray(v_gt, dtype=np.float64)
    d = v_pred - v_gt
    return (d * d).sum() * (1.0 / v_gt.size)


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
