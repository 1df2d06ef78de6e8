"""Deformable foot template: procedural mesh, code-conditioned
displacement MLP, registration transform, and model file IO.

The template is a watertight swept tube: superellipse cross sections
follow a spine that runs down a leg stub, bends at the ankle, and
sweeps forward to the toes.  A heel lobe, a medial arch lift, per-toe
length extensions and a soft floor flattening shape it into a left
foot resting just above z = 0, toes toward +x, big toe at +y.  Output
vertices are

    v_i = diag(s) · R(r) · (x_i + F(x_i, z_s, z_p)) + t

with R built from Euler angles as in :func:`footfit.geometry.euler_rotation`.
:func:`forward` records all of it as one tape node; :func:`deform`
evaluates the deformed template alone, in numpy.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import Mesh

__all__ = [
    "FootParams", "ParamVars", "DeformationField", "TemplateAsset",
    "ModelFormatError", "KEYPOINT_NAMES", "build_template", "random_field",
    "make_default_model", "deform", "forward", "forward_mesh",
    "lift_params", "save_model", "load_model",
]

KEYPOINT_NAMES = (
    "toe_1", "toe_2", "toe_3", "toe_4", "toe_5",
    "ball_medial", "ball_lateral", "heel_back", "heel_bottom",
    "arch_mid", "instep_top", "ankle_outer",
)

MAGIC = b"FMDL"
VERSION = 1
FIELD_RMS = 0.008      # field displacement RMS (m) at unit-normal codes


class ModelFormatError(ValueError):
    pass


@dataclass
class FootParams:
    r: np.ndarray        # Euler radians (3,)
    t: np.ndarray        # meters (3,)
    s: np.ndarray        # per-axis scale (3,)
    z_s: np.ndarray      # shape code
    z_p: np.ndarray      # pose code

    @classmethod
    def identity(cls, d_s=8, d_p=8):
        return cls(np.zeros(3), np.zeros(3), np.ones(3), np.zeros(d_s), np.zeros(d_p))

    def validate(self):
        for name, n in (("r", 3), ("t", 3), ("s", 3)):
            if np.asarray(getattr(self, name)).shape != (n,):
                raise ValueError(f"{name} must have shape ({n},)")
        if not np.all(np.asarray(self.s) > 0):
            raise ValueError("scale components must be positive")
        return self


@dataclass
class ParamVars:
    """Registration and code parameters as tape variables."""
    r: ad.Var
    t: ad.Var
    s: ad.Var
    z_s: ad.Var
    z_p: ad.Var


def lift_params(tape, params: FootParams, train=()):
    """Put params on a tape; names in ``train`` become gradient leaves."""
    params.validate()
    out = {}
    for name in ("r", "t", "s", "z_s", "z_p"):
        value = np.asarray(getattr(params, name), dtype=np.float64)
        if name in train:
            out[name] = tape.leaf(value)
        else:
            out[name] = tape.const(value)
    return ParamVars(**out)


@dataclass
class DeformationField:
    """MLP x, z_s, z_p -> displacement; tanh hidden layers, linear out."""
    weights: list                 # [(W, b), ...] float64
    d_s: int
    d_p: int

    def __post_init__(self):
        if self.weights[0][0].shape[0] != 3 + self.d_s + self.d_p:
            raise ModelFormatError("first layer width does not match 3 + D_s + D_p")
        if self.weights[-1][0].shape[1] != 3:
            raise ModelFormatError("last layer must emit 3 values")
        for W, b in self.weights:
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ModelFormatError("non-finite field weights")


@dataclass
class TemplateAsset:
    mesh: Mesh
    keypoint_ids: np.ndarray
    keypoint_names: tuple = KEYPOINT_NAMES

    def validate(self):
        self.mesh.validate()
        if not self.mesh.is_watertight():
            raise ValueError("template mesh is not watertight")
        ids = np.asarray(self.keypoint_ids)
        if ids.shape != (len(self.keypoint_names),):
            raise ValueError("keypoint id count does not match names")
        if len(set(ids.tolist())) != len(ids):
            raise ValueError("keypoint ids must be distinct")
        if ids.min() < 0 or ids.max() >= len(self.mesh.vertices):
            raise ValueError("keypoint id out of range")
        return self


# ---------------------------------------------------------------------------
# Procedural template.

_N_SEG = 52
_LEG_X = 0.055          # leg axis before the final recentering shift
_BEND_R = 0.035
_BEND_C = (_LEG_X + _BEND_R, 0.07)    # (x, z) of the ankle bend arc center
_LEG_TOP = 0.22
_FOOT_X0 = _LEG_X + _BEND_R
_FOOT_X1 = 0.235
_X_SHIFT = -0.12        # recenters the foot around the world origin

_TOE_Y = np.array([0.030, 0.0155, 0.001, -0.0135, -0.028])
_TOE_LEN = np.array([0.016, 0.0125, 0.009, 0.006, 0.0035])
_TOE_SIGMA = 0.0045


def _superellipse(phi, e_pos, e_neg, w, p):
    """Closed section curve in a (u, v) ring plane; +u at phi = 0."""
    cu = np.cos(phi)
    sv = np.sin(phi)
    eu = np.where(cu >= 0, e_pos, e_neg)
    ou = np.sign(cu) * np.abs(cu) ** (2.0 / p) * eu
    ov = np.sign(sv) * np.abs(sv) ** (2.0 / p) * w
    return ou, ov


def _toe_extension(y):
    d = (y[:, None] - _TOE_Y[None, :]) / _TOE_SIGMA
    return (np.exp(-0.5 * d * d) * _TOE_LEN[None, :]).sum(axis=1)


def build_template():
    """Watertight left-foot tube, about 2,700 vertices, resting near z=0."""
    phi = 2 * np.pi * np.arange(_N_SEG) / _N_SEG
    rings = []      # (center(3), u(3), v(3), extents...)
    meta = []       # per-ring phi-plane data for later masking

    leg_r = 0.034
    for i in range(10):                       # leg: plane normal z, u = -x
        frac = i / 10.0
        z = _LEG_TOP + (_BEND_C[1] - _LEG_TOP) * frac
        rings.append(((_LEG_X, 0.0, z), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0),
                      leg_r, leg_r, leg_r, 2.0, 0.0))

    entry = dict(e_pos=0.030, e_neg=0.040, w=0.036, p=2.4)
    for i in range(16):                       # ankle bend: quarter arc
        beta = (i + 1) / 17.0
        th = np.pi * (1.0 + 0.5 * beta)
        cx = _BEND_C[0] + _BEND_R * np.cos(th)
        cz = _BEND_C[1] + _BEND_R * np.sin(th)
        u = (np.cos(th), 0.0, np.sin(th))
        e_pos = (1 - beta) * leg_r + beta * entry["e_pos"]
        e_neg = ((1 - beta) * leg_r + beta * entry["e_neg"]) * (1 - 0.22 * np.sin(np.pi * beta))
        w = (1 - beta) * leg_r + beta * entry["w"]
        p = 2.0 + (entry["p"] - 2.0) * beta
        heel = 0.030 * np.sin(np.pi * np.clip(beta, 0, 1)) ** 2
        rings.append(((cx, 0.0, cz), u, (0.0, 1.0, 0.0), e_pos, e_neg, w, p, heel))

    for i in range(26):                       # foot: plane normal x, u = -z
        xi = (i + 1) / 26.0
        x = _FOOT_X0 + (_FOOT_X1 - _FOOT_X0) * xi
        zc = 0.035 * (1 - xi) + 0.016 * xi
        top = 0.075 - 0.047 * xi ** 0.9
        w = 0.036 * (1 - xi) + 0.031 * xi + 0.016 * np.sin(np.pi * xi ** 0.9)
        p = 2.3 + 0.9 * np.sin(np.pi * xi)
        rings.append(((x, 0.0, zc), (0.0, 0.0, -1.0), (0.0, 1.0, 0.0),
                      zc - 0.005, top - zc, w, p, 0.0))

    verts = []
    phis = []
    for center, u, v, e_pos, e_neg, w, p, heel in rings:
        ou, ov = _superellipse(phi, e_pos, e_neg, w, p)
        ou = ou + heel * np.maximum(np.cos(phi), 0.0) ** 3
        pts = (np.asarray(center)[None, :]
               + ou[:, None] * np.asarray(u)[None, :]
               + ov[:, None] * np.asarray(v)[None, :])
        verts.append(pts)
        phis.append(phi)
    verts = np.concatenate(verts, axis=0)
    phis = np.concatenate(phis)

    # medial arch lift on the sole side of midfoot rings
    bottom = np.maximum(np.cos(phis), 0.0) ** 2
    medial = np.clip(0.5 + verts[:, 1] / 0.10, 0.0, 1.0)
    arch = 0.011 * np.exp(-0.5 * ((verts[:, 0] - 0.125) / 0.020) ** 2)
    verts[:, 2] += arch * bottom * medial

    # per-toe length extensions, then toe caps inherit via the same warp
    n_rings = len(rings)
    top_center = np.array([_LEG_X, 0.0, _LEG_TOP])
    toe_center = np.array([_FOOT_X1, 0.0, 0.016])
    verts = np.vstack([verts, top_center, toe_center])
    gate = 1.0 / (1.0 + np.exp(-(verts[:, 0] - 0.205) / 0.012))
    verts[:, 0] += _toe_extension(verts[:, 1]) * gate

    # soft floor flattening and recentering
    delta = 0.004
    verts[:, 2] = delta * np.logaddexp(0.0, verts[:, 2] / delta)
    verts[:, 0] += _X_SHIFT

    faces = []
    for i in range(n_rings - 1):
        for j in range(_N_SEG):
            a = i * _N_SEG + j
            b = i * _N_SEG + (j + 1) % _N_SEG
            c = (i + 1) * _N_SEG + (j + 1) % _N_SEG
            d = (i + 1) * _N_SEG + j
            faces.append([a, b, c])
            faces.append([a, c, d])
    i_top = n_rings * _N_SEG
    i_toe = i_top + 1
    for j in range(_N_SEG):
        jn = (j + 1) % _N_SEG
        faces.append([i_top, jn, j])
        last = (n_rings - 1) * _N_SEG
        faces.append([i_toe, last + j, last + jn])
    faces = np.asarray(faces, dtype=np.int64)

    # orient all faces outward (positive enclosed volume)
    tri = verts[faces]
    vol = np.einsum("ij,ij->i", tri[:, 0], np.cross(tri[:, 1], tri[:, 2])).sum() / 6.0
    if vol < 0:
        faces = faces[:, ::-1]
    mesh = Mesh(verts, np.ascontiguousarray(faces)).validate()
    return TemplateAsset(mesh, _assign_keypoints(verts),
                         KEYPOINT_NAMES).validate()


def _pick(score, taken):
    order = np.argsort(score)
    for idx in order:
        if idx not in taken:
            taken.add(int(idx))
            return int(idx)
    raise RuntimeError("ran out of vertices while picking keypoints")


def _assign_keypoints(verts):
    taken = set()
    ids = []
    big = 1e9
    x, y, z = verts[:, 0], verts[:, 1], verts[:, 2]
    for yt in _TOE_Y:      # toe tips: farthest forward near each toe line,
        # mid-height preferred so every tip sits on the toe's leading edge
        in_lane = (np.abs(y - yt) < 0.007) & (x > 0.05)
        score = -x + 2.0 * np.abs(z - 0.016)
        ids.append(_pick(np.where(in_lane, score, big), taken))
    ball = (x > 0.02) & (x < 0.07)
    ids.append(_pick(np.where(ball, -y, big), taken))           # ball_medial
    ids.append(_pick(np.where(ball, y, big), taken))            # ball_lateral
    low = z < 0.04
    ids.append(_pick(np.where(low, x, big), taken))             # heel_back
    heel_zone = x < -0.06
    ids.append(_pick(np.where(heel_zone, z, big), taken))       # heel_bottom
    # arch_mid / instep_top / ankle_outer; instep and ankle sit high so
    # vertical scale is observable from keypoints alone
    for anchor in ([-0.005, 0.028, 0.010], [0.010, 0.0, 0.080],
                   [-0.050, -0.035, 0.070]):
        d = np.linalg.norm(verts - np.asarray(anchor), axis=1)
        ids.append(_pick(d, taken))
    return np.asarray(ids, dtype=np.int64)


# ---------------------------------------------------------------------------
# Deformation field construction and evaluation.

def random_field(template_verts, d_s=8, d_p=8, hidden=64, n_hidden=3, seed=0):
    """Seeded field whose displacement RMS at unit-normal codes is
    calibrated to ``FIELD_RMS`` over the template vertices.

    First-layer position weights are scaled so the position block
    contributes as much preactivation variance as the code block;
    otherwise the displacement collapses to a per-code constant offset
    (positions span ~0.1 m while codes are unit scale) and the field
    degenerates into a translation absorbed by the registration.
    """
    rng = np.random.default_rng(seed)
    dims = [3 + d_s + d_p] + [hidden] * n_hidden + [3]
    pos_scale = float(np.std(template_verts))
    pos_gain = np.sqrt((d_s + d_p) / 3.0) / pos_scale
    weights = []
    for i in range(len(dims) - 1):
        W = rng.normal(0.0, 1.0 / np.sqrt(dims[i]), size=(dims[i], dims[i + 1]))
        if i == 0:
            W[:3] *= pos_gain
        weights.append((W, np.zeros(dims[i + 1])))
    field = DeformationField(weights, d_s, d_p)
    probes = rng.normal(size=(16, d_s + d_p))
    sq = 0.0
    for row in probes:
        d = _field(field, template_verts, row[:d_s], row[d_s:])[-1]
        sq += np.mean(np.sum(d * d, axis=1))
    rms = np.sqrt(sq / len(probes))
    W, b = field.weights[-1]
    field.weights[-1] = (W * (FIELD_RMS / rms), b)
    return field


def _field(field, X, z_s, z_p):
    """Numpy outputs of the field's layers at the rows ``X`` for the codes
    ``z_s`` and ``z_p``: each hidden layer's tanh, then the displacement."""
    if z_s.shape != (field.d_s,) or z_p.shape != (field.d_p,):
        raise ValueError("code dimensions do not match the field")
    ones = np.ones((len(X), 1))
    h = np.concatenate([X, ones @ z_s.reshape((1, field.d_s)),
                        ones @ z_p.reshape((1, field.d_p))], axis=1)
    layers = []
    for i, (W, b) in enumerate(field.weights):
        h = h @ W + b
        if i < len(field.weights) - 1:
            h = np.tanh(h)
        layers.append(h)
    return layers


def _rotation(r):
    """Rotation Rz(r[2]) @ Ry(r[1]) @ Rx(r[0]) of the Euler angles ``r``,
    and the map from its cotangent to the cotangent of ``r``."""
    (cx, cy, cz), (sx, sy, sz) = cos, sin = np.cos(r), np.sin(r)
    Rx = np.array([[1.0, 0.0, 0.0], [0.0, cx, -sx], [0.0, sx, cx]])
    Ry = np.array([[cy, 0.0, sy], [0.0, 1.0, 0.0], [-sy, 0.0, cy]])
    Rz = np.array([[cz, -sz, 0.0], [sz, cz, 0.0], [0.0, 0.0, 1.0]])
    A = Rz @ Ry

    def vjp(g):
        gA = g @ Rx.T
        gx, gy, gz = A.T @ g, Rz.T @ gA, gA @ Ry.T
        g_cos = np.array([gx[2, 2] + gx[1, 1], gy[2, 2] + gy[0, 0], gz[1, 1] + gz[0, 0]])
        g_sin = np.array([gx[2, 1] - gx[1, 2], gy[0, 2] - gy[2, 0], gz[1, 0] - gz[0, 1]])
        return g_sin * cos - g_cos * sin

    return A @ Rx, vjp


def deform(asset: TemplateAsset, field: DeformationField, params: FootParams,
           rows=None) -> np.ndarray:
    """Numpy deformed template ``x_i + F(x_i, z_s, z_p)`` (V,3) at the codes
    of ``params``.  ``rows`` evaluates only those template vertices."""
    X = asset.mesh.vertices if rows is None else asset.mesh.vertices[rows]
    return X + _field(field, X, np.asarray(params.z_s), np.asarray(params.z_p))[-1]


def forward(asset: TemplateAsset, field: DeformationField, pv: ParamVars,
            deformed=None) -> ad.Var:
    """Differentiable deformed vertices (V,3); faces stay asset.mesh.faces.
    The field of :func:`deform`, the rotation and the registration
    ``(u @ R^T) * s + t`` are one tape node with the parents r, t, s, z_s
    and z_p.  Its VJP repeats the backward of the field, rotation and
    registration op chains, so values and gradients are bit-equal to theirs.

    ``deformed`` is a value of :func:`deform`, held by a caller whose codes
    stay constant: the field is then not evaluated, the codes get no
    cotangent, and the output has the rows of ``deformed``.  The field and
    the registration act point by point, so ``deform(..., rows)`` there
    gives the full output's ``[rows]``.
    """
    need_z = [deformed is None and z.requires_grad for z in (pv.z_s, pv.z_p)]
    u = deformed
    if u is None:
        layers = _field(field, asset.mesh.vertices, pv.z_s.value, pv.z_p.value)
        u = asset.mesh.vertices + layers[-1]
    R, rotation_vjp = _rotation(pv.r.value)
    Rt, sv = R.T.copy(), pv.s.value
    m = u @ Rt
    ones, cut = np.ones((len(u), 1)), 3 + field.d_s

    def vjp(g):
        gm = g * sv
        g_z = [None, None]
        if any(need_z):
            gu = gm @ Rt.T
            for (W, _), h in zip(field.weights[:0:-1], layers[-2::-1]):
                gu = (gu @ W.T) * (1.0 - h * h)
            gu = gu @ field.weights[0][0].T
            # the op chain's nodes each got a contiguous copy of their
            # cotangent, and the last bits of a product depend on the layout
            # of its operands
            g_z = [(ones.T @ gu[:, a:b].copy()).reshape(b - a) if need else None
                   for need, (a, b) in zip(need_z, ((3, cut), (cut, gu.shape[1])))]
        return rotation_vjp((u.T @ gm).T), g.sum(axis=(0,)), (g * m).sum(axis=(0,)), *g_z

    return ad.custom((pv.r, pv.t, pv.s, pv.z_s, pv.z_p), m * sv + pv.t.value, vjp)


def forward_mesh(asset, field, params: FootParams) -> Mesh:
    return asset.mesh.copy_with(forward(asset, field, lift_params(ad.Tape(), params)).value)


# ---------------------------------------------------------------------------
# Model file IO.

def _write_array(fh, arr):
    fh.write(np.ascontiguousarray(arr).tobytes())


def save_model(path, asset: TemplateAsset, field: DeformationField):
    asset.validate()
    mesh = asset.mesh
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", VERSION))
        fh.write(struct.pack("<II", len(mesh.vertices), len(mesh.faces)))
        _write_array(fh, mesh.vertices.astype("<f8"))
        _write_array(fh, mesh.faces.astype("<i8"))
        fh.write(struct.pack("<I", len(asset.keypoint_ids)))
        _write_array(fh, np.asarray(asset.keypoint_ids, dtype="<i8"))
        for name in asset.keypoint_names:
            raw = name.encode("utf-8")
            fh.write(struct.pack("<H", len(raw)))
            fh.write(raw)
        fh.write(struct.pack("<III", field.d_s, field.d_p, len(field.weights)))
        for W, b in field.weights:
            fh.write(struct.pack("<II", W.shape[0], W.shape[1]))
            _write_array(fh, W.astype("<f8"))
            _write_array(fh, b.astype("<f8"))
        fh.write(struct.pack("<I", 0))      # basis count; no basis follows


def _read_exact(fh, n, path):
    # checked before reading, so a corrupt header count allocates nothing
    if n > os.fstat(fh.fileno()).st_size - fh.tell():
        raise ModelFormatError(f"{path}: truncated model file")
    raw = fh.read(n)
    if len(raw) != n:
        raise ModelFormatError(f"{path}: truncated model file")
    return raw


def _read_array(fh, dtype, shape, path):
    n = int(np.prod(shape)) * np.dtype(dtype).itemsize
    return np.frombuffer(_read_exact(fh, n, path), dtype=dtype).reshape(shape).copy()


def load_model(path):
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, path) != MAGIC:
            raise ModelFormatError(f"{path}: bad magic bytes")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != VERSION:
            raise ModelFormatError(f"{path}: unsupported version {version}")
        nv, nf = struct.unpack("<II", _read_exact(fh, 8, path))
        vertices = _read_array(fh, "<f8", (nv, 3), path)
        faces = _read_array(fh, "<i8", (nf, 3), path)
        (nk,) = struct.unpack("<I", _read_exact(fh, 4, path))
        kp_ids = _read_array(fh, "<i8", (nk,), path)
        names = []
        for _ in range(nk):
            (ln,) = struct.unpack("<H", _read_exact(fh, 2, path))
            names.append(_read_exact(fh, ln, path).decode("utf-8"))
        d_s, d_p, n_layers = struct.unpack("<III", _read_exact(fh, 12, path))
        weights = []
        for _ in range(n_layers):
            din, dout = struct.unpack("<II", _read_exact(fh, 8, path))
            W = _read_array(fh, "<f8", (din, dout), path)
            b = _read_array(fh, "<f8", (dout,), path)
            weights.append((W, b))
        # files written before the blendshape basis was dropped carry
        # n_basis (V,3) displacement fields here; skip them
        (n_basis,) = struct.unpack("<I", _read_exact(fh, 4, path))
        _read_exact(fh, n_basis * nv * 3 * 8, path)
    try:
        field = DeformationField(weights, d_s, d_p)
    except ModelFormatError:
        raise
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    asset = TemplateAsset(Mesh(vertices, faces), kp_ids, tuple(names))
    try:
        asset.validate()
    except ValueError as exc:
        raise ModelFormatError(f"{path}: {exc}") from exc
    return asset, field


def make_default_model(seed=0):
    asset = build_template()
    field = random_field(asset.mesh.vertices, seed=seed)
    return asset, field
