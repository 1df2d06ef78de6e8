"""Command-line front end.

One subcommand per pipeline step: make-model, synth, fit, eval-normals,
eval3d, align, gradcheck.  Options resolve as defaults, then a TOML or
JSON config file, then explicit flags (flags win).  Every run writes a
config_echo.json with the fully resolved options next to its artifacts.
Progress goes to stderr, artifacts to files, and stdout carries exactly
one JSON summary line.  Exit codes: 0 ok, 2 config error, 3 IO error,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import sys
import time
from dataclasses import fields, replace

import numpy as np

from . import autodiff as ad
from . import camera as cam_mod
from . import evalign
from . import fitting
from . import footmodel as fm
from . import geometry
from . import images
from . import losses
from . import renderer
from . import synth

__all__ = ["main", "gradient_suite", "ConfigError", "NumericalError"]


class ConfigError(ValueError):
    pass


class NumericalError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Config resolution.

DEFAULTS = {
    "make-model": {"out": None, "seed": 0},
    "synth": {"model": None, "out": None, "views": 8, "seed": 0,
              "noise": 5.0, "kp_sigma": 0.01, "cutoff": 0.20,
              "width": 480, "height": 640},
    "fit": {"scene": None, "model": None, "out": None, "views": 0,
            **{f.name: f.default for f in fields(fitting.FitConfig)},
            "downsample": 0},
    "eval-normals": {"scene": None, "model": None, "out": None, "mesh": "",
                     "cutoff": 0.20, "csv": False},
    "eval3d": {"fitted": None, "gt": "", "scene": "", "model": "",
               "out": None, "n": 10000, "seed": 0, "gt_seed": -1,
               "csv": False},
    "align": {"source": None, "target": None, "out": None, "steps": 500,
              "lr": 0.01, "seed": 0, "no_floor": False, "csv": False},
    "gradcheck": {"out": None, "configs": 20, "tol": 1e-4, "h": 1e-5,
                  "seed": 0},
}

REQUIRED = {
    "make-model": ("out",),
    "synth": ("model", "out"),
    "fit": ("scene", "model", "out"),
    "eval-normals": ("scene", "model", "out"),
    "eval3d": ("fitted", "out"),
    "align": ("source", "target", "out"),
    "gradcheck": ("out",),
}


def _load_config_file(path):
    try:
        if path.endswith(".toml"):
            try:
                import tomllib
            except ImportError:
                import tomli as tomllib
            with open(path, "rb") as fh:
                return tomllib.load(fh)
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except Exception as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc


def resolve_config(command, flag_values, config_path=None):
    defaults = DEFAULTS[command]
    merged = dict(defaults)
    if config_path:
        file_cfg = _load_config_file(config_path)
        for key, value in file_cfg.items():
            if key not in defaults:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            merged[key] = value
    merged.update(flag_values)
    for key, default in defaults.items():
        if isinstance(default, float) and isinstance(merged[key], int):
            merged[key] = float(merged[key])
    for key in REQUIRED[command]:
        if merged[key] is None:
            raise ConfigError(f"missing required option --{key.replace('_', '-')}")
    return merged


def _echo(cfg, command, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config_echo.json"), "w") as fh:
        json.dump({"command": command, **cfg}, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _progress(msg):
    print(msg, file=sys.stderr)


def _write_reports(report, out_dir, want_csv, title):
    with open(os.path.join(out_dir, "report.json"), "w") as fh:
        fh.write(evalign.report_json(report))
    with open(os.path.join(out_dir, "report.txt"), "w") as fh:
        fh.write(evalign.report_table(report, title=title))
    if want_csv:
        with open(os.path.join(out_dir, "report.csv"), "w") as fh:
            fh.write(evalign.report_csv(report))


# ---------------------------------------------------------------------------
# Gradient suite.

def _unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def _suite_camera():
    return cam_mod.Camera(40.0, 40.0, 16.0, 12.0, 32, 24, np.eye(3),
                          np.zeros(3))


def _check_angmf(rng, h):
    labels = _unit_rows(rng, 6)
    mu0 = _unit_rows(rng, 6)
    k0 = rng.uniform(0.3, 3.0, size=6)

    def fn(mu_raw, kappa):
        unit = mu_raw / ad.norm2(mu_raw, axis=1, keepdims=True)
        return losses.angmf_nll(unit, kappa, labels)

    return ad.grad_check(fn, [mu0, k0], h=h)


def _check_kp_fit(rng, h):
    obs = [losses.KeypointObservation(
        rng.uniform(0.2, 0.8, size=(3, 2)),
        rng.uniform(0.05, 0.2, size=(3, 2)),
        np.array([1.0, 1.0, 0.0])) for _ in range(2)]
    p0 = [o.k + rng.normal(size=o.k.shape) * 0.05 for o in obs]
    stacked = losses.KeypointObservation.stack(obs)
    return ad.grad_check(lambda a, b: losses.kp_fit_loss([a, b], stacked), p0,
                         h=h)


def _check_normal_fit(rng, h):
    # two views of one observation, scoring 3 and 1 of its pixels
    obs = losses.NormalObservation(_unit_rows(rng, 4).reshape(2, 2, 3),
                                   rng.uniform(0.5, 3.0, size=(2, 2)))
    scored = [np.array([0, 2, 3]), np.array([1])]

    def fn(raw):
        unit = raw / ad.norm2(raw, axis=1, keepdims=True)
        return losses.normal_fit_loss(unit, [obs, obs], scored)

    return ad.grad_check(fn, [_unit_rows(rng, 4)], h=h)


def _check_silhouette_l2(rng, h):
    masks = [rng.uniform(size=(3, 3)) > 0.5, rng.uniform(size=(2, 4)) > 0.5]
    targets = [rng.uniform(size=m.shape) > 0.5 for m in masks]
    bands = [np.array([0, 4, 5, 8]), np.array([1, 2, 6])]
    return ad.grad_check(lambda s: losses.silhouette_l2(s, bands, masks, targets),
                         [rng.uniform(0.1, 0.9, size=7)], h=h)


def _two_cameras():
    # different R and t: the VJPs sum over the views
    R, t = cam_mod.look_at([0.06, -0.04, -0.05], [0.0, 0.0, 0.45])
    return [_suite_camera(), replace(_suite_camera(), R=R, t=t)]


def _base_triangle(rng):
    v = np.array([[-0.06, -0.05, 0.40], [0.07, -0.04, 0.50],
                  [0.00, 0.08, 0.45]])
    return v + rng.normal(size=v.shape) * 0.004


def _base_quad(rng):
    # large enough that the interior medial axis (argmin tie between
    # opposite contour edges) stays outside the sigmoid band
    v = np.array([[-0.10, -0.095, 0.45], [0.105, -0.09, 0.48],
                  [0.10, 0.10, 0.46], [-0.095, 0.105, 0.44]])
    return v + rng.normal(size=v.shape) * 0.004


def _rasterize_views(mesh, cams):
    pix, cam_pts = cam_mod.project(cams, mesh.vertices)
    return [renderer.rasterize(mesh.faces, pix[v], cam_pts[v, :, 2], cam)
            for v, cam in enumerate(cams)]


def _check_render_normals(rng, h):
    cams = _two_cameras()
    v0 = _base_triangle(rng)
    faces = np.array([[0, 2, 1]])
    frags = _rasterize_views(geometry.Mesh(v0, faces), cams)
    scored = [np.flatnonzero(frag.mask) for frag in frags]
    w = rng.normal(size=(sum(len(s) for s in scored), 3))

    def fn(verts):
        n_world = renderer.vertex_normals_var(verts, faces)
        return (renderer.render_normals_var(n_world, faces, cams, frags, scored) * w).sum()

    return ad.grad_check(fn, [v0], h=h)


def _stable_branch_weights(verts, cam, rng, margin=0.05):
    """Loss weights for the silhouette check, zeroed where the rendered
    value is not differentiable in a probe-sized neighborhood: pixels whose
    two nearest contour edges are nearly tied (argmin flips) and pixels
    lying on an edge (the unsigned distance folds at zero).  A probe moves
    projections by well under margin px, so weighted pixels stay on one
    smooth branch and central differences are trustworthy."""
    pix = cam_mod.project([cam], verts)[0][0]
    ab = pix[[1, 2, 3, 0]] - pix        # the quad's four outer edges
    jj, ii = np.meshgrid(np.arange(cam.width) + 0.5, np.arange(cam.height) + 0.5)
    d = np.sort(np.sqrt(renderer._segment_d2(
        jj.reshape(-1, 1), ii.reshape(-1, 1), pix[:, 0], pix[:, 1], ab[:, 0], ab[:, 1],
        np.maximum((ab * ab).sum(axis=1), 1e-30))), axis=1)
    ok = ((d[:, 1] - d[:, 0]) > margin) & (d[:, 0] > margin)
    return rng.normal(size=cam.height * cam.width) * ok


def _check_soft_silhouette(rng, h):
    cams = _two_cameras()
    v0 = _base_quad(rng)
    faces = np.array([[0, 2, 1], [0, 3, 2]])
    mesh = geometry.Mesh(v0, faces)
    frags = _rasterize_views(mesh, cams)
    topo = renderer.ContourTopology.build(mesh)
    w = [_stable_branch_weights(v0, cam, rng) for cam in cams]
    n_pixels = sum(cam.width * cam.height for cam in cams)

    def fn(verts):
        # weighted mean, mild sharpness: fd truncation error grows with the
        # cube of the sigmoid slope, and the per-pixel normalization keeps
        # it far below tolerance; the gradient code is the same either way
        proj, _ = renderer.project_vertices_var(verts, cams)
        soft, bands = renderer.render_silhouette_soft_var(proj, cams, frags, topo,
                                                          sharpness=8.0)
        w_band = np.concatenate([wv[band] for wv, band in zip(w, bands)])
        return (soft * w_band).sum() * (1.0 / n_pixels)

    return ad.grad_check(fn, [v0], h=h)


def _check_project_keypoints(rng, h):
    cams = _two_cameras()
    v0 = _base_quad(rng)
    w = rng.normal(size=(2, 2, 2))

    def fn(verts):
        proj = renderer.project_vertices_var(verts, cams)
        kp, _ = renderer.project_keypoints_var(proj, np.array([0, 2]), cams)
        return (kp * w).sum()

    return ad.grad_check(fn, [v0], h=h)


_SUITE_ASSET = None


def _suite_model(seed):
    global _SUITE_ASSET
    if _SUITE_ASSET is None:
        _SUITE_ASSET = fm.build_template()
    field = fm.random_field(_SUITE_ASSET.mesh.vertices, d_s=2, d_p=2,
                            hidden=16, n_hidden=1, seed=seed)
    return _SUITE_ASSET, field


def _check_model_forward(rng, h, seed):
    asset, field = _suite_model(seed)
    w = rng.normal(size=asset.mesh.vertices.shape)
    r0 = rng.uniform(-0.2, 0.2, size=3)
    t0 = rng.uniform(-0.02, 0.02, size=3)
    s0 = rng.uniform(0.9, 1.1, size=3)
    zs0 = rng.normal(size=2) * 0.5
    zp0 = rng.normal(size=2) * 0.5

    def fn(r, t, s, z_s, z_p):
        pv = fm.ParamVars(r, t, s, z_s, z_p)
        return (fm.forward(asset, field, pv) * w).sum()

    return ad.grad_check(fn, [r0, t0, s0, zs0, zp0], h=h)


CHECKS = {
    "angmf_nll": _check_angmf,
    "kp_fit_loss": _check_kp_fit,
    "normal_fit_loss": _check_normal_fit,
    "silhouette_l2": _check_silhouette_l2,
    "render_normals": _check_render_normals,
    "soft_silhouette": _check_soft_silhouette,
    "project_keypoints": _check_project_keypoints,
}


def gradient_suite(configs=20, h=1e-5, seed=0):
    """Finite-difference audit of every analytic gradient path: losses,
    normal renderer, soft silhouette, keypoint projector, and the model
    forward (registration transform plus deformation field).  Returns
    one row per (config, component) with the max relative error."""
    rows = []
    for i in range(configs):
        rng = np.random.default_rng(seed + 1000 * i)
        for name, run in CHECKS.items():
            rows.append({"config": i, "component": name,
                         "max_rel": float(run(rng, h))})
        rows.append({"config": i, "component": "model_forward",
                     "max_rel": float(_check_model_forward(rng, h, seed + i))})
    return rows


# ---------------------------------------------------------------------------
# Subcommands.

def cmd_make_model(cfg):
    _keep_heap_top()
    _echo(cfg, "make-model", cfg["out"])
    asset, field = fm.make_default_model(seed=cfg["seed"])
    path = os.path.join(cfg["out"], "model.bin")
    fm.save_model(path, asset, field)
    _progress(f"wrote {path}")
    return {"command": "make-model", "model": path,
            "vertices": len(asset.mesh.vertices),
            "keypoints": len(asset.keypoint_ids), "seed": cfg["seed"]}


def cmd_synth(cfg):
    model = fm.load_model(cfg["model"])
    _, field = model
    rng = np.random.default_rng(cfg["seed"])
    params = synth.random_scene_params(rng, field.d_s, field.d_p)
    arc = cam_mod.ArcSamplerConfig(width=cfg["width"], height=cfg["height"])
    try:
        spec = synth.SceneSpec(params, arc=arc, n_views=cfg["views"],
                               cutoff=cfg["cutoff"],
                               sigma_view_deg=cfg["noise"],
                               kp_sigma=cfg["kp_sigma"],
                               seed=cfg["seed"]).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _echo(cfg, "synth", cfg["out"])
    try:
        synth.generate_scene(spec, model, cfg["out"])
    except ValueError as exc:
        # persistent camera rejection is a configuration problem
        raise ConfigError(str(exc)) from exc
    _progress(f"wrote {cfg['views']} views under {cfg['out']}")
    return {"command": "synth", "out": cfg["out"], "views": cfg["views"],
            "seed": cfg["seed"]}


def _fit_config(cfg):
    return fitting.FitConfig(**{f.name: cfg[f.name] for f in fields(fitting.FitConfig)})


# glibc's mallopt parameter for the freed heap top that malloc keeps
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20


def _keep_heap_top():
    """Let glibc keep up to ``_TOP_PAD_BYTES`` of freed heap top.

    A fit builds one tape per epoch and frees it when the epoch ends, and
    the field calibration of make-model one per probe code.  By default
    glibc hands the freed heap top back to the kernel at once, and the
    next tape faults the same pages in again: a 1,000-epoch stage-1 fit
    spent about a fifth of its time there.  Returns whether the setting
    took; False on other C libraries.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (ValueError, OSError):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(_M_TOP_PAD, _TOP_PAD_BYTES) == 1


def cmd_fit(cfg):
    _keep_heap_top()
    model = fm.load_model(cfg["model"])
    try:
        fit_cfg = _fit_config(cfg).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _, cams, obs = synth.load_scene(cfg["scene"])
    m = cfg["views"] or len(cams)
    try:
        picked = fitting.select_views(cams, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cams = [cams[i] for i in picked]
    obs = [obs[i] for i in picked]

    factor = cfg["downsample"]
    if factor < 0:
        raise ConfigError("downsample must be non-negative")
    if factor == 0:
        factor = max(1, round(min(cams[0].width, cams[0].height) / 120))
    if factor > 1:
        try:
            cams = [cam_mod.scale_camera(c, factor) for c in cams]
            obs = [losses.downsample_observation(o, factor) for o in obs]
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    _echo(cfg, "fit", cfg["out"])
    _progress(f"fitting {m} views at 1/{factor} scale")
    start = time.perf_counter()
    try:
        params1, trace1 = fitting.fit_stage1(model, obs, cams, fit_cfg)
        _progress(f"stage 1 done: kp loss {trace1.rows[-1][1]:.6g}"
                  if trace1.rows else "stage 1 skipped")
        params2, trace2 = fitting.fit_stage2(model, obs, cams, params1,
                                             fit_cfg)
    except ValueError as exc:
        if "under-constrained" in str(exc):
            raise NumericalError(str(exc)) from exc
        raise
    wall_s = time.perf_counter() - start
    _progress(f"stage 2 done: total {trace2.rows[-1][4]:.6g}"
              if trace2.rows else "stage 2 skipped")

    asset, field = model
    mesh = fm.forward_mesh(asset, field, params2)
    geometry.save_obj(os.path.join(cfg["out"], "fitted.obj"), mesh)
    with open(os.path.join(cfg["out"], "params.json"), "w") as fh:
        json.dump({"r": params2.r.tolist(), "t": params2.t.tolist(),
                   "s": params2.s.tolist(), "z_s": params2.z_s.tolist(),
                   "z_p": params2.z_p.tolist()}, fh, indent=1)
        fh.write("\n")
    with open(os.path.join(cfg["out"], "trace.csv"), "w") as fh:
        fh.write("epoch,L_kp,L_sil,L_norm,total\n")
        offset = 0
        for trace in (trace1, trace2):
            for row in trace.rows:
                fh.write(f"{row[0] + offset},{row[1]:.17g},{row[2]:.17g},"
                         f"{row[3]:.17g},{row[4]:.17g}\n")
            offset += len(trace.rows)
    totals = (list(trace1.totals()) + list(trace2.totals())) or [float("nan")]
    return {"command": "fit", "out": cfg["out"], "views": m,
            "downsample": factor, "final_total": float(totals[-1]),
            "epochs": len(totals), "wall_s": wall_s}


def cmd_eval_normals(cfg):
    model = fm.load_model(cfg["model"])
    asset, field = model
    meta, cams, obs = synth.load_scene(cfg["scene"])
    gt_mesh = fm.forward_mesh(asset, field, synth.scene_gt_params(meta))
    fitted = geometry.load_obj(cfg["mesh"]) if cfg["mesh"] else None

    gt_frags = _rasterize_views(gt_mesh, cams)
    if fitted is not None:
        frags = _rasterize_views(fitted, cams)
    pooled_pred, pooled_gt, pooled_h = [], [], []
    for i, (cam, o) in enumerate(zip(cams, obs)):
        gt_map = images.load_pfm(os.path.join(
            cfg["scene"], f"view_{i:03d}", "gt_normals.pfm")).astype(np.float64)
        h = renderer.pixel_heights(gt_mesh, gt_frags[i])
        mask = o.mask.copy()
        if fitted is None:
            pred = o.normals.mu
        else:
            pred = renderer.render_normals(fitted, cam, frags[i])
            mask &= frags[i].mask
        pooled_pred.append(pred[mask])
        pooled_gt.append(gt_map[mask])
        pooled_h.append(h[mask])

    pred = np.concatenate(pooled_pred)
    gt = np.concatenate(pooled_gt)
    hs = np.concatenate(pooled_h)
    try:
        rep = evalign.eval_normals(pred, gt, np.ones(len(hs), dtype=bool),
                                   heights=hs, leg_cutoff=cfg["cutoff"])
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    report = rep.as_dict()
    report["views"] = len(cams)
    _echo(cfg, "eval-normals", cfg["out"])
    _write_reports(report, cfg["out"], cfg["csv"], "normal evaluation")
    return {"command": "eval-normals", "out": cfg["out"],
            "mean_deg": report["mean_deg"], "pixels": report["pixels"]}


def _gt_mesh_from(cfg):
    if cfg["gt"]:
        return geometry.load_obj(cfg["gt"])
    if cfg["scene"] and cfg["model"]:
        asset, field = fm.load_model(cfg["model"])
        meta, _, _ = synth.load_scene(cfg["scene"])
        return fm.forward_mesh(asset, field, synth.scene_gt_params(meta))
    raise ConfigError("need --gt or both --scene and --model")


def cmd_eval3d(cfg):
    fitted = geometry.load_obj(cfg["fitted"])
    gt_mesh = _gt_mesh_from(cfg)
    gt_seed = None if cfg["gt_seed"] < 0 else cfg["gt_seed"]
    report = evalign.eval_3d(fitted, gt_mesh, n=cfg["n"], seed=cfg["seed"],
                             gt_seed=gt_seed)
    _echo(cfg, "eval3d", cfg["out"])
    _write_reports(report, cfg["out"], cfg["csv"], "3d evaluation")
    return {"command": "eval3d", "out": cfg["out"],
            "mean_distance": report["mean_distance"],
            "mean_normal_deg": report["mean_normal_deg"]}


def _load_cloud(path):
    if path.endswith(".obj"):
        return geometry.load_obj(path).vertices
    if path.endswith(".ply"):
        return geometry.load_ply(path).vertices
    if path.endswith(".npy"):
        pts = np.load(path)
    else:
        pts = np.loadtxt(path)
    pts = np.asarray(pts, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ConfigError(f"{path}: expected an (N,3) point cloud")
    return pts


def cmd_align(cfg):
    src = _load_cloud(cfg["source"])
    tgt = _load_cloud(cfg["target"])
    report = {}
    if not cfg["no_floor"]:
        try:
            fs = evalign.fit_floor(src, seed=cfg["seed"])
            ft = evalign.fit_floor(tgt, seed=cfg["seed"])
        except ValueError as exc:
            raise NumericalError(str(exc)) from exc
        src, _, _ = evalign.level_to_floor(src, fs)
        tgt, _, _ = evalign.level_to_floor(tgt, ft)
        src = src[~fs.inliers]
        tgt = tgt[~ft.inliers]
        report["source_floor_points"] = int(fs.inliers.sum())
        report["target_floor_points"] = int(ft.inliers.sum())
    try:
        res = evalign.align_4param(src, tgt, lr=cfg["lr"], steps=cfg["steps"])
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
    report.update({
        "theta_z_rad": res.params.theta_z,
        "theta_z_deg": float(np.degrees(res.params.theta_z)),
        "tx_m": res.params.tx,
        "ty_m": res.params.ty,
        "scale": res.params.s,
        "objective_m": res.objective,
        "kept_source": res.kept_source,
        "kept_target": res.kept_target,
        "pivot": [float(x) for x in res.pivot],
    })
    _echo(cfg, "align", cfg["out"])
    _write_reports(report, cfg["out"], cfg["csv"], "alignment")
    return {"command": "align", "out": cfg["out"],
            "theta_z_deg": report["theta_z_deg"], "scale": report["scale"],
            "objective_m": report["objective_m"]}


def cmd_gradcheck(cfg):
    _echo(cfg, "gradcheck", cfg["out"])
    rows = gradient_suite(configs=cfg["configs"], h=cfg["h"],
                          seed=cfg["seed"])
    worst = max(rows, key=lambda r: r["max_rel"])
    with open(os.path.join(cfg["out"], "gradcheck.json"), "w") as fh:
        json.dump({"tolerance": cfg["tol"], "rows": rows}, fh, indent=1)
        fh.write("\n")
    _progress(f"{len(rows)} checks, worst {worst['component']} "
              f"{worst['max_rel']:.3g}")
    if worst["max_rel"] > cfg["tol"]:
        raise NumericalError(
            f"gradient check {worst['component']} at config "
            f"{worst['config']}: {worst['max_rel']:.3g} > {cfg['tol']:.3g}")
    return {"command": "gradcheck", "out": cfg["out"], "checks": len(rows),
            "max_rel": worst["max_rel"], "tolerance": cfg["tol"]}


# ---------------------------------------------------------------------------
# Parser and entry point.

COMMANDS = {"make-model": cmd_make_model, "synth": cmd_synth, "fit": cmd_fit,
            "eval-normals": cmd_eval_normals, "eval3d": cmd_eval3d,
            "align": cmd_align, "gradcheck": cmd_gradcheck}


def build_parser():
    """One subparser per command, one flag per key of its ``DEFAULTS``: a
    bool default makes a switch, None a string, any other default its type."""
    parser = argparse.ArgumentParser(prog="footfit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(run=run, command=name)
        p.add_argument("--config", default=None)
        for flag, default in DEFAULTS[name].items():
            arg = "--" + flag.replace("_", "-")
            if isinstance(default, bool):
                p.add_argument(arg, dest=flag, action="store_true",
                               default=argparse.SUPPRESS)
            else:
                p.add_argument(arg, dest=flag, default=argparse.SUPPRESS,
                               type=str if default is None else type(default))
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    flag_values = {k: v for k, v in vars(args).items()
                   if k not in ("run", "command", "config")}
    try:
        cfg = resolve_config(args.command, flag_values, args.config)
        summary = args.run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (fm.ModelFormatError, geometry.MeshError, images.ImageFormatError,
            json.JSONDecodeError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
