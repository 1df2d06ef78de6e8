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
import resource
import sys
import time
from dataclasses import fields

import numpy as np

from . import camera as cam_mod
from . import evalign
from . import fitting
from . import footmodel as fm
from . import geometry
from . import images
from . import losses
from . import renderer
from . import synth
from .gradcheck import gradient_suite

__all__ = ["main", "ConfigError", "NumericalError"]


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
        if isinstance(default, float) and type(merged[key]) is int:
            merged[key] = float(merged[key])
        if default is not None and type(merged[key]) is not type(default):
            raise ConfigError(f"{key} must be of type {type(default).__name__}")
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


# glibc's mallopt parameters (malloc.h) and the values _keep_heap_top sets;
# 32 MiB is the largest mmap threshold glibc accepts on 64-bit hosts
_M_TOP_PAD = -2
_TOP_PAD_BYTES = 64 << 20
_M_MMAP_THRESHOLD = -3
_MMAP_THRESHOLD_BYTES = 32 << 20


def _keep_heap_top():
    """Let glibc reuse freed arrays instead of handing their pages back.

    A fit builds one tape per epoch and frees it before the next epoch
    builds its own, and the field calibration of make-model frees its
    layer outputs per probe code.  Two settings keep those pages mapped:

    * ``M_TOP_PAD`` lets glibc keep up to ``_TOP_PAD_BYTES`` of freed heap
      top.  By default glibc hands it back to the kernel at once, and the
      next epoch faults the same pages in again: a 1,000-epoch stage-1 fit
      spent about a fifth of its time there.
    * ``M_MMAP_THRESHOLD`` at ``_MMAP_THRESHOLD_BYTES`` puts every array up
      to 32 MiB on the heap.  Setting ``M_TOP_PAD`` turns off glibc's
      dynamic mmap threshold (mallopt(3)), so with the top pad alone every
      array of 128 KiB or more is mapped on its own and unmapped when it is
      freed: after this module's imports, each 1 MB allocation faulted all
      its 257 pages in again.

    Returns whether both settings took; False on other C libraries.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (ValueError, OSError):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return (mallopt(_M_TOP_PAD, _TOP_PAD_BYTES) == 1
            and mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES) == 1)


def cmd_fit(cfg):
    _keep_heap_top()
    model = fm.load_model(cfg["model"])
    try:
        fit_cfg = _fit_config(cfg).validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    _, cams = synth.load_scene_meta(cfg["scene"])
    m = cfg["views"] or len(cams)
    try:
        picked = fitting.select_views(cams, m)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    cams = [cams[i] for i in picked]

    factor = cfg["downsample"]
    if factor < 0:
        raise ConfigError("downsample must be non-negative")
    if factor == 0:
        factor = max(1, round(min(cams[0].width, cams[0].height) / 120))
    try:
        cams = [cam_mod.scale_camera(c, factor) for c in cams]
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # only the picked views are read, one at a time: each is downsampled
    # and cut to its table before the next one loads
    data = fitting.FitInput.build(
        cams, (losses.downsample_observation(synth.load_view(cfg["scene"], i), factor)
               for i in picked), fit_cfg)

    _echo(cfg, "fit", cfg["out"])
    _progress(f"fitting {m} views at 1/{factor} scale")
    start = time.perf_counter()
    params1, rows1 = fitting.fit_stage1(model, data, fit_cfg)
    _progress(f"stage 1 done: kp loss {rows1[-1][1]:.6g}"
              if rows1 else "stage 1 skipped")
    params2, rows2 = fitting.fit_stage2(model, data, params1, fit_cfg)
    wall_s = time.perf_counter() - start
    _progress(f"stage 2 done: total {rows2[-1][4]:.6g}"
              if rows2 else "stage 2 skipped")

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
        for rows in (rows1, rows2):
            for row in rows:
                fh.write(f"{row[0] + offset},{row[1]:.17g},{row[2]:.17g},"
                         f"{row[3]:.17g},{row[4]:.17g}\n")
            offset += len(rows)
    totals = [row[4] for row in rows1 + rows2] or [float("nan")]
    return {"command": "fit", "out": cfg["out"], "views": m,
            "downsample": factor, "final_total": float(totals[-1]),
            "epochs": len(totals), "wall_s": wall_s,
            # ru_maxrss is in KiB on Linux
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def cmd_eval_normals(cfg):
    model = fm.load_model(cfg["model"])
    asset, field = model
    meta, cams, obs = synth.load_scene(cfg["scene"])
    gt_mesh = fm.forward_mesh(asset, field, synth.scene_gt_params(meta))
    fitted = geometry.load_obj(cfg["mesh"]) if cfg["mesh"] else None

    gt_frags = renderer.rasterize_views(gt_mesh, cams)
    if fitted is not None:
        frags = renderer.rasterize_views(fitted, cams)
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
        report = evalign.eval_normals(pred, gt, np.ones(len(hs), dtype=bool),
                                      heights=hs, leg_cutoff=cfg["cutoff"])
    except ValueError as exc:
        raise NumericalError(str(exc)) from exc
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
        meta, _ = synth.load_scene_meta(cfg["scene"])
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
    try:
        pts = np.load(path) if path.endswith(".npy") else np.loadtxt(path)
    except (ValueError, EOFError) as exc:
        raise geometry.MeshError(f"{path}: not a readable point array: {exc}") from exc
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
            cam_mod.SceneFormatError, json.JSONDecodeError, OSError) as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 3
    except (NumericalError, fitting.UnderConstrainedError,
            FloatingPointError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return 4
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
