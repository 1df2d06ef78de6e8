"""Fit-pipeline benchmark for footfit.

    python3 perfbench/run.py --workload fit8 --seed 1 --seconds 10 --trace 0

Runs the pipeline as a user does, one process per step: ``footfit
make-model``, the scene synthesis (``perfbench/scene.py``), ``footfit fit``
and ``footfit eval3d``.  Every child process has BLAS and OpenMP pinned to
one thread.  Set-up (model and scene) runs once, cold; then whole rounds of
one fit and one evaluation repeat until ``--seconds`` have passed, at
least one round.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
pipeline once untraced and once with footfit's layer functions wrapped from
outside (``tracer.py``), checks that both wrote the same fit files, and
prints the per-layer metrics and the tracing overhead.  Either way the
outputs are checked (``checks.py``) and the last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (child processes)
and ``metrics``.  See README.md for the workloads and what each metric means.
"""

import time

T0 = time.perf_counter()    # set-up is timed from the start of this process

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, "work")
SCENE = os.path.join(HERE, "scene.py")
TRACER = os.path.join(HERE, "tracer.py")
SPAWN = "<spawn-time>"      # replaced by the wall clock just before a child starts

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, HERE)
import tracer  # noqa: E402  (needs no footfit or numpy at import)


@dataclass(frozen=True)
class Workload:
    shape_seed: int     # the foot is fixed per workload
    camera_seed: object  # a fixed camera stream, or None: cameras from --seed
    views: int
    width: int
    height: int
    stage1_epochs: int
    stage2_epochs: int
    fit_flags: tuple = ()
    ac05_gate: bool = False


# Why these three: README.md.  Seeds 23 and 9 are AC-05's foot and scene.
# The cameras set the pixels each view covers, and with them the renderer's
# work, so they are fixed where the renderer runs.  Stage 1 reads only the
# noise-free keypoints: with fixed cameras `register` would fit the same
# scene on every seed, and its work does not depend on the pixels.
WORKLOADS = {
    "fit8": Workload(23, 9, 8, 160, 120, 150, 80, ac05_gate=True),
    "register": Workload(41, None, 8, 160, 120, 1000, 0),
    "hires3": Workload(23, 9, 3, 480, 640, 150, 20, ("--downsample", "1")),
}
NOISE_DEG = 5.0
MODEL_SEED = 0
CHAMFER_AGREEMENT = 0.05    # own chamfer vs eval3d, share of eval3d's value
AC05_MM, AC05_DEG = 2.0, 5.0
KAPPA_TOL_DEG = 0.1         # AC-02's tolerance
FIT_FILES = ("params.json", "trace.csv", "fitted.obj")


class StepFailed(RuntimeError):
    pass


@dataclass
class Child:
    wall_s: float
    peak_rss_mb: float
    stdout: str


class Runner:
    """Runs pipeline steps as child processes and counts them."""

    def __init__(self, work, env):
        self.work = work
        self.env = env
        self.attempted = 0
        self.failed = 0

    def run(self, tag, argv):
        self.attempted += 1
        log = os.path.join(self.work, tag)
        with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
            argv = [repr(time.time()) if a == SPAWN else a for a in argv]
            t = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.failed += 1
            with open(log + ".err") as fh:
                tail = fh.read()[-2000:]
            raise StepFailed(f"{tag} exited {proc.returncode}:\n{tail}")
        with open(log + ".out") as fh:
            stdout = fh.read()
        return Child(wall, usage.ru_maxrss / 1024.0, stdout)


def command(kind, args, spans=None):
    if spans is not None:
        return [sys.executable, TRACER, spans, SPAWN, kind, *args]
    if kind == "cli":
        return [sys.executable, "-m", "footfit.cli", *args]
    return [sys.executable, SCENE, *args]


class Paths:
    def __init__(self, base):
        self.base = base
        self.model = os.path.join(base, "model", "model.bin")
        self.scene = os.path.join(base, "scene")

    def fit(self, k):
        return os.path.join(self.base, f"fit{k}")


def setup_steps(wl, seed, p):
    # view v draws its noise from stream noise_seed ^ v, so a multiple of 16
    # keeps the streams of one run apart from every other run's and leaves
    # noise_seed + 8 free for the cameras
    noise_seed = 16 * (seed + 1)
    camera_seed = noise_seed + 8 if wl.camera_seed is None else wl.camera_seed
    return [
        ("make-model", "cli", ["make-model", "--out", os.path.dirname(p.model),
                               "--seed", str(MODEL_SEED)]),
        ("scene", "scene", [p.model, p.scene, str(wl.shape_seed),
                            str(camera_seed), str(noise_seed),
                            str(wl.views), str(wl.width), str(wl.height),
                            str(NOISE_DEG)]),
    ]


def fit_args(wl, p, out):
    return ["fit", "--scene", p.scene, "--model", p.model, "--out", out,
            "--stage1-epochs", str(wl.stage1_epochs),
            "--stage2-epochs", str(wl.stage2_epochs), *wl.fit_flags]


def eval_args(p, fit_dir, out):
    return ["eval3d", "--fitted", os.path.join(fit_dir, "fitted.obj"),
            "--scene", p.scene, "--model", p.model, "--out", out]


def summary_of(child):
    return json.loads(child.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# Untraced run: end-to-end metrics.

def measure(wl, seed, seconds, runner):
    p = Paths(runner.work)
    for tag, kind, args in setup_steps(wl, seed, p):
        runner.run(tag, command(kind, args))
    setup_s = time.perf_counter() - T0
    fits, summaries = [], []
    start = time.perf_counter()
    while not fits or time.perf_counter() - start < seconds:
        k = len(fits)
        fits.append(runner.run(f"fit{k}", command("cli", fit_args(wl, p, p.fit(k)))))
        out = os.path.join(runner.work, f"eval{k}")
        summaries.append(summary_of(runner.run(
            f"eval{k}", command("cli", eval_args(p, p.fit(k), out)))))
    s = summaries[0]
    results = check_outputs(wl, p, p.fit(0), s)
    results.append(("repeat rounds give identical fits and evaluations",
                    all(same_files(p.fit(0), p.fit(k)) for k in range(len(fits)))
                    and all(t["mean_distance"] == s["mean_distance"]
                            and t["mean_normal_deg"] == s["mean_normal_deg"]
                            for t in summaries),
                    f"{len(fits)} rounds"))
    metrics = {
        "setup_s": (setup_s, "s"),
        "fit_s": (statistics.median(f.wall_s for f in fits), "s"),
        "fit_peak_rss_mb": (max(f.peak_rss_mb for f in fits), "MB"),
        "chamfer_mm": (s["mean_distance"] * 1000.0, "mm"),
        "normal_deg": (s["mean_normal_deg"], "deg"),
    }
    return metrics, results


# ---------------------------------------------------------------------------
# Traced run: per-layer metrics.

def measure_traced(wl, seed, runner):
    plain = Paths(os.path.join(runner.work, "plain"))
    traced = Paths(os.path.join(runner.work, "traced"))
    procs = []

    def run(tag, p, kind, args):
        if p is plain:
            return runner.run(f"plain-{tag}", command(kind, args))
        spans = os.path.join(runner.work, f"{tag}.spans.json")
        child = runner.run(f"traced-{tag}", command(kind, args, spans))
        with open(spans) as fh:
            procs.append(json.load(fh))
        return child

    for p in (plain, traced):
        for tag, kind, args in setup_steps(wl, seed, p):
            run(tag, p, kind, args)
    # the two fits run back to back, so the overhead compares like with like
    fit_plain = run("fit", plain, "cli", fit_args(wl, plain, plain.fit(0)))
    fit_traced = run("fit", traced, "cli", fit_args(wl, traced, traced.fit(0)))
    ev = run("eval", plain, "cli", eval_args(
        plain, plain.fit(0), os.path.join(plain.base, "eval")))
    run("eval", traced, "cli", eval_args(
        traced, traced.fit(0), os.path.join(traced.base, "eval")))

    results = check_outputs(wl, plain, plain.fit(0), summary_of(ev))
    results.append(("traced fit files byte-identical to untraced",
                    same_files(plain.fit(0), traced.fit(0)),
                    ", ".join(FIT_FILES)))
    metrics = layer_metrics(procs, wl.stage1_epochs, wl.stage2_epochs)
    metrics["trace.fit_overhead_pct"] = (
        (fit_traced.wall_s / fit_plain.wall_s - 1.0) * 100.0, "%")
    return metrics, results


PER_EPOCH_MS = {
    "autodiff.backward": "autodiff.backward_ms_per_epoch",
    "footmodel.forward": "footmodel.forward_ms_per_epoch",
    "renderer.project_keypoints": "renderer.project_keypoints_ms_per_epoch",
    "renderer.rasterize": "renderer.rasterize_ms_per_epoch",
    "renderer.render_normals": "renderer.render_normals_ms_per_epoch",
    "renderer.soft_silhouette": "renderer.soft_silhouette_ms_per_epoch",
    "losses.kp_fit": "losses.kp_fit_ms_per_epoch",
    "losses.normal_fit": "losses.normal_fit_ms_per_epoch",
    "losses.silhouette_l2": "losses.silhouette_l2_ms_per_epoch",
    "fitting.adam": "fitting.adam_ms_per_epoch",
}
PER_EPOCH_COUNT = {
    "autodiff.backward": "autodiff.tape_nodes_per_epoch",
    "renderer.project_vertices": "renderer.project_vertices_calls_per_epoch",
    "renderer.rasterize": "renderer.covered_pixels_per_epoch",
    "renderer.vertex_normals": "renderer.vertex_normals_calls_per_epoch",
}
TOTAL_MS = {
    "footmodel.make_model": "footmodel.make_model_ms",
    "footmodel.load_model": "footmodel.load_model_ms",
    "synth.generate_scene": "synth.generate_scene_ms",
    "synth.load_scene": "synth.load_scene_ms",
    "evalign.eval_3d": "evalign.eval_3d_ms",
    "geometry.nearest_neighbors": "geometry.nearest_neighbors_ms",
}
STAGES = ("fitting.stage1", "fitting.stage2")


def layer_metrics(procs, stage1_epochs, stage2_epochs):
    """Per-layer metrics from the span lists of one traced pipeline.

    ``*_per_epoch`` sums self time (or counts) of spans inside the fit
    stages over both stages and divides by all fit epochs.  Other ``*_ms``
    metrics sum self time over every process of the pipeline.
    ``losses.error_table_ms`` sums each process's first error lookup, which
    builds the table.  ``cli.import_ms`` is the mean time from spawning a
    ``footfit`` process to entering ``cli.main``.
    """
    epochs = stage1_epochs + stage2_epochs
    ms, counts = defaultdict(float), defaultdict(float)
    stage_ms, stage_self, table_ms, imports = defaultdict(float), 0.0, 0.0, []
    for proc in procs:
        spans = proc["spans"]
        own = tracer.self_times(spans)
        in_stage = []
        seen_lookup = False
        for i, (name, start, end, parent, count) in enumerate(spans):
            in_stage.append(parent >= 0 and (spans[parent][0] in STAGES
                                             or in_stage[parent]))
            if name in STAGES:
                stage_ms[name] += (end - start) * 1000.0
                stage_self += own[i] * 1000.0
            elif name == "losses.error_lookup" and not seen_lookup:
                seen_lookup = True
                table_ms += (end - start) * 1000.0
            if in_stage[i]:
                if name in PER_EPOCH_MS:
                    ms[PER_EPOCH_MS[name]] += own[i] * 1000.0
                if name in PER_EPOCH_COUNT:
                    counts[PER_EPOCH_COUNT[name]] += count
            elif name in TOTAL_MS:
                ms[TOTAL_MS[name]] += own[i] * 1000.0
        meta = proc["meta"]
        if meta["main_entry"] is not None:
            imports.append((meta["main_entry"] - meta["spawned"]) * 1000.0)

    def per(total, n):
        return total / n if n else 0.0

    out = {m: (per(ms[m], epochs), "ms") for m in PER_EPOCH_MS.values()}
    out.update({m: (per(counts[m], epochs), "count")
                for m in PER_EPOCH_COUNT.values()})
    out.update({m: (ms[m], "ms") for m in TOTAL_MS.values()})
    out["losses.error_table_ms"] = (table_ms, "ms")
    out["fitting.stage1_ms_per_epoch"] = (
        per(stage_ms["fitting.stage1"], stage1_epochs), "ms")
    out["fitting.stage2_ms_per_epoch"] = (
        per(stage_ms["fitting.stage2"], stage2_epochs), "ms")
    out["fitting.stage_self_ms_per_epoch"] = (per(stage_self, epochs), "ms")
    out["cli.import_ms"] = (statistics.mean(imports), "ms")
    return out


# ---------------------------------------------------------------------------
# Output checks.

def same_files(dir_a, dir_b):
    for name in FIT_FILES:
        with open(os.path.join(dir_a, name), "rb") as fa, \
                open(os.path.join(dir_b, name), "rb") as fb:
            if fa.read() != fb.read():
                return False
    return True


def check_outputs(wl, p, fit_dir, summary):
    """(name, ok, detail) per check on one fit and its eval3d summary."""
    # imported here, after the timed steps, so set-up pays for none of it
    import numpy as np
    import checks
    sys.path.insert(0, SRC)
    from footfit import footmodel, synth

    asset, field = footmodel.load_model(p.model)
    with open(os.path.join(p.scene, "scene.json")) as fh:
        meta = json.load(fh)
    gt = footmodel.forward_mesh(asset, field, synth.scene_gt_params(meta))
    start = footmodel.forward_mesh(
        asset, field, footmodel.FootParams.identity(field.d_s, field.d_p))
    gt = (gt.vertices, gt.faces)
    own = checks.chamfer(checks.read_obj(os.path.join(fit_dir, "fitted.obj")), gt)
    own_start = checks.chamfer((start.vertices, start.faces), gt)
    reported = summary["mean_distance"]
    out = [
        ("own brute-force chamfer agrees with eval3d",
         abs(own - reported) <= CHAMFER_AGREEMENT * reported,
         f"{own * 1e3:.4f} mm vs {reported * 1e3:.4f} mm "
         f"(tol {CHAMFER_AGREEMENT:.0%})"),
        ("fit is closer to ground truth than the template start",
         own < own_start, f"{own * 1e3:.4f} mm < {own_start * 1e3:.4f} mm"),
    ]
    if wl.ac05_gate:
        mm, deg = reported * 1e3, summary["mean_normal_deg"]
        out.append(("AC-05 tolerances", mm < AC05_MM and deg < AC05_DEG,
                    f"{mm:.4f} mm (tol {AC05_MM}), {deg:.4f} deg "
                    f"(tol {AC05_DEG})"))
    with open(os.path.join(fit_dir, "trace.csv")) as fh:
        totals = [float(line.rsplit(",", 1)[1]) for line in fh.readlines()[1:]]
    out.append(("final total loss below the first", totals[-1] < totals[0],
                f"{totals[-1]:.6g} < {totals[0]:.6g}"))
    worst = 0.0
    for view, sigma in enumerate(meta["sigma_view_deg"]):
        kappa = checks.read_pfm(os.path.join(p.scene, f"view_{view:03d}",
                                             "kappa.pfm"))
        live = np.unique(kappa[kappa > 0])
        if live.size == 0:
            worst = float("inf")
            continue
        err = np.abs(checks.expected_error_deg(live) - np.sqrt(2 / np.pi) * sigma)
        worst = max(worst, float(err.max()))
    out.append(("synthesized kappa is calibrated (closed-form E[theta])",
                worst < KAPPA_TOL_DEG,
                f"worst {worst:.2e} deg over {len(meta['sigma_view_deg'])} "
                f"views (tol {KAPPA_TOL_DEG})"))
    return out


# ---------------------------------------------------------------------------

def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not os.path.isfile(os.path.join(SRC, "footfit", "cli.py")):
        print(f"footfit sources not found under {SRC}", file=sys.stderr)
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    wl = WORKLOADS[args.workload]
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(work, env)
    try:
        if args.trace:
            metrics, results = measure_traced(wl, args.seed, runner)
        else:
            metrics, results = measure(wl, args.seed, args.seconds, runner)
    except StepFailed as exc:
        print(f"step failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, ok, detail in results:
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    correct = all(ok for _, ok, _ in results)
    print(json.dumps({
        "correct": correct, "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
