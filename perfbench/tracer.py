"""Tracing from outside the program: spans around footfit's public functions.

A traced process runs one pipeline step with the layer functions wrapped:

    python3 perfbench/tracer.py SPANS_JSON SPAWN_TIME cli ARGS...
    python3 perfbench/tracer.py SPANS_JSON SPAWN_TIME scene ARGS...

``cli`` runs ``footfit.cli.main(ARGS)``; ``scene`` runs the benchmark's
scene-synthesis step.  Wrapping replaces module attributes, and footfit's
modules look their callees up as attributes at call time, so calls made
inside the package are traced too.  No file under ``src/`` changes.

Spans stay in memory and are written to SPANS_JSON when the step ends.
Each span is ``[name, start, end, parent, count]``: ``parent`` is the
index of the enclosing span (-1 at top level) and ``count`` is the work
the call did (tape nodes, covered pixels) or 1.  A count-only event has
``start`` and ``end`` set to None: its time stays in its parent's self time.
"""

import functools
import json
import sys
import time


class Recorder:
    """Span and event store for one process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._stack = []

    def _parent(self):
        return self._stack[-1] if self._stack else -1

    def span(self, name, fn, count=None):
        """Wrap fn so each call records a timed span; ``count(args, out)``
        gives the span's work count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, self.clock(), None, self._parent(), 1])
            self._stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[idx][2] = self.clock()
            if count is not None:
                self.spans[idx][4] = count(args, out)
            return out
        return traced

    def event(self, name, fn):
        """Wrap fn so each call records an untimed count-only event."""
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.spans.append([name, None, None, self._parent(), 1])
            return fn(*args, **kwargs)
        return counted


def install(rec):
    """Wrap the public functions of each footfit layer the fit pipeline
    calls.  Returns ``cli.main``."""
    from footfit import autodiff, cli, evalign, fitting, footmodel, geometry
    from footfit import losses, renderer, synth

    def patch(module, attr, name, count=None):
        setattr(module, attr, rec.span(name, getattr(module, attr), count))

    autodiff.Tape.backward = rec.span(
        "autodiff.backward", autodiff.Tape.backward,
        count=lambda args, out: len(args[0]))
    patch(footmodel, "forward", "footmodel.forward")
    patch(footmodel, "make_default_model", "footmodel.make_model")
    patch(footmodel, "load_model", "footmodel.load_model")
    patch(renderer, "project_keypoints_var", "renderer.project_keypoints")
    renderer.project_vertices_var = rec.event(
        "renderer.project_vertices", renderer.project_vertices_var)
    patch(renderer, "rasterize", "renderer.rasterize",
          count=lambda args, out: int(out.mask.sum()))
    patch(renderer, "render_normals_var", "renderer.render_normals")
    renderer.vertex_normals_var = rec.event(
        "renderer.vertex_normals", renderer.vertex_normals_var)
    patch(renderer, "render_silhouette_soft_var", "renderer.soft_silhouette")
    patch(losses, "kp_fit_loss", "losses.kp_fit")
    patch(losses, "normal_fit_loss", "losses.normal_fit")
    patch(losses, "silhouette_l2", "losses.silhouette_l2")
    patch(losses, "expected_angular_error", "losses.error_lookup")
    patch(losses, "kappa_for_expected_error", "losses.error_lookup")
    patch(fitting, "adam_step", "fitting.adam")
    patch(fitting, "fit_stage1", "fitting.stage1")
    patch(fitting, "fit_stage2", "fitting.stage2")
    patch(synth, "generate_scene", "synth.generate_scene")
    patch(synth, "load_scene", "synth.load_scene")
    patch(evalign, "eval_3d", "evalign.eval_3d")
    patch(geometry, "nearest_neighbors", "geometry.nearest_neighbors")
    return cli.main


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    direct child spans cover.  Untimed events get None."""
    children = [[] for _ in spans]
    for i, (_, start, _, parent, _) in enumerate(spans):
        if parent >= 0 and start is not None:
            children[parent].append(i)
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        if start is None:
            out.append(None)
            continue
        covered, reach = 0.0, start
        for c in sorted(children[i], key=lambda c: spans[c][1]):
            lo, hi = max(spans[c][1], reach), min(spans[c][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def main(argv):
    spans_path, spawned, kind, args = argv[0], float(argv[1]), argv[2], argv[3:]
    rec = Recorder()
    cli_main = install(rec)
    meta = {"spawned": spawned, "main_entry": None}
    try:
        if kind == "cli":
            meta["main_entry"] = time.time()
            code = cli_main(args)
        else:
            import scene    # found beside this script
            code = scene.main(args)
    finally:
        with open(spans_path, "w") as fh:
            json.dump({"meta": meta, "spans": rec.spans}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
