"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/test_perfbench.py
"""

import os
import sys
import unittest

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def uv_sphere(radius=0.05, rings=30, segments=60):
    """Closed triangle mesh of a sphere: (vertices, faces)."""
    theta = np.linspace(0.0, np.pi, rings + 1)[1:-1]
    phi = np.linspace(0.0, 2 * np.pi, segments, endpoint=False)
    t, p = np.meshgrid(theta, phi, indexing="ij")
    ring = np.stack([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)],
                    axis=-1).reshape(-1, 3)
    verts = radius * np.vstack([[0, 0, 1], ring, [0, 0, -1]])
    faces = []
    for j in range(segments):
        k = (j + 1) % segments
        faces.append([0, 1 + j, 1 + k])
        faces.append([len(verts) - 1, 1 + (rings - 2) * segments + k,
                      1 + (rings - 2) * segments + j])
        for i in range(rings - 2):
            a, b = 1 + i * segments + j, 1 + i * segments + k
            c, d = a + segments, b + segments
            faces += [[a, c, b], [b, c, d]]
    return verts, np.array(faces)


class TestChamfer(unittest.TestCase):
    def test_identical_mesh_reads_zero(self):
        sphere = uv_sphere()
        self.assertLess(checks.chamfer(sphere, sphere), 1e-8)

    def test_shift_reads_the_shift(self):
        verts, faces = uv_sphere()
        d = 0.0005
        shifted = (verts + [d, 0.0, 0.0], faces)
        got = checks.chamfer(shifted, (verts, faces))
        self.assertLessEqual(got, d * (1 + 1e-9))
        self.assertGreater(got, 0.95 * d)

    def test_nearest_distances_match_dense_reference(self):
        rng = np.random.default_rng(3)
        q, t = rng.normal(size=(300, 3)), rng.normal(size=(200, 3))
        dense = np.linalg.norm(q[:, None, :] - t[None, :, :], axis=2).min(axis=1)
        np.testing.assert_allclose(checks.nearest_distances(q, t), dense,
                                   rtol=1e-9, atol=1e-12)


class TestExpectedError(unittest.TestCase):
    def test_uniform_at_zero_concentration(self):
        self.assertEqual(float(checks.expected_error_deg(0.0)), 90.0)

    def test_matches_quadrature(self):
        from footfit import losses
        for k in (0.0, 0.3, 1.0, 4.0, 25.0, 100.0):
            self.assertAlmostEqual(float(checks.expected_error_deg(k)),
                                   losses.expected_angular_error_quad(k),
                                   delta=1e-9)


def nested_spans():
    #   root 0-10 ── a 1-4 ── a1 2-3
    #             └─ b 5-9 ── (count-only event)
    return [["root", 0.0, 10.0, -1, 1],
            ["a", 1.0, 4.0, 0, 1],
            ["a1", 2.0, 3.0, 1, 1],
            ["b", 5.0, 9.0, 0, 1],
            ["ev", None, None, 3, 1]]


class TestSelfTime(unittest.TestCase):
    def test_nested(self):
        self.assertEqual(tracer.self_times(nested_spans()),
                         [3.0, 2.0, 1.0, 4.0, None])

    def test_recorder_builds_the_tree(self):
        ticks = iter(range(100))
        rec = tracer.Recorder(clock=lambda: float(next(ticks)))
        inner = rec.span("inner", lambda x: x + 1, count=lambda args, out: out)
        outer = rec.span("outer", lambda: inner(1) + inner(2))
        self.assertEqual(outer(), 5)
        self.assertEqual(rec.spans, [["outer", 0.0, 5.0, -1, 1],
                                     ["inner", 1.0, 2.0, 0, 2],
                                     ["inner", 3.0, 4.0, 0, 3]])

    def test_layer_metrics_per_epoch(self):
        spans = [["fitting.stage1", 0.0, 10.0, -1, 1],
                 ["autodiff.backward", 1.0, 3.0, 0, 100],
                 ["footmodel.forward", 3.0, 4.0, 0, 1],
                 ["renderer.project_vertices", None, None, 0, 1],
                 ["footmodel.forward", 11.0, 12.0, -1, 1],
                 ["footmodel.load_model", 12.0, 12.5, -1, 1]]
        proc = {"meta": {"spawned": 100.0, "main_entry": 100.5},
                "spans": spans}
        m = run.layer_metrics([proc], 2, 0)
        self.assertEqual(m["autodiff.backward_ms_per_epoch"], (1000.0, "ms"))
        self.assertEqual(m["autodiff.tape_nodes_per_epoch"], (50.0, "count"))
        self.assertEqual(m["footmodel.forward_ms_per_epoch"], (500.0, "ms"))
        self.assertEqual(m["renderer.project_vertices_calls_per_epoch"],
                         (0.5, "count"))
        self.assertEqual(m["footmodel.load_model_ms"], (500.0, "ms"))
        self.assertEqual(m["fitting.stage1_ms_per_epoch"], (5000.0, "ms"))
        self.assertEqual(m["fitting.stage2_ms_per_epoch"], (0.0, "ms"))
        self.assertEqual(m["fitting.stage_self_ms_per_epoch"], (3500.0, "ms"))
        self.assertEqual(m["cli.import_ms"], (500.0, "ms"))


if __name__ == "__main__":
    unittest.main()
