import filecmp
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import asdict, replace

import numpy as np
import pytest

from footfit import camera as cam_mod
from footfit import cli, evalign, fitting, images, losses, synth
from footfit import footmodel as fm


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


@pytest.fixture(scope="module")
def model_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("model")
    assert cli.main(["make-model", "--out", str(d), "--seed", "3"]) == 0
    return d


@pytest.fixture(scope="module")
def model_bin(model_dir):
    return str(model_dir / "model.bin")


@pytest.fixture(scope="module")
def scene_dir(tmp_path_factory, model_bin):
    d = tmp_path_factory.mktemp("scene")
    rc = cli.main(["synth", "--model", model_bin, "--out", str(d),
                   "--views", "3", "--width", "160", "--height", "120",
                   "--noise", "3", "--seed", "7"])
    assert rc == 0
    return d


@pytest.fixture(scope="module")
def fit_dir(tmp_path_factory, model_bin, scene_dir):
    d = tmp_path_factory.mktemp("fit")
    rc = cli.main(["fit", "--scene", str(scene_dir), "--model", model_bin,
                   "--out", str(d), "--stage1-epochs", "40",
                   "--stage2-epochs", "10"])
    assert rc == 0
    return d


class TestConfigResolution:
    def test_defaults_plus_flags(self):
        cfg = cli.resolve_config("synth", {"model": "m", "out": "o",
                                           "views": 2})
        assert cfg["views"] == 2
        assert cfg["noise"] == 5.0

    def test_file_then_flag_precedence(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text("views = 4\nnoise = 2.0\n")
        cfg = cli.resolve_config("synth", {"model": "m", "out": "o",
                                           "noise": 9.0}, str(p))
        assert cfg["views"] == 4
        assert cfg["noise"] == 9.0

    def test_json_config(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text('{"views": 5}')
        cfg = cli.resolve_config("synth", {"model": "m", "out": "o"}, str(p))
        assert cfg["views"] == 5

    def test_unknown_key(self, tmp_path):
        p = tmp_path / "c.toml"
        # fit draws no random numbers, so it takes no seed
        for command, key, required in (
                ("synth", "bogus", {"model": "m", "out": "o"}),
                ("fit", "seed", {"scene": "s", "model": "m", "out": "o"})):
            p.write_text(f"{key} = 1\n")
            with pytest.raises(cli.ConfigError, match=key):
                cli.resolve_config(command, required, str(p))

    def test_int_coerced_to_float(self):
        cfg = cli.resolve_config("synth", {"model": "m", "out": "o",
                                           "noise": 3})
        assert isinstance(cfg["noise"], float)

    def test_missing_required(self):
        with pytest.raises(cli.ConfigError, match="--out"):
            cli.resolve_config("synth", {"model": "m"})

    def test_fit_defaults_are_fit_config_defaults(self):
        cfg = cli.resolve_config("fit", {"scene": "s", "model": "m", "out": "o"})
        want = asdict(fitting.FitConfig())
        assert {key: cli.DEFAULTS["fit"][key] for key in want} == want
        assert cli._fit_config(cfg) == fitting.FitConfig()

    def test_unparseable_config(self, tmp_path):
        p = tmp_path / "c.toml"
        p.write_text("views = [unclosed\n")
        with pytest.raises(cli.ConfigError):
            cli.resolve_config("synth", {}, str(p))


class TestMakeModel:
    def test_artifacts_and_summary(self, model_dir, capsys):
        rc, out = run(capsys, "make-model", "--out", str(model_dir),
                      "--seed", "3")
        assert rc == 0
        assert (model_dir / "model.bin").exists()
        lines = out.strip().split("\n")
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["vertices"] == 2706
        assert summary["seed"] == 3

    def test_config_echo(self, model_dir):
        echo = json.loads((model_dir / "config_echo.json").read_text())
        assert echo["command"] == "make-model"
        assert echo["seed"] == 3


class TestSynth:
    def test_layout(self, scene_dir):
        assert (scene_dir / "scene.json").exists()
        assert (scene_dir / "cameras.json").exists()
        for v in range(3):
            vd = scene_dir / f"view_{v:03d}"
            for f in ("image.ppm", "mu.pfm", "kappa.pfm", "mask.pgm",
                      "keypoints.json", "gt_normals.pfm"):
                assert (vd / f).exists()

    def test_echo_records_seed(self, scene_dir):
        echo = json.loads((scene_dir / "config_echo.json").read_text())
        assert echo["seed"] == 7
        assert echo["views"] == 3

    def test_zero_noise_mu_equals_gt_bytes(self, tmp_path, model_bin):
        out = tmp_path / "s0"
        rc = cli.main(["synth", "--model", model_bin, "--out", str(out),
                       "--views", "1", "--noise", "0",
                       "--width", "160", "--height", "120"])
        assert rc == 0
        assert filecmp.cmp(out / "view_000" / "mu.pfm",
                           out / "view_000" / "gt_normals.pfm",
                           shallow=False)

    def test_rerun_byte_identical(self, tmp_path, model_bin, scene_dir):
        out = tmp_path / "again"
        rc = cli.main(["synth", "--model", model_bin, "--out", str(out),
                       "--views", "3", "--width", "160", "--height", "120",
                       "--noise", "3", "--seed", "7"])
        assert rc == 0
        for root, _, files in os.walk(scene_dir):
            rel = os.path.relpath(root, scene_dir)
            for f in files:
                if f == "config_echo.json":
                    continue  # records the differing --out path
                assert filecmp.cmp(os.path.join(root, f),
                                   os.path.join(out, rel, f),
                                   shallow=False), f"{rel}/{f}"

    def test_zero_views_exits_2(self, tmp_path, model_bin):
        rc = cli.main(["synth", "--model", model_bin,
                       "--out", str(tmp_path / "x"), "--views", "0"])
        assert rc == 2

    def test_missing_model_exits_3(self, tmp_path):
        rc = cli.main(["synth", "--model", str(tmp_path / "nope.bin"),
                       "--out", str(tmp_path / "x")])
        assert rc == 3


class TestFit:
    def test_heap_top_kept_under_glibc(self):
        try:
            glibc = bool(os.confstr("CS_GNU_LIBC_VERSION"))
        except (ValueError, OSError):
            glibc = False
        assert cli._keep_heap_top() == glibc

    def test_artifacts(self, fit_dir):
        assert (fit_dir / "fitted.obj").exists()
        params = json.loads((fit_dir / "params.json").read_text())
        assert set(params) == {"r", "t", "s", "z_s", "z_p"}
        assert len(params["r"]) == 3

    def test_trace_layout(self, fit_dir):
        lines = (fit_dir / "trace.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,L_kp,L_sil,L_norm,total"
        assert len(lines) == 1 + 40 + 10
        epochs = [int(l.split(",")[0]) for l in lines[1:]]
        assert epochs == list(range(50))

    def test_summary_single_json_line(self, tmp_path, model_bin, scene_dir,
                                      capsys):
        rc, out = run(capsys, "fit", "--scene", str(scene_dir),
                      "--model", model_bin, "--out", str(tmp_path / "f"),
                      "--stage1-epochs", "5", "--stage2-epochs", "2")
        assert rc == 0
        lines = out.strip().split("\n")
        assert len(lines) == 1
        summary = json.loads(lines[0])
        assert summary["epochs"] == 7
        assert np.isfinite(summary["final_total"])
        assert summary["wall_s"] > 0.0

    def test_corrupt_model_header_exits_3(self, tmp_path, model_bin,
                                          scene_dir, capsys):
        raw = bytearray(open(model_bin, "rb").read())
        raw[8:12] = b"\xff\xff\xff\xff"        # vertex count
        bad = tmp_path / "bad.bin"
        bad.write_bytes(bytes(raw))
        rc = cli.main(["fit", "--scene", str(scene_dir), "--model", str(bad),
                       "--out", str(tmp_path / "f")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("io error")

    def test_rerun_byte_identical(self, tmp_path, model_bin, scene_dir):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = cli.main(["fit", "--scene", str(scene_dir),
                           "--model", model_bin, "--out", str(out),
                           "--stage1-epochs", "10", "--stage2-epochs", "3"])
            assert rc == 0
            outs.append(out)
        for f in ("fitted.obj", "params.json", "trace.csv"):
            assert filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False)

    def test_byte_identical_across_blas_threads(self, tmp_path, model_bin,
                                                scene_dir):
        # each fit in its own process, since BLAS reads its thread count
        # once at load; two threads at most to fit a two-core host
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads_{threads}"
            env = dict(os.environ, PYTHONPATH=path,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "footfit.cli", "fit",
                 "--scene", str(scene_dir), "--model", model_bin,
                 "--out", str(out), "--stage1-epochs", "40",
                 "--stage2-epochs", "10"],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == 0, proc.stderr
            outs.append(out)
        for f in ("fitted.obj", "params.json", "trace.csv"):
            assert filecmp.cmp(outs[0] / f, outs[1] / f, shallow=False)

    def test_fit_loads_neither_kd_tree_nor_ndimage(self, tmp_path, model_bin,
                                                   scene_dir):
        # a fit loads no scipy module at all: only eval3d uses scipy.spatial,
        # and each scipy subpackage costs start-up time in every process
        # that imports it
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = ("import sys\nfrom footfit import cli\nrc = cli.main(sys.argv[1:])\n"
                "print(rc, sorted(m for m in sys.modules "
                "if m == 'scipy' or m.startswith('scipy.')))")
        proc = subprocess.run(
            [sys.executable, "-c", code, "fit", "--scene", str(scene_dir),
             "--model", model_bin, "--out", str(tmp_path / "f"),
             "--stage1-epochs", "5", "--stage2-epochs", "2"],
            env=dict(os.environ, PYTHONPATH=path), capture_output=True,
            text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip().splitlines()[-1] == "0 []"

    # (camera position, look-at target) for view 0 of the test scene
    @pytest.mark.parametrize("position, target", [
        # about 400 of the 2,706 vertices behind the camera, the rest in
        # front: its near plane cuts through the foot
        ((0.09, 0.0, 0.09), (-0.1, 0.0, 0.15)),
        # looking up from above the foot: an empty render and no keypoints
        ((0.0, 0.0, 0.4), (0.0, 0.0, 1.0)),
    ], ids=["near_plane", "empty_view"])
    def test_edge_case_fit_finishes_or_exits_4(self, tmp_path, model_bin,
                                               scene_dir, capsys, position,
                                               target):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        meta, cams, _ = synth.load_scene(str(scene))
        asset, field = fm.load_model(model_bin)
        gt = fm.forward_mesh(asset, field, synth.scene_gt_params(meta))
        R, t = cam_mod.look_at(position, target)
        cams[0] = replace(cams[0], R=R, t=t)
        depth = cam_mod.project(cams[:1], gt.vertices)[1][0, :, 2]
        assert (depth <= 0).any()
        view = synth.render_view(gt, asset.keypoint_ids, cams[0], 3.0, 0.01,
                                 np.random.default_rng(0))
        losses.save_observation(str(scene / "view_000"), view.obs)
        cam_mod.save_cameras(str(scene / "cameras.json"), cams)
        out = tmp_path / "fit"
        rc = cli.main(["fit", "--scene", str(scene), "--model", model_bin,
                       "--out", str(out), "--stage1-epochs", "40",
                       "--stage2-epochs", "10"])
        if rc == 4:
            assert capsys.readouterr().err.strip().splitlines()[-1].startswith(
                "numerical error: ")
            return
        assert rc == 0
        params = json.loads((out / "params.json").read_text())
        assert all(np.all(np.isfinite(v)) for v in params.values())
        assert np.all(np.isfinite(np.loadtxt(out / "trace.csv", delimiter=",",
                                             skiprows=1)))

    def test_view_subset(self, tmp_path, model_bin, scene_dir, capsys):
        rc, out = run(capsys, "fit", "--scene", str(scene_dir),
                      "--model", model_bin, "--out", str(tmp_path / "f1"),
                      "--views", "2", "--stage1-epochs", "3",
                      "--stage2-epochs", "1")
        assert rc == 0
        assert json.loads(out)["views"] == 2

    def test_too_many_views_exits_2(self, tmp_path, model_bin, scene_dir):
        rc = cli.main(["fit", "--scene", str(scene_dir), "--model", model_bin,
                       "--out", str(tmp_path / "f2"), "--views", "9"])
        assert rc == 2

    def test_zero_sharpness_exits_2_before_stage1(self, tmp_path, model_bin, scene_dir,
                                                  monkeypatch):
        stage1 = []
        monkeypatch.setattr(fitting, "fit_stage1", lambda *args: stage1.append(args))
        out = tmp_path / "f6"
        rc = cli.main(["fit", "--scene", str(scene_dir), "--model", model_bin,
                       "--out", str(out), "--sharpness", "0", "--stage1-epochs", "400"])
        assert rc == 2
        assert stage1 == []
        assert not (out / "trace.csv").exists()

    def test_negative_downsample_exits_2(self, tmp_path, model_bin, scene_dir):
        rc = cli.main(["fit", "--scene", str(scene_dir), "--model", model_bin,
                       "--out", str(tmp_path / "f7"), "--downsample", "-2",
                       "--stage1-epochs", "2", "--stage2-epochs", "1"])
        assert rc == 2

    def test_no_visible_keypoints_exits_4(self, tmp_path, model_bin):
        scene = tmp_path / "blind"
        rc = cli.main(["synth", "--model", model_bin, "--out", str(scene),
                       "--views", "1", "--width", "160", "--height", "120",
                       "--noise", "1"])
        assert rc == 0
        kp_path = scene / "view_000" / "keypoints.json"
        kp = json.loads(kp_path.read_text())
        kp["v"] = [0.0] * len(kp["v"])
        kp_path.write_text(json.dumps(kp))
        rc = cli.main(["fit", "--scene", str(scene), "--model", model_bin,
                       "--out", str(tmp_path / "f3"),
                       "--stage1-epochs", "2", "--stage2-epochs", "1"])
        assert rc == 4

    def test_deleted_observation_exits_3(self, tmp_path, model_bin):
        scene = tmp_path / "torn"
        rc = cli.main(["synth", "--model", model_bin, "--out", str(scene),
                       "--views", "1", "--width", "160", "--height", "120",
                       "--noise", "1"])
        assert rc == 0
        os.remove(scene / "view_000" / "keypoints.json")
        rc = cli.main(["fit", "--scene", str(scene), "--model", model_bin,
                       "--out", str(tmp_path / "f4")])
        assert rc == 3

    @pytest.mark.parametrize("name", ["mu.pfm", "mask.pgm", "keypoints.json"])
    def test_unreadable_scene_file_exits_3(self, tmp_path, model_bin, scene_dir,
                                           capsys, name):
        scene = tmp_path / "scene"
        shutil.copytree(scene_dir, scene)
        path = scene / "view_001" / name
        raw = path.read_bytes()
        path.write_bytes(raw[:len(raw) // 2])     # truncated mid-payload
        rc = cli.main(["fit", "--scene", str(scene), "--model", model_bin,
                       "--out", str(tmp_path / "f")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("io error")

    def test_auto_downsample_halves_large_scene(self, tmp_path, model_bin,
                                                capsys):
        scene = tmp_path / "big"
        rc = cli.main(["synth", "--model", model_bin, "--out", str(scene),
                       "--views", "1", "--width", "320", "--height", "240",
                       "--noise", "2"])
        assert rc == 0
        capsys.readouterr()
        rc, out = run(capsys, "fit", "--scene", str(scene),
                      "--model", model_bin, "--out", str(tmp_path / "f5"),
                      "--stage1-epochs", "2", "--stage2-epochs", "1")
        assert rc == 0
        assert json.loads(out)["downsample"] == 2


class TestEvalNormals:
    def test_observed_error_tracks_noise(self, tmp_path, model_bin,
                                         scene_dir, capsys):
        rc, out = run(capsys, "eval-normals", "--scene", str(scene_dir),
                      "--model", model_bin, "--out", str(tmp_path / "en"),
                      "--csv")
        assert rc == 0
        summary = json.loads(out)
        # mu was drawn around gt at sigma 3 deg; folded-normal mean applies
        expected = np.sqrt(2.0 / np.pi) * 3.0
        assert abs(summary["mean_deg"] - expected) / expected < 0.25
        for f in ("report.json", "report.txt", "report.csv"):
            assert (tmp_path / "en" / f).exists()

    def test_fitted_mesh_report(self, tmp_path, model_bin, scene_dir,
                                fit_dir, capsys):
        rc, out = run(capsys, "eval-normals", "--scene", str(scene_dir),
                      "--model", model_bin,
                      "--mesh", str(fit_dir / "fitted.obj"),
                      "--out", str(tmp_path / "enm"))
        assert rc == 0
        rep = json.loads((tmp_path / "enm" / "report.json").read_text())
        assert 0.0 < rep["mean_deg"] < 90.0
        assert rep["pixels"] > 100


class TestEval3d:
    def test_self_comparison_is_zero(self, tmp_path, fit_dir, capsys):
        obj = str(fit_dir / "fitted.obj")
        rc, out = run(capsys, "eval3d", "--fitted", obj, "--gt", obj,
                      "--out", str(tmp_path / "e3"), "--n", "500")
        assert rc == 0
        assert json.loads(out)["mean_distance"] == 0.0

    def test_against_scene_gt(self, tmp_path, model_bin, scene_dir, fit_dir,
                              capsys):
        rc, out = run(capsys, "eval3d", "--fitted",
                      str(fit_dir / "fitted.obj"), "--scene", str(scene_dir),
                      "--model", model_bin, "--out", str(tmp_path / "e3g"),
                      "--n", "1000")
        assert rc == 0
        summary = json.loads(out)
        assert 0.0 < summary["mean_distance"] < 0.05
        rep = json.loads((tmp_path / "e3g" / "report.json").read_text())
        assert rep["n_points"] == 1000

    def test_needs_a_ground_truth(self, tmp_path, fit_dir):
        rc = cli.main(["eval3d", "--fitted", str(fit_dir / "fitted.obj"),
                       "--out", str(tmp_path / "e3x")])
        assert rc == 2


def make_align_pair(tmp_path, theta=0.3, tx=0.02, ty=-0.01, s=1.05):
    rng = np.random.default_rng(12)
    blob = rng.normal(size=(300, 3)) * np.array([0.08, 0.03, 0.02])
    blob[:, 2] = np.abs(blob[:, 2]) + 0.01
    gx, gy = np.meshgrid(np.linspace(-0.25, 0.25, 18),
                         np.linspace(-0.25, 0.25, 18))
    floor = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)], axis=1)
    floor += rng.normal(size=floor.shape) * 1e-4
    params = evalign.AlignParams(theta, tx, ty, s)
    moved = params.apply(blob, blob.mean(axis=0))
    src = tmp_path / "src.npy"
    tgt = tmp_path / "tgt.npy"
    np.save(src, np.vstack([blob, floor]))
    np.save(tgt, np.vstack([moved, floor]))
    return str(src), str(tgt), params


class TestAlign:
    def test_recovers_transform(self, tmp_path, capsys):
        src, tgt, gt = make_align_pair(tmp_path)
        rc, out = run(capsys, "align", "--source", src, "--target", tgt,
                      "--out", str(tmp_path / "al"), "--csv")
        assert rc == 0
        rep = json.loads((tmp_path / "al" / "report.json").read_text())
        assert abs(rep["theta_z_rad"] - gt.theta_z) < np.radians(1.0)
        assert abs(rep["scale"] - gt.s) < 0.01
        assert rep["source_floor_points"] > 200
        assert (tmp_path / "al" / "report.csv").exists()

    def test_no_floor_flag(self, tmp_path, capsys):
        rng = np.random.default_rng(4)
        blob = rng.normal(size=(200, 3)) * 0.05
        src = tmp_path / "a.npy"
        tgt = tmp_path / "b.npy"
        np.save(src, blob)
        np.save(tgt, blob + np.array([0.01, 0.0, 0.0]))
        rc, out = run(capsys, "align", "--source", str(src),
                      "--target", str(tgt), "--out", str(tmp_path / "al2"),
                      "--no-floor", "--steps", "200")
        assert rc == 0
        rep = json.loads((tmp_path / "al2" / "report.json").read_text())
        assert "source_floor_points" not in rep
        assert abs(rep["tx_m"] - 0.01) < 0.002

    def test_bad_cloud_shape_exits_2(self, tmp_path):
        p = tmp_path / "flat.npy"
        np.save(p, np.zeros((10, 2)))
        rc = cli.main(["align", "--source", str(p), "--target", str(p),
                       "--out", str(tmp_path / "al3")])
        assert rc == 2


class TestGradcheck:
    def test_passes_and_reports(self, tmp_path, capsys):
        rc, out = run(capsys, "gradcheck", "--out", str(tmp_path / "gc"),
                      "--configs", "3")
        assert rc == 0
        summary = json.loads(out)
        assert summary["checks"] == 24
        assert summary["max_rel"] < 1e-4
        rows = json.loads(
            (tmp_path / "gc" / "gradcheck.json").read_text())["rows"]
        assert len(rows) == 24
        assert {r["component"] for r in rows} == {
            "angmf_nll", "kp_fit_loss", "normal_fit_loss",
            "silhouette_l2", "render_normals", "soft_silhouette",
            "project_keypoints", "model_forward"}

    def test_tight_tolerance_exits_4(self, tmp_path):
        rc = cli.main(["gradcheck", "--out", str(tmp_path / "gc2"),
                       "--configs", "1", "--tol", "1e-14"])
        assert rc == 4


class TestBenchmarkTracer:
    """``perfbench/tracer.py`` wraps footfit functions by name; a renamed
    function would break ``perfbench/run.py --trace 1``."""

    def test_stage2_spans(self, tmp_path, model_bin, scene_dir):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        tracer = os.path.join(root, "perfbench", "tracer.py")
        spans_path = str(tmp_path / "spans.json")
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(root, "src")] + env.get("PYTHONPATH", "").split(os.pathsep))
        proc = subprocess.run(
            [sys.executable, tracer, spans_path, repr(time.time()), "cli", "fit",
             "--scene", str(scene_dir), "--model", model_bin,
             "--out", str(tmp_path / "fit"), "--stage1-epochs", "2",
             "--stage2-epochs", "1"],
            env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        with open(spans_path) as fh:
            spans = json.load(fh)["spans"]

        def in_stage2(i):
            while i >= 0:
                if spans[i][0] == "fitting.stage2":
                    return True
                i = spans[i][3]
            return False

        names = {name for name, _, _, parent, _ in spans if in_stage2(parent)}
        assert {"renderer.render_normals", "renderer.soft_silhouette",
                "renderer.rasterize", "losses.normal_fit",
                "losses.silhouette_l2"} <= names
