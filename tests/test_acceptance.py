"""End-to-end acceptance gates.

One test per shipping criterion; each prints a [PASS]/[FAIL] line with the
measured numbers (run with -s to see them on success).  These are slower
than the unit suites: the full set takes roughly ten minutes.
"""

import dataclasses
import filecmp
import os
import time

import numpy as np
import pytest

from footfit import autodiff as ad
from footfit import camera as cam_mod
from footfit import cli, evalign, fitting, geometry, losses, renderer, synth
from footfit import footmodel as fm


def _verdict(tag, ok, detail):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {tag}: {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def model():
    return fm.make_default_model(seed=0)


def _make_scene(model, out_dir, gt, n_views, sigma, seed):
    arc = cam_mod.ArcSamplerConfig(width=160, height=120)
    spec = synth.SceneSpec(gt, arc=arc, n_views=n_views,
                           sigma_view_deg=sigma, seed=seed)
    synth.generate_scene(spec, model, str(out_dir))
    return synth.load_scene(str(out_dir))


def _fit(model, obs, cams, cfg):
    data = fitting.FitInput.build(cams, obs, cfg)
    p1, _ = fitting.fit_stage1(model, data, cfg)
    p2, _ = fitting.fit_stage2(model, data, p1, cfg)
    return p2


def test_ac01_gradient_suite():
    t0 = time.perf_counter()
    rows = cli.gradient_suite(configs=20, h=1e-5, seed=0)
    dt = time.perf_counter() - t0
    worst = max(rows, key=lambda r: r["max_rel"])
    ok = all(r["max_rel"] < 1e-4 for r in rows) and dt < 120.0
    _verdict("AC-01 gradient suite", ok,
             f"{len(rows)} checks, worst {worst['component']} "
             f"{worst['max_rel']:.3g} (tol 1e-4), {dt:.1f}s (cap 120s)")


def test_ac02_expected_error_oracle():
    exact = losses.expected_angular_error(0.0)
    rng = np.random.default_rng(2024)
    ks = rng.uniform(0.0, 100.0, size=1000)
    lookup = losses.expected_angular_error(ks)
    quad = np.array([losses.expected_angular_error_quad(k) for k in ks])
    gap = np.abs(lookup - quad).max()
    mono = bool(np.all(np.diff(losses.expected_angular_error(np.sort(ks)))
                       < 0))
    ok = exact == 90.0 and gap < 0.1 and mono
    _verdict("AC-02 expected-error oracle", ok,
             f"E(0)={exact!r} (exact 90), lookup vs quadrature "
             f"{gap:.2e} deg over 1000 draws (tol 0.1), "
             f"strictly decreasing={mono}")


def test_ac03_closed_form_losses():
    rng = np.random.default_rng(0)
    v = rng.normal(size=(64, 3))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    n = rng.normal(size=(64, 3))
    n /= np.linalg.norm(n, axis=1, keepdims=True)
    tape = ad.Tape()
    e1 = abs(losses.angmf_nll(tape.const(v), tape.const(np.zeros(64)), n).value
             - np.log(2.0))

    mu = np.array([[0.0, 0.0, -1.0]])
    tape = ad.Tape()
    e2 = abs(losses.angmf_nll(tape.const(mu), tape.const(np.ones(1)), mu.copy()).value
             - np.log((1 + np.exp(-np.pi)) / 2))

    K = 12
    k = np.full((K, 2), 0.5)
    pred = k.copy()
    pred[0, 0] += 0.1
    obs = losses.KeypointObservation(k, np.full((K, 2), 0.1),
                                     np.eye(1, K)[0])
    e3 = abs(losses.kp_fit_loss(ad.Tape().const(pred[None]),
                                losses.KeypointObservation.stack([obs])).value
             - 1.0 / 12.0)

    ok = e1 < 1e-12 and e2 < 1e-12 and e3 < 1e-12
    _verdict("AC-03 closed-form loss values", ok,
             f"ln2 err {e1:.1e}, aligned-unit-concentration err {e2:.1e}, "
             f"single-keypoint err {e3:.1e} (tol 1e-12)")


def test_ac04_registration_round_trip(model, tmp_path):
    t0 = time.perf_counter()
    asset, field = model
    rng = np.random.default_rng(41)
    gt = fm.FootParams(r=rng.uniform(-0.1, 0.1, size=3),
                       t=rng.uniform(-0.015, 0.015, size=3),
                       s=rng.uniform(0.97, 1.03, size=3),
                       z_s=np.zeros(field.d_s), z_p=np.zeros(field.d_p))
    _, cams, obs = _make_scene(model, tmp_path / "scene", gt,
                               n_views=8, sigma=0.0, seed=5)
    cfg = fitting.FitConfig(stage1_epochs=1000)
    params, _ = fitting.fit_stage1(model, fitting.FitInput.build(cams, obs, cfg), cfg)
    Rg = geometry.euler_rotation(gt.r)
    Rf = geometry.euler_rotation(params.r)
    rot = np.degrees(np.arccos(np.clip((np.trace(Rf @ Rg.T) - 1) / 2,
                                       -1.0, 1.0)))
    t_mm = np.abs(params.t - gt.t).max() * 1000
    s_pct = np.abs(params.s / gt.s - 1).max() * 100
    dt = time.perf_counter() - t0
    ok = rot < 0.5 and t_mm < 1.0 and s_pct < 0.5 and dt < 180.0
    _verdict("AC-04 registration round trip", ok,
             f"rot {rot:.4f} deg (tol 0.5), t {t_mm:.4f} mm (tol 1), "
             f"s {s_pct:.4f} % (tol 0.5), {dt:.0f}s (cap 180s)")


def test_ac05_full_round_trip(model, tmp_path):
    t0 = time.perf_counter()
    asset, field = model
    rng = np.random.default_rng(23)
    gt = synth.random_scene_params(rng, field.d_s, field.d_p)
    meta, cams, obs = _make_scene(model, tmp_path / "scene", gt,
                                  n_views=8, sigma=5.0, seed=9)
    p2 = _fit(model, obs, cams, fitting.FitConfig())
    fitted = fm.forward_mesh(asset, field, p2)
    gt_mesh = fm.forward_mesh(asset, field, synth.scene_gt_params(meta))
    rep = evalign.eval_3d(fitted, gt_mesh, n=10000, seed=0, gt_seed=1)
    dt = time.perf_counter() - t0
    ch_mm = rep["mean_distance"] * 1000
    nd = rep["mean_normal_deg"]
    ok = ch_mm < 2.0 and nd < 5.0 and dt < 600.0
    _verdict("AC-05 full round trip", ok,
             f"chamfer mean {ch_mm:.3f} mm (tol 2), NN normal mean "
             f"{nd:.3f} deg (tol 5), {dt:.0f}s (cap 600s)")


def test_ac06_few_view_trend(model, tmp_path):
    asset, field = model
    rng = np.random.default_rng(37)
    gt = synth.random_scene_params(rng, field.d_s, field.d_p)
    meta, cams, obs = _make_scene(model, tmp_path / "scene", gt,
                                  n_views=20, sigma=5.0, seed=13)
    gt_mesh = fm.forward_mesh(asset, field, synth.scene_gt_params(meta))
    cfg = fitting.FitConfig(stage1_epochs=150, stage2_epochs=300)
    chamfer = {}
    for m in (20, 3, 2):
        idx = fitting.select_views(cams, m)
        p2 = _fit(model, [obs[i] for i in idx], [cams[i] for i in idx], cfg)
        rep = evalign.eval_3d(fm.forward_mesh(asset, field, p2), gt_mesh,
                              n=8000, seed=0, gt_seed=1)
        chamfer[m] = rep["mean_distance"]
    ratio = chamfer[3] / chamfer[20]
    ok = ratio <= 1.5 and np.isfinite(chamfer[2])
    _verdict("AC-06 few-view trend", ok,
             f"chamfer(3)/chamfer(20) = {ratio:.3f} (tol 1.5); "
             f"chamfer(2) = {chamfer[2]*1000:.3f} mm (finite)")


def test_ac07_ablation_directions(model, tmp_path):
    asset, field = model
    rng = np.random.default_rng(61)
    gt = synth.random_scene_params(rng, field.d_s, field.d_p)
    meta, cams, obs = _make_scene(model, tmp_path / "scene", gt,
                                  n_views=8, sigma=5.0, seed=17)
    gt_mesh = fm.forward_mesh(asset, field, synth.scene_gt_params(meta))
    cfg = fitting.FitConfig(stage1_epochs=150, stage2_epochs=300)

    def chamfer_of(observations, config):
        p2 = _fit(model, observations, cams, config)
        return evalign.eval_3d(fm.forward_mesh(asset, field, p2), gt_mesh,
                               n=8000, seed=0, gt_seed=1)

    full = chamfer_of(obs, cfg)
    no_norm = chamfer_of(obs, dataclasses.replace(cfg, w_norm=0.0))

    # corrupt one view: inverted normals, zero confidence everywhere
    bad = obs[7]
    corrupted = list(obs)
    corrupted[7] = dataclasses.replace(bad, normals=losses.NormalObservation(
        -bad.normals.mu, np.zeros_like(bad.normals.kappa)))
    weighted = chamfer_of(corrupted, cfg)
    # the equal-confidence run erases what the per-pixel spread knows
    kc = losses.kappa_for_expected_error(np.sqrt(2 / np.pi) * 5.0)
    flat = [dataclasses.replace(o, normals=losses.NormalObservation(
        o.normals.mu, np.where(o.mask, kc, 0.0))) for o in corrupted]
    equal = chamfer_of(flat, cfg)

    ok_norm = no_norm["mean_normal_deg"] >= full["mean_normal_deg"]
    ok_kappa = equal["mean_distance"] >= weighted["mean_distance"]
    _verdict("AC-07 ablation directions", ok_norm and ok_kappa,
             f"normal weight off {no_norm['mean_normal_deg']:.3f} deg >= "
             f"full {full['mean_normal_deg']:.3f} deg: {ok_norm}; "
             f"equal-confidence chamfer {equal['mean_distance']*1000:.3f} mm "
             f">= weighted {weighted['mean_distance']*1000:.3f} mm: "
             f"{ok_kappa}")


def test_ac08_alignment_with_outliers():
    rng = np.random.default_rng(77)
    blob = rng.normal(size=(500, 3)) * np.array([0.08, 0.03, 0.02])
    gt = evalign.AlignParams(theta_z=0.35, tx=0.018, ty=-0.012, s=1.04)
    target = gt.apply(blob, blob.mean(axis=0))
    src = np.vstack([blob, rng.uniform(-0.15, 0.15, size=(50, 3))])
    tgt = np.vstack([target, rng.uniform(-0.15, 0.15, size=(50, 3))])
    res = evalign.align_4param(src, tgt)
    dth = np.degrees(abs(res.params.theta_z - gt.theta_z))
    dt_mm = np.hypot(res.params.tx - gt.tx, res.params.ty - gt.ty) * 1000
    ds = abs(res.params.s / gt.s - 1) * 100

    gx, gy = np.meshgrid(np.linspace(-0.3, 0.3, 22),
                         np.linspace(-0.3, 0.3, 22))
    n_gt = np.array([0.05, -0.03, 1.0])
    n_gt /= np.linalg.norm(n_gt)
    R = evalign._rotation_to_z(n_gt).T
    plane = np.stack([gx.ravel(), gy.ravel(), np.zeros(gx.size)],
                     axis=1) @ R.T
    plane += rng.normal(size=plane.shape) * 3e-4
    junk = rng.uniform(-0.4, 0.4, size=(48, 3)) + np.array([0, 0, 0.3])
    fit = evalign.fit_floor(np.vstack([plane, junk]), seed=3)
    ang = np.degrees(np.arccos(np.clip(abs(fit.normal @ n_gt), -1, 1)))

    ok = dth < 0.5 and dt_mm < 1.0 and ds < 0.5 and ang < 0.5
    _verdict("AC-08 alignment with outliers", ok,
             f"theta {dth:.4f} deg (tol 0.5), t {dt_mm:.4f} mm (tol 1), "
             f"s {ds:.4f} % (tol 0.5), floor normal {ang:.4f} deg (tol 0.5)")


def test_ac09_uncertainty_thresholding(model):
    asset, field = model
    gt_mesh = fm.forward_mesh(asset, field, fm.FootParams.identity(
        field.d_s, field.d_p))
    arc = cam_mod.ArcSamplerConfig(width=160, height=120)
    cam = cam_mod.sample_arc(arc, np.random.default_rng(2))
    bundle = synth.render_view(gt_mesh, asset.keypoint_ids, cam,
                               sigma_deg=0.0, kp_sigma=0.01,
                               rng=np.random.default_rng(3))
    kappa = bundle.obs.normals.kappa
    mask = bundle.obs.mask
    included = losses.silhouette_from_uncertainty(kappa, 30.0)
    bg_clean = bool(np.all(kappa[~mask] == 0.0)
                    and not np.any(included[~mask]))
    fg_kept = bool(np.all(included[mask]))
    _verdict("AC-09 uncertainty thresholding", bg_clean and fg_kept,
             f"all {int((~mask).sum())} background pixels excluded: "
             f"{bg_clean}; all {int(mask.sum())} noiseless foreground "
             f"pixels included: {fg_kept}")


def test_ac10_determinism(model, tmp_path):
    asset, field = model
    rng = np.random.default_rng(19)
    gt = synth.random_scene_params(rng, field.d_s, field.d_p)
    dirs = [tmp_path / "a", tmp_path / "b"]
    fits = []
    for d in dirs:
        meta, cams, obs = _make_scene(model, d, gt, n_views=2, sigma=3.0,
                                      seed=11)
        cfg = fitting.FitConfig(stage1_epochs=10, stage2_epochs=5)
        fits.append(_fit(model, obs, cams, cfg))
    scene_same = True
    for root, _, files in os.walk(dirs[0]):
        rel = os.path.relpath(root, dirs[0])
        for f in files:
            scene_same &= filecmp.cmp(os.path.join(root, f),
                                      os.path.join(dirs[1], rel, f),
                                      shallow=False)
    fit_same = all(
        np.array_equal(getattr(fits[0], n), getattr(fits[1], n))
        for n in ("r", "t", "s", "z_s", "z_p"))
    _verdict("AC-10 determinism", scene_same and fit_same,
             f"scene artifacts byte-identical: {scene_same}; "
             f"fitted parameters bit-identical: {fit_same}")
