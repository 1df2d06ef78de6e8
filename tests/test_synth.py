import filecmp
import os

import numpy as np
import pytest

from chainref import project_keypoints, rasterize_mesh
from footfit import camera as cam_mod
from footfit import footmodel as fm
from footfit import images, losses, renderer, synth


SMALL_ARC = cam_mod.ArcSamplerConfig(width=120, height=160)


@pytest.fixture(scope="module")
def model():
    return fm.make_default_model(seed=0)


@pytest.fixture(scope="module")
def gt(model):
    asset, field = model
    params = synth.random_scene_params(np.random.default_rng(7))
    mesh = fm.forward_mesh(asset, field, params)
    return params, mesh


@pytest.fixture(scope="module")
def scene(model, gt, tmp_path_factory):
    params, _ = gt
    spec = synth.SceneSpec(params, arc=SMALL_ARC, n_views=3,
                           sigma_view_deg=[2.0, 5.0, 10.0], seed=11)
    out = tmp_path_factory.mktemp("scene") / "s0"
    synth.generate_scene(spec, model, out)
    return spec, out


@pytest.fixture(scope="module")
def bundle(model, gt):
    asset, _ = model
    _, mesh = gt
    cam = cam_mod.sample_arc(SMALL_ARC, np.random.default_rng(3))
    return synth.render_view(mesh, asset.keypoint_ids, cam, 5.0, 0.01,
                             np.random.default_rng(4))


class TestSceneSpec:
    def test_validates(self, gt):
        params, _ = gt
        synth.SceneSpec(params, arc=SMALL_ARC).validate()

    @pytest.mark.parametrize("kw", [
        {"n_views": 0},
        {"cutoff": -0.1},
        {"sigma_view_deg": [1.0, 2.0]},
        {"sigma_view_deg": -3.0},
        {"kp_sigma": 0.0},
    ])
    def test_rejects(self, gt, kw):
        params, _ = gt
        with pytest.raises(ValueError):
            synth.SceneSpec(params, arc=SMALL_ARC, **kw).validate()


class TestSynthesizeKappa:
    def test_noiseless_limit(self, bundle):
        mask = bundle.obs.mask
        mu, kappa = synth.synthesize_kappa(bundle.gt_normals, mask, 0.0,
                                           np.random.default_rng(0))
        assert np.array_equal(mu[mask], bundle.gt_normals[mask])
        assert np.all(kappa[mask] == losses.kappa_for_expected_error(0.0))
        assert kappa[mask].min() == 100.0

    def test_background_untouched(self, bundle):
        mask = bundle.obs.mask
        mu, kappa = synth.synthesize_kappa(bundle.gt_normals, mask, 5.0,
                                           np.random.default_rng(1))
        assert np.all(mu[~mask] == 0.0)
        assert np.all(kappa[~mask] == 0.0)

    def test_unit_directions(self, bundle):
        mask = bundle.obs.mask
        mu, _ = synth.synthesize_kappa(bundle.gt_normals, mask, 8.0,
                                       np.random.default_rng(2))
        norms = np.linalg.norm(mu[mask], axis=1)
        assert np.abs(norms - 1.0).max() < 1e-12

    def test_kappa_matches_folded_mean(self, bundle):
        mask = bundle.obs.mask
        _, kappa = synth.synthesize_kappa(bundle.gt_normals, mask, 5.0,
                                          np.random.default_rng(3))
        k = kappa[mask][0]
        assert k == losses.kappa_for_expected_error(synth.CALIBRATION * 5.0)
        got = losses.expected_angular_error(k)
        assert abs(got - synth.CALIBRATION * 5.0) < 1e-9

    def test_mean_error_near_folded_mean(self, bundle):
        # sampling statistics: mean angle ~ E|N(0, sigma)| within 10%
        mask = bundle.obs.mask
        assert mask.sum() > 500
        mu, _ = synth.synthesize_kappa(bundle.gt_normals, mask, 5.0,
                                       np.random.default_rng(4))
        d = np.clip((mu[mask] * bundle.gt_normals[mask]).sum(axis=1), -1, 1)
        mean_err = np.degrees(np.arccos(d)).mean()
        expect = synth.CALIBRATION * 5.0
        assert abs(mean_err - expect) / expect < 0.10

    def test_rejects_negative_sigma(self, bundle):
        with pytest.raises(ValueError):
            synth.synthesize_kappa(bundle.gt_normals, bundle.obs.mask, -1.0,
                                   np.random.default_rng(0))


class TestRenderView:
    def test_mask_is_hard_coverage(self, model, gt, bundle):
        _, mesh = gt
        frag = rasterize_mesh(mesh, bundle.camera)
        assert np.array_equal(bundle.obs.mask, frag.mask)

    def test_keypoints_share_projection_code_path(self, model, gt, bundle):
        asset, _ = model
        _, mesh = gt
        kp, vis = project_keypoints(mesh.vertices, asset.keypoint_ids, [bundle.camera])
        assert np.array_equal(bundle.obs.keypoints.k, kp[0])
        assert np.array_equal(bundle.obs.keypoints.v, vis[0])
        assert np.all(bundle.obs.keypoints.sigma == 0.01)

    def test_image_shading(self, bundle):
        img = bundle.image
        mask = bundle.obs.mask
        assert img.shape == mask.shape + (3,)
        assert np.all(img[~mask] == 1.0)
        fg = img[mask]
        assert fg.min() >= synth.AMBIENT - 1e-12
        assert fg.max() <= synth.AMBIENT + synth.DIFFUSE + 1e-12
        assert np.array_equal(img[..., 0], img[..., 1])
        assert np.array_equal(img[..., 0], img[..., 2])

    def test_background_excluded_by_threshold(self, bundle):
        sil = losses.silhouette_from_uncertainty(bundle.obs.normals.kappa,
                                                 30.0)
        assert np.array_equal(sil, bundle.obs.mask)


class TestGenerateScene:
    def test_layout(self, scene):
        _, out = scene
        assert (out / "scene.json").exists()
        assert (out / "cameras.json").exists()
        for i in range(3):
            vd = out / f"view_{i:03d}"
            for name in ("image.ppm", "mu.pfm", "kappa.pfm", "mask.pgm",
                         "keypoints.json", "gt_normals.pfm"):
                assert (vd / name).exists(), name

    def test_cutoff_property(self, model, scene):
        spec, out = scene
        asset, field = model
        mesh = fm.forward_mesh(asset, field, spec.params)
        cams = cam_mod.load_cameras(out / "cameras.json")
        for cam in cams:
            frag = rasterize_mesh(mesh, cam)
            assert renderer.cutoff_fraction(mesh, spec.cutoff, frag) <= 0.20

    def test_deterministic(self, model, scene, tmp_path):
        spec, out = scene
        synth.generate_scene(spec, model, tmp_path / "again")
        for root, _, files in os.walk(out):
            rel = os.path.relpath(root, out)
            for name in files:
                a = os.path.join(root, name)
                b = tmp_path / "again" / rel / name
                assert filecmp.cmp(a, b, shallow=False), (rel, name)

    def test_gt_normals_reload_bit_identical(self, model, scene):
        spec, out = scene
        asset, field = model
        mesh = fm.forward_mesh(asset, field, spec.params)
        cams = cam_mod.load_cameras(out / "cameras.json")
        loaded = images.load_pfm(out / "view_001" / "gt_normals.pfm")
        fresh = renderer.render_normals(mesh, cams[1], rasterize_mesh(mesh, cams[1]))
        assert np.array_equal(loaded, fresh.astype(np.float32))

    def test_keypoints_exact(self, model, scene):
        spec, out = scene
        asset, field = model
        mesh = fm.forward_mesh(asset, field, spec.params)
        cams = cam_mod.load_cameras(out / "cameras.json")
        _, _, obs = synth.load_scene(out)
        kp, vis = project_keypoints(mesh.vertices, asset.keypoint_ids, cams)
        for view, o in enumerate(obs):
            assert np.array_equal(o.keypoints.k, kp[view])
            assert np.array_equal(o.keypoints.v, vis[view])

    def test_visibility_matches_bounds(self, scene):
        _, out = scene
        _, _, obs = synth.load_scene(out)
        for o in obs:
            k, v = o.keypoints.k, o.keypoints.v
            inside = ((k[:, 0] >= 0) & (k[:, 0] <= 1)
                      & (k[:, 1] >= 0) & (k[:, 1] <= 1))
            assert np.all(v[~inside] == 0.0)

    def test_spec_echo(self, scene):
        spec, out = scene
        meta, _, _ = synth.load_scene(out)
        assert meta["lateral_axis"] == "world_x"
        assert meta["sigma_view_deg"] == [2.0, 5.0, 10.0]
        assert meta["seed"] == 11
        back = synth.scene_gt_params(meta)
        assert np.array_equal(back.r, spec.params.r)
        assert np.array_equal(back.z_s, spec.params.z_s)
        assert np.array_equal(back.z_p, spec.params.z_p)

    def test_calibration_per_bin(self, model, scene):
        # one bin per view (kappa is constant within a view)
        spec, out = scene
        _, _, obs = synth.load_scene(out)
        for i, o in enumerate(obs):
            gt = images.load_pfm(
                out / f"view_{i:03d}" / "gt_normals.pfm").astype(np.float64)
            m = o.mask
            assert m.sum() >= 500
            d = np.clip((o.normals.mu[m] * gt[m]).sum(axis=1), -1.0, 1.0)
            mean_err = np.degrees(np.arccos(d)).mean()
            k = o.normals.kappa[m][0]
            expect = losses.expected_angular_error(k)
            assert abs(mean_err - expect) / expect < 0.15

    def test_persistent_rejection_is_config_error(self, model, gt):
        params, _ = gt
        spec = synth.SceneSpec(params, arc=SMALL_ARC, n_views=1, cutoff=0.0,
                               seed=0)
        with pytest.raises(ValueError, match="view 0"):
            synth.generate_scene(spec, model, "/tmp/never_written")


class TestLoadScene:
    def test_missing_scene_json(self, tmp_path):
        with pytest.raises(losses.MissingObservation, match="scene.json"):
            synth.load_scene(tmp_path / "nope")

    def test_missing_view_file_names_view(self, model, scene, tmp_path):
        spec, out = scene
        import shutil
        dup = tmp_path / "broken"
        shutil.copytree(out, dup)
        os.remove(dup / "view_001" / "kappa.pfm")
        with pytest.raises(losses.MissingObservation) as exc:
            synth.load_scene(dup)
        assert "view_001" in str(exc.value)
        assert "kappa.pfm" in str(exc.value)
