import os

import numpy as np
import pytest
from scipy import optimize

import chainref
from chainref import div, mul, norm2
from footfit import autodiff as ad
from footfit import losses
from footfit.losses import (
    KeypointObservation,
    MissingObservation,
    NormalObservation,
    Observation,
    ViewTable,
    angmf_nll,
    downsample_observation,
    expected_angular_error,
    expected_angular_error_quad,
    kp_fit_loss,
    load_observation,
    normal_fit_loss,
    save_observation,
    silhouette_from_uncertainty,
    silhouette_l2,
)
from footfit.renderer import FragmentBuffer


def unit_rows(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def nll(mu, kappa, n_gt):
    """``angmf_nll`` of the arrays ``mu`` and ``kappa`` as constants on one
    tape."""
    tape = ad.Tape()
    return angmf_nll(tape.const(mu), tape.const(kappa), n_gt)


def expected_error_closed_form(k):
    # E[theta] under p ~ exp(-k t) sin t on [0, pi], integrated by parts.
    e = np.exp(-k * np.pi)
    num = np.pi * e * (1 + k * k) + 2 * k * (1 + e)
    return np.degrees(num / ((1 + k * k) * (1 + e)))


class TestAngularNLL:
    def test_kappa_zero_is_log_two(self):
        rng = np.random.default_rng(0)
        mu = unit_rows(rng, 64)
        n = unit_rows(rng, 64)
        out = nll(mu, np.zeros(64), n)
        assert abs(out.value - np.log(2.0)) < 1e-12

    def test_kappa_one_aligned(self):
        mu = np.array([[0.0, 0.0, -1.0]])
        out = nll(mu, np.ones(1), mu.copy())
        expect = np.log((1 + np.exp(-np.pi)) / 2)
        assert abs(out.value - expect) < 1e-12
        assert round(out.item(), 6) == -0.650841

    def test_mean_over_pixels(self):
        rng = np.random.default_rng(1)
        mu = unit_rows(rng, 10)
        n = unit_rows(rng, 10)
        k = rng.uniform(0.1, 5.0, size=10)
        whole = nll(mu, k, n).value
        singles = [nll(mu[i:i + 1], k[i:i + 1], n[i:i + 1]).value
                   for i in range(10)]
        assert abs(whole - np.mean(singles)) < 1e-12

    def test_image_shaped_input(self):
        rng = np.random.default_rng(2)
        mu = unit_rows(rng, 12).reshape(3, 4, 3)
        n = unit_rows(rng, 12).reshape(3, 4, 3)
        k = rng.uniform(0.0, 3.0, size=(3, 4))
        flat = nll(mu.reshape(-1, 3), k.reshape(-1), n.reshape(-1, 3))
        img = nll(mu, k, n)
        assert img.value == flat.value

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(3)
        n_gt = unit_rows(rng, 6)
        mu0 = unit_rows(rng, 6)
        k0 = rng.uniform(0.3, 4.0, size=6)

        def fn(mu_raw, kappa):
            # normalize inside so finite-difference probes stay on the sphere
            unit = div(mu_raw, norm2(mu_raw, axis=1, keepdims=True))
            return angmf_nll(unit, kappa, n_gt)

        assert ad.grad_check(fn, [mu0, k0]) < 1e-4

    def test_rejects_bad_inputs(self):
        mu = np.array([[0.0, 0.0, -1.0]])
        with pytest.raises(ValueError):
            nll(mu * 1.001, np.ones(1), mu)
        with pytest.raises(ValueError):
            nll(mu, np.ones(1), mu * 0.999)
        with pytest.raises(ValueError):
            nll(mu, -np.ones(1), mu)


class TestExpectedAngularError:
    def test_kappa_zero_is_ninety(self):
        assert expected_angular_error_quad(0.0) == 90.0
        assert expected_angular_error(0.0) == 90.0

    def test_matches_closed_form(self):
        # 66.896: where the quadrature with scipy's default absolute
        # tolerance was off by 7e-4 deg
        for k in [*np.geomspace(1e-3, 100.0, 25), 66.896]:
            assert abs(expected_angular_error_quad(k)
                       - expected_error_closed_form(k)) < 1e-9

    def test_strictly_decreasing(self):
        e = expected_angular_error(np.array([0.1, 1.0, 10.0]))
        assert e[2] < e[1] < e[0]
        ks = 100.0 * (np.arange(4096) / 4095.0) ** 2
        assert np.all(np.diff(expected_angular_error(ks)) < 0)

    def test_lookup_close_to_quadrature(self):
        rng = np.random.default_rng(5)
        ks = rng.uniform(0.0, 100.0, size=1000)
        table = expected_angular_error(ks)
        direct = np.array([expected_angular_error_quad(k) for k in ks])
        assert np.abs(table - direct).max() < 0.1

    def test_clamps_above_table_range(self):
        assert expected_angular_error(250.0) == expected_angular_error(100.0)

    def test_rejects_bad_kappa(self):
        with pytest.raises(ValueError):
            expected_angular_error(-1.0)
        with pytest.raises(ValueError):
            expected_angular_error_quad(np.nan)

    def test_inverse_lookup(self):
        for target in (2.0, 5.0, 12.0, 30.0, 60.0, 89.0):
            k = losses.kappa_for_expected_error(target)
            assert abs(expected_angular_error(k) - target) < 1e-9
        assert losses.kappa_for_expected_error(90.0) == 0.0
        assert losses.kappa_for_expected_error(0.0) == 100.0
        with pytest.raises(ValueError):
            losses.kappa_for_expected_error(-1.0)


class TestSilhouetteFromUncertainty:
    def test_zero_kappa_is_background(self):
        mask = silhouette_from_uncertainty(np.zeros((4, 4)), 30.0)
        assert not mask.any()

    def test_boundary_is_inclusive(self):
        k_star = optimize.brentq(
            lambda k: expected_angular_error(float(k)) - 30.0, 0.5, 20.0,
            xtol=1e-12)
        mask = silhouette_from_uncertainty(
            np.array([[k_star + 1e-6, k_star - 1e-3]]), 30.0)
        assert mask[0, 0] and not mask[0, 1]
        # an error exactly at the threshold must classify as foreground
        k = np.array([[losses.kappa_for_expected_error(30.0)]])
        at = expected_angular_error(k)[0, 0]
        assert silhouette_from_uncertainty(k, threshold_deg=at)[0, 0]

    def test_loose_threshold_takes_all(self):
        rng = np.random.default_rng(8)
        k = rng.uniform(0.0, 50.0, size=(5, 5))
        assert silhouette_from_uncertainty(k, threshold_deg=180.0).all()


def make_kp_obs(rng, K=12):
    return KeypointObservation(
        k=rng.normal(size=(K, 2)) * 0.2 + 0.5,
        sigma=rng.uniform(0.05, 0.3, size=(K, 2)),
        v=(rng.uniform(size=K) > 0.3).astype(np.float64),
    )


class TestKeypointFitLoss:
    def test_zero_at_observations(self):
        rng = np.random.default_rng(14)
        obs = make_kp_obs(rng)
        tape = ad.Tape()
        proj = tape.leaf(obs.k[None].copy())
        assert kp_fit_loss(proj, KeypointObservation.stack([obs])).value == 0.0

    def test_single_visible_point_example(self):
        K = 12
        k = np.full((K, 2), 0.5)
        pred = k.copy()
        pred[0, 0] += 0.1
        obs = KeypointObservation(k, np.full((K, 2), 0.1),
                                  np.eye(1, K)[0])
        tape = ad.Tape()
        out = kp_fit_loss(tape.leaf(pred[None]), KeypointObservation.stack([obs]))
        assert abs(out.value - 1.0 / 12.0) < 1e-12

    def test_doubling_sigma_quarters_loss(self):
        rng = np.random.default_rng(15)
        obs = make_kp_obs(rng)
        pred = obs.k + rng.normal(size=obs.k.shape) * 0.05
        tape = ad.Tape()
        a = kp_fit_loss(tape.leaf(pred[None]), KeypointObservation.stack([obs])).value
        wide = KeypointObservation(obs.k, obs.sigma * 2, obs.v)
        b = kp_fit_loss(tape.leaf(pred[None]), KeypointObservation.stack([wide])).value
        assert np.isclose(b, a / 4, rtol=1e-12)

    def test_view_permutation_invariant(self):
        rng = np.random.default_rng(16)
        obs = [make_kp_obs(rng) for _ in range(3)]
        preds = [o.k + rng.normal(size=o.k.shape) * 0.1 for o in obs]
        tape = ad.Tape()
        fwd = kp_fit_loss(tape.leaf(np.stack(preds)), KeypointObservation.stack(obs)).value
        rev = kp_fit_loss(tape.leaf(np.stack(preds[::-1])),
                          KeypointObservation.stack(obs[::-1])).value
        assert np.isclose(fwd, rev, rtol=1e-12)

    def test_gradients_reach_projections(self):
        rng = np.random.default_rng(17)
        obs = [make_kp_obs(rng, K=4) for _ in range(2)]
        p0 = np.stack([o.k + rng.normal(size=o.k.shape) * 0.1 for o in obs])
        stacked = KeypointObservation.stack(obs)
        assert ad.grad_check(lambda p: kp_fit_loss(p, stacked), [p0]) < 1e-4

    def test_stacked_observations_match_list(self):
        # the stacked views' loss is the mean of the list of one-view losses
        rng = np.random.default_rng(19)
        obs = [make_kp_obs(rng) for _ in range(3)]
        stacked = KeypointObservation.stack(obs)
        assert stacked.k.shape == (3, 12, 2) and stacked.v.shape == (3, 12)
        preds = np.stack([o.k + rng.normal(size=o.k.shape) * 0.1 for o in obs])
        tape = ad.Tape()
        whole = kp_fit_loss(tape.leaf(preds), stacked).value
        alone = [kp_fit_loss(tape.leaf(p[None]), KeypointObservation.stack([o])).value
                 for p, o in zip(preds, obs)]
        assert np.isclose(whole, np.mean(alone), rtol=1e-14)
        bad = KeypointObservation(obs[1].k, -obs[1].sigma, obs[1].v)
        with pytest.raises(ValueError, match="sigma"):
            KeypointObservation.stack([obs[0], bad])

    def test_one_node_matches_op_chain(self):
        # the node against the op chain it replaces, scored with a weight
        # so the incoming cotangent is not 1
        rng = np.random.default_rng(29)
        obs = [make_kp_obs(rng) for _ in range(3)]
        obs[1].v[:] = 0.0
        stacked = KeypointObservation.stack(obs)
        preds = stacked.k + rng.normal(size=stacked.k.shape) * 0.1
        results = []
        for loss in (kp_fit_loss, chainref.kp_fit_loss):
            tape = ad.Tape()
            proj = tape.leaf(preds)
            before = len(tape)
            out = mul(loss(proj, stacked), 0.37)
            results.append((len(tape) - before, out.value, tape.backward(out)[proj]))
        (n_node, v_node, g_node), (n_chain, v_chain, g_chain) = results
        assert n_node == 3 and n_chain > 10     # loss node, weight, product
        assert v_node == v_chain
        assert np.array_equal(g_node, g_chain)
        assert np.all(g_chain[1] == 0.0) and g_chain[0].any()
        for loss in (kp_fit_loss, chainref.kp_fit_loss):
            assert ad.grad_check(lambda p: loss(p, stacked), [preds]) < 1e-6

    def test_count_mismatch_raises(self):
        rng = np.random.default_rng(18)
        obs = make_kp_obs(rng, K=5)
        tape = ad.Tape()
        with pytest.raises(ValueError):
            kp_fit_loss(tape.leaf(np.zeros((1, 4, 2))), KeypointObservation.stack([obs]))
        with pytest.raises(ValueError):
            kp_fit_loss(tape.leaf(obs.k[None].copy()), KeypointObservation.stack([obs, obs]))


class TestViewTable:
    def test_keeps_the_target_pixels_only(self):
        rng = np.random.default_rng(28)
        mu = unit_rows(rng, 48).reshape(6, 8, 3)
        kappa = rng.uniform(0.0, 20.0, size=(6, 8))
        table = ViewTable.of(NormalObservation(mu, kappa), 30.0)
        target = silhouette_from_uncertainty(kappa, 30.0)
        assert 0 < target.sum() < target.size
        assert np.array_equal(table.target, target)
        assert np.array_equal(table.pixels, np.flatnonzero(target))
        assert table.mu.shape == (3, target.sum()) and table.mu.flags.c_contiguous
        assert np.array_equal(table.mu, mu[target].T)
        assert np.array_equal(table.kappa, kappa[target])

    @pytest.mark.parametrize("case", ["overlap", "no_target", "no_coverage"])
    def test_scored_pairs_positions_with_rows(self, case):
        rng = np.random.default_rng(29)
        shape = (7, 9)
        kappa = np.where(rng.uniform(size=shape) < 0.5, 50.0, 0.0)
        if case == "no_target":
            kappa[:] = 0.0
        covered = rng.uniform(size=shape) < (0.0 if case == "no_coverage" else 0.6)
        table = ViewTable.of(NormalObservation(np.zeros((*shape, 3)), kappa), 30.0)
        pixels = np.flatnonzero(covered)
        frag = FragmentBuffer.build(shape, pixels, np.zeros(len(pixels), dtype=np.int64),
                                    np.zeros((len(pixels), 3)), np.zeros(0, dtype=bool))
        pos, rows = table.scored(frag)
        want = np.flatnonzero(table.target & covered)
        assert np.array_equal(pixels[pos], want)
        assert np.array_equal(table.pixels[rows], want)
        assert (case == "overlap") == (len(want) > 0)


def whole(normals):
    """The table of every pixel of ``normals``: its rows are flat indices."""
    return ViewTable.of(normals, 180.0)


class TestNormalFitLoss:
    def grid_obs(self, rng, H=6, W=8, kappa=None):
        mu = unit_rows(rng, H * W).reshape(H, W, 3)
        k = np.full((H, W), 2.0) if kappa is None else kappa
        return NormalObservation(mu, k)

    def test_zero_when_aligned(self):
        mu = np.zeros((3, 4, 3))
        mu[..., 2] = -1.0
        obs = NormalObservation(mu, np.full((3, 4), 5.0))
        tape = ad.Tape()
        rendered = tape.leaf(mu.reshape(-1, 3).copy())
        out = normal_fit_loss(rendered, [whole(obs)], [np.arange(12)])
        assert out.value == 0.0

    def test_ninety_degrees_at_kappa_two_gives_pi(self):
        H, W = 4, 4
        mu = np.zeros((H, W, 3))
        mu[..., 0] = 1.0
        obs = NormalObservation(mu, np.full((H, W), 2.0))
        n = np.zeros((H * W, 3))
        n[:, 2] = -1.0
        tape = ad.Tape()
        out = normal_fit_loss(tape.leaf(n), [whole(obs)], [np.arange(H * W)])
        assert abs(out.value - np.pi) < 1e-14

    def test_linear_in_kappa(self):
        rng = np.random.default_rng(19)
        obs = self.grid_obs(rng)
        flat = np.flatnonzero(rng.uniform(size=(6, 8)) > 0.4)
        n = unit_rows(rng, len(flat))
        tape = ad.Tape()
        a = normal_fit_loss(tape.leaf(n), [whole(obs)], [flat]).value
        half = NormalObservation(obs.mu, obs.kappa / 2)
        b = normal_fit_loss(tape.leaf(n.copy()), [whole(half)], [flat]).value
        assert np.isclose(b, a / 2, rtol=1e-12)

    def test_mask_selects_pixels(self):
        rng = np.random.default_rng(20)
        obs = self.grid_obs(rng)
        n = unit_rows(rng, 48).reshape(6, 8, 3)
        mask = np.zeros((6, 8), bool)
        mask[2, 3] = mask[5, 1] = True
        tape = ad.Tape()
        out = normal_fit_loss(tape.leaf(n[mask]), [whole(obs)], [np.flatnonzero(mask)]).value
        manual = np.mean([
            obs.kappa[i, j] * np.arccos(np.clip(n[i, j] @ obs.mu[i, j], -1, 1))
            for i, j in [(2, 3), (5, 1)]])
        assert np.isclose(out, manual, rtol=1e-12)

    def test_mean_of_per_view_means(self):
        rng = np.random.default_rng(25)
        obs = [self.grid_obs(rng), self.grid_obs(rng, H=3, W=5), self.grid_obs(rng)]
        flats = [np.flatnonzero(rng.uniform(size=o.kappa.shape) > 0.5) for o in obs]
        flats[2] = flats[2][:0]             # an empty view adds 0
        n = [unit_rows(rng, len(f)) for f in flats]
        tape = ad.Tape()
        out = normal_fit_loss(tape.leaf(np.concatenate(n)), [whole(o) for o in obs],
                              flats).value
        alone = [normal_fit_loss(tape.leaf(nv), [whole(o)], [f]).value
                 for nv, o, f in zip(n[:2], obs[:2], flats[:2])]
        assert np.isclose(out, sum(alone) / 3, rtol=1e-14)

    def test_rows_must_match_scored_pixels(self):
        rng = np.random.default_rng(26)
        obs = self.grid_obs(rng)
        tape = ad.Tape()
        with pytest.raises(ValueError, match="per scored pixel"):
            normal_fit_loss(tape.leaf(unit_rows(rng, 3)), [whole(obs)], [np.arange(48)])

    def test_empty_mask_is_zero(self):
        rng = np.random.default_rng(21)
        obs = self.grid_obs(rng)
        tape = ad.Tape()
        n = tape.leaf(np.zeros((0, 3)))
        out = normal_fit_loss(n, [whole(obs)], [np.zeros(0, dtype=np.int64)])
        assert out.value == 0.0
        assert tape.backward(out)[n].shape == (0, 3)

    def test_matches_op_chain(self):
        # three views, one scoring no pixel, and a first pixel whose rendered
        # normal equals mu: its gradient is exactly 0 at acos_safe's cut
        rng = np.random.default_rng(27)
        obs = [self.grid_obs(rng), self.grid_obs(rng, H=3, W=5), self.grid_obs(rng)]
        for o in obs:
            o.kappa[:] = rng.uniform(0.5, 20.0, size=o.kappa.shape)
        masks = [rng.uniform(size=o.kappa.shape) > 0.4 for o in obs]
        masks[1][:] = False
        n = unit_rows(rng, sum(int(m.sum()) for m in masks))
        i, j = np.argwhere(masks[0])[0]
        obs[0].mu[i, j] = n[0]
        flats = [np.flatnonzero(m) for m in masks]
        results = []
        for loss, inputs in ((normal_fit_loss, [whole(o) for o in obs]),
                             (chainref.normal_fit_loss, obs)):
            tape = ad.Tape()
            rendered = tape.leaf(n)
            out = loss(rendered, inputs, flats)
            results.append((out.value, tape.backward(out)[rendered]))
        (v_fused, g_fused), (v_chain, g_chain) = results
        assert abs(n[0] @ obs[0].mu[i, j]) > 1.0 - 1e-7
        assert np.all(g_fused[0] == 0.0) and np.all(g_chain[0] == 0.0)
        assert np.all(g_fused[1:].any(axis=1))
        # the same float operations in the same order, forward and backward
        assert v_fused == v_chain
        assert np.array_equal(g_fused, g_chain)

    def test_gradient_on_rendered_normals(self):
        rng = np.random.default_rng(22)
        obs = self.grid_obs(rng, H=3, W=3)
        n0 = unit_rows(rng, 9)

        def fn(raw):
            unit = div(raw, norm2(raw, axis=1, keepdims=True))
            return normal_fit_loss(unit, [whole(obs)], [np.arange(9)])

        assert ad.grad_check(fn, [n0]) < 1e-4


def image_l2(soft_images, targets):
    """Mean over views of the mean squared difference of whole images."""
    return np.mean([np.mean((s - t) ** 2) for s, t in zip(soft_images, targets)])


class TestSilhouetteL2:
    def test_identical_is_zero(self):
        rng = np.random.default_rng(23)
        m = rng.uniform(size=(5, 7)) > 0.5
        band = np.array([0, 3, 9, 20])
        tape = ad.Tape()
        soft = tape.leaf(m.reshape(-1)[band].astype(float))
        assert silhouette_l2(soft, [band], [m], [m]).value == 0.0

    def test_opposite_is_one(self):
        tape = ad.Tape()
        soft = tape.leaf(np.ones(3))
        band = np.array([0, 5, 6])
        out = silhouette_l2(soft, [band], [np.ones((4, 4), bool)], [np.zeros((4, 4))])
        assert out.value == 1.0

    def test_matches_image_mean_over_views(self):
        rng = np.random.default_rng(27)
        masks = [rng.uniform(size=(5, 7)) > 0.5, rng.uniform(size=(3, 4)) > 0.5,
                 np.zeros((2, 2), bool)]
        targets = [rng.uniform(size=m.shape) > 0.5 for m in masks]
        bands = [np.array([1, 2, 8, 30]), np.array([0, 11]), np.zeros(0, dtype=int)]
        vals = rng.uniform(size=6)
        images = [m.astype(float) for m in masks]
        images[0].reshape(-1)[bands[0]] = vals[:4]
        images[1].reshape(-1)[bands[1]] = vals[4:]
        out = silhouette_l2(ad.Tape().leaf(vals), bands, masks, targets).value
        assert np.isclose(out, image_l2(images, targets), rtol=1e-14)

    def test_gradient(self):
        rng = np.random.default_rng(24)
        masks = [rng.uniform(size=(4, 5)) > 0.5, rng.uniform(size=(2, 3)) > 0.5]
        targets = [(rng.uniform(size=m.shape) > 0.5).astype(float) for m in masks]
        bands = [np.array([0, 7, 13, 19]), np.array([2, 3])]
        s0 = rng.uniform(size=6)

        def fn(s):
            return silhouette_l2(s, bands, masks, targets)

        assert ad.grad_check(fn, [s0]) < 1e-4

    def test_shape_mismatch_raises(self):
        tape = ad.Tape()
        with pytest.raises(ValueError):
            silhouette_l2(tape.leaf(np.zeros(0)), [np.zeros(0, dtype=int)],
                          [np.zeros((2, 2), bool)], [np.zeros((2, 3))])


class TestKappaMinimizer:
    def test_optimal_kappa_decreases_with_error(self):
        # at a fixed angular residual theta, the NLL-minimizing kappa
        # shrinks as theta grows: the model learns to report uncertainty
        def best_kappa(theta):
            def nll(k):
                return k * theta + np.log((1 + np.exp(-k * np.pi)) / (k * k + 1))
            res = optimize.minimize_scalar(nll, bounds=(0.0, 500.0),
                                           method="bounded")
            return res.x

        k5 = best_kappa(np.radians(5.0))
        k20 = best_kappa(np.radians(20.0))
        k45 = best_kappa(np.radians(45.0))
        assert k5 > k20 > k45 > 0.1

        rng = np.random.default_rng(25)
        mu = np.array([[0.0, 0.0, -1.0]])
        for theta, lo, hi in [(5.0, k20, 500.0), (20.0, k45, k5),
                              (45.0, 0.0, k20)]:
            t = np.radians(theta)
            n = np.array([[np.sin(t), 0.0, -np.cos(t)]])
            ks = np.linspace(max(lo, 1e-3), min(hi, 200.0), 200)
            vals = [nll(mu, np.array([k]), n).value for k in ks]
            k_hat = ks[int(np.argmin(vals))]
            assert abs(k_hat - best_kappa(t)) < (ks[1] - ks[0]) * 2


class TestObservationIO:
    def make_obs(self, rng, H=8, W=12):
        axes = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0],
                         [0.0, 1.0, 0.0], [0.0, -1.0, 0.0]])
        mu = axes[rng.integers(0, 4, size=H * W)].reshape(H, W, 3)
        kappa = rng.choice([0.5, 2.0, 8.0], size=(H, W)).astype(np.float64)
        mask = rng.uniform(size=(H, W)) > 0.5
        kp = KeypointObservation(
            k=rng.uniform(0.1, 0.9, size=(12, 2)),
            sigma=rng.uniform(0.01, 0.1, size=(12, 2)),
            v=(rng.uniform(size=12) > 0.2).astype(np.float64))
        return Observation(NormalObservation(mu, kappa), kp, mask)

    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(26)
        obs = self.make_obs(rng)
        d = str(tmp_path / "view_000")
        save_observation(d, obs)
        back = load_observation(d)
        np.testing.assert_array_equal(back.normals.mu, obs.normals.mu)
        np.testing.assert_array_equal(back.normals.kappa, obs.normals.kappa)
        np.testing.assert_array_equal(back.mask, obs.mask)
        np.testing.assert_array_equal(back.keypoints.k, obs.keypoints.k)
        np.testing.assert_array_equal(back.keypoints.sigma, obs.keypoints.sigma)
        np.testing.assert_array_equal(back.keypoints.v, obs.keypoints.v)

    def test_float32_mu_renormalized(self, tmp_path):
        rng = np.random.default_rng(27)
        obs = self.make_obs(rng)
        obs.normals.mu[:] = unit_rows(rng, 96).reshape(8, 12, 3)
        d = str(tmp_path / "view_001")
        save_observation(d, obs)
        back = load_observation(d)
        norms = np.linalg.norm(back.normals.mu, axis=-1)
        live = back.normals.kappa > 0
        assert np.abs(norms[live] - 1.0).max() < 1e-15
        assert np.abs(back.normals.mu - obs.normals.mu).max() < 1e-6

    def test_missing_file_names_the_view(self, tmp_path):
        rng = np.random.default_rng(28)
        obs = self.make_obs(rng)
        d = str(tmp_path / "view_007")
        save_observation(d, obs)
        os.remove(os.path.join(d, "keypoints.json"))
        with pytest.raises(MissingObservation) as exc:
            load_observation(d)
        assert "view_007" in str(exc.value)
        assert "keypoints.json" in str(exc.value)
        assert isinstance(exc.value, FileNotFoundError)

    def test_save_validates(self, tmp_path):
        rng = np.random.default_rng(29)
        obs = self.make_obs(rng)
        obs.keypoints.sigma[3, 1] = -0.1
        with pytest.raises(ValueError):
            save_observation(str(tmp_path / "bad"), obs)


class TestDownsample:
    def make_obs(self, H, W, rng):
        mu = unit_rows(rng, H * W).reshape(H, W, 3)
        kappa = rng.uniform(0.5, 5.0, size=(H, W))
        mask = rng.uniform(size=(H, W)) > 0.5
        kp = KeypointObservation(np.full((3, 2), 0.5), np.full((3, 2), 0.05),
                                 np.ones(3))
        return Observation(NormalObservation(mu, kappa), kp, mask)

    def test_factor_one_is_identity(self):
        obs = self.make_obs(4, 4, np.random.default_rng(30))
        assert downsample_observation(obs, 1) is obs

    def test_block_means(self):
        rng = np.random.default_rng(31)
        obs = self.make_obs(8, 8, rng)
        out = downsample_observation(obs, 2)
        assert out.normals.kappa.shape == (4, 4)
        block = obs.normals.kappa[:2, :2].mean()
        assert np.isclose(out.normals.kappa[0, 0], block, rtol=1e-12)
        m = obs.normals.mu[:2, :2].reshape(4, 3).mean(axis=0)
        np.testing.assert_allclose(out.normals.mu[0, 0],
                                   m / np.linalg.norm(m), rtol=1e-12)
        assert np.abs(np.linalg.norm(out.normals.mu, axis=-1) - 1).max() < 1e-12
        votes = obs.mask[:2, :2].mean()
        assert out.mask[0, 0] == (votes > 0.5)

    def test_keypoints_untouched(self):
        obs = self.make_obs(6, 6, np.random.default_rng(32))
        out = downsample_observation(obs, 3)
        assert out.keypoints is obs.keypoints

    def test_indivisible_raises(self):
        obs = self.make_obs(6, 8, np.random.default_rng(33))
        with pytest.raises(ValueError):
            downsample_observation(obs, 4)

    def test_cancelling_block_gets_default_direction(self):
        rng = np.random.default_rng(34)
        obs = self.make_obs(4, 4, rng)
        obs.normals.mu[0, 0] = [1.0, 0.0, 0.0]
        obs.normals.mu[0, 1] = [-1.0, 0.0, 0.0]
        obs.normals.mu[1, 0] = [0.0, 1.0, 0.0]
        obs.normals.mu[1, 1] = [0.0, -1.0, 0.0]
        out = downsample_observation(obs, 2)
        np.testing.assert_array_equal(out.normals.mu[0, 0], [0.0, 0.0, -1.0])
