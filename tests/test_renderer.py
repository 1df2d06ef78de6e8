import gc
import weakref

import numpy as np
import pytest
from scipy import ndimage

from footfit import autodiff as ad
from footfit import camera as cam_mod
from footfit import footmodel as fm
from footfit import renderer as rd
from footfit import synth
from footfit.camera import Camera
from footfit.geometry import Mesh


def front_cam(width=64, height=48, f=80.0):
    """Camera at the origin looking down +z."""
    return Camera(fx=f, fy=f, cx=width / 2, cy=height / 2,
                  width=width, height=height, R=np.eye(3), t=np.zeros(3))


def quad_mesh(cx=0.0, cy=0.0, half=0.06, z=0.5):
    """Fronto-parallel square facing the camera."""
    v = np.array([[cx - half, cy - half, z], [cx + half, cy - half, z],
                  [cx + half, cy + half, z], [cx - half, cy + half, z]])
    return Mesh(v, np.array([[0, 2, 1], [0, 3, 2]]))


def uv_sphere(center, radius, n_lat=32, n_lon=64):
    verts = [center + np.array([0.0, 0.0, radius]), center + np.array([0.0, 0.0, -radius])]
    rows = []
    for i in range(1, n_lat):
        th = np.pi * i / n_lat
        row = []
        for j in range(n_lon):
            ph = 2 * np.pi * j / n_lon
            row.append(len(verts))
            verts.append(center + radius * np.array(
                [np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)]))
        rows.append(row)
    faces = []
    for j in range(n_lon):
        jn = (j + 1) % n_lon
        faces.append([0, rows[0][j], rows[0][jn]])
        faces.append([1, rows[-1][jn], rows[-1][j]])
    for i in range(len(rows) - 1):
        for j in range(n_lon):
            jn = (j + 1) % n_lon
            a, b = rows[i][j], rows[i][jn]
            c, d = rows[i + 1][j], rows[i + 1][jn]
            faces.append([a, c, d])
            faces.append([a, d, b])
    return Mesh(np.array(verts), np.array(faces))


def random_soup(rng, n_faces=14):
    """Random triangles floating in front of the camera."""
    centers = np.stack([rng.uniform(-0.15, 0.15, n_faces),
                        rng.uniform(-0.12, 0.12, n_faces),
                        rng.uniform(0.4, 1.2, n_faces)], axis=1)
    verts = (centers[:, None, :] + rng.uniform(-0.08, 0.08, (n_faces, 3, 3))).reshape(-1, 3)
    verts[:, 2] = np.abs(verts[:, 2]) + 0.05
    faces = np.arange(3 * n_faces).reshape(-1, 3)
    return Mesh(verts, faces)


def brute_force_raster(mesh, cam):
    """Per-pixel loop with barycentrics from a linear solve; winner is the
    smallest perspective-interpolated depth among containing faces."""
    pix = (mesh.vertices @ cam.R.T + cam.t)
    z = pix[:, 2]
    px = cam.fx * pix[:, 0] / z + cam.cx
    py = cam.fy * pix[:, 1] / z + cam.cy
    face_buf = np.full((cam.height, cam.width), -1, dtype=np.int64)
    depth_buf = np.zeros((cam.height, cam.width))
    for i in range(cam.height):
        for j in range(cam.width):
            p = np.array([j + 0.5, i + 0.5])
            best = (np.inf, -1)
            for fi, tri in enumerate(mesh.faces):
                if np.any(z[tri] <= 1e-6):
                    continue
                n = np.cross(mesh.vertices[tri[1]] - mesh.vertices[tri[0]],
                             mesh.vertices[tri[2]] - mesh.vertices[tri[0]])
                if np.dot(n, pix[tri[0]]) >= 0:
                    continue
                q = np.stack([px[tri], py[tri]], axis=1)
                A = np.array([[q[1, 0] - q[0, 0], q[2, 0] - q[0, 0]],
                              [q[1, 1] - q[0, 1], q[2, 1] - q[0, 1]]])
                if abs(np.linalg.det(A)) < 1e-12:
                    continue
                l12 = np.linalg.solve(A, p - q[0])
                lam = np.array([1 - l12.sum(), l12[0], l12[1]])
                if np.any(lam < 0) or np.any(lam > 1):
                    continue
                d = 1.0 / np.sum(lam / z[tri])
                if d < best[0] - 1e-12 or (abs(d - best[0]) <= 1e-12 and fi < best[1]):
                    best = (d, fi)
            if best[1] >= 0:
                face_buf[i, j] = best[1]
                depth_buf[i, j] = best[0]
    return face_buf, depth_buf


class TestRasterize:
    def test_matches_brute_force(self):
        cam = front_cam(width=40, height=30, f=50.0)
        for seed in range(6):
            mesh = random_soup(np.random.default_rng(seed))
            frag = rd.rasterize(mesh, cam)
            face_bf, depth_bf = brute_force_raster(mesh, cam)
            ok = frag.face == face_bf
            # pixels whose two candidate depths differ by <1e-9 may resolve
            # either way; none occur in these seeds but guard the diff report
            assert ok.all(), f"seed {seed}: {np.count_nonzero(~ok)} pixels differ"
            covered = face_bf >= 0
            np.testing.assert_allclose(frag.depth[covered], depth_bf[covered], rtol=1e-9)

    def test_depth_is_ray_plane_intersection(self):
        cam = front_cam()
        v = np.array([[-0.1, -0.1, 0.4], [-0.1, 0.3, 0.6], [0.3, -0.1, 0.8]])
        mesh = Mesh(v, np.array([[0, 1, 2]]))
        frag = rd.rasterize(mesh, cam)
        assert frag.mask.any()
        n = np.cross(v[1] - v[0], v[2] - v[0])
        ii, jj = np.nonzero(frag.mask)
        for i, j in list(zip(ii, jj))[::7]:
            d = np.array([(j + 0.5 - cam.cx) / cam.fx, (i + 0.5 - cam.cy) / cam.fy, 1.0])
            z_hit = np.dot(n, v[0]) / np.dot(n, d)
            assert frag.depth[i, j] == pytest.approx(z_hit, rel=1e-10)

    def test_backface_culled(self):
        cam = front_cam()
        quad = quad_mesh()
        flipped = Mesh(quad.vertices, quad.faces[:, ::-1])
        assert not rd.rasterize(flipped, cam).mask.any()

    def test_nearer_surface_wins(self):
        cam = front_cam()
        near = quad_mesh(z=0.4)
        far = quad_mesh(z=0.9)
        both = Mesh(np.vstack([far.vertices, near.vertices]),
                    np.vstack([far.faces, near.faces + 4]))
        frag = rd.rasterize(both, cam)
        center = frag.face[cam.height // 2, cam.width // 2]
        assert center >= 2  # one of the near quad's faces
        assert frag.depth[cam.height // 2, cam.width // 2] == pytest.approx(0.4)

    def test_behind_camera_dropped(self):
        cam = front_cam()
        assert not rd.rasterize(quad_mesh(z=-0.5), cam).mask.any()

    def test_deterministic(self):
        cam = front_cam()
        mesh = random_soup(np.random.default_rng(9))
        a = rd.rasterize(mesh, cam)
        b = rd.rasterize(mesh, cam)
        assert np.array_equal(a.face, b.face)
        assert np.array_equal(a.bary, b.bary)
        assert np.array_equal(a.depth, b.depth)

    def test_barycentric_weights_sum_to_one(self):
        cam = front_cam()
        mesh = random_soup(np.random.default_rng(2))
        frag = rd.rasterize(mesh, cam)
        s = frag.bary[frag.mask].sum(axis=1)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)
        assert (frag.bary[frag.mask] >= -1e-12).all()


class TestRenderNormals:
    def test_flat_quad_normal(self):
        cam = front_cam()
        img, frag = rd.render_normals(quad_mesh(), cam)
        assert frag.mask.any()
        np.testing.assert_allclose(img[frag.mask], [[0, 0, -1]] * frag.mask.sum(),
                                   atol=1e-12)
        assert np.all(img[~frag.mask] == 0)

    def test_sphere_normals_match_analytic(self):
        cam = front_cam(width=160, height=120, f=133.0)
        center = np.array([0.02, -0.01, 0.35])
        mesh = uv_sphere(center, 0.08)
        img, frag = rd.rasterize(mesh, cam), None
        img, frag = rd.render_normals(mesh, cam)
        ii, jj = np.nonzero(frag.mask)
        d = np.stack([(jj + 0.5 - cam.cx) / cam.fx,
                      (ii + 0.5 - cam.cy) / cam.fy,
                      np.ones(len(ii))], axis=1)
        # first ray-sphere hit
        b = d @ center
        disc = b ** 2 - (d * d).sum(axis=1) * (center @ center - 0.08 ** 2)
        hit = disc > 0
        s = (b[hit] - np.sqrt(disc[hit])) / (d[hit] * d[hit]).sum(axis=1)
        true_n = s[:, None] * d[hit] - center
        true_n /= np.linalg.norm(true_n, axis=1, keepdims=True)
        got = img[ii[hit], jj[hit]]
        cosang = np.clip(np.sum(got * true_n, axis=1), -1, 1)
        ang = np.degrees(np.arccos(cosang))
        assert np.mean(ang) < 2.0
        assert np.quantile(ang, 0.99) < 6.0

    def test_front_facing_invariant(self):
        # every covered pixel of a closed mesh keeps normal z < 0
        center = np.array([0.05, 0.03, 0.4])
        mesh = uv_sphere(center, 0.07, n_lat=20, n_lon=40)
        for f in (60.0, 120.0):
            cam = front_cam(f=f)
            img, frag = rd.render_normals(mesh, cam)
            assert (img[frag.mask][:, 2] < 0).all()

    def test_gradient_matches_fd(self):
        cam = front_cam(width=32, height=24, f=40.0)
        v = np.array([[-0.06, -0.05, 0.40], [0.07, -0.04, 0.50], [0.00, 0.08, 0.45]])
        faces = np.array([[0, 2, 1]])
        frag = rd.rasterize(Mesh(v, faces), cam)
        assert frag.mask.any()
        w = np.random.default_rng(5).standard_normal((24, 32, 3))

        def loss(verts):
            img, _ = rd.render_normals_var(verts, faces, cam, frag=frag)
            return (img * w).sum()

        assert ad.grad_check(loss, [v]) < 1e-4

    def test_rerender_bit_identical(self):
        cam = front_cam()
        mesh = uv_sphere(np.array([0.0, 0.0, 0.4]), 0.06, n_lat=12, n_lon=24)
        a, _ = rd.render_normals(mesh, cam)
        b, _ = rd.render_normals(mesh, cam)
        assert np.array_equal(a, b)


class TestSoftSilhouette:
    def test_interior_saturates(self):
        cam = front_cam()
        img, frag = rd.render_silhouette_soft(quad_mesh(half=0.1), cam)
        inner = img[20:28, 28:36]
        assert (inner > 0.999).all()

    def test_empty_coverage_all_zero(self):
        cam = front_cam()
        img, _ = rd.render_silhouette_soft(quad_mesh(cx=5.0), cam)
        assert img.shape == (48, 64)
        assert np.count_nonzero(img) == 0

    def test_one_pixel_shift_equivariance(self):
        cam = front_cam()
        mesh = quad_mesh(cx=0.0131, cy=0.0077, z=0.5)
        img0, _ = rd.render_silhouette_soft(mesh, cam)
        dx = 0.5 / cam.fx  # one pixel at this depth
        shifted = mesh.copy_with(mesh.vertices + np.array([dx, 0.0, 0.0]))
        img1, _ = rd.render_silhouette_soft(shifted, cam)
        assert np.abs(img1[:, 1:] - img0[:, :-1]).max() < 1e-3

    def test_half_level_tracks_hard_mask(self):
        cam = front_cam(width=160, height=120, f=133.0)
        mesh = uv_sphere(np.array([0.01, 0.0, 0.4]), 0.07, n_lat=24, n_lon=48)
        img, frag = rd.render_silhouette_soft(mesh, cam)
        disagree = (img > 0.5) != frag.mask
        if disagree.any():
            from scipy import ndimage
            edge_dist = ndimage.distance_transform_edt(
                frag.mask == ndimage.binary_erosion(frag.mask))
            assert edge_dist[disagree].max() <= 2.0

    def test_sharpness_controls_transition(self):
        cam = front_cam()
        mesh = quad_mesh(cx=0.0113, half=0.08)
        soft_lo, frag = rd.render_silhouette_soft(mesh, cam, sharpness=5.0)
        soft_hi, _ = rd.render_silhouette_soft(mesh, cam, sharpness=60.0)
        hard = frag.mask.astype(float)
        assert np.abs(soft_hi - hard).sum() < np.abs(soft_lo - hard).sum()

    def test_gradient_matches_fd(self):
        cam = front_cam(width=32, height=24, f=40.0)
        mesh = quad_mesh(cx=0.011, cy=0.007, half=0.09, z=0.5)
        frag = rd.rasterize(mesh, cam)
        topo = rd.ContourTopology.build(mesh)
        w = np.random.default_rng(8).standard_normal((24, 32))

        def loss(verts):
            img, _ = rd.render_silhouette_soft_var(
                verts, mesh.faces, cam, sharpness=8.0, frag=frag, topo=topo)
            return (img * w).sum()

        assert ad.grad_check(loss, [mesh.vertices]) < 1e-4

    def test_grows_when_quad_grows(self):
        cam = front_cam()
        mesh = quad_mesh(half=0.05)
        tape = ad.Tape()
        verts = tape.leaf(mesh.vertices)
        img, _ = rd.render_silhouette_soft_var(verts, mesh.faces, cam)
        grads = tape.backward(img.sum())
        g = grads[verts]
        # outward motion of each corner increases total coverage
        outward = mesh.vertices[:, :2] - mesh.vertices[:, :2].mean(axis=0)
        assert (np.sum(g[:, :2] * outward, axis=1) > 0).all()

    def test_rejects_bad_sharpness(self):
        cam = front_cam()
        with pytest.raises(ValueError):
            rd.render_silhouette_soft(quad_mesh(), cam, sharpness=0.0)


# ---------------------------------------------------------------------------
# References for the soft silhouette's fast paths: the dense nearest-edge
# search, the full-image band and the op-by-op silhouette chain.

def dense_nearest(pc, a, b):
    """Nearest segment per point over a dense points × segments matrix."""
    ab = b - a
    denom = np.maximum(np.sum(ab * ab, axis=1), 1e-30)
    t = (pc[:, None, 0] - a[None, :, 0]) * ab[None, :, 0]
    t += (pc[:, None, 1] - a[None, :, 1]) * ab[None, :, 1]
    t = np.clip(t / denom[None, :], 0.0, 1.0)
    dx = a[None, :, 0] + t * ab[None, :, 0] - pc[:, None, 0]
    dy = a[None, :, 1] + t * ab[None, :, 1] - pc[:, None, 1]
    return np.argmin(dx * dx + dy * dy, axis=1)


def full_band(mask, band):
    """Band pixels from distance transforms over the whole image."""
    dist = np.where(mask, ndimage.distance_transform_edt(mask),
                    ndimage.distance_transform_edt(~mask))
    return np.nonzero((dist <= band + 1.5).reshape(-1))[0]


def chain_silhouette(verts, faces, cam, sharpness, frag, topo):
    """The soft silhouette as a chain of small tape ops, with the nearest
    edge from the dense search; returns (image Var, frag) like
    ``render_silhouette_soft_var``."""
    tape = verts.tape
    H, W = cam.height, cam.width
    mask = frag.mask
    contour = rd._contour_edges(topo, frag.front_faces)
    band = max(3.0, 12.0 / sharpness)
    flat = full_band(mask, band)
    pix_var, _ = rd.project_vertices_var(verts, cam)
    pix = pix_var.value
    ii, jj = np.divmod(flat, W)
    pc = np.stack([jj + 0.5, ii + 0.5], axis=1)
    nearest = dense_nearest(pc, pix[contour[:, 0]], pix[contour[:, 1]])
    va = ad.take(pix_var, contour[nearest, 0])
    vb = ad.take(pix_var, contour[nearest, 1])
    pa = tape.const(pc) - va
    ab_v = vb - va
    tt = ad.clamp((pa * ab_v).sum(axis=1, keepdims=True)
                  / ad.clamp((ab_v * ab_v).sum(axis=1, keepdims=True), 1e-30, 1e30),
                  0.0, 1.0)
    res = pa - tt * ab_v
    dist = ad.sqrt(ad.clamp((res * res).sum(axis=1), 1e-24, 1e60))
    sign = np.where(mask.reshape(-1)[flat], 1.0, -1.0)
    vals = ad.sigmoid(dist * (sign * sharpness))
    img = ad.scatter_into(mask.astype(np.float64).reshape(-1), flat, vals)
    return img.reshape((H, W)), frag


@pytest.fixture(scope="module")
def ac05_views(tmp_path_factory):
    """AC-05's ground-truth foot and its eight cameras: (mesh, cameras)."""
    model = fm.make_default_model(seed=0)
    asset, field = model
    gt = synth.random_scene_params(np.random.default_rng(23), field.d_s, field.d_p)
    spec = synth.SceneSpec(gt, arc=cam_mod.ArcSamplerConfig(width=160, height=120),
                           n_views=8, sigma_view_deg=5.0, seed=9)
    out = str(tmp_path_factory.mktemp("ac05"))
    synth.generate_scene(spec, model, out)
    _, cams, _ = synth.load_scene(out)
    return fm.forward_mesh(asset, field, gt), cams


def band_and_contour(mesh, cam, band=3.0):
    frag = rd.rasterize(mesh, cam)
    contour = rd._contour_edges(rd.ContourTopology.build(mesh), frag.front_faces)
    flat = rd._band_pixels(frag.mask, band)
    ii, jj = np.divmod(flat, cam.width)
    pc = np.stack([jj + 0.5, ii + 0.5], axis=1)
    pix, _ = rd._project_np(mesh.vertices, cam)
    return frag, pc, pix[contour[:, 0]], pix[contour[:, 1]]


class TestNearestEdge:
    def test_matches_dense_on_ac05_scene(self, ac05_views):
        mesh, cams = ac05_views
        for cam in cams:
            _, pc, a, b = band_and_contour(mesh, cam)
            assert len(pc) > 1000
            np.testing.assert_array_equal(rd._nearest_edge(pc, a, b, 4.5),
                                          dense_nearest(pc, a, b))

    def test_matches_dense_on_sphere(self):
        cam = front_cam(width=160, height=120, f=133.0)
        mesh = uv_sphere(np.array([0.01, -0.004, 0.4]), 0.07, n_lat=24, n_lon=48)
        _, pc, a, b = band_and_contour(mesh, cam)
        np.testing.assert_array_equal(rd._nearest_edge(pc, a, b, 4.5),
                                      dense_nearest(pc, a, b))

    def test_exact_tie_goes_to_lowest_row(self):
        # (2.5, 2.5) lies exactly 2 px from the segments at x = 0.5 and
        # x = 4.5; the segment at x = 9.5 is far
        pc = np.array([[2.5, 2.5], [9.5, 2.5]])
        for order in ([0.5, 4.5, 9.5], [4.5, 9.5, 0.5], [9.5, 4.5, 0.5]):
            x = np.array(order)
            a = np.stack([x, np.full(3, -3.0)], axis=1)
            b = np.stack([x, np.full(3, 8.0)], axis=1)
            got = rd._nearest_edge(pc, a, b, 4.5)
            np.testing.assert_array_equal(got, dense_nearest(pc, a, b))
            assert got[0] == min(order.index(0.5), order.index(4.5))

    def test_fallback_when_no_candidate_within_radius(self):
        rng = np.random.default_rng(4)
        a = rng.uniform(0.0, 60.0, size=(30, 2))
        b = a + rng.normal(scale=2.0, size=(30, 2))
        pc = rng.integers(0, 80, size=(400, 2)) + 0.5
        # at radius 0.5 most points find no segment near their cell and
        # take the dense search; some find only candidates beyond it
        for radius in (0.5, 2.0, 4.5):
            np.testing.assert_array_equal(rd._nearest_edge(pc, a, b, radius),
                                          dense_nearest(pc, a, b))


class TestBand:
    @pytest.mark.parametrize("band", [3.0, 4.25])
    def test_cropped_equals_full_image(self, ac05_views, band):
        mesh, cams = ac05_views
        masks = [rd.rasterize(mesh, cam).mask for cam in cams]
        edge = np.zeros((30, 40), dtype=bool)
        edge[:6, 35:] = True                  # touches two image borders
        one = np.zeros((30, 40), dtype=bool)
        one[15, 20] = True
        for mask in masks + [edge, one, ~one]:
            np.testing.assert_array_equal(rd._band_pixels(mask, band),
                                          full_band(mask, band))


class TestFusedSilhouette:
    @pytest.mark.parametrize("sharpness", [8.0, 40.0])
    def test_matches_op_chain(self, ac05_views, sharpness):
        mesh, cams = ac05_views
        topo = rd.ContourTopology.build(mesh)
        w = np.random.default_rng(3).normal(size=(cams[0].height, cams[0].width))
        for cam in cams[:3]:
            frag = rd.rasterize(mesh, cam)
            out = []
            for render in (rd.render_silhouette_soft_var, chain_silhouette):
                tape = ad.Tape()
                verts = tape.leaf(mesh.vertices)
                img, _ = render(verts, mesh.faces, cam, sharpness, frag, topo)
                out.append((img.value, tape.backward((img * w).sum())[verts]))
            (v_fused, g_fused), (v_chain, g_chain) = out
            # same expressions up to the order of a few float64 operations
            np.testing.assert_allclose(v_fused, v_chain, rtol=1e-12, atol=1e-15)
            scale = np.abs(g_chain).max()
            assert scale > 0
            np.testing.assert_allclose(g_fused, g_chain, rtol=0, atol=1e-12 * scale)

    def test_tape_freed_without_collector(self):
        cam = front_cam()
        mesh = quad_mesh(cx=0.011, half=0.08)
        gc.disable()
        try:
            tape = ad.Tape()
            ref = weakref.ref(tape)
            verts = tape.leaf(mesh.vertices)
            img, _ = rd.render_silhouette_soft_var(verts, mesh.faces, cam)
            n_map, _ = rd.render_normals_var(verts, mesh.faces, cam)
            tape.backward((img * img).sum() + n_map.sum())
            del tape, verts, img, n_map
            assert ref() is None
        finally:
            gc.enable()


class TestContours:
    def test_face_on_quad_has_four_contour_edges(self):
        cam = front_cam()
        mesh = quad_mesh()
        frag = rd.rasterize(mesh, cam)
        topo = rd.ContourTopology.build(mesh)
        contour = rd._contour_edges(topo, frag.front_faces)
        assert len(contour) == 4  # outer edges; the shared diagonal is not

    def test_sphere_contour_rings_silhouette(self):
        cam = front_cam()
        mesh = uv_sphere(np.array([0.0, 0.0, 0.4]), 0.06, n_lat=16, n_lon=32)
        frag = rd.rasterize(mesh, cam)
        topo = rd.ContourTopology.build(mesh)
        contour = rd._contour_edges(topo, frag.front_faces)
        assert len(contour) > 10
        pix, _ = rd._project_np(mesh.vertices, cam)
        r = np.linalg.norm(pix[contour].reshape(-1, 2) - [cam.cx, cam.cy], axis=1)
        r_sil = cam.fx * 0.06 / np.sqrt(0.4 ** 2 - 0.06 ** 2)
        assert np.abs(r - r_sil).max() < 1.5


class TestKeypoints:
    def test_projection_matches_camera_model(self):
        cam = front_cam()
        mesh = quad_mesh()
        norm, vis = rd.project_keypoints(mesh, [0, 1, 2, 3], cam)
        pix, _ = rd._project_np(mesh.vertices, cam)
        np.testing.assert_allclose(norm * [cam.width, cam.height], pix, atol=1e-12)
        assert vis.tolist() == [1, 1, 1, 1]

    def test_visibility_flags(self):
        cam = front_cam()
        v = np.array([[0.0, 0.0, 0.5],     # visible
                      [10.0, 0.0, 0.5],    # off image
                      [0.0, 0.0, -0.5]])   # behind camera
        mesh = Mesh(v, np.array([[0, 1, 2]]))
        _, vis = rd.project_keypoints(mesh, [0, 1, 2], cam)
        assert vis.tolist() == [1, 0, 0]

    def test_gradient_matches_fd(self):
        cam = front_cam()
        v = quad_mesh().vertices
        w = np.random.default_rng(3).standard_normal((4, 2))

        def loss(verts):
            norm, _ = rd.project_keypoints_var(verts, [0, 1, 2, 3], cam)
            return (norm * w).sum()

        assert ad.grad_check(loss, [v]) < 1e-4


class TestCutoffFraction:
    def test_split_coverage(self):
        cam = front_cam(width=64, height=64, f=80.0)
        lo = quad_mesh(cx=-0.08, cy=0.0, half=0.05, z=0.5)
        hi = quad_mesh(cx=0.08, cy=0.0, half=0.05, z=0.5)
        hi = hi.copy_with(hi.vertices + np.array([0.0, 0.0, 0.2]))
        hi.vertices[:, :2] *= 0.7 / 0.5  # same projected size at z=0.7
        both = Mesh(np.vstack([lo.vertices, hi.vertices]),
                    np.vstack([lo.faces, hi.faces + 4]))
        frac = rd.cutoff_fraction(both, 0.6, cam)
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_all_below_gives_zero(self):
        cam = front_cam()
        assert rd.cutoff_fraction(quad_mesh(z=0.5), 0.9, cam) == 0.0

    def test_empty_coverage_gives_zero(self):
        cam = front_cam()
        assert rd.cutoff_fraction(quad_mesh(cx=9.0), 0.2, cam) == 0.0
