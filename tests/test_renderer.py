import gc
import weakref
from dataclasses import replace

import numpy as np
import pytest
from scipy import ndimage

import chainref
from chainref import project_keypoints, rasterize_mesh, scatter_into
from footfit import autodiff as ad
from footfit import camera as cam_mod
from footfit import footmodel as fm
from footfit import losses
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


def pixel_depths(mesh, cam, frag):
    """Camera depth (H,W) of each covered pixel's surface point, 0 off
    coverage: sum over k of bary_k · z_k of its face's corners."""
    z = cam_mod.project([cam], mesh.vertices)[1][0, :, 2]
    depth = np.sum(frag.bary * z[mesh.faces[frag.face]], axis=2)
    return np.where(frag.mask, depth, 0.0)


def render_silhouette_soft(mesh, camera, sharpness=40.0):
    """Numpy soft silhouette (H,W): the hard mask with the band values of
    ``render_silhouette_soft_var`` written in; and the fragments."""
    proj, z = rd.project_vertices_var(ad.Tape().const(mesh.vertices), [camera])
    frag = rd.rasterize(mesh.faces, proj.value[0], z[0], camera)
    soft, (band,) = rd.render_silhouette_soft_var(
        proj, [camera], [frag], rd.ContourTopology.build(mesh), sharpness)
    img = frag.mask.astype(np.float64)
    img.reshape(-1)[band] = soft.value
    return img, frag


def bbox_rasterize(mesh, camera):
    """Reference rasterizer: every pixel centre in each front face's
    bounding box takes the edge test, and every inside candidate is
    sorted by (pixel, depth, face)."""
    H, W = camera.height, camera.width
    face_buf = np.full((H, W), -1, dtype=np.int64)
    bary_buf = np.zeros((H, W, 3))
    pix, cam_pts = cam_mod.project([camera], mesh.vertices)
    pix, z = pix[0], cam_pts[0, :, 2]
    tri = mesh.faces
    front = np.all(z[tri] > cam_mod.Z_NEAR, axis=1)

    p0, p1, p2 = (pix[tri[:, k]] for k in range(3))
    area2 = ((p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
             - (p1[:, 1] - p0[:, 1]) * (p2[:, 0] - p0[:, 0]))
    front &= area2 < -1e-14
    frag = rd.FragmentBuffer(face_buf, bary_buf, front)
    if not np.any(front):
        return frag

    fids = np.nonzero(front)[0]
    q0, q1, q2 = p0[fids], p1[fids], p2[fids]
    a2 = area2[fids]
    xs = np.stack([q0[:, 0], q1[:, 0], q2[:, 0]], axis=1)
    ys = np.stack([q0[:, 1], q1[:, 1], q2[:, 1]], axis=1)
    j0 = np.maximum(np.ceil(xs.min(axis=1) - 0.5), 0).astype(np.int64)
    j1 = np.minimum(np.floor(xs.max(axis=1) - 0.5), W - 1).astype(np.int64)
    i0 = np.maximum(np.ceil(ys.min(axis=1) - 0.5), 0).astype(np.int64)
    i1 = np.minimum(np.floor(ys.max(axis=1) - 0.5), H - 1).astype(np.int64)
    keep = (j1 >= j0) & (i1 >= i0)
    if not np.any(keep):
        return frag
    fids, q0, q1, q2, a2 = fids[keep], q0[keep], q1[keep], q2[keep], a2[keep]
    j0, j1, i0, i1 = j0[keep], j1[keep], i0[keep], i1[keep]

    bw = j1 - j0 + 1
    bh = i1 - i0 + 1
    counts = bw * bh
    total = int(counts.sum())
    cand = np.repeat(np.arange(len(fids)), counts)
    base = np.repeat(np.cumsum(counts) - counts, counts)
    off = np.arange(total) - base
    jj = j0[cand] + off % bw[cand]
    ii = i0[cand] + off // bw[cand]
    px_c = jj + 0.5
    py_c = ii + 0.5

    c0, c1, c2 = q0[cand], q1[cand], q2[cand]
    w0 = (c2[:, 0] - c1[:, 0]) * (py_c - c1[:, 1]) - (c2[:, 1] - c1[:, 1]) * (px_c - c1[:, 0])
    w1 = (c0[:, 0] - c2[:, 0]) * (py_c - c2[:, 1]) - (c0[:, 1] - c2[:, 1]) * (px_c - c2[:, 0])
    w2 = (c1[:, 0] - c0[:, 0]) * (py_c - c0[:, 1]) - (c1[:, 1] - c0[:, 1]) * (px_c - c0[:, 0])
    inside = (w0 <= 0) & (w1 <= 0) & (w2 <= 0)
    if not np.any(inside):
        return frag
    cand, jj, ii = cand[inside], jj[inside], ii[inside]
    lam = np.stack([w0[inside], w1[inside], w2[inside]], axis=1) / a2[cand][:, None]

    zt = z[tri[fids]]
    inv_z = lam / zt[cand]
    inv_sum = inv_z.sum(axis=1)
    depth = 1.0 / inv_sum
    bary = inv_z / inv_sum[:, None]

    flat = ii * W + jj
    global_face = fids[cand]
    order = np.lexsort((global_face, depth, flat))
    flat_s = flat[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = flat_s[1:] != flat_s[:-1]
    sel = order[first]

    face_buf.reshape(-1)[flat[sel]] = global_face[sel]
    bary_buf.reshape(-1, 3)[flat[sel]] = bary[sel]
    return frag


def assert_same_fragments(mesh, cam):
    got, ref = rasterize_mesh(mesh, cam), bbox_rasterize(mesh, cam)
    for name in ("face", "bary", "front_faces"):
        np.testing.assert_array_equal(getattr(got, name), getattr(ref, name), err_msg=name)
    return got


def adversarial_triangles(rng, n, width, height):
    """``n`` triangles in pixel coordinates that stress the span ends:
    sub-pixel triangles, edges on or within 1e-12 of a pixel-centre row or
    column, vertices on pixel centres, slivers, triangles larger than the
    image or far outside it, and triangles with one vertex on a pixel
    centre and two on a 0.1 px grid, whose edges pass through further
    pixel centres up to rounding."""
    tris = []
    for kind in range(n):
        c = rng.uniform(-5.0, [width + 5.0, height + 5.0])
        p = c + rng.uniform(-8.0, 8.0, (3, 2))
        kind %= 8
        if kind == 0:
            p = c + rng.uniform(-0.6, 0.6, (3, 2))
        elif kind in (1, 2):                  # axis 1: rows, axis 0: columns
            axis = 2 - kind
            p[0, axis] = np.floor(p[0, axis]) + 0.5
            p[1, axis] = p[0, axis] + rng.choice([0.0, 1e-12, -1e-12, 5e-324])
        elif kind == 3:
            p = np.floor(p) + 0.5
        elif kind == 4:
            d = rng.normal(size=2)
            d /= np.linalg.norm(d)
            b = c + d * rng.uniform(2.0, 30.0)
            p = np.stack([c, b, (c + b) / 2 + rng.choice([1e-9, 1e-6, 1e-3, 0.3])
                          * np.array([-d[1], d[0]])])
        elif kind == 5:
            p = c + rng.uniform(-40.0, 40.0, (3, 2))
        elif kind == 6:
            p = np.round(c + rng.uniform(-25.0, 25.0, (3, 2)), 1)
            p[0] = np.floor(p[0]) + 0.5
        else:
            p = c + rng.uniform(-1.0, 1.0, (3, 2)) * rng.choice([1e3, 1e6, 1e9])
        tris.append(p)
    return tris


class TestRasterize:
    def test_matches_bounding_box_reference_on_scenes(self, ac05_views):
        mesh, cams = ac05_views
        arc = cam_mod.ArcSamplerConfig(width=480, height=640)
        rng = np.random.default_rng(9)
        hires = [cam_mod.sample_arc(arc, rng) for _ in range(3)]
        for cam in cams + hires:
            assert_same_fragments(mesh, cam).mask.sum() > 1000

    def test_matches_bounding_box_reference_near_plane_and_soups(self):
        # a sphere pulled onto a camera's near plane: its near pole and
        # three vertices of the last ring move to depths 0 to 3·Z_NEAR, so
        # the faces around them are culled or project millions of px wide
        sphere = uv_sphere(np.array([0.02, -0.01, 0.07]), 0.06, n_lat=12, n_lon=24)
        last = len(sphere.vertices) - 24
        sphere.vertices[1, 2] = 2 * cam_mod.Z_NEAR
        sphere.vertices[last:last + 3, 2] = [cam_mod.Z_NEAR, 0.0, 3 * cam_mod.Z_NEAR]
        frag = assert_same_fragments(sphere, front_cam(width=80, height=60))
        near = np.nonzero(sphere.vertices[sphere.faces, 2].min(axis=1) < 1e-4)[0]
        assert np.isin(frag.face, near).any()
        cam = front_cam(width=40, height=30, f=50.0)
        for seed in range(12):
            assert_same_fragments(random_soup(np.random.default_rng(seed)), cam)

    def test_matches_bounding_box_reference_on_adversarial_triangles(self):
        # a camera whose pixel coordinates are the vertices' x and y at z = 1
        W, H = 40, 30
        cam = Camera(fx=1.0, fy=1.0, cx=0.0, cy=0.0, width=W, height=H,
                     R=np.eye(3), t=np.zeros(3))
        covered = 0
        for p in adversarial_triangles(np.random.default_rng(11), 3000, W, H):
            verts = np.column_stack([p, np.ones(3)])
            for winding in ([0, 1, 2], [0, 2, 1]):
                covered += assert_same_fragments(Mesh(verts, np.array([winding])),
                                                 cam).mask.sum()
        assert covered > 0

    def test_matches_brute_force(self):
        cam = front_cam(width=40, height=30, f=50.0)
        for seed in range(6):
            mesh = random_soup(np.random.default_rng(seed))
            frag = rasterize_mesh(mesh, cam)
            face_bf, depth_bf = brute_force_raster(mesh, cam)
            ok = frag.face == face_bf
            # pixels whose two candidate depths differ by <1e-9 may resolve
            # either way; none occur in these seeds but guard the diff report
            assert ok.all(), f"seed {seed}: {np.count_nonzero(~ok)} pixels differ"
            covered = face_bf >= 0
            np.testing.assert_allclose(pixel_depths(mesh, cam, frag)[covered],
                                       depth_bf[covered], rtol=1e-9)

    def test_depth_is_ray_plane_intersection(self):
        cam = front_cam()
        v = np.array([[-0.1, -0.1, 0.4], [-0.1, 0.3, 0.6], [0.3, -0.1, 0.8]])
        mesh = Mesh(v, np.array([[0, 1, 2]]))
        frag = rasterize_mesh(mesh, cam)
        assert frag.mask.any()
        n = np.cross(v[1] - v[0], v[2] - v[0])
        depth = pixel_depths(mesh, cam, frag)
        ii, jj = np.nonzero(frag.mask)
        for i, j in list(zip(ii, jj))[::7]:
            d = np.array([(j + 0.5 - cam.cx) / cam.fx, (i + 0.5 - cam.cy) / cam.fy, 1.0])
            z_hit = np.dot(n, v[0]) / np.dot(n, d)
            assert depth[i, j] == pytest.approx(z_hit, rel=1e-10)

    def test_backface_culled(self):
        cam = front_cam()
        quad = quad_mesh()
        flipped = Mesh(quad.vertices, quad.faces[:, ::-1])
        assert not rasterize_mesh(flipped, cam).mask.any()

    def test_nearer_surface_wins(self):
        cam = front_cam()
        near = quad_mesh(z=0.4)
        far = quad_mesh(z=0.9)
        both = Mesh(np.vstack([far.vertices, near.vertices]),
                    np.vstack([far.faces, near.faces + 4]))
        frag = rasterize_mesh(both, cam)
        center = frag.face[cam.height // 2, cam.width // 2]
        assert center >= 2  # one of the near quad's faces
        depth = pixel_depths(both, cam, frag)
        assert depth[cam.height // 2, cam.width // 2] == pytest.approx(0.4)

    def test_behind_camera_dropped(self):
        cam = front_cam()
        assert not rasterize_mesh(quad_mesh(z=-0.5), cam).mask.any()

    def test_deterministic(self):
        cam = front_cam()
        mesh = random_soup(np.random.default_rng(9))
        a = rasterize_mesh(mesh, cam)
        b = rasterize_mesh(mesh, cam)
        assert np.array_equal(a.face, b.face)
        assert np.array_equal(a.bary, b.bary)
        assert np.array_equal(pixel_depths(mesh, cam, a), pixel_depths(mesh, cam, b))

    def test_barycentric_weights_sum_to_one(self):
        cam = front_cam()
        mesh = random_soup(np.random.default_rng(2))
        frag = rasterize_mesh(mesh, cam)
        s = frag.bary[frag.mask].sum(axis=1)
        np.testing.assert_allclose(s, 1.0, atol=1e-12)
        assert (frag.bary[frag.mask] >= -1e-12).all()


class TestRenderNormals:
    def test_flat_quad_normal(self):
        cam = front_cam()
        frag = rasterize_mesh(quad_mesh(), cam)
        img = rd.render_normals(quad_mesh(), cam, frag)
        assert frag.mask.any()
        np.testing.assert_allclose(img[frag.mask], [[0, 0, -1]] * frag.mask.sum(),
                                   atol=1e-12)
        assert np.all(img[~frag.mask] == 0)

    def test_sphere_normals_match_analytic(self):
        cam = front_cam(width=160, height=120, f=133.0)
        center = np.array([0.02, -0.01, 0.35])
        mesh = uv_sphere(center, 0.08)
        frag = rasterize_mesh(mesh, cam)
        img = rd.render_normals(mesh, cam, frag)
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
            frag = rasterize_mesh(mesh, cam)
            img = rd.render_normals(mesh, cam, frag)
            assert (img[frag.mask][:, 2] < 0).all()

    def test_gradient_matches_fd(self):
        cam = front_cam(width=32, height=24, f=40.0)
        v = np.array([[-0.06, -0.05, 0.40], [0.07, -0.04, 0.50], [0.00, 0.08, 0.45]])
        faces = np.array([[0, 2, 1]])
        frag = rasterize_mesh(Mesh(v, faces), cam)
        assert frag.mask.any()
        w = np.random.default_rng(5).standard_normal((24, 32, 3))

        def loss(verts):
            n_world = rd.vertex_normals_var(verts, faces)
            rows = rd.render_normals_var(n_world, faces, [cam], [frag],
                                         [np.flatnonzero(frag.mask)])
            return (rows * w[frag.mask]).sum()

        assert ad.grad_check(loss, [v]) < 1e-4

    def test_rerender_bit_identical(self):
        cam = front_cam()
        mesh = uv_sphere(np.array([0.0, 0.0, 0.4]), 0.06, n_lat=12, n_lon=24)
        a = rd.render_normals(mesh, cam, rasterize_mesh(mesh, cam))
        b = rd.render_normals(mesh, cam, rasterize_mesh(mesh, cam))
        assert np.array_equal(a, b)


class TestSoftSilhouette:
    def test_interior_saturates(self):
        cam = front_cam()
        img, frag = render_silhouette_soft(quad_mesh(half=0.1), cam)
        inner = img[20:28, 28:36]
        assert (inner > 0.999).all()

    def test_empty_coverage_all_zero(self):
        cam = front_cam()
        img, _ = render_silhouette_soft(quad_mesh(cx=5.0), cam)
        assert img.shape == (48, 64)
        assert np.count_nonzero(img) == 0

    def test_one_pixel_shift_equivariance(self):
        cam = front_cam()
        mesh = quad_mesh(cx=0.0131, cy=0.0077, z=0.5)
        img0, _ = render_silhouette_soft(mesh, cam)
        dx = 0.5 / cam.fx  # one pixel at this depth
        shifted = mesh.copy_with(mesh.vertices + np.array([dx, 0.0, 0.0]))
        img1, _ = render_silhouette_soft(shifted, cam)
        assert np.abs(img1[:, 1:] - img0[:, :-1]).max() < 1e-3

    def test_half_level_tracks_hard_mask(self):
        cam = front_cam(width=160, height=120, f=133.0)
        mesh = uv_sphere(np.array([0.01, 0.0, 0.4]), 0.07, n_lat=24, n_lon=48)
        img, frag = render_silhouette_soft(mesh, cam)
        disagree = (img > 0.5) != frag.mask
        if disagree.any():
            from scipy import ndimage
            edge_dist = ndimage.distance_transform_edt(
                frag.mask == ndimage.binary_erosion(frag.mask))
            assert edge_dist[disagree].max() <= 2.0

    def test_sharpness_controls_transition(self):
        cam = front_cam()
        mesh = quad_mesh(cx=0.0113, half=0.08)
        soft_lo, frag = render_silhouette_soft(mesh, cam, sharpness=5.0)
        soft_hi, _ = render_silhouette_soft(mesh, cam, sharpness=60.0)
        hard = frag.mask.astype(float)
        assert np.abs(soft_hi - hard).sum() < np.abs(soft_lo - hard).sum()

    def test_gradient_matches_fd(self):
        cam = front_cam(width=32, height=24, f=40.0)
        mesh = quad_mesh(cx=0.011, cy=0.007, half=0.09, z=0.5)
        frag = rasterize_mesh(mesh, cam)
        topo = rd.ContourTopology.build(mesh)
        w = np.random.default_rng(8).standard_normal((24, 32))

        def loss(verts):
            proj, _ = rd.project_vertices_var(verts, [cam])
            soft, (band,) = rd.render_silhouette_soft_var(proj, [cam], [frag], topo,
                                                          sharpness=8.0)
            return (soft * w.reshape(-1)[band]).sum()

        assert ad.grad_check(loss, [mesh.vertices]) < 1e-4

    def test_grows_when_quad_grows(self):
        cam = front_cam()
        mesh = quad_mesh(half=0.05)
        tape = ad.Tape()
        verts = tape.leaf(mesh.vertices)
        proj, _ = rd.project_vertices_var(verts, [cam])
        soft, _ = rd.render_silhouette_soft_var(
            proj, [cam], [rasterize_mesh(mesh, cam)], rd.ContourTopology.build(mesh))
        grads = tape.backward(soft.sum())
        g = grads[verts]
        # outward motion of each corner increases total coverage
        outward = mesh.vertices[:, :2] - mesh.vertices[:, :2].mean(axis=0)
        assert (np.sum(g[:, :2] * outward, axis=1) > 0).all()

    def test_rejects_bad_sharpness(self):
        cam = front_cam()
        with pytest.raises(ValueError):
            render_silhouette_soft(quad_mesh(), cam, sharpness=0.0)


# ---------------------------------------------------------------------------
# References for the fast paths: the op-by-op projection chain, the dense
# nearest-edge search, the full-image band and the op-by-op silhouette chain.

def chain_project(verts, cam):
    """One camera's projection as a chain of small tape ops: pixels (V,2)
    as a Var, like one view of ``project_vertices_var``."""
    tape = verts.tape
    cam_pts = verts @ tape.const(cam.R.T) + tape.const(cam.t)
    z_safe = ad.clamp(cam_pts[:, 2:3], cam_mod.Z_NEAR, 1e12)
    px = cam_pts[:, 0:1] * cam.fx / z_safe + cam.cx
    py = cam_pts[:, 1:2] * cam.fy / z_safe + cam.cy
    return ad.concat([px, py], axis=1)


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


def edt_band(mask, band):
    """The band from two distance transforms on the mask's bounding box
    grown by ``ceil(band + 2)`` px and clipped to the image."""
    H, W = mask.shape
    grow = int(np.ceil(band + 2.0))
    rows = np.nonzero(mask.any(axis=1))[0]
    cols = np.nonzero(mask.any(axis=0))[0]
    r0, r1 = max(rows[0] - grow, 0), min(rows[-1] + grow + 1, H)
    c0, c1 = max(cols[0] - grow, 0), min(cols[-1] + grow + 1, W)
    crop = mask[r0:r1, c0:c1]
    dist = np.where(crop, ndimage.distance_transform_edt(crop),
                    ndimage.distance_transform_edt(~crop))
    ii, jj = np.nonzero(dist <= band + 1.5)
    return (ii + r0) * W + (jj + c0)


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
    pix_var = chain_project(verts, cam)
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
    img = scatter_into(mask.astype(np.float64).reshape(-1), flat, vals)
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
    frag = rasterize_mesh(mesh, cam)
    contour = rd._contour_edges(rd.ContourTopology.build(mesh), frag.front_faces)
    flat = rd._band_pixels(frag.mask, band)
    ii, jj = np.divmod(flat, cam.width)
    pc = np.stack([jj + 0.5, ii + 0.5], axis=1)
    pix = cam_mod.project([cam], mesh.vertices)[0][0]
    return frag, pc, pix[contour[:, 0]], pix[contour[:, 1]]


class TestFusedProjection:
    def check_against_chain(self, mesh, cams):
        w = np.random.default_rng(6).normal(size=(len(cams), len(mesh.vertices), 2))
        tape = ad.Tape()
        verts = tape.leaf(mesh.vertices)
        pix, z = rd.project_vertices_var(verts, cams)
        g_fused = tape.backward((pix * w).sum())[verts]
        tape = ad.Tape()
        verts = tape.leaf(mesh.vertices)
        chain = [chain_project(verts, cam) for cam in cams]
        g_chain = tape.backward(sum((c * w[v]).sum() for v, c in enumerate(chain)))[verts]
        for view, cam in enumerate(cams):
            np.testing.assert_array_equal(pix.value[view], chain[view].value)
            np.testing.assert_array_equal(z[view], (mesh.vertices @ cam.R.T + cam.t)[:, 2])
        scale = np.abs(g_chain).max()
        assert scale > 0
        np.testing.assert_allclose(g_fused, g_chain, rtol=0, atol=1e-15 * scale)
        return z

    def test_matches_chain_on_ac05_views(self, ac05_views):
        self.check_against_chain(*ac05_views)

    def test_matches_chain_at_and_behind_near_plane(self):
        # a sphere around the near plane of a camera at the origin, with
        # vertices at, just behind and just in front of it; a second
        # camera sees all of it
        mesh = uv_sphere(np.array([0.02, -0.01, 0.05]), 0.06, n_lat=12, n_lon=24)
        mesh.vertices[:3, 2] = [cam_mod.Z_NEAR, 0.0, -cam_mod.Z_NEAR]
        R, t = cam_mod.look_at([0.3, 0.1, -0.4], [0.0, 0.0, 0.05])
        side = Camera(fx=90.0, fy=90.0, cx=40.0, cy=30.0, width=80, height=60, R=R, t=t)
        z = self.check_against_chain(mesh, [front_cam(width=80, height=60), side])
        assert (z[0] < cam_mod.Z_NEAR).any() and (z[0] == cam_mod.Z_NEAR).any()
        assert (z[0] > cam_mod.Z_NEAR).any() and (z[1] > cam_mod.Z_NEAR).all()


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
    # band 3.5 reaches exactly 5 px, which offsets (3, 4) and (5, 0) lie
    # on; the widths 12/sharpness reach (band + 1.5) about 8.56, 6.3, 5.14
    # and 4.74 px, none a half-integer
    @pytest.mark.parametrize("band", [3.0, 3.5, 4.25] + [
        pytest.param(12.0 / s, id=f"sharpness{s}") for s in (1.7, 2.5, 3.3, 3.7)])
    def test_cropped_equals_full_image(self, ac05_views, band):
        mesh, cams = ac05_views
        masks = [rasterize_mesh(mesh, cam).mask for cam in cams]
        edge = np.zeros((30, 40), dtype=bool)
        edge[:6, 35:] = True                  # touches two image borders
        one = np.zeros((30, 40), dtype=bool)
        one[15, 20] = True
        rng = np.random.default_rng(5)
        holes = np.zeros((40, 50), dtype=bool)
        holes[5:35, 4:46] = True
        holes[rng.integers(5, 35, 12), rng.integers(4, 46, 12)] = False
        holes[15:19, 20:30] = False
        row = np.zeros((30, 40), dtype=bool)
        row[12, 3:37] = True
        col = np.zeros((30, 40), dtype=bool)
        col[:, 17] = True
        speckle = rng.uniform(size=(30, 40)) < 0.3
        big = np.zeros((640, 480), dtype=bool)
        ii, jj = np.mgrid[:640, :480]
        big[((ii - 330) / 250.0) ** 2 + ((jj - 200) / 130.0) ** 2 <= 1.0] = True
        big[600:, 300:] = True                # reaches two image borders
        for mask in masks + [edge, one, ~one, holes, ~holes, row, col, ~col,
                             speckle, big]:
            got = rd._band_pixels(mask, band)
            np.testing.assert_array_equal(got, edt_band(mask, band))
            np.testing.assert_array_equal(got, full_band(mask, band))


@pytest.fixture(scope="module")
def hires_views(ac05_views):
    """AC-05's ground-truth foot and three 480×640 cameras on its arc."""
    mesh, _ = ac05_views
    rng = np.random.default_rng(9)
    return mesh, [cam_mod.sample_arc(cam_mod.ArcSamplerConfig(), rng) for _ in range(3)]


class TestFusedNormals:
    @pytest.mark.parametrize("views", ["ac05", "hires", "blind"])
    def test_normal_path_matches_op_chain(self, ac05_views, hires_views, views):
        # vertex normals -> pixel normals -> normal loss, one node each,
        # against the op chains; "blind" adds a view that scores no pixel
        mesh, cams = hires_views if views == "hires" else ac05_views
        cams = list(cams)
        if views == "blind":
            cams.append(replace(cams[0], t=cams[0].t + np.array([5.0, 0.0, 0.0])))
        frags = [rasterize_mesh(mesh, cam) for cam in cams]
        rng = np.random.default_rng(4)
        scored = [np.flatnonzero(f.mask & (rng.uniform(size=f.mask.shape) < 0.8))
                  for f in frags]
        obs = []
        for cam, frag in zip(cams, frags):
            mu = rd.render_normals(mesh, cam, frag) + rng.normal(size=(*frag.mask.shape, 3)) * 0.3
            obs.append(losses.NormalObservation(
                mu / np.linalg.norm(mu, axis=2, keepdims=True),
                rng.uniform(0.5, 20.0, size=frag.mask.shape)))
        assert views != "blind" or scored[-1].size == 0

        def run(vertex_normals, render, loss):
            tape = ad.Tape()
            verts = tape.leaf(mesh.vertices)
            n_world = vertex_normals(verts, mesh.faces)
            rows = render(n_world, mesh.faces, cams, frags, scored)
            out = loss(rows, obs, scored)
            return n_world.value, rows.value, out.value, tape.backward(out)[verts]

        fused = run(rd.vertex_normals_var, rd.render_normals_var, losses.normal_fit_loss)
        chain = run(chainref.vertex_normals_var, chainref.render_normals_var,
                    chainref.normal_fit_loss)
        # the forward runs the same float operations in the same order
        for got, want in zip(fused[:3], chain[:3]):
            assert np.array_equal(got, want)
        # the cotangents are summed in another order
        scale = np.abs(chain[3]).max()
        assert scale > 0
        np.testing.assert_allclose(fused[3], chain[3], rtol=0, atol=1e-13 * scale)


class TestFusedSilhouette:
    @pytest.mark.parametrize("sharpness", [8.0, 40.0])
    def test_matches_op_chain(self, ac05_views, sharpness):
        # three views in one call: one edge node over the rows of all views
        mesh, cams = ac05_views
        cams = cams[:3]
        topo = rd.ContourTopology.build(mesh)
        frags = [rasterize_mesh(mesh, cam) for cam in cams]
        w = np.random.default_rng(3).normal(size=(3, cams[0].height, cams[0].width))

        tape = ad.Tape()
        verts = tape.leaf(mesh.vertices)
        proj, _ = rd.project_vertices_var(verts, cams)
        soft, bands = rd.render_silhouette_soft_var(proj, cams, frags, topo, sharpness)
        w_band = np.concatenate([w[v].reshape(-1)[b] for v, b in enumerate(bands)])
        g_fused = tape.backward((soft * w_band).sum())[verts]
        v_fused = np.stack([f.mask.astype(np.float64) for f in frags])
        rows = np.split(soft.value, np.cumsum([len(b) for b in bands])[:-1])
        for img, band, vals in zip(v_fused, bands, rows):
            img.reshape(-1)[band] = vals

        tape = ad.Tape()
        verts = tape.leaf(mesh.vertices)
        chain = [chain_silhouette(verts, mesh.faces, cam, sharpness, frag, topo)[0]
                 for cam, frag in zip(cams, frags)]
        g_chain = tape.backward(sum((img * w[v]).sum() for v, img in enumerate(chain)))[verts]
        v_chain = np.stack([img.value for img in chain])
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
            frag = rasterize_mesh(mesh, cam)
            proj, _ = rd.project_vertices_var(verts, [cam])
            soft, _ = rd.render_silhouette_soft_var(
                proj, [cam], [frag], rd.ContourTopology.build(mesh))
            n_world = rd.vertex_normals_var(verts, mesh.faces)
            n_pix = rd.render_normals_var(n_world, mesh.faces, [cam], [frag],
                                          [np.flatnonzero(frag.mask)])
            tape.backward((soft * soft).sum() + n_pix.sum())
            del tape, verts, proj, soft, n_world, n_pix
            assert ref() is None
        finally:
            gc.enable()


class TestContours:
    def test_face_on_quad_has_four_contour_edges(self):
        cam = front_cam()
        mesh = quad_mesh()
        frag = rasterize_mesh(mesh, cam)
        topo = rd.ContourTopology.build(mesh)
        contour = rd._contour_edges(topo, frag.front_faces)
        assert len(contour) == 4  # outer edges; the shared diagonal is not

    def test_sphere_contour_rings_silhouette(self):
        cam = front_cam()
        mesh = uv_sphere(np.array([0.0, 0.0, 0.4]), 0.06, n_lat=16, n_lon=32)
        frag = rasterize_mesh(mesh, cam)
        topo = rd.ContourTopology.build(mesh)
        contour = rd._contour_edges(topo, frag.front_faces)
        assert len(contour) > 10
        pix = cam_mod.project([cam], mesh.vertices)[0][0]
        r = np.linalg.norm(pix[contour].reshape(-1, 2) - [cam.cx, cam.cy], axis=1)
        r_sil = cam.fx * 0.06 / np.sqrt(0.4 ** 2 - 0.06 ** 2)
        assert np.abs(r - r_sil).max() < 1.5


class TestKeypoints:
    def test_projection_matches_camera_model(self):
        cam = front_cam()
        v = quad_mesh().vertices
        norm, vis = project_keypoints(v, [0, 1, 2, 3], [cam])
        pix = cam.fx * v[:, :2] / v[:, 2:] + [cam.cx, cam.cy]
        np.testing.assert_allclose(norm[0] * [cam.width, cam.height], pix, atol=1e-12)
        assert vis.tolist() == [[1, 1, 1, 1]]

    def test_visibility_flags(self):
        cam = front_cam()
        v = np.array([[0.0, 0.0, 0.5],              # visible
                      [10.0, 0.0, 0.5],             # off image
                      [0.0, 0.0, -0.5],             # behind camera
                      [0.0, 0.0, cam_mod.Z_NEAR],   # on the near plane
                      [0.0, 0.0, 2 * cam_mod.Z_NEAR]])
        _, vis = project_keypoints(v, [0, 1, 2, 3, 4], [cam])
        assert vis.tolist() == [[1, 0, 0, 0, 1]]

    def test_gradient_matches_fd(self):
        cam = front_cam()
        v = quad_mesh().vertices
        w = np.random.default_rng(3).standard_normal((4, 2))

        def loss(verts):
            proj = rd.project_vertices_var(verts, [cam])
            norm, _ = rd.project_keypoints_var(proj, [0, 1, 2, 3], [cam])
            return (norm[0] * w).sum()

        assert ad.grad_check(loss, [v]) < 1e-4

    def test_repeated_ids_rejected(self):
        cam = front_cam()
        proj = rd.project_vertices_var(ad.Tape().leaf(quad_mesh().vertices), [cam])
        with pytest.raises(ValueError, match="distinct"):
            rd.project_keypoints_var(proj, [0, 1, 0], [cam])


class TestCutoffFraction:
    def test_split_coverage(self):
        cam = front_cam(width=64, height=64, f=80.0)
        lo = quad_mesh(cx=-0.08, cy=0.0, half=0.05, z=0.5)
        hi = quad_mesh(cx=0.08, cy=0.0, half=0.05, z=0.5)
        hi = hi.copy_with(hi.vertices + np.array([0.0, 0.0, 0.2]))
        hi.vertices[:, :2] *= 0.7 / 0.5  # same projected size at z=0.7
        both = Mesh(np.vstack([lo.vertices, hi.vertices]),
                    np.vstack([lo.faces, hi.faces + 4]))
        frac = rd.cutoff_fraction(both, 0.6, rasterize_mesh(both, cam))
        assert frac == pytest.approx(0.5, abs=0.02)

    def test_all_below_gives_zero(self):
        cam = front_cam()
        mesh = quad_mesh(z=0.5)
        assert rd.cutoff_fraction(mesh, 0.9, rasterize_mesh(mesh, cam)) == 0.0

    def test_empty_coverage_gives_zero(self):
        cam = front_cam()
        mesh = quad_mesh(cx=9.0)
        assert rd.cutoff_fraction(mesh, 0.2, rasterize_mesh(mesh, cam)) == 0.0
