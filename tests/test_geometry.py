import numpy as np
import pytest

from footfit import autodiff as ad
from footfit import geometry as geo
from footfit.renderer import vertex_normals_var


def make_cube():
    """Unit cube triangulated so each square's diagonal joins even-parity
    corners; every corner then averages its three face planes equally."""
    verts = np.array([[x, y, z] for z in (0, 1) for y in (0, 1) for x in (0, 1)], float)
    center = verts.mean(axis=0)
    quads = []
    for axis in range(3):
        for side in (0, 1):
            ids = [i for i, v in enumerate(verts) if v[axis] == side]
            quads.append((axis, side, ids))
    faces = []
    for axis, side, ids in quads:
        even = [i for i in ids if int(verts[i].sum()) % 2 == 0]
        odd = [i for i in ids if i not in even]
        for o in odd:
            tri = [even[0], even[1], o]
            n = np.cross(verts[tri[1]] - verts[tri[0]], verts[tri[2]] - verts[tri[0]])
            outward = verts[tri].mean(axis=0) - center
            if np.dot(n, outward) < 0:
                tri = [tri[0], tri[2], tri[1]]
            faces.append(tri)
    return geo.Mesh(verts, np.array(faces))


def uv_sphere(n_lat=24, n_lon=48, radius=1.0):
    verts = [np.array([0.0, 0.0, radius]), np.array([0.0, 0.0, -radius])]
    rows = []
    for i in range(1, n_lat):
        th = np.pi * i / n_lat
        row = []
        for j in range(n_lon):
            ph = 2 * np.pi * j / n_lon
            row.append(len(verts))
            verts.append(radius * np.array(
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
    return geo.Mesh(np.array(verts), np.array(faces))


def vertex_normals(mesh):
    """The pipeline's vertex normals, evaluated on a constant tape."""
    return vertex_normals_var(ad.Tape().const(mesh.vertices), mesh.faces).value


class TestVertexNormals:
    def test_cube_corner(self):
        mesh = make_cube().validate()
        normals = vertex_normals(mesh)
        expected = (mesh.vertices - 0.5)
        expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        np.testing.assert_allclose(normals, expected, atol=1e-12)

    def test_flat_triangle(self):
        mesh = geo.Mesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float),
                        np.array([[0, 1, 2]]))
        np.testing.assert_allclose(vertex_normals(mesh), [[0, 0, 1]] * 3, atol=1e-15)

    def test_sphere_normals_radial(self):
        mesh = uv_sphere()
        n = vertex_normals(mesh)
        radial = mesh.vertices / np.linalg.norm(mesh.vertices, axis=1, keepdims=True)
        ang = np.degrees(np.arccos(np.clip(np.sum(n * radial, axis=1), -1, 1)))
        assert ang.max() < 5.0

    def test_cube_watertight(self):
        assert make_cube().is_watertight()
        tri = geo.Mesh(np.eye(3), np.array([[0, 1, 2]]))
        assert not tri.is_watertight()


class TestSampleSurface:
    def test_area_proportional(self):
        verts = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 0],
                          [10, 0, 0], [13, 0, 0], [10, 2, 0]], float)
        faces = np.array([[0, 1, 2], [3, 4, 5]])
        mesh = geo.Mesh(verts, faces)
        n = 40_000
        s = geo.sample_surface(mesh, n, seed=0)
        count0 = int(np.sum(s.face_ids == 0))
        p = 1.0 / 4.0
        sigma = np.sqrt(n * p * (1 - p))
        assert abs(count0 - n * p) < 3 * sigma

    def test_point_inside_triangle(self):
        mesh = geo.Mesh(np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float),
                        np.array([[0, 1, 2]]))
        s = geo.sample_surface(mesh, 1, seed=3)
        x, y, z = s.points[0]
        assert z == 0 and x >= 0 and y >= 0 and x + y <= 1

    def test_same_seed_identical(self):
        mesh = make_cube()
        a = geo.sample_surface(mesh, 100, seed=42)
        b = geo.sample_surface(mesh, 100, seed=42)
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.face_ids, b.face_ids)

    def test_chi_square_against_areas(self):
        from scipy.stats import chisquare
        mesh = make_cube()
        n = 20_000
        s = geo.sample_surface(mesh, n, seed=11)
        counts = np.bincount(s.face_ids, minlength=len(mesh.faces))
        areas = mesh.face_areas()
        expected = n * areas / areas.sum()
        _, p = chisquare(counts, expected)
        assert p > 0.001

    def test_zero_count_rejected(self):
        with pytest.raises(ValueError):
            geo.sample_surface(make_cube(), 0, seed=0)


class TestNearestNeighbors:
    def test_self_query(self):
        pts = np.random.default_rng(0).normal(size=(50, 3))
        idx, dist = geo.nearest_neighbors(pts, pts)
        np.testing.assert_array_equal(idx, np.arange(50))
        np.testing.assert_array_equal(dist, np.zeros(50))

    def test_hand_case(self):
        idx, dist = geo.nearest_neighbors(np.zeros((1, 3)),
                                          np.array([[1, 0, 0], [0, 2, 0]], float))
        assert idx[0] == 0 and dist[0] == 1.0

    def test_empty_target_rejected(self):
        with pytest.raises(ValueError):
            geo.nearest_neighbors(np.zeros((1, 3)), np.zeros((0, 3)))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            nq = int(rng.integers(1, 400))
            nt = int(rng.integers(1, 2000))
            q = rng.normal(size=(nq, 3))
            t = rng.normal(size=(nt, 3))
            idx, dist = geo.nearest_neighbors(q, t)
            d2 = np.sum((q[:, None, :] - t[None, :, :]) ** 2, axis=2)
            brute = np.argmin(d2, axis=1)
            np.testing.assert_array_equal(idx, brute)
            np.testing.assert_allclose(dist, np.sqrt(d2[np.arange(nq), brute]), rtol=1e-12)


def plane_sample(n=200, seed=1):
    rng = np.random.default_rng(seed)
    pts = np.zeros((n, 3))
    pts[:, 0] = rng.integers(0, 40, n) * 0.005
    pts[:, 1] = rng.integers(0, 40, n) * 0.005
    normals = np.tile([0.0, 0.0, 1.0], (n, 1))
    return geo.SurfaceSample(pts, normals)


class TestChamferStats:
    def test_identical_zero(self):
        a = plane_sample()
        stats = geo.chamfer_stats(a, a)
        assert all(v == 0.0 for v in stats.values())

    def test_translated_plane(self):
        a = plane_sample()
        b = geo.SurfaceSample(a.points + [0, 0, 0.001], a.normals)
        stats = geo.chamfer_stats(a, b)
        np.testing.assert_allclose(stats["mean_distance"], 0.001, rtol=1e-9)
        assert stats["mean_normal_deg"] == 0.0

    def test_flipped_normals(self):
        a = plane_sample()
        b = geo.SurfaceSample(a.points, -a.normals)
        stats = geo.chamfer_stats(a, b)
        np.testing.assert_allclose(stats["mean_normal_deg"], 180.0)

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        a = geo.SurfaceSample(rng.normal(size=(80, 3)), _unit(rng.normal(size=(80, 3))))
        b = geo.SurfaceSample(rng.normal(size=(60, 3)), _unit(rng.normal(size=(60, 3))))
        sa = geo.chamfer_stats(a, b)
        sb = geo.chamfer_stats(b, a)
        for k in sa:
            np.testing.assert_allclose(sa[k], sb[k], rtol=1e-12)

    def test_rigid_invariance(self):
        rng = np.random.default_rng(5)
        a = geo.SurfaceSample(rng.normal(size=(100, 3)), _unit(rng.normal(size=(100, 3))))
        b = geo.SurfaceSample(rng.normal(size=(90, 3)), _unit(rng.normal(size=(90, 3))))
        base = geo.chamfer_stats(a, b)
        R = geo.euler_rotation([0.3, -0.8, 1.7])
        t = np.array([0.5, -2.0, 1.0])
        a2 = geo.SurfaceSample(a.points @ R.T + t, a.normals @ R.T)
        b2 = geo.SurfaceSample(b.points @ R.T + t, b.normals @ R.T)
        moved = geo.chamfer_stats(a2, b2)
        for k in base:
            np.testing.assert_allclose(moved[k], base[k], rtol=1e-9, atol=1e-12)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestEulerRotation:
    def test_identity(self):
        np.testing.assert_array_equal(geo.euler_rotation([0, 0, 0]), np.eye(3))

    def test_quarter_turn_z(self):
        R = geo.euler_rotation([0, 0, np.pi / 2])
        np.testing.assert_allclose(R @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_orthonormal(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            R = geo.euler_rotation(rng.uniform(-np.pi, np.pi, 3))
            np.testing.assert_allclose(R.T @ R, np.eye(3), atol=1e-12)
            np.testing.assert_allclose(np.linalg.det(R), 1.0, rtol=1e-12)

    def test_lower_median(self):
        assert geo.lower_median(np.array([4.0, 1.0, 3.0, 2.0])) == 2.0
        assert geo.lower_median(np.array([5.0, 1.0, 9.0])) == 5.0


class TestMeshIO:
    def test_obj_round_trip(self, tmp_path):
        mesh = make_cube()
        path = tmp_path / "cube.obj"
        geo.save_obj(path, mesh)
        back = geo.load_obj(path)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.faces, mesh.faces)

    def test_obj_rejects_quads(self, tmp_path):
        path = tmp_path / "quad.obj"
        path.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
        with pytest.raises(geo.MeshError):
            geo.load_obj(path)

    def test_ply_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        mesh = geo.Mesh(rng.normal(size=(20, 3)), np.array([[0, 1, 2], [3, 4, 5]]))
        path = tmp_path / "m.ply"
        geo.save_ply(path, mesh)
        back = geo.load_ply(path)
        np.testing.assert_array_equal(back.vertices, mesh.vertices)
        np.testing.assert_array_equal(back.faces, mesh.faces)

    def test_ply_without_faces_reads_points(self, tmp_path):
        points = np.random.default_rng(3).normal(size=(5, 3))
        path = tmp_path / "points.ply"
        path.write_bytes(("ply\nformat binary_little_endian 1.0\ncomment points only\n"
                          "element vertex 5\nproperty double x\nproperty double y\n"
                          "property double z\nend_header\n").encode()
                         + points.astype("<f8").tobytes())
        back = geo.load_ply(path)
        np.testing.assert_array_equal(back.vertices, points)
        assert back.faces.shape == (0, 3)

    def test_ply_non_ascii_header_is_a_mesh_error(self, tmp_path):
        path = tmp_path / "latin1.ply"
        path.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\n"
                         b"property double \xe9\nproperty double y\nproperty double z\n"
                         b"end_header\n" + bytes(24))
        with pytest.raises(geo.MeshError, match="unsupported PLY layout"):
            geo.load_ply(path)

    def test_ply_rejects_non_triangles(self, tmp_path):
        path = tmp_path / "bad.ply"
        header = ("ply\nformat binary_little_endian 1.0\nelement vertex 4\n"
                  "property double x\nproperty double y\nproperty double z\n"
                  "element face 1\nproperty list uchar int vertex_indices\n"
                  "end_header\n").encode()
        body = np.zeros((4, 3)).astype("<f8").tobytes()
        body += bytes([4]) + np.array([0, 1, 2, 3], "<i4").tobytes()
        path.write_bytes(header + body)
        with pytest.raises(geo.MeshError):
            geo.load_ply(path)
