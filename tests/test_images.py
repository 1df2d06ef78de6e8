import numpy as np
import pytest

from footfit.images import (
    ImageFormatError, float_to_u8, load_pfm, load_pgm, load_ppm,
    save_pfm, save_pgm, save_ppm,
)


class TestPfm:
    def test_round_trip_three_channel(self, tmp_path):
        rng = np.random.default_rng(11)
        img = rng.standard_normal((17, 23, 3)).astype(np.float32)
        p = tmp_path / "mu.pfm"
        save_pfm(p, img)
        back = load_pfm(p)
        assert back.dtype == np.float32
        assert np.array_equal(back, img)

    def test_round_trip_grayscale(self, tmp_path):
        rng = np.random.default_rng(12)
        img = rng.gamma(2.0, 3.0, size=(9, 5)).astype(np.float32)
        p = tmp_path / "kappa.pfm"
        save_pfm(p, img)
        assert np.array_equal(load_pfm(p), img)

    def test_header_fields(self, tmp_path):
        p = tmp_path / "x.pfm"
        save_pfm(p, np.zeros((2, 4), dtype=np.float32))
        lines = p.read_bytes().split(b"\n", 3)
        assert lines[0] == b"Pf"
        assert lines[1] == b"4 2"
        assert float(lines[2]) < 0  # little-endian marker

    def test_row_zero_is_stored_first(self, tmp_path):
        img = np.zeros((2, 1), dtype=np.float32)
        img[0, 0] = 7.0
        p = tmp_path / "rows.pfm"
        save_pfm(p, img)
        payload = p.read_bytes().split(b"\n", 3)[3]
        assert np.frombuffer(payload, dtype="<f4")[0] == 7.0

    def test_rejects_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.pfm"
        p.write_bytes(b"P5\n1 1\n-1.0\n\x00\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            load_pfm(p)

    def test_rejects_big_endian(self, tmp_path):
        p = tmp_path / "be.pfm"
        p.write_bytes(b"Pf\n1 1\n1.0\n\x00\x00\x00\x00")
        with pytest.raises(ImageFormatError):
            load_pfm(p)

    def test_rejects_truncated(self, tmp_path):
        p = tmp_path / "short.pfm"
        p.write_bytes(b"Pf\n4 4\n-1.0\n\x00\x00")
        with pytest.raises(ImageFormatError):
            load_pfm(p)

    def test_rejects_bad_shape(self, tmp_path):
        with pytest.raises(ImageFormatError):
            save_pfm(tmp_path / "x.pfm", np.zeros((4, 4, 2)))


class TestNetpbm:
    def test_pgm_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        mask = rng.random((31, 18)) > 0.6
        p = tmp_path / "mask.pgm"
        save_pgm(p, mask)
        assert np.array_equal(load_pgm(p), mask)

    def test_pgm_values_are_0_and_255(self, tmp_path):
        p = tmp_path / "m.pgm"
        save_pgm(p, np.array([[True, False]]))
        raw = p.read_bytes()
        assert raw.endswith(b"\xff\x00")

    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        img = rng.integers(0, 256, size=(7, 11, 3), dtype=np.uint8)
        p = tmp_path / "img.ppm"
        save_ppm(p, img)
        assert np.array_equal(load_ppm(p), img)

    def test_header_comments_are_skipped(self, tmp_path):
        p = tmp_path / "c.pgm"
        p.write_bytes(b"P5\n# made elsewhere\n2 1\n255\n\xff\x00")
        assert np.array_equal(load_pgm(p), np.array([[True, False]]))

    def test_rejects_wrong_maxval(self, tmp_path):
        p = tmp_path / "m.pgm"
        p.write_bytes(b"P5\n1 1\n65535\n\x00\x00")
        with pytest.raises(ImageFormatError):
            load_pgm(p)

    def test_rejects_truncated_payload(self, tmp_path):
        p = tmp_path / "t.ppm"
        p.write_bytes(b"P6\n2 2\n255\n\x01\x02")
        with pytest.raises(ImageFormatError):
            load_ppm(p)


class TestQuantization:
    def test_float_u8_round_trip_error_bound(self):
        x = np.linspace(0.0, 1.0, 1001)
        back = float_to_u8(x) / 255.0
        assert np.max(np.abs(back - x)) <= 0.5 / 255.0 + 1e-12

    def test_float_to_u8_rounds_half_up(self):
        assert float_to_u8(np.array([0.5 / 255.0])).tolist() == [1]
        assert float_to_u8(np.array([0.49 / 255.0])).tolist() == [0]
