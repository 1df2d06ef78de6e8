"""Float and 8-bit image files: PFM, PGM, PPM.

PFM files are float32 with a negative scale field marking little-endian
data.  Rows are stored top-down (array row 0 first), matching every
other buffer in this package; standard bottom-up readers will see the
maps vertically flipped.  PGM masks use 255 for foreground.  PPM holds
8-bit visualizations.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "save_pfm", "load_pfm", "save_pgm", "load_pgm",
    "save_ppm", "load_ppm", "float_to_u8",
]


class ImageFormatError(ValueError):
    pass


def save_pfm(path, data):
    data = np.asarray(data, dtype="<f4")
    if data.ndim == 2:
        header = b"Pf"
    elif data.ndim == 3 and data.shape[2] == 3:
        header = b"PF"
    else:
        raise ImageFormatError("PFM data must be (H,W) or (H,W,3)")
    h, w = data.shape[:2]
    with open(path, "wb") as fh:
        fh.write(header + b"\n")
        fh.write(f"{w} {h}\n".encode("ascii"))
        fh.write(b"-1.0\n")
        fh.write(np.ascontiguousarray(data).tobytes())


def load_pfm(path):
    with open(path, "rb") as fh:
        magic = fh.readline().strip()
        if magic not in (b"PF", b"Pf"):
            raise ImageFormatError(f"{path}: not a PFM file")
        dims = fh.readline().split()
        if len(dims) != 2:
            raise ImageFormatError(f"{path}: malformed PFM size line")
        w, h = int(dims[0]), int(dims[1])
        scale = float(fh.readline())
        if scale >= 0:
            raise ImageFormatError(f"{path}: big-endian PFM not supported")
        channels = 3 if magic == b"PF" else 1
        count = w * h * channels
        raw = fh.read(count * 4)
        if len(raw) != count * 4:
            raise ImageFormatError(f"{path}: truncated PFM payload")
        data = np.frombuffer(raw, dtype="<f4")
    if channels == 3:
        return data.reshape(h, w, 3).copy()
    return data.reshape(h, w).copy()


def save_pgm(path, mask):
    mask = np.asarray(mask)
    data = np.where(mask.astype(bool), 255, 0).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def load_pgm(path):
    data, (h, w) = _load_netpbm(path, b"P5", 1)
    return data.reshape(h, w) == 255


def save_ppm(path, rgb8):
    rgb8 = np.asarray(rgb8, dtype=np.uint8)
    if rgb8.ndim != 3 or rgb8.shape[2] != 3:
        raise ImageFormatError("PPM data must be (H,W,3) uint8")
    h, w = rgb8.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(np.ascontiguousarray(rgb8).tobytes())


def load_ppm(path):
    data, (h, w) = _load_netpbm(path, b"P6", 3)
    return data.reshape(h, w, 3)


def _load_netpbm(path, magic, channels):
    with open(path, "rb") as fh:
        if fh.readline().strip() != magic:
            raise ImageFormatError(f"{path}: wrong magic")
        fields = []
        while len(fields) < 3:
            line = fh.readline()
            if not line:
                raise ImageFormatError(f"{path}: truncated header")
            text = line.split(b"#")[0]
            fields.extend(int(x) for x in text.split())
        w, h, maxval = fields[:3]
        if maxval != 255:
            raise ImageFormatError(f"{path}: only maxval 255 supported")
        count = w * h * channels
        raw = fh.read(count)
        if len(raw) != count:
            raise ImageFormatError(f"{path}: truncated payload")
        data = np.frombuffer(raw, dtype=np.uint8)
    return data.copy(), (h, w)


def float_to_u8(img):
    """[0,1] image to bytes, round half up."""
    return np.clip(np.floor(np.asarray(img) * 255.0 + 0.5), 0, 255).astype(np.uint8)
