"""Raster types and the low-level image operations the detector consumes.

All rasters are numpy arrays indexed [row, col]; point coordinates are
(x, y) = (col, row) with pixel centers at integer positions. Every
operation is a pure function of its inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.signal import fftconvolve

from .errors import ImageFormatError, NumericError

HUE_PERIOD = 2.0 * np.pi


def _key_tables() -> tuple[np.ndarray, np.ndarray]:
    """Hue validity and hexcone saturation of every 8-bit (max channel, min
    channel) pair, indexed by max << 8 | min.

    They come from the k / 255.0 channel values by the float formula, so a
    lookup gives the bits the formula gives on the pixel. Pairs with
    min > max never occur in a pixel.
    """
    cmax, cmin = np.divmod(np.arange(1 << 16), 1 << 8)
    cmax = cmax / 255.0
    delta = cmax - cmin / 255.0
    sat = np.zeros_like(cmax)
    np.divide(delta, cmax, out=sat, where=cmax > 0.0)
    valid = delta > 0.0
    valid.setflags(write=False)
    sat.setflags(write=False)
    return valid, sat


_HUE_VALID, _SATURATION = _key_tables()

# the saturation gate keys and looks up this many rows at a time, so its
# uint16 keys and their index array stay a few hundred kB at any frame size
_GATE_ROWS = 32


def _key(px: np.ndarray) -> np.ndarray:
    """uint16 key, max channel << 8 | min channel, of (..., 3) uint8 pixels."""
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    cmax = np.maximum(np.maximum(r, g), b)
    cmin = np.minimum(np.minimum(r, g), b)
    return (cmax.astype(np.uint16) << 8) | cmin


@dataclass(frozen=True, eq=False)
class RasterImage:
    """8-bit RGB frame, keyed for its hexcone hue and saturation on demand.

    A uint8 array is taken as it is. Any other array holds channels in
    [0, 1] and is quantized once, here, to round(255 * value); a
    non-finite or out-of-range channel raises ValueError.

    A pixel's max channel << 8 | min channel is a uint16 key that fixes
    its saturation and whether its hue is defined. ``gate`` keys the frame
    one block of rows at a time and thresholds the saturation by one table
    lookup per pixel, so no whole-frame key exists; ``hue_at`` and
    ``saturation_value_at`` key and convert to float64 only the pixels at
    the flat indices they are given. The whole-frame ``hue``,
    ``saturation``, ``hue_valid`` and ``value`` rasters are built when
    read, for inspection; the pipeline does not read them. Frames compare
    and hash by identity.
    """

    pixels: np.ndarray  # (H, W, 3) uint8

    def __post_init__(self):
        px = np.asarray(self.pixels)
        if px.ndim != 3 or px.shape[2] != 3 or px.shape[0] < 1 or px.shape[1] < 1:
            raise ValueError("RasterImage needs an (H, W, 3) array")
        if px.dtype != np.uint8:
            px = np.asarray(px, dtype=np.float64)
            # NaN fails both comparisons
            if not ((px >= 0.0) & (px <= 1.0)).all():
                raise ValueError("channel values must be finite and lie in [0, 1]")
            px = np.round(px * 255.0).astype(np.uint8)
        object.__setattr__(self, "pixels", px)

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    def window(self, box: tuple[slice, slice]) -> "RasterImage":
        """The frame restricted to a non-empty (rows, cols) box, as a view."""
        return RasterImage(self.pixels[box])

    def gate(self, s_min: float) -> np.ndarray:
        """Boolean raster: hue defined and saturation >= s_min."""
        table = _HUE_VALID & (_SATURATION >= s_min)
        out = np.empty((self.height, self.width), dtype=bool)
        for y in range(0, self.height, _GATE_ROWS):
            rows = slice(y, y + _GATE_ROWS)
            # keys never exceed the table; "clip" writes to out unbuffered
            np.take(table, _key(self.pixels[rows]), out=out[rows], mode="clip")
        return out

    def _pixels_at(self, at: np.ndarray) -> np.ndarray:
        """(N, 3) pixels at flat indices into the (H, W) raster.

        Row and column indices gather from a window, a strided view of
        the frame, without copying it first, as a flat reshape would."""
        rows, cols = np.divmod(at, self.width)
        return self.pixels[rows, cols]

    def hue_at(self, at: np.ndarray) -> np.ndarray:
        """Hue of the pixels at flat indices into the (H, W) raster."""
        px = self._pixels_at(at)
        key = _key(px)
        return _hexcone_hue(px / 255.0, (key >> 8) / 255.0, _HUE_VALID[key])

    def saturation_value_at(self, at: np.ndarray) -> np.ndarray:
        """Saturation times value of the pixels at flat indices."""
        key = _key(self._pixels_at(at))
        return _SATURATION[key] * ((key >> 8) / 255.0)

    @property
    def hue(self) -> np.ndarray:
        """Whole-frame hue, radians in [0, 2pi); 0 where it is undefined."""
        return _hexcone_hue(self.pixels / 255.0, self.value, self.hue_valid)

    @property
    def saturation(self) -> np.ndarray:
        return _SATURATION[_key(self.pixels)]

    @property
    def hue_valid(self) -> np.ndarray:
        return _HUE_VALID[_key(self.pixels)]

    @property
    def value(self) -> np.ndarray:
        """Max channel in [0, 1]."""
        return self.pixels.max(axis=2) / 255.0


@dataclass(frozen=True)
class DistortionModel:
    """Brown-Conrady radial/tangential coefficients; they act in the
    normalized coordinates of a camera matrix K."""

    k1: float = 0.0
    k2: float = 0.0
    k3: float = 0.0
    p1: float = 0.0
    p2: float = 0.0

    def is_identity(self) -> bool:
        return self.k1 == self.k2 == self.k3 == self.p1 == self.p2 == 0.0


@dataclass(frozen=True, eq=False)
class Region:
    """Connected pixel set with its centroid and pixel count."""

    pixels: np.ndarray  # (N, 2) int32 (x, y)
    label: int | None = None
    centroid: np.ndarray = field(init=False)
    area: int = field(init=False)

    def __post_init__(self):
        pts = np.asarray(self.pixels)
        if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
            raise ValueError("Region needs an (N, 2) pixel array")
        object.__setattr__(self, "pixels", pts.astype(np.int32))
        object.__setattr__(self, "area", len(pts))
        object.__setattr__(self, "centroid", pts.astype(np.float64).mean(axis=0))


def _hexcone_hue(px: np.ndarray, cmax: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """Hexcone hue of (..., 3) pixels with their max channel and validity."""
    r, g, b = px[..., 0], px[..., 1], px[..., 2]
    delta = cmax - np.minimum(np.minimum(r, g), b)
    safe = np.where(valid, delta, 1.0)
    h6 = np.zeros_like(cmax)
    rmax = valid & (cmax == r)
    gmax = valid & ~rmax & (cmax == g)
    bmax = valid & ~rmax & ~gmax
    h6 = np.where(rmax, (g - b) / safe, h6)
    h6 = np.where(gmax, (b - r) / safe + 2.0, h6)
    h6 = np.where(bmax, (r - g) / safe + 4.0, h6)
    hue = np.mod(h6, 6.0) * (np.pi / 3.0)
    return np.where(hue >= HUE_PERIOD, 0.0, hue)


def rgb_to_hue_saturation(img: RasterImage) -> RasterImage:
    """The frame itself, which keys its own hue and saturation; detection
    calls it once per frame, as the hue/saturation stage."""
    return img


def erode_disk(bits: np.ndarray, radius: int) -> np.ndarray:
    """Erosion of a boolean (H, W) array with a Euclidean disk; pixels
    outside the array count as 0.

    A pixel survives iff every pixel within distance <= radius is 1.
    """
    if radius < 0 or int(radius) != radius:
        raise ValueError("radius must be a non-negative integer")
    y, x = np.ogrid[-radius : radius + 1, -radius : radius + 1]
    disk = x * x + y * y <= radius * radius
    return ndimage.binary_erosion(np.asarray(bits, dtype=bool), disk, border_value=0)


def dilate_disk(bits: np.ndarray, radius: int) -> np.ndarray:
    """Dilation of a boolean (H, W) array with a Euclidean disk; pixels
    outside the array count as 0.

    A pixel is set iff some set pixel lies within distance <= radius, so
    on an array with a set pixel it equals
    ``ndimage.distance_transform_edt(~bits) <= radius``: that distance is
    the correctly rounded sqrt of an integer n, which is <= radius exactly
    when n <= radius**2. Each row offset dy of the disk contributes the
    rows dy away, each spread along the row by isqrt(radius**2 - dy**2).
    """
    if radius < 0 or int(radius) != radius:
        raise ValueError("radius must be a non-negative integer")
    radius = int(radius)
    bits = np.asarray(bits, dtype=bool)
    h = bits.shape[0]
    out = np.zeros_like(bits)
    spread: dict[int, np.ndarray] = {}  # half-width -> rows spread by it
    for dy in range(-radius, radius + 1):
        if abs(dy) >= h:
            continue
        half = math.isqrt(radius * radius - dy * dy)
        if half not in spread:
            spread[half] = ndimage.maximum_filter1d(
                bits, 2 * half + 1, axis=1, mode="constant", cval=0
            )
        rows = spread[half]
        if dy >= 0:
            out[: h - dy] |= rows[dy:]
        else:
            out[-dy:] |= rows[: h + dy]
    return out


_EIGHT_CONNECTED = np.ones((3, 3), dtype=int)


def connected_components(
    bits: np.ndarray, origin: tuple[int, int] = (0, 0), label: int | None = None
) -> list[Region]:
    """8-connected components of a boolean array, in the scan order of
    their first pixel, each a Region carrying ``label``.

    ``origin`` is the (x, y) of the array's first pixel in the frame; it is
    added to the pixel coordinates before the centroids are taken.
    """
    labeled, _ = ndimage.label(bits, structure=_EIGHT_CONNECTED)
    regions = []
    for idx, sl in enumerate(ndimage.find_objects(labeled), start=1):
        ys, xs = np.nonzero(labeled[sl] == idx)
        xs = xs + (sl[1].start + origin[0])
        ys = ys + (sl[0].start + origin[1])
        regions.append(Region(pixels=np.column_stack([xs, ys]), label=label))
    return regions


def convolve_unit_sum(bits: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """True 2D convolution with zero padding, clipped to [0, 1]; the
    caller's kernel is 2D, odd-sized, non-negative and of unit sum.

    It holds a float64 copy of bits and their padded FFT spectra, so
    detection's orientation filter calls it once per group of nearby halo
    pixels, over the group's box, not over the whole crop."""
    out = fftconvolve(np.asarray(bits, dtype=np.float64), kernel, mode="same")
    # fft round-off can leave values a hair outside [0, 1]
    np.clip(out, 0.0, 1.0, out=out)
    return out


def _distort_normalized(xu: np.ndarray, yu: np.ndarray, m: DistortionModel):
    r2 = xu * xu + yu * yu
    radial = 1.0 + r2 * (m.k1 + r2 * (m.k2 + r2 * m.k3))
    xd = xu * radial + 2.0 * m.p1 * xu * yu + m.p2 * (r2 + 2.0 * xu * xu)
    yd = yu * radial + m.p1 * (r2 + 2.0 * yu * yu) + 2.0 * m.p2 * xu * yu
    return xd, yd


def distort_points(pts: np.ndarray, model: DistortionModel, K: np.ndarray) -> np.ndarray:
    """Forward Brown-Conrady mapping from ideal to distorted pixels; a
    point the polynomial overflows on raises NumericError, not a warning."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if model.is_identity():
        return pts.copy()
    xu = (pts[:, 0] - K[0, 2]) / K[0, 0]
    yu = (pts[:, 1] - K[1, 2]) / K[1, 1]
    with np.errstate(all="ignore"):
        xd, yd = _distort_normalized(xu, yu, model)
        out = np.column_stack([xd * K[0, 0] + K[0, 2], yd * K[1, 1] + K[1, 2]])
    finite = np.isfinite(out).all(axis=1)
    if not finite.all():
        raise NumericError(f"distortion is not finite for point {pts[np.argmin(finite)].tolist()}")
    return out


UNDISTORT_TOL_PX = 1e-3
UNDISTORT_MAX_ITER = 20


def undistort_points(pts: np.ndarray, model: DistortionModel, K: np.ndarray) -> np.ndarray:
    """Invert the distortion by fixed-point iteration to within 1e-3 px."""
    pts = np.atleast_2d(np.asarray(pts, dtype=np.float64))
    if model.is_identity():
        return pts.copy()
    xd = (pts[:, 0] - K[0, 2]) / K[0, 0]
    yd = (pts[:, 1] - K[1, 2]) / K[1, 1]
    xu, yu = xd.copy(), yd.copy()
    with np.errstate(all="ignore"):  # an overflow fails the convergence test
        for _ in range(UNDISTORT_MAX_ITER):
            r2 = xu * xu + yu * yu
            radial = 1.0 + r2 * (model.k1 + r2 * (model.k2 + r2 * model.k3))
            dx = 2.0 * model.p1 * xu * yu + model.p2 * (r2 + 2.0 * xu * xu)
            dy = model.p1 * (r2 + 2.0 * yu * yu) + 2.0 * model.p2 * xu * yu
            xu = (xd - dx) / radial
            yu = (yd - dy) / radial
        bx, by = _distort_normalized(xu, yu, model)
        err = np.hypot((bx - xd) * K[0, 0], (by - yd) * K[1, 1])
    if not np.all(np.isfinite(err)) or err.max() > UNDISTORT_TOL_PX:
        bad = int(np.argmax(np.where(np.isfinite(err), err, np.inf)))
        raise NumericError(
            f"undistortion did not converge for point {pts[bad].tolist()}"
        )
    return np.column_stack([xu * K[0, 0] + K[0, 2], yu * K[1, 1] + K[1, 2]])


def load_ppm(path) -> RasterImage:
    """Read a binary PPM (P6, maxval 255)."""
    return RasterImage(_read_pnm(path, b"P6"))


def save_ppm(img: RasterImage, path) -> None:
    with open(path, "wb") as f:
        f.write(b"P6\n%d %d\n255\n" % (img.width, img.height))
        f.write(img.pixels.tobytes())


def load_pgm(path) -> np.ndarray:
    """Read a binary PGM (P5, maxval 255) as a uint8 label raster."""
    return _read_pnm(path, b"P5")


def save_pgm(raster: np.ndarray, path) -> None:
    raster = np.asarray(raster, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(b"P5\n%d %d\n255\n" % (raster.shape[1], raster.shape[0]))
        f.write(raster.tobytes())


def load_image(path) -> RasterImage:
    """Load a PPM image; PNG works too when pillow is installed."""
    spath = str(path)
    if spath.lower().endswith(".png"):
        try:
            from PIL import Image
        except ImportError as exc:
            raise ImageFormatError(
                f"PNG support requires the optional pillow dependency: {spath}"
            ) from exc
        return RasterImage(np.asarray(Image.open(spath).convert("RGB")))
    return load_ppm(spath)


def _read_pnm(path, magic: bytes) -> np.ndarray:
    """uint8 pixels of a binary PNM: (h, w, 3) for P6, (h, w) for P5."""
    with open(path, "rb") as f:
        raw = f.read()
    if not raw.startswith(magic):
        raise ImageFormatError(f"expected {magic.decode()} file: {path}")
    # header tokens may be separated by whitespace and '#' comments
    tokens = []
    pos = len(magic)
    while len(tokens) < 3:
        while pos < len(raw) and raw[pos : pos + 1].isspace():
            pos += 1
        if raw[pos : pos + 1] == b"#":
            while pos < len(raw) and raw[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(raw) and not raw[pos : pos + 1].isspace():
            pos += 1
        token = raw[start:pos]
        if not token.isdigit():
            raise ImageFormatError(
                f"bad {magic.decode()} header token {token[:16]!r} in {path}"
            )
        tokens.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = tokens
    if maxval != 255:
        raise ImageFormatError(f"only maxval 255 supported, got {maxval}: {path}")
    if width == 0 or height == 0:
        raise ImageFormatError(f"empty {width}x{height} image: {path}")
    channels = 3 if magic == b"P6" else 1
    need = width * height * channels
    if len(raw) - pos < need:
        raise ImageFormatError(f"truncated {magic.decode()} payload in {path}")
    # a view of the file's bytes, not a copy of the payload
    data = np.frombuffer(raw, dtype=np.uint8, count=need, offset=pos)
    if channels == 3:
        return data.reshape(height, width, 3)
    return data.reshape(height, width)
