"""Image containers, PGM/PPM file I/O and pixel-level utilities.

Grayscale images are 2-D float64 arrays with intensities in [0, 1];
the 8-bit scale appears only at file boundaries. Binary masks are 2-D
bool arrays of the same shape as the image they describe.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy import ndimage


class ImageFormatError(ValueError):
    """Raised for malformed image headers or unsupported encodings."""


class TruncatedDataError(ValueError):
    """Raised when a pixel payload is shorter than the header promises."""


def as_gray(image) -> np.ndarray:
    """Validate and return a 2-D float64 grayscale image."""
    arr = np.asarray(image, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D grayscale image, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("image contains non-finite intensities")
    return arr


def as_mask(mask) -> np.ndarray:
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D mask, got shape {arr.shape}")
    return arr.astype(bool)


def to_u8(image: np.ndarray) -> np.ndarray:
    """Map [0, 1] intensities to the 8-bit scale (round-to-nearest)."""
    return np.rint(np.clip(np.asarray(image, dtype=np.float64), 0.0, 1.0) * 255.0).astype(np.uint8)


@dataclass(frozen=True)
class LabelMap:
    """Dense 8-connected component labels; 0 is background."""

    labels: np.ndarray
    component_count: int


def _read_token(data: bytes, pos: int) -> tuple[bytes, int]:
    """Next whitespace-delimited header token, skipping '#' comments."""
    n = len(data)
    while pos < n:
        c = data[pos:pos + 1]
        if c == b"#":
            while pos < n and data[pos:pos + 1] != b"\n":
                pos += 1
        elif c.isspace():
            pos += 1
        else:
            break
    start = pos
    while pos < n and not data[pos:pos + 1].isspace() and data[pos:pos + 1] != b"#":
        pos += 1
    if start == pos:
        raise ImageFormatError("unexpected end of header")
    return data[start:pos], pos


def read_pgm(data: bytes) -> np.ndarray:
    """Parse a binary ('P5') PGM file into a [0, 1] grayscale image.

    Header comments are tolerated; maxval must be at most 255. Raises
    ImageFormatError for anything that is not binary 8-bit PGM and
    TruncatedDataError when pixel data is missing.
    """
    magic, pos = _read_token(data, 0)
    if magic != b"P5":
        raise ImageFormatError(f"unsupported magic {magic!r}, expected binary PGM ('P5')")
    fields = []
    for name in ("width", "height", "maxval"):
        tok, pos = _read_token(data, pos)
        try:
            fields.append(int(tok))
        except ValueError:
            raise ImageFormatError(f"non-numeric {name} field {tok!r}") from None
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise ImageFormatError(f"bad dimensions {width}x{height}")
    if not 1 <= maxval <= 255:
        raise ImageFormatError(f"maxval {maxval} outside the 8-bit range")
    if pos >= len(data) or not data[pos:pos + 1].isspace():
        raise ImageFormatError("header must end with a single whitespace byte")
    pos += 1
    payload = data[pos:pos + width * height]
    if len(payload) < width * height:
        raise TruncatedDataError(
            f"expected {width * height} pixel bytes, found {len(payload)}")
    raw = np.frombuffer(payload, dtype=np.uint8).reshape(height, width)
    if maxval < 255 and raw.max() > maxval:
        raise ImageFormatError(f"pixel value {raw.max()} exceeds maxval {maxval}")
    return raw.astype(np.float64) / float(maxval)


def read_pgm_file(path) -> np.ndarray:
    """`read_pgm` on the bytes of a file; its errors name the file."""
    data = Path(path).read_bytes()
    try:
        return read_pgm(data)
    except (ImageFormatError, TruncatedDataError) as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_pgm(image) -> bytes:
    """Encode a grayscale image or a boolean mask as binary PGM."""
    arr = np.asarray(image)
    if arr.ndim != 2:
        raise ValueError(f"expected a 2-D image or mask, got shape {arr.shape}")
    if arr.dtype == bool:
        u8 = np.where(arr, np.uint8(255), np.uint8(0))
    else:
        u8 = to_u8(as_gray(arr))
    h, w = u8.shape
    return b"P5\n%d %d\n255\n" % (w, h) + u8.tobytes()


def write_ppm_overlay(image, contour) -> bytes:
    """Encode the image as binary PPM with contour pixels in pure red."""
    gray = to_u8(as_gray(image))
    mask = as_mask(contour)
    if mask.shape != gray.shape:
        raise ValueError("contour mask dimensions do not match the image")
    rgb = np.repeat(gray[:, :, None], 3, axis=2)
    rgb[mask] = (255, 0, 0)
    h, w = gray.shape
    return b"P6\n%d %d\n255\n" % (w, h) + rgb.tobytes()


def bilinear_samples(n_in: int, n_out: int):
    """Corner-aligned sample table for one axis of a bilinear resize.

    Returns (lower index, upper index, fraction) for each of the n_out
    output positions over an axis of n_in input pixels. Slicing or
    indexing the three arrays together selects output positions.
    """
    if n_out == 1:
        coords = np.array([(n_in - 1) / 2.0])
    else:
        coords = np.linspace(0.0, n_in - 1, n_out)
    lo = np.minimum(np.floor(coords).astype(int), n_in - 1)
    hi = np.minimum(lo + 1, n_in - 1)
    return lo, hi, coords - lo


def bilinear_gather(image: np.ndarray, rows, cols) -> np.ndarray:
    """4-tap bilinear interpolation of `image` at the outer product of a
    row and a column sample table from `bilinear_samples`."""
    r0, r1, fr = rows
    c0, c1, fc = cols
    fr = fr[:, None]
    fc = fc[None, :]
    top = image[np.ix_(r0, c0)] * (1 - fc) + image[np.ix_(r0, c1)] * fc
    bot = image[np.ix_(r1, c0)] * (1 - fc) + image[np.ix_(r1, c1)] * fc
    return top * (1 - fr) + bot * fr


def resize_bilinear(image, out_w: int, out_h: int) -> np.ndarray:
    """Bilinear resize with corner-aligned sampling.

    The four image corners map exactly onto the output corners, so a
    same-size resize is the identity and output intensities stay inside
    the input range.
    """
    img = as_gray(image)
    if out_w < 1 or out_h < 1:
        raise ValueError(f"target dimensions must be positive, got {out_w}x{out_h}")
    in_h, in_w = img.shape
    return bilinear_gather(img, bilinear_samples(in_h, out_h), bilinear_samples(in_w, out_w))


_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)


def connected_components(mask) -> LabelMap:
    """Label 8-connected components, numbered by first row-major encounter."""
    m = as_mask(mask)
    raw, count = ndimage.label(m, structure=_EIGHT_CONNECTED)
    if count == 0:
        return LabelMap(labels=raw.astype(np.int32), component_count=0)
    # relabel so component k is the k-th one met in a row-major scan
    flat = raw.ravel()
    nz = np.flatnonzero(flat)
    uniq, first = np.unique(flat[nz], return_index=True)
    order = uniq[np.argsort(first)]
    remap = np.zeros(count + 1, dtype=np.int32)
    remap[order] = np.arange(1, count + 1, dtype=np.int32)
    return LabelMap(labels=remap[raw], component_count=int(count))


def largest_component(label_map: LabelMap) -> np.ndarray:
    """Mask of the biggest component; ties go to the lowest label."""
    if label_map.component_count == 0:
        return np.zeros(label_map.labels.shape, dtype=bool)
    counts = np.bincount(label_map.labels.ravel(),
                         minlength=label_map.component_count + 1)[1:]
    winner = int(np.argmax(counts)) + 1
    return label_map.labels == winner


def mask_contour(mask) -> np.ndarray:
    """Boundary pixels of a mask: set pixels with an unset 8-neighbour."""
    m = as_mask(mask)
    interior = ndimage.binary_erosion(m, structure=_EIGHT_CONNECTED, border_value=0)
    return m & ~interior
