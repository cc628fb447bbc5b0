"""The float64 PGM decoder, kept as the oracle.

`oracle_read_pgm` below decodes a PGM as `mammocad.core.read_pgm` did
before it returned a `Film`: the whole raster widened at once to
`raw.astype(np.float64) / float(maxval)`. Every way a stage reads a film
must give those bytes, for every maxval and for odd shapes.
"""

import warnings

import numpy as np
import pytest

from mammocad.core import Film, as_gray, read_pgm, resize_bilinear, write_pgm


def oracle_read_pgm(data: bytes) -> np.ndarray:
    """Decode the `P5\\n<w> <h>\\n<maxval>\\n` files written below."""
    magic, dims, maxval, payload = data.split(b"\n", 3)
    assert magic == b"P5"
    (width, height), maxval = map(int, dims.split()), int(maxval)
    raw = np.frombuffer(payload[:width * height], dtype=np.uint8).reshape(height, width)
    return raw.astype(np.float64) / float(maxval)


SHAPES = [(1, 1), (1, 9), (7, 1), (5, 13), (31, 17)]


def _pgm(maxval, shape, seed):
    raw = np.random.default_rng(seed).integers(0, maxval + 1, size=shape, dtype=np.uint8)
    return b"P5\n%d %d\n%d\n" % (shape[1], shape[0], maxval) + raw.tobytes()


def _cases():
    for maxval in range(1, 256):
        for index, shape in enumerate(SHAPES):
            data = _pgm(maxval, shape, (maxval, index))
            yield read_pgm(data), oracle_read_pgm(data)


def test_every_whole_film_read_matches_the_oracle():
    for film, expected in _cases():
        assert isinstance(film, Film) and film.shape == expected.shape and film.raw.ndim == 2
        for pixels in (as_gray(film), np.asarray(film, dtype=np.float64), np.asarray(film),
                       np.array(film)):
            assert pixels.dtype == np.float64
            assert pixels.tobytes() == expected.tobytes()
        assert np.mean(film).tobytes() == np.mean(expected).tobytes()
        assert resize_bilinear(film, 3, 4).tobytes() == resize_bilinear(expected, 3, 4).tobytes()
        # a write round trip gives the oracle's file, and decodes again to its bytes
        data = write_pgm(film)
        assert data == write_pgm(expected)
        assert np.asarray(read_pgm(data)).tobytes() == oracle_read_pgm(data).tobytes()


def test_every_partial_film_read_matches_the_oracle():
    rng = np.random.default_rng(0)
    for film, expected in _cases():
        h, w = film.shape
        for step in (1, 2, 3):
            assert film[::step, ::step].tobytes() == expected[::step, ::step].tobytes()
        r, c = int(rng.integers(h)), int(rng.integers(w))
        pixel = film[r, c]
        assert type(pixel) is np.float64 and pixel.tobytes() == expected[r, c].tobytes()
        rows, cols = rng.integers(0, h, size=4), rng.integers(0, w, size=5)
        gather = np.ix_(rows, cols)
        assert film[gather].tobytes() == expected[gather].tobytes()


def test_reads_are_fresh_writable_arrays_and_the_raster_is_read_only():
    film = read_pgm(_pgm(255, (6, 8), 1))
    expected = np.asarray(film)
    assert not film.raw.flags.writeable
    for read in (lambda: np.asarray(film), lambda: as_gray(film), lambda: film[::2, 1:],
                 lambda: film[np.ix_([0, 5], [1, 2, 7])]):
        pixels = read()
        assert pixels.flags.writeable and not np.shares_memory(pixels, film.raw)
        pixels += 1.0
        assert read() is not pixels
    assert np.asarray(film).tobytes() == expected.tobytes()


def test_a_no_copy_read_is_refused():
    film = read_pgm(_pgm(255, (3, 3), 2))
    with pytest.raises(ValueError, match="copy"):
        np.asarray(film, copy=False)
    with pytest.raises(ValueError, match="copy"):
        np.array(film, copy=False)


def test_numpy_reads_a_film_without_a_warning():
    film = read_pgm(_pgm(200, (4, 5), 3))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.asarray(film)
        np.asarray(film, dtype=np.float64, copy=True)
        np.array(film)
        np.stack([film, film])
        np.mean(film)
