"""The `np.median` window filter, kept as the oracle.

`oracle_median_filter` below is `mammocad.enhance.median_filter` as it
was written before it selected each window's middle order statistics
with one `partition` on a reused buffer. Both take the same two middle
doubles of every window and average an even count as (a + b) / 2, so
the outputs must match byte for byte.
"""

import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from mammocad import enhance
from mammocad.core import as_gray
from mammocad.enhance import median_filter


def oracle_median_filter(image, window):
    img = as_gray(image)
    if window < 1:
        raise ValueError("window must be at least 1 pixel")
    before = window // 2
    after = window - 1 - before
    padded = np.pad(img, ((before, after), (before, after)), mode="edge")
    h, w = img.shape
    out = np.empty_like(img)
    chunk = max(1, int(4e6 / (w * window * window)))
    for r0 in range(0, h, chunk):
        r1 = min(r0 + chunk, h)
        view = sliding_window_view(padded[r0:r1 + window - 1], (window, window))
        out[r0:r1] = np.median(view, axis=(2, 3))
    return out


SHAPES = [(1, 1), (1, 7), (9, 1), (13, 29), (37, 101)]
KINDS = ["float", "8-bit", "binary", "constant"]


def film(shape, kind, seed=0):
    values = np.random.default_rng(seed).random(shape)
    if kind == "8-bit":
        return np.round(values * 255.0) / 255.0
    if kind == "binary":        # every window is ties but for one value
        return (values > 0.5).astype(np.float64)
    if kind == "constant":
        return np.full(shape, 0.3)
    return values


def assert_same_bytes(image, window):
    got = median_filter(image, window)
    want = oracle_median_filter(image, window)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_median_matches_oracle(shape, kind):
    image = film(shape, kind)
    for window in range(1, 13):
        assert_same_bytes(image, window)


@pytest.mark.parametrize("buffer", [1, 3 * 101 * 36, 5 * 101 * 36 - 1])
def test_median_matches_oracle_across_row_chunks(monkeypatch, buffer):
    # at window 6 the rows come 1, 3 and 4 at a time; 37 rows leave a
    # partial last chunk for 3 and 4
    monkeypatch.setattr(enhance, "_MEDIAN_BUFFER", buffer)
    for kind in KINDS:
        assert_same_bytes(film((37, 101), kind), 6)


def test_median_matches_oracle_on_a_full_size_film():
    rows = enhance._MEDIAN_BUFFER // (1024 * 100)
    assert 1024 % rows != 0         # the last chunk is a partial one
    image = film((1024, 1024), "float", seed=1)
    assert_same_bytes(image, 10)
    assert_same_bytes(np.round(image * 255.0) / 255.0, 10)


def test_median_memory_is_bounded_on_a_full_size_film():
    image = film((1024, 1024), "float", seed=2)
    tracemalloc.start()
    try:
        median_filter(image, 10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the padded film, the output and one 8 MB window buffer
    assert peak <= 32 * 2**20
