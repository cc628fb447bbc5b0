"""The `np.median` window filter, kept as the oracle.

`oracle_median_filter` below is `mammocad.enhance.median_filter` as it
was written before it sorted windows of dense integer ranks in a reused
buffer. Both take the same two middle doubles of every window and
average an even count as (a + b) / 2, so the outputs must match byte for
byte. The one exception is a zero median's sign: -0.0 and +0.0 tie, and
which of them either filter returns is unspecified.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
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
KINDS = ["float", "8-bit", "binary", "constant", "negative", "huge", "ties"]


def film(shape, kind, seed=0):
    values = np.random.default_rng(seed).random(shape)
    if kind == "8-bit":
        return np.round(values * 255.0) / 255.0
    if kind == "binary":        # every window is ties but for one value
        return (values > 0.5).astype(np.float64)
    if kind == "constant":
        return np.full(shape, 0.3)
    if kind == "negative":
        return values * -1e3 - 5.0
    if kind == "huge":          # two middle values still sum finitely
        return (values - 0.5) * 1e300
    if kind == "ties":          # three levels, one of them rare
        return np.choose(np.digitize(values, [0.45, 0.55]), [-2.5, 7.0, 1e-300])
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


@pytest.mark.parametrize("buffer", [1, 7 * 36, 100 * 36, 3 * 101 * 36, 5 * 101 * 36 - 1])
def test_median_matches_oracle_across_row_chunks(monkeypatch, buffer):
    # at window 6 a row of 101 windows takes 3,636 ranks; the first three
    # buffers take one row at a time in tiles of 1, 7 and 100 windows (the
    # first holds one window, more than its budget), the last two 3 and 4
    # rows at a time; 37 rows and 101 columns leave partial last tiles
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


def test_median_memory_is_bounded_on_a_full_size_film_of_few_values():
    # the same gate on both rank widths: 256 values take uint16 ranks,
    # 65,537 values the uint32 ones
    rng = np.random.default_rng(4)
    for levels in (256, 2**16 + 1):
        image = rng.permutation(np.resize(np.arange(levels) / levels, 1024 * 1024)).reshape(1024, 1024)
        assert np.unique(image).size == levels
        tracemalloc.start()
        try:
            median_filter(image, 10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2**20


def test_median_memory_is_bounded_for_a_wide_window():
    # at window 40 a row of 4,096 windows would take 6.6 million ranks;
    # the buffer holds 10^6 of them in tiles of 625 windows
    rng = np.random.default_rng(5)
    for levels in (256, 2**16 + 1):
        image = rng.permutation(np.resize(np.arange(levels) / levels, 64 * 4096)).reshape(64, 4096)
        tracemalloc.start()
        try:
            median_filter(image, 40)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the film, the output and the ranking's arrays take 2 MB each, the
        # buffer 2 or 4 MB
        assert peak <= 10 * 2**20


@pytest.mark.parametrize("levels, width", [(2**16, np.uint16), (2**16 + 1, np.uint32)])
def test_median_matches_oracle_either_side_of_the_rank_width_switch(levels, width):
    rng = np.random.default_rng(levels)
    values = np.sort(rng.normal(0.0, 1e3, levels))
    assert np.unique(values).size == levels
    # every value once, the rest of a 256 x 260 film drawn from them again
    flat = np.concatenate([values, rng.choice(values, 256 * 260 - levels)])
    image = rng.permutation(flat).reshape(256, 260)
    ranks, table = enhance._dense_ranks(image)
    assert ranks.dtype == width and table.size == levels
    assert table[ranks].tobytes() == image.tobytes()
    for window in (3, 10):
        assert_same_bytes(image, window)


def test_median_of_signed_zeros_equals_the_oracle():
    # -0.0 == +0.0, so either may stand for a zero median, as under the
    # old partition
    rng = np.random.default_rng(6)
    image = np.choose(rng.integers(0, 4, (23, 31)), [-0.0, 0.0, 0.25, -0.5])
    for window in range(1, 9):
        got = median_filter(image, window)
        want = oracle_median_filter(image, window)
        assert got.shape == want.shape and np.array_equal(got, want)


@st.composite
def films(draw):
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 40)))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        # a drawn value set; adding 0.0 makes every zero +0.0, whose
        # median has one sign
        values = np.array(draw(st.lists(
            st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
            min_size=1, max_size=60))) + 0.0
        return rng.choice(values, shape)
    return rng.random(shape)


@settings(max_examples=300, deadline=None)
@given(films(), st.integers(1, 12))
def test_median_matches_oracle_on_drawn_films(image, window):
    assert_same_bytes(image, window)
