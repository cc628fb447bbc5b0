"""The one-group-at-a-time collaborative pass and the old matcher, kept as oracles.

`_forward_3d`, `_inverse_3d` and `_collaborative_pass` below transform,
shrink and aggregate one reference block's group at a time, as
`mammocad.denoise` did before it batched a row of references into
(B, G, k, k) stacks. The batched pass does the same float operations in
the same per-pixel order, so its output must match this one byte for
byte. `oracle_distances` sums the squared differences in the order the
matcher states for every film width: each block row's 8 terms by numpy's
reduction over the last axis, then the 8 block rows in sequence. That is
numpy's own reduction of the (nr, nc, k, k) window stack, which
`block_match` used before, except on films 8 pixels wide.
`oracle_block_match` is `block_match` as it was then, stable-sorting
every candidate under tau rather than only those within the group
size's distance. The oracle pass matches through it, so the stage
oracles never call `block_match`.
The oracles state the fixed matching geometry, the hard-threshold
coefficient and the match thresholds themselves; a case that needs
other thresholds takes them as a (hard, Wiener) pair and sets the same
pair as the library's by patching `denoise.match_tau`.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dctn, idctn
from scipy.linalg import hadamard

from mammocad import denoise
from mammocad.core import as_gray
from mammocad.denoise import bm3d_denoise, block_match, hard_stage, wiener_stage


K, N_MAX, RADIUS = 8, 16, 16     # block side, max group size, search radius
LAMBDA_3D = 2.7


def oracle_taus(sigma):
    """The (hard, Wiener) match thresholds at sigma."""
    return (5000.0, 3500.0) if sigma >= 40 else (400.0, 2500.0)


def oracle_distances(region, ref_block):
    k = len(ref_block)
    windows = sliding_window_view(region, (k, k))
    rows = ((windows - ref_block) ** 2).sum(axis=3)
    total = rows[..., 0].copy()
    for i in range(1, k):
        total += rows[..., i]
    return total / (k * k)


def oracle_block_match(image, ref, taus, stage):
    k, n_max, rad = K, N_MAX, RADIUS
    tau = taus[0] if stage == "hard" else taus[1]
    h, w = image.shape
    r, c = ref
    r0, r1 = max(0, r - rad), min(h - k, r + rad)
    c0, c1 = max(0, c - rad), min(w - k, c + rad)
    dists = oracle_distances(image[r0:r1 + k, c0:c1 + k], image[r:r + k, c:c + k])
    dists[r - r0, c - c0] = -1.0
    rows, cols = np.nonzero(dists <= tau / (k * k * 255.0 * 255.0))
    order = np.argsort(dists[rows, cols], kind="stable")[:n_max]
    pad = (1 << (len(order) - 1).bit_length()) - len(order)
    order = np.concatenate([order, np.repeat(order[:1], pad)])
    return np.stack([rows[order] + r0, cols[order] + c0], axis=1)


def _forward_3d(stack):
    coeffs = dctn(stack, axes=(1, 2), norm="ortho")
    g = stack.shape[0]
    if g > 1:
        coeffs = np.tensordot(hadamard(g), coeffs, axes=(1, 0)) / np.sqrt(g)
    return coeffs


def _inverse_3d(coeffs):
    g = coeffs.shape[0]
    if g > 1:
        coeffs = np.tensordot(hadamard(g), coeffs, axes=(1, 0)) / np.sqrt(g)
    return idctn(coeffs, axes=(1, 2), norm="ortho")


def _collaborative_pass(match_on, image, taus, stage, shrink):
    """Per reference: match, cut both stacks, shrink, add each block in turn."""
    k = K
    h, w = image.shape
    acc = np.zeros_like(image)
    weights = np.zeros_like(image)
    for r in denoise._reference_grid(h):
        for c in denoise._reference_grid(w):
            coords = oracle_block_match(match_on, (r, c), taus, stage)
            matched = np.stack([match_on[i:i + k, j:j + k] for i, j in coords])
            stack = np.stack([image[i:i + k, j:j + k] for i, j in coords])
            coeffs, weight = shrink(matched, stack)
            for (i, j), block in zip(coords, _inverse_3d(coeffs)):
                acc[i:i + k, j:j + k] += weight * block
                weights[i:i + k, j:j + k] += weight
    return np.clip(acc / weights, 0.0, 1.0)


def oracle_hard_stage(noisy, sigma, taus):
    img = as_gray(noisy)
    threshold = LAMBDA_3D * sigma / 255.0

    def shrink(_, stack):
        coeffs = _forward_3d(stack)
        keep = np.abs(coeffs) >= threshold
        keep[0, 0, 0] = True
        return np.where(keep, coeffs, 0.0), 1.0 / (1.0 + int(keep.sum()))

    return _collaborative_pass(img, img, taus, "hard", shrink)


def oracle_wiener_stage(noisy, basic, sigma, taus):
    img, base = as_gray(noisy), as_gray(basic)
    noise_var = (sigma / 255.0) ** 2

    def shrink(basic_stack, noisy_stack):
        basic_coeffs = _forward_3d(basic_stack)
        gain = basic_coeffs ** 2 / (basic_coeffs ** 2 + noise_var)
        return gain * _forward_3d(noisy_stack), 1.0 / (1.0 + float((gain ** 2).sum()))

    return _collaborative_pass(base, img, taus, "wiener", shrink)


def film(shape, sigma, seed=0):
    """Ramp, disc and bar under clipped Gaussian noise: some blocks match."""
    h, w = shape
    rr, cc = np.mgrid[0:h, 0:w]
    clean = 0.2 + 0.4 * cc / w
    clean[(rr - h // 3) ** 2 + (cc - w // 3) ** 2 <= (min(h, w) // 4) ** 2] = 0.8
    clean[(2 * h) // 3:(2 * h) // 3 + 4, :] = 0.5
    rng = np.random.default_rng(seed)
    return np.clip(clean + rng.normal(0.0, sigma / 255.0, shape), 0.0, 1.0)


# (8, 33) has a one-row candidate grid, (33, 8) a one-column grid
SHAPES = [(40, 40), (48, 32), (32, 48), (45, 70), (8, 33), (33, 8)]
SIGMAS = [10.0, 25.0, 50.0]        # both tau pairs

# (hard, Wiener) thresholds; "default" takes sigma's own pair, and the
# loose ones give groups of every size from 1 to 16 sharing a row of
# references in both stages; the keys name the block sides, group sizes
# and strides these cases used while the geometry was settable, so each
# case id still names the same case
TAU_PAIRS = {
    "default": None,
    "k4-n1-n2-step1": (60000.0, 3000.0),
    "k8-k4-n2-n16-step3": (90000.0, 20000.0),
    "k4-k8-n16-n1-step4": (120000.0, 1500.0),
}


def use_taus(monkeypatch, name, sigma):
    """Case `name`'s thresholds at sigma; a loose pair is set as the library's too."""
    if TAU_PAIRS[name] is None:
        return oracle_taus(sigma)
    hard, wiener = TAU_PAIRS[name]
    monkeypatch.setattr(denoise, "match_tau",
                        lambda sigma, stage: {"hard": hard, "wiener": wiener}[stage])
    return TAU_PAIRS[name]


def assert_same_bytes(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


# every pair sees every shape and every sigma, without the full product
CASES = [(name, shape, SIGMAS[(i + j) % len(SIGMAS)])
         for i, name in enumerate(TAU_PAIRS) for j, shape in enumerate(SHAPES)]


@pytest.mark.parametrize("name, shape, sigma", CASES,
                         ids=[f"{n}-{h}x{w}-{s:g}" for n, (h, w), s in CASES])
def test_stages_match_the_oracle_byte_for_byte(monkeypatch, name, shape, sigma):
    taus = use_taus(monkeypatch, name, sigma)
    noisy = film(shape, sigma)
    basic = oracle_hard_stage(noisy, sigma, taus)
    assert_same_bytes(hard_stage(noisy, sigma), basic)
    final = oracle_wiener_stage(noisy, basic, sigma, taus)
    assert_same_bytes(wiener_stage(noisy, basic, sigma), final)
    assert_same_bytes(bm3d_denoise(noisy, sigma), final)


@pytest.mark.parametrize("sigma", [10.0, 50.0])
def test_constant_image_matches_the_oracle(sigma):
    noisy = np.full((24, 40), 0.3)
    taus = oracle_taus(sigma)
    basic = oracle_hard_stage(noisy, sigma, taus)
    assert_same_bytes(hard_stage(noisy, sigma), basic)
    assert_same_bytes(bm3d_denoise(noisy, sigma), oracle_wiener_stage(noisy, basic, sigma, taus))


@pytest.mark.parametrize("name", [name for name in TAU_PAIRS if name != "default"])
def test_oracle_profiles_mix_group_sizes_within_a_row(monkeypatch, name):
    # the batched pass splits a row by group size; make sure the pairs
    # above give every size in each stage and rows holding several at once
    use_taus(monkeypatch, name, 25.0)
    sizes = {}
    real = denoise.block_match

    def recording(image, ref, sigma, stage):
        group = real(image, ref, sigma, stage)
        sizes.setdefault((stage, ref[0]), set()).add(len(group.coordinates))
        return group

    monkeypatch.setattr(denoise, "block_match", recording)
    bm3d_denoise(film((45, 70), 25.0), 25.0)
    for stage in ("hard", "wiener"):
        rows = [s for (st, _), s in sizes.items() if st == stage]
        assert set().union(*rows) == {1, 2, 4, 8, 16}, stage
        assert max(len(s) for s in rows) >= 2, stage


def _assert_groups_match_the_oracle(image, sigma, taus):
    # one matcher per stage, walked row by row as a stage walks it, so the
    # rows that carry block-row sums from the row above are checked too
    h, w = image.shape
    cols = denoise._reference_grid(w)
    for stage in ("hard", "wiener"):
        matcher = denoise.RowDistances(image, cols)
        for r in denoise._reference_grid(h):
            for c in cols:
                coords = block_match(matcher, (r, c), sigma, stage).coordinates
                old = oracle_block_match(image, (r, c), taus, stage)
                assert coords.dtype == old.dtype, (stage, r, c)
                assert np.array_equal(coords, old), (stage, r, c)


@pytest.mark.parametrize("name, shape, sigma", CASES,
                         ids=[f"{n}-{h}x{w}-{s:g}" for n, (h, w), s in CASES])
def test_block_match_assembles_the_groups_of_the_oracle(monkeypatch, name, shape, sigma):
    _assert_groups_match_the_oracle(film(shape, sigma), sigma, use_taus(monkeypatch, name, sigma))


@pytest.mark.parametrize("name", list(TAU_PAIRS))
def test_block_match_breaks_ties_as_the_oracle_does(monkeypatch, name):
    # every block of the constant film ties with the reference, and the
    # 4-level film's distances are multiples of 1/9, so many of them tie
    levels = np.floor(np.random.default_rng(3).random((30, 37)) * 4) / 3
    taus = use_taus(monkeypatch, name, 50.0)
    for image in (np.full((21, 26), 0.3), levels):
        _assert_groups_match_the_oracle(image, 50.0, taus)


def _draw_film(draw, h, w):
    """An h x w film of one level of eighths with a drawn share of pixels moved.

    Many candidates tie at zero. Moved by 1/8, every square is exact and
    candidates also tie at one moved pixel; moved by a continuous
    amount, the squares round, so the summation order shows in the
    bytes.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    moved = rng.random((h, w)) < draw(st.sampled_from([0.0, 0.01, 0.1, 0.5, 1.0]))
    steps = rng.choice([-1, 1], (h, w)) if draw(st.booleans()) else rng.normal(0.0, 1.0, (h, w))
    return np.clip(draw(st.integers(0, 8)) + moved * steps, 0, 8) / 8.0


@st.composite
def _match_cases(draw):
    """A `_draw_film` film, a noise level and one reference block of either stage.

    Sides of 8 give one-row and one-column candidate grids, and sides up
    to 48 put the 16-pixel search window inside the film or clipped at
    any of its borders.
    """
    stage = draw(st.sampled_from(["hard", "wiener"]))
    h, w = draw(st.integers(K, 48)), draw(st.integers(K, 48))
    r = draw(st.sampled_from([0, h - K]) | st.integers(0, h - K))
    c = draw(st.sampled_from([0, w - K]) | st.integers(0, w - K))
    sigma = draw(st.sampled_from([25.0, 50.0]))    # both tau pairs
    return _draw_film(draw, h, w), (r, c), sigma, stage


def _recording_row_distances(monkeypatch):
    """A list that gets, per `_row_distances` call, its row, columns, a copy
    of its distances and whether it was given a carry."""
    rows = []
    real = denoise._row_distances

    def recording(film, r, cols, carried):
        dists, carry = real(film, r, cols, carried)
        rows.append((r, list(cols), dists.copy(), carried is not None))
        return dists, carry

    monkeypatch.setattr(denoise, "_row_distances", recording)
    return rows


def _assert_old_distances_and_group(image, ref, sigma, stage, row, matched):
    """The reference's window of its row's distances, and its group, against the oracles."""
    k, rad = K, RADIUS
    h, w = image.shape
    (r, c), (_, cols, dists, _) = ref, row
    c0, c1 = max(0, c - rad), min(w - k, c + rad)
    region = image[max(0, r - rad):min(h - k, r + rad) + k, c0:c1 + k]
    window = dists[cols.index(c), :, c0 - c + rad:c1 - c + rad + 1]
    assert_same_bytes(window, oracle_distances(region, image[r:r + k, c:c + k]))
    expected = oracle_block_match(image, ref, oracle_taus(sigma), stage)
    assert matched.dtype == expected.dtype
    assert np.array_equal(matched, expected)


@settings(max_examples=300, deadline=None)
@given(_match_cases())
def test_block_match_keeps_the_old_distances_and_groups(case):
    # the drawn column joins the anchors of a stage's row, so the row
    # kernel computes it beside runs of anchors 4 pixels apart and the
    # far border's
    image, (r, c), sigma, stage = case
    anchors = sorted({*denoise._reference_grid(image.shape[1]), c})
    matcher = denoise.RowDistances(image, anchors)
    with pytest.MonkeyPatch.context() as monkeypatch:
        rows = _recording_row_distances(monkeypatch)
        coords = block_match(matcher, (r, c), sigma, stage).coordinates
    [row] = rows
    _assert_old_distances_and_group(image, (r, c), sigma, stage, row, coords)


@st.composite
def _walk_cases(draw):
    """A `_draw_film` film up to 64 x 64 and a noise level."""
    h, w = draw(st.integers(K, 64)), draw(st.integers(K, 64))
    sigma = draw(st.sampled_from([25.0, 50.0]))    # both tau pairs
    return _draw_film(draw, h, w), sigma


@settings(max_examples=100, deadline=None)
@given(_walk_cases())
def test_row_walk_keeps_the_old_distances_and_groups_across_carried_rows(case):
    # a stage takes its references row by row, so each row 4 pixels below
    # the last adds its own 4 block rows to the 4 carried from there;
    # every reference of every row is checked, the carried ones included
    image, sigma = case
    h, w = image.shape
    row_refs, col_refs = denoise._reference_grid(h), denoise._reference_grid(w)
    for stage in ("hard", "wiener"):
        distances = denoise.RowDistances(image, col_refs)
        with pytest.MonkeyPatch.context() as monkeypatch:
            rows = _recording_row_distances(monkeypatch)
            groups = {(r, c): block_match(distances, (r, c), sigma, stage).coordinates
                      for r in row_refs for c in col_refs}
        assert [row[0] for row in rows] == row_refs
        assert [row[3] for row in rows] == [
            i > 0 and r == row_refs[i - 1] + denoise.STEP for i, r in enumerate(row_refs)]
        for (r, c), coords in groups.items():
            row = rows[row_refs.index(r)]
            _assert_old_distances_and_group(image, (r, c), sigma, stage, row, coords)


@pytest.mark.parametrize("g", [1, 2, 4, 8, 16])
def test_walsh_matrix_keeps_the_bytes_of_scipy_hadamard(g):
    # the integer matrix, held as float64; _walsh divides by sqrt(g) once
    assert_same_bytes(denoise._hadamard(g), hadamard(g).astype(np.float64))
