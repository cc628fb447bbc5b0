"""The one-group-at-a-time collaborative pass, kept as the oracle.

`_forward_3d`, `_inverse_3d` and `_collaborative_pass` below transform,
shrink and aggregate one reference block's group at a time, as
`mammocad.denoise` did before it batched a row of references into
(B, G, k, k) stacks. The batched pass does the same float operations in
the same per-pixel order, so its output must match this one byte for
byte. `oracle_block_match` assembles a group as `block_match` did before
it sorted the reference together with the other matches: the reference,
then the others by stable distance order, truncated, then padded. The
oracle pass matches through it, so the stage oracles never call
`block_match`.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import dctn, idctn
from scipy.linalg import hadamard

from mammocad import denoise
from mammocad.core import as_gray
from mammocad.denoise import (
    Bm3dProfile,
    bm3d_denoise,
    block_match,
    default_profile,
    hard_stage,
    wiener_stage,
)


def _next_pow2(n):
    p = 1
    while p < n:
        p *= 2
    return p


def oracle_block_match(image, ref, profile, stage):
    if stage == "hard":
        k, n_max, tau = profile.k_hard, profile.n_hard, profile.tau_hard
    else:
        k, n_max, tau = profile.k_wie, profile.n_wie, profile.tau_wie
    h, w = image.shape
    r, c = ref
    rad = profile.search_radius
    r0, r1 = max(0, r - rad), min(h - k, r + rad)
    c0, c1 = max(0, c - rad), min(w - k, c + rad)
    windows = sliding_window_view(image[r0:r1 + k, c0:c1 + k], (k, k))
    dists = ((windows - image[r:r + k, c:c + k]) ** 2).sum(axis=(2, 3)) / (k * k)
    rows, cols = np.nonzero(dists <= tau / (k * k * 255.0 * 255.0))
    rows, cols = rows + r0, cols + c0
    d = dists[rows - r0, cols - c0]
    not_ref = (rows != r) | (cols != c)
    order = np.argsort(d[not_ref], kind="stable")
    coords = np.concatenate([
        np.array([[r, c]], dtype=np.int64),
        np.stack([rows[not_ref][order], cols[not_ref][order]], axis=1),
    ])[:n_max]
    target = min(_next_pow2(len(coords)), n_max)
    if len(coords) < target:
        coords = np.concatenate([coords, np.repeat(coords[:1], target - len(coords), axis=0)])
    return coords


def _forward_3d(stack):
    coeffs = dctn(stack, axes=(1, 2), norm="ortho")
    g = stack.shape[0]
    if g > 1:
        hmat = hadamard(g) / np.sqrt(g)
        coeffs = np.tensordot(hmat, coeffs, axes=(1, 0))
    return coeffs


def _inverse_3d(coeffs):
    g = coeffs.shape[0]
    if g > 1:
        hmat = hadamard(g) / np.sqrt(g)
        coeffs = np.tensordot(hmat, coeffs, axes=(1, 0))
    return idctn(coeffs, axes=(1, 2), norm="ortho")


def _collaborative_pass(match_on, image, profile, stage, shrink):
    """Per reference: match, cut both stacks, shrink, add each block in turn."""
    k = profile.k_hard if stage == "hard" else profile.k_wie
    h, w = image.shape
    acc = np.zeros_like(image)
    weights = np.zeros_like(image)
    for r in denoise._reference_grid(h, k, profile.step):
        for c in denoise._reference_grid(w, k, profile.step):
            coords = oracle_block_match(match_on, (r, c), profile, stage)
            matched = np.stack([match_on[i:i + k, j:j + k] for i, j in coords])
            stack = np.stack([image[i:i + k, j:j + k] for i, j in coords])
            coeffs, weight = shrink(matched, stack)
            for (i, j), block in zip(coords, _inverse_3d(coeffs)):
                acc[i:i + k, j:j + k] += weight * block
                weights[i:i + k, j:j + k] += weight
    return np.clip(acc / weights, 0.0, 1.0)


def oracle_hard_stage(noisy, sigma, profile):
    img = as_gray(noisy)
    threshold = profile.lambda_3d * sigma / 255.0

    def shrink(_, stack):
        coeffs = _forward_3d(stack)
        keep = np.abs(coeffs) >= threshold
        keep[0, 0, 0] = True
        return np.where(keep, coeffs, 0.0), 1.0 / (1.0 + int(keep.sum()))

    return _collaborative_pass(img, img, profile, "hard", shrink)


def oracle_wiener_stage(noisy, basic, sigma, profile):
    img, base = as_gray(noisy), as_gray(basic)
    noise_var = (sigma / 255.0) ** 2

    def shrink(basic_stack, noisy_stack):
        basic_coeffs = _forward_3d(basic_stack)
        gain = basic_coeffs ** 2 / (basic_coeffs ** 2 + noise_var)
        return gain * _forward_3d(noisy_stack), 1.0 / (1.0 + float((gain ** 2).sum()))

    return _collaborative_pass(base, img, profile, "wiener", shrink)


def film(shape, sigma, seed=0):
    """Ramp, disc and bar under clipped Gaussian noise: some blocks match."""
    h, w = shape
    rr, cc = np.mgrid[0:h, 0:w]
    clean = 0.2 + 0.4 * cc / w
    clean[(rr - h // 3) ** 2 + (cc - w // 3) ** 2 <= (min(h, w) // 4) ** 2] = 0.8
    clean[(2 * h) // 3:(2 * h) // 3 + 4, :] = 0.5
    rng = np.random.default_rng(seed)
    return np.clip(clean + rng.normal(0.0, sigma / 255.0, shape), 0.0, 1.0)


SHAPES = [(40, 40), (48, 32), (32, 48), (45, 70), (8, 33)]
SIGMAS = [10.0, 25.0, 50.0]        # both tau pairs of the default profile

# loose thresholds, so groups of several sizes share a row of references
PROFILES = {
    "default": None,
    "k4-n1-n2-step1": Bm3dProfile(k_hard=4, k_wie=4, n_hard=1, n_wie=2, step=1,
                                  search_radius=3, tau_hard=20000.0, tau_wie=100.0),
    "k8-k4-n2-n16-step3": Bm3dProfile(k_hard=8, k_wie=4, n_hard=2, n_wie=16, step=3,
                                      search_radius=6, tau_hard=100000.0, tau_wie=8000.0),
    "k4-k8-n16-n1-step4": Bm3dProfile(k_hard=4, k_wie=8, n_hard=16, n_wie=1, step=4,
                                      search_radius=5, tau_hard=15000.0, tau_wie=5000.0),
}


def assert_same_bytes(new, old):
    assert new.shape == old.shape and new.dtype == old.dtype
    assert new.tobytes() == old.tobytes()


# every profile sees every shape and every sigma, without the full product
CASES = [(name, shape, SIGMAS[(i + j) % len(SIGMAS)])
         for i, name in enumerate(PROFILES) for j, shape in enumerate(SHAPES)]


@pytest.mark.parametrize("name, shape, sigma", CASES,
                         ids=[f"{n}-{h}x{w}-{s:g}" for n, (h, w), s in CASES])
def test_stages_match_the_oracle_byte_for_byte(name, shape, sigma):
    profile = PROFILES[name] or default_profile(sigma)
    noisy = film(shape, sigma)
    basic = oracle_hard_stage(noisy, sigma, profile)
    assert_same_bytes(hard_stage(noisy, sigma, profile), basic)
    final = oracle_wiener_stage(noisy, basic, sigma, profile)
    assert_same_bytes(wiener_stage(noisy, basic, sigma, profile), final)
    assert_same_bytes(bm3d_denoise(noisy, sigma, profile), final)


@pytest.mark.parametrize("sigma", [10.0, 50.0])
def test_constant_image_matches_the_oracle(sigma):
    noisy = np.full((24, 40), 0.3)
    profile = default_profile(sigma)
    basic = oracle_hard_stage(noisy, sigma, profile)
    assert_same_bytes(hard_stage(noisy, sigma, profile), basic)
    assert_same_bytes(bm3d_denoise(noisy, sigma, profile),
                      oracle_wiener_stage(noisy, basic, sigma, profile))


@pytest.mark.parametrize("name", [name for name in PROFILES if name != "default"])
def test_oracle_profiles_mix_group_sizes_within_a_row(monkeypatch, name):
    # the batched pass splits a row by group size; make sure the profiles
    # above give rows holding several sizes at once wherever a stage can
    profile = PROFILES[name]
    sizes = {}
    real = denoise.block_match

    def recording(image, ref, profile, stage):
        group = real(image, ref, profile, stage)
        sizes.setdefault((stage, ref[0]), set()).add(len(group.coordinates))
        return group

    monkeypatch.setattr(denoise, "block_match", recording)
    bm3d_denoise(film((45, 70), 25.0), 25.0, profile)
    for stage, n_max in (("hard", profile.n_hard), ("wiener", profile.n_wie)):
        mixed = max(len(s) for (st, _), s in sizes.items() if st == stage)
        assert mixed == 1 if n_max == 1 else mixed >= 2, stage


def _assert_groups_match_the_oracle(image, profile):
    h, w = image.shape
    for stage, k in (("hard", profile.k_hard), ("wiener", profile.k_wie)):
        for r in denoise._reference_grid(h, k, profile.step):
            for c in denoise._reference_grid(w, k, profile.step):
                coords = block_match(image, (r, c), profile, stage).coordinates
                old = oracle_block_match(image, (r, c), profile, stage)
                assert coords.dtype == old.dtype, (stage, r, c)
                assert np.array_equal(coords, old), (stage, r, c)


@pytest.mark.parametrize("name, shape, sigma", CASES,
                         ids=[f"{n}-{h}x{w}-{s:g}" for n, (h, w), s in CASES])
def test_block_match_assembles_the_groups_of_the_oracle(name, shape, sigma):
    _assert_groups_match_the_oracle(film(shape, sigma), PROFILES[name] or default_profile(sigma))


@pytest.mark.parametrize("name", list(PROFILES))
def test_block_match_breaks_ties_as_the_oracle_does(name):
    # every block of the constant film ties with the reference, and the
    # 4-level film's distances are multiples of 1/9, so many of them tie
    levels = np.floor(np.random.default_rng(3).random((30, 37)) * 4) / 3
    profile = PROFILES[name] or default_profile(50.0)
    for image in (np.full((21, 26), 0.3), levels):
        _assert_groups_match_the_oracle(image, profile)
