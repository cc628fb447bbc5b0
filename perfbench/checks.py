"""Output checks, written apart from the program they check.

Each check returns a list of problems, empty when the output is right.
Nothing here imports `mammocad`: Dice and PSNR are computed afresh, and
the gradient check only calls the loss it is handed.
"""

from __future__ import annotations

import numpy as np

MIN_DICE = 0.9
MIN_PSNR_GAIN_DB = 2.0
MAX_GRAD_REL_ERR = 1e-4
FD_STEP = 3e-8                      # small enough that a ReLU kink rarely falls inside


def dice(a: np.ndarray, b: np.ndarray) -> float:
    a, b = np.asarray(a, dtype=bool), np.asarray(b, dtype=bool)
    total = int(a.sum()) + int(b.sum())
    return 1.0 if total == 0 else 2.0 * int((a & b).sum()) / total


def psnr_db(image: np.ndarray, reference: np.ndarray) -> float:
    mse = float(np.mean((np.asarray(image, dtype=np.float64) - reference) ** 2))
    return float("inf") if mse == 0.0 else 10.0 * np.log10(1.0 / mse)


def overlap_problems(what: str, mask, truth) -> tuple[list[str], float]:
    score = dice(mask, truth)
    problems = [] if score >= MIN_DICE else [f"{what} Dice {score:.3f} < {MIN_DICE}"]
    return problems, score


def tag_problems(image, tag) -> list[str]:
    left = int(np.count_nonzero(np.asarray(image)[tag]))
    return [] if left == 0 else [f"{left} tag pixels survive artifact removal"]


def fd_probe(loss, array, index, base, step=FD_STEP) -> tuple[float, float]:
    """Central difference of `loss()` in array[index], and the gap between
    its right and left one-sided slopes. The array is restored."""
    keep = array[index]
    array[index] = keep + step
    hi = loss()
    array[index] = keep - step
    lo = loss()
    array[index] = keep
    return (hi - lo) / (2.0 * step), ((hi - base) - (base - lo)) / step


def gradient_problems(loss, tensors, tries=4) -> list[str]:
    """Compare analytic gradients with finite differences of `loss()`.

    `tensors` maps a name to (parameter array, analytic gradient). In
    each tensor the weights with the largest analytic gradient are
    probed in turn, so the difference stands well above rounding noise.
    A probe whose one-sided slopes differ has a kink (a ReLU or max-pool
    switch) inside the step and says nothing about backward; the next
    weight is tried. The first smooth probe must agree to
    MAX_GRAD_REL_ERR, relative to the larger of the two values.
    """
    base = loss()
    problems = []
    for name, (array, grad) in tensors.items():
        order = np.argsort(-np.abs(grad), axis=None, kind="stable")[:tries]
        for flat in order:
            index = np.unravel_index(flat, grad.shape)
            analytic = float(grad[index])
            numeric, gap = fd_probe(loss, array, index, base)
            scale = max(abs(analytic), abs(numeric))
            if scale == 0.0:
                break
            if abs(gap) > MAX_GRAD_REL_ERR * scale:
                continue
            error = abs(analytic - numeric) / scale
            if error > MAX_GRAD_REL_ERR:
                problems.append(f"{name}{tuple(int(i) for i in index)}: backward gives "
                                f"{analytic:.6e}, finite differences {numeric:.6e}")
            break
        else:
            problems.append(f"{name}: no smooth weight among the {tries} largest gradients")
    return problems
