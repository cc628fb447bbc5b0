"""The fuzzy c-means objective, for tests that follow it over iterations."""

import numpy as np

from mammocad.core import as_gray


def objective(image, memberships, centers, fuzziness: float) -> float:
    """Weighted within-cluster squared error the iteration minimizes."""
    intensities = as_gray(image).ravel()
    mu = np.asarray(memberships, dtype=np.float64)
    v = np.asarray(centers, dtype=np.float64)
    d2 = (intensities[None, :] - v[:, None]) ** 2
    return float(((mu ** fuzziness) * d2).sum())
