"""One augmentation variant with every random draw pinned, for tests."""

from mammocad.cnn.augment import _render
from mammocad.core import as_gray


def augment_with_params(image, angle_deg, mirror, scale, crop_rc, shift_rc,
                        target_size, fill):
    """Deterministic augmentation with every random draw pinned."""
    return _render(as_gray(image), angle_deg, fill, [(mirror, scale, crop_rc, shift_rc)],
                   target_size)[0]
