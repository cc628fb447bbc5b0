import numpy as np
import pytest

from mammocad.core import (
    ImageFormatError,
    TruncatedDataError,
    connected_components,
    largest_component,
    mask_contour,
    read_pgm,
    read_pgm_file,
    resize_bilinear,
    write_pgm,
    write_ppm_overlay,
)


def make_pgm(width, height, pixels, maxval=255, comment=None):
    header = f"P5\n"
    if comment:
        header += f"#{comment}\n"
    header += f"{width} {height}\n{maxval}\n"
    return header.encode() + bytes(pixels)


def test_read_pgm_maps_to_unit_range():
    img = read_pgm(make_pgm(2, 2, [0, 255, 128, 64]))
    assert img.shape == (2, 2)
    np.testing.assert_allclose(img, [[0.0, 1.0], [128 / 255, 64 / 255]])


def test_read_pgm_tolerates_comments():
    img = read_pgm(make_pgm(2, 1, [10, 20], comment=" created by a scanner"))
    np.testing.assert_allclose(img, [[10 / 255, 20 / 255]])


def test_read_pgm_respects_maxval():
    img = read_pgm(make_pgm(1, 1, [50], maxval=100))
    assert img[0, 0] == 0.5


def test_read_pgm_rejects_ascii_variant():
    with pytest.raises(ImageFormatError):
        read_pgm(b"P2\n2 2\n255\n0 1 2 3\n")


def test_read_pgm_rejects_bad_magic_and_maxval():
    with pytest.raises(ImageFormatError):
        read_pgm(b"P6\n1 1\n255\n\x00\x00\x00")
    with pytest.raises(ImageFormatError):
        read_pgm(make_pgm(1, 1, [0] * 2, maxval=65535))
    with pytest.raises(ImageFormatError, match="exceeds maxval"):
        read_pgm(make_pgm(2, 1, [7, 200], maxval=100))


def test_read_pgm_truncated_payload():
    with pytest.raises(TruncatedDataError):
        read_pgm(b"P5\n4 4\n255\n" + bytes(7))


def test_read_pgm_file_errors_name_the_file(tmp_path):
    path = tmp_path / "film.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
    with pytest.raises(ImageFormatError, match="film.pgm: unsupported magic"):
        read_pgm_file(path)
    path.write_bytes(make_pgm(2, 2, [0, 255, 0, 255]))
    np.testing.assert_array_equal(read_pgm_file(path), [[0.0, 1.0], [0.0, 1.0]])


def test_pgm_round_trip_bit_exact():
    rng = np.random.default_rng(7)
    for _ in range(25):
        h, w = rng.integers(1, 40, size=2)
        raw = rng.integers(0, 256, size=(h, w), dtype=np.uint8)
        img = raw.astype(np.float64) / 255.0
        again = read_pgm(write_pgm(img))
        np.testing.assert_array_equal(again, img)
        # and the encoded bytes themselves are stable
        assert write_pgm(again) == write_pgm(img)


def test_write_pgm_mask():
    mask = np.zeros((3, 3), dtype=bool)
    data = write_pgm(mask)
    assert data.endswith(bytes(9))
    mask[1, 1] = True
    assert read_pgm(write_pgm(mask))[1, 1] == 1.0


def test_overlay_empty_contour_is_gray():
    img = np.linspace(0, 1, 12).reshape(3, 4)
    data = write_ppm_overlay(img, np.zeros((3, 4), dtype=bool))
    assert data.startswith(b"P6\n4 3\n255\n")
    rgb = np.frombuffer(data.split(b"\n", 3)[3], dtype=np.uint8).reshape(3, 4, 3)
    assert (rgb[:, :, 0] == rgb[:, :, 1]).all()
    assert (rgb[:, :, 1] == rgb[:, :, 2]).all()


def test_overlay_contour_is_pure_red():
    img = np.full((2, 2), 0.5)
    contour = np.array([[True, False], [False, False]])
    rgb = np.frombuffer(write_ppm_overlay(img, contour).split(b"\n", 3)[3],
                        dtype=np.uint8).reshape(2, 2, 3)
    assert tuple(rgb[0, 0]) == (255, 0, 0)
    assert tuple(rgb[0, 1]) == (128, 128, 128)


def test_resize_constant_stays_constant():
    img = np.full((5, 7), 0.3)
    out = resize_bilinear(img, 13, 3)
    assert out.shape == (3, 13)
    np.testing.assert_allclose(out, 0.3)


def test_resize_identity():
    rng = np.random.default_rng(0)
    img = rng.random((6, 9))
    np.testing.assert_allclose(resize_bilinear(img, 9, 6), img)


def test_resize_corner_aligned_interpolation():
    img = np.array([[0.0], [1.0]])  # 2 rows x 1 col
    out = resize_bilinear(img, 1, 3)
    np.testing.assert_allclose(out[:, 0], [0.0, 0.5, 1.0])


def test_resize_range_bounded():
    rng = np.random.default_rng(3)
    img = rng.random((8, 8))
    out = resize_bilinear(img, 21, 5)
    assert out.min() >= img.min() - 1e-12
    assert out.max() <= img.max() + 1e-12


def test_resize_rejects_zero_target():
    with pytest.raises(ValueError):
        resize_bilinear(np.zeros((2, 2)), 0, 4)


def flood_fill_components(mask):
    """Independent 8-connectivity labelling by explicit BFS."""
    h, w = mask.shape
    labels = np.zeros((h, w), dtype=int)
    count = 0
    for sr in range(h):
        for sc in range(w):
            if mask[sr, sc] and labels[sr, sc] == 0:
                count += 1
                stack = [(sr, sc)]
                labels[sr, sc] = count
                while stack:
                    r, c = stack.pop()
                    for dr in (-1, 0, 1):
                        for dc in (-1, 0, 1):
                            rr, cc = r + dr, c + dc
                            if 0 <= rr < h and 0 <= cc < w and mask[rr, cc] \
                                    and labels[rr, cc] == 0:
                                labels[rr, cc] = count
                                stack.append((rr, cc))
    return labels, count


def test_components_empty():
    lm = connected_components(np.zeros((4, 4), dtype=bool))
    assert lm.component_count == 0
    assert not lm.labels.any()


def test_components_diagonal_touch_is_one():
    mask = np.zeros((3, 3), dtype=bool)
    mask[0, 0] = mask[1, 1] = True
    assert connected_components(mask).component_count == 1


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(11)
    for _ in range(30):
        mask = rng.random((12, 15)) < 0.35
        lm = connected_components(mask)
        oracle_labels, oracle_count = flood_fill_components(mask)
        assert lm.component_count == oracle_count
        # partition equality: same pixels per component, same encounter order
        np.testing.assert_array_equal(lm.labels > 0, mask)
        for k in range(1, oracle_count + 1):
            ours = set(zip(*np.nonzero(lm.labels == k)))
            theirs = set(zip(*np.nonzero(oracle_labels == k)))
            assert ours == theirs


def test_two_blobs_separated_by_column():
    mask = np.ones((4, 5), dtype=bool)
    mask[:, 2] = False
    lm = connected_components(mask)
    assert lm.component_count == 2


def test_largest_component_keeps_biggest():
    mask = np.zeros((6, 10), dtype=bool)
    mask[0:2, 0:5] = True      # 10 pixels
    mask[4:5, 7:10] = True     # 3 pixels
    keep = largest_component(connected_components(mask))
    assert keep.sum() == 10
    assert keep[0, 0] and not keep[4, 8]


def test_largest_component_of_nothing_is_empty():
    keep = largest_component(connected_components(np.zeros((3, 3), dtype=bool)))
    assert not keep.any()


def test_largest_component_single_blob_identity():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    keep = largest_component(connected_components(mask))
    np.testing.assert_array_equal(keep, mask)


def test_mask_contour_ring():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    contour = mask_contour(mask)
    assert contour[1, 1] and contour[1, 3]
    assert not contour[2, 2]
