"""The phantom generator draws exactly what its truth masks say."""

import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import ndimage

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from inputs import Film, SPECS, films, info_line, write_inputs  # noqa: E402
from phantom import FAT, GLAND, LESION, PECTORAL, TAG, encode_pgm, make_phantom  # noqa: E402

from mammocad.dataset import ground_truth_mask, parse_info  # noqa: E402


@pytest.mark.parametrize("size", [64, 256])
@pytest.mark.parametrize("seed", range(6))
def test_truth_masks_match_the_drawn_film(size, seed):
    p = make_phantom(size, seed)
    assert np.all(p.clean[p.lesion] == LESION)
    assert np.all(p.clean[p.pectoral] == PECTORAL)
    assert np.all(p.clean[p.tag] == TAG)
    tissue = p.breast & ~p.lesion & ~p.pectoral
    assert np.all(np.isin(p.clean[tissue], (FAT, GLAND)))
    assert np.all(p.clean[~p.breast & ~p.tag] == 0.0)

    assert p.lesion.any() and p.pectoral.any() and p.tag.any()
    assert not (p.lesion & p.pectoral).any()
    assert not (p.lesion & ~p.breast).any()
    # the tag stands apart from the breast, even 8-connected
    assert not (ndimage.binary_dilation(p.tag, np.ones((3, 3))) & p.breast).any()


@pytest.mark.parametrize("seed", range(6))
def test_pectoral_sits_in_the_top_chest_wall_corner(seed):
    p = make_phantom(128, seed)
    wall = 0 if p.breast[:, 0].all() else 127
    assert p.breast[:, wall].all()
    assert p.pectoral[0, wall] and p.pectoral[:, wall].any()
    rows = np.flatnonzero(p.pectoral.any(axis=1))
    assert rows[0] == 0 and rows[-1] < 64


@pytest.mark.parametrize("seed", range(6))
def test_lesion_circle_is_the_lesion_mask(seed):
    p = make_phantom(200, seed)
    row, col, radius = p.lesion_circle
    rr, cc = np.mgrid[0:200, 0:200]
    np.testing.assert_array_equal(p.lesion, (rr - row) ** 2 + (cc - col) ** 2 <= radius ** 2)


def test_info_record_uses_the_archive_convention():
    film = Film("mdb001", 200, 5.0, True, (3, 0, 0), (3, 0, 0, 1))
    p = film.truth()
    record = parse_info(info_line(film, p))[0]
    np.testing.assert_array_equal(ground_truth_mask(record, (200, 200)), p.lesion)


def test_normal_film_has_no_lesion():
    p = make_phantom(128, 5, with_lesion=False)
    assert not p.lesion.any() and p.lesion_circle is None
    assert not np.any(p.clean == LESION)


def test_same_seed_same_inputs(tmp_path):
    for workload in SPECS:
        a = [f.phantom_seed for f in films(workload, 7)]
        assert a == [f.phantom_seed for f in films(workload, 7)]
        assert a != [f.phantom_seed for f in films(workload, 8)]
    write_inputs("segment-256", 7, tmp_path / "a")
    write_inputs("segment-256", 7, tmp_path / "b")
    for path in (tmp_path / "a").iterdir():
        assert path.read_bytes() == (tmp_path / "b" / path.name).read_bytes()


def test_pgm_encoding_round_trips():
    p = make_phantom(64, 1)
    data = encode_pgm(p.clean)
    header = b"P5\n64 64\n255\n"
    assert data.startswith(header)
    pixels = np.frombuffer(data[len(header):], dtype=np.uint8).reshape(64, 64)
    np.testing.assert_array_equal(pixels / 255.0, np.rint(p.clean * 255.0) / 255.0)
