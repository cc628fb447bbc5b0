import numpy as np
import pytest

from mammocad.core import TruncatedDataError, write_pgm
from mammocad.dataset import (
    InfoParseError,
    MiasRecord,
    combined_ground_truth,
    ground_truth_mask,
    load_dataset,
    load_item,
    parse_info,
)

INFO_SAMPLE = """\
mdb001 G CIRC B 535 425 197
mdb002 G CIRC B 522 280 69
mdb003 D NORM
mdb004 D NORM
mdb005 F CIRC B 477 133 30
mdb005 F CIRC B 500 168 26
"""


def test_parse_full_record():
    rec = parse_info("mdb001 G CIRC B 535 425 197")[0]
    assert rec.id == "mdb001"
    assert rec.tissue == "G"
    assert rec.abnormality == "CIRC"
    assert rec.severity == "B"
    assert rec.center == (535, 425)
    assert rec.radius == 197
    assert rec.abnormal


def test_parse_normal_record():
    rec = parse_info("mdb003 D NORM")[0]
    assert rec.severity is None and rec.center is None and rec.radius is None
    assert not rec.abnormal


def test_parse_rejects_unknown_code():
    with pytest.raises(InfoParseError, match="line 1"):
        parse_info("mdbXXX G BOGUS")


def test_parse_rejects_bad_field_count():
    with pytest.raises(InfoParseError, match="line 2"):
        parse_info("mdb001 G NORM\nmdb002 G CIRC B 11\n")


def test_parse_rejects_geometry_on_normal():
    with pytest.raises(InfoParseError):
        parse_info("mdb001 G NORM B 10 10 5")


@pytest.mark.parametrize("radius", ["-5", "0"])
def test_parse_rejects_radius_below_one(radius):
    with pytest.raises(InfoParseError, match="line 2.*radius"):
        parse_info(f"mdb001 G NORM\nmdb002 G CIRC B 30 30 {radius}\n")


def test_load_item_pgm_errors_name_the_file(tmp_path):
    (tmp_path / "mdb001.pgm").write_bytes(b"P5\n64 64\n255\n" + bytes(10))
    with pytest.raises(TruncatedDataError, match="mdb001.pgm.*found 10"):
        load_item(tmp_path, parse_info("mdb001 G NORM"))


def test_parse_skips_blank_and_comment_lines():
    records = parse_info("# header\n\nmdb001 G NORM\n")
    assert len(records) == 1


def test_parse_keeps_duplicate_ids():
    records = parse_info(INFO_SAMPLE)
    assert len(records) == 6
    assert sum(1 for r in records if r.id == "mdb005") == 2


def test_ground_truth_zero_radius_single_pixel():
    rec = MiasRecord("mdb001", "G", "CIRC", "B", center=(10, 20), radius=0)
    mask = ground_truth_mask(rec, (64, 64))
    assert mask.sum() == 1
    assert mask[64 - 20, 10]


def test_ground_truth_area_close_to_circle():
    rec = parse_info("mdb001 G CIRC B 100 100 50")[0]
    mask = ground_truth_mask(rec, (200, 200))
    area = mask.sum()
    assert abs(area - np.pi * 50 ** 2) / (np.pi * 50 ** 2) < 0.02


def test_ground_truth_y_axis_flipped():
    rec = parse_info("mdb001 G CIRC B 30 10 2")[0]
    mask = ground_truth_mask(rec, (100, 100))
    rows = np.nonzero(mask)[0]
    assert rows.mean() == 90  # y=10 from the bottom of a 100-row image


def test_ground_truth_clipped_at_borders():
    rec = parse_info("mdb001 G CIRC B 2 98 10")[0]
    mask = ground_truth_mask(rec, (100, 100))
    assert mask.any()
    assert mask.shape == (100, 100)


@pytest.mark.parametrize("line, covers", [
    ("mdb002 G CIRC B 5000 5000 8", False),
    ("mdb002 G CIRC B -3 50 2", False),     # 1 px short of column 0
    ("mdb002 G CIRC B -3 50 3", True),      # reaches column 0 in row 50
    ("mdb002 G CIRC B 50 103 3", True),     # reaches row 0 from above the film
    ("mdb002 G CIRC B 50 104 3", False),
])
def test_ground_truth_refuses_a_circle_off_the_film(line, covers):
    rec = parse_info(line)[0]
    if covers:
        assert ground_truth_mask(rec, (100, 100)).sum() == 1
        return
    with pytest.raises(ValueError, match="covers no pixel") as raised:
        ground_truth_mask(rec, (100, 100))
    for part in ("'mdb002'", str(rec.center), "100 rows and 100 columns"):
        assert part in str(raised.value)
    with pytest.raises(ValueError, match="mdb002"):
        combined_ground_truth([rec], (100, 100))


def test_ground_truth_requires_geometry():
    rec = parse_info("mdb003 D NORM")[0]
    with pytest.raises(ValueError):
        ground_truth_mask(rec, (64, 64))


def write_dataset(tmp_path, info_text):
    rng = np.random.default_rng(0)
    (tmp_path / "info.txt").write_text(info_text)
    for rec_id in {line.split()[0] for line in info_text.splitlines() if line.strip()}:
        img = rng.random((64, 64))
        (tmp_path / f"{rec_id}.pgm").write_bytes(write_pgm(img))
    return tmp_path / "info.txt"


def test_load_dataset_one_item_per_image(tmp_path):
    info = write_dataset(tmp_path, INFO_SAMPLE)
    with pytest.warns(UserWarning):  # not the full archive
        items = load_dataset(tmp_path, info)
    assert len(items) == 5          # mdb005 appears once despite two records
    by_id = {item.records[0].id: item for item in items}
    assert by_id["mdb001"].label == 1
    assert by_id["mdb003"].label == 0
    assert len(by_id["mdb005"].records) == 2


@pytest.mark.filterwarnings("ignore:dataset has")
def test_load_dataset_missing_file_names_id(tmp_path):
    (tmp_path / "info.txt").write_text("mdb042 G NORM\n")
    with pytest.raises(OSError, match="mdb042"):
        load_dataset(tmp_path, tmp_path / "info.txt")


def test_combined_ground_truth_unions_lesions(tmp_path):
    info = write_dataset(tmp_path, INFO_SAMPLE)
    # a film of the archive's size, on which both of mdb005's circles lie
    (tmp_path / "mdb005.pgm").write_bytes(write_pgm(np.zeros((1024, 1024))))
    with pytest.warns(UserWarning):
        items = load_dataset(tmp_path, info)
    multi = next(item for item in items if item.records[0].id == "mdb005")
    union = combined_ground_truth(multi.records, multi.image.shape)
    parts = [ground_truth_mask(r, multi.image.shape) for r in multi.records]
    np.testing.assert_array_equal(union, parts[0] | parts[1])
    assert parts[0].any() and parts[1].any()


def test_combined_ground_truth_empty_for_normals():
    assert not combined_ground_truth(parse_info("mdb003 D NORM"), (8, 8)).any()
