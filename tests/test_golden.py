"""Golden output digests: "the same bytes" as a test.

Each case computes an output in-process and compares its sha256 with
the digest written below. A change that keeps bytes leaves this file
as it is; a change that moves bytes edits the digests it moves, and
says why. The films are generated here from fixed seeds. The `segment`
films cover both match-threshold pairs, with σ 40 on the boundary
between them. Training digests are not pinned: checkpoint bytes still
depend on the BLAS thread count and the SIMD dispatch.
"""

import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

import mammocad
from mammocad.cli import main
from mammocad.core import write_pgm
from mammocad.denoise import bm3d_denoise
from mammocad.enhance import median_filter

SIZE = 128

SEGMENT_FILES = ("mask.pgm", "membership.pgm", "phi.pgm", "overlay.ppm")
PREPROCESS_FILES = ("denoised.pgm", "enhanced.pgm", "pectoral_removed.pgm")

DIGESTS = {
    "segment-10/mask.pgm": "03f6f73c16807d17023aaa5a7790ce25937c577bd6b92a85bb875e6b98fc1ccf",
    "segment-10/membership.pgm": "60b87e1e57190ba72b52c14778dfd10267cbb27e11986c13b9ce7ad763c789cf",
    "segment-10/phi.pgm": "64eb78464e31e4769ec421dc191aa514067e4c417940f367fad89570b7a28318",
    "segment-10/overlay.ppm": "d1fc882ef29c57cca248200cb2ab8475a3aa21859f8a9df72c93fb6a25fef5cf",
    "segment-10/summary": "f19de1a63790a1279e41e98d7ffa0e3f97eb8337b6177cbb9a35db2b483adb87",
    "segment-25/mask.pgm": "0233d24478bf4648c5ae6804abfb47bb73a415d834e726f7936b118647b0b715",
    "segment-25/membership.pgm": "065d13cb452305905a66888d272df3d3ea0d712ce0f7395dda74073e7af62687",
    "segment-25/phi.pgm": "28039e9d0b96f91eb5a02d07d865353c9aec7293ca28e515efb6a347860af0e9",
    "segment-25/overlay.ppm": "7fa9f55b848b08fdb19e58caa75336116dc33b1b1b184b5c522e50f2cd9710c7",
    "segment-25/summary": "5df808e1350b3695b128cf84f9bdc121e3fd99e0f200d75dc30c202cafafc802",
    "segment-40/mask.pgm": "9b0b3676de6f17fee1bc253b7f041f51ee36b9402d86ed2d80db370a76619982",
    "segment-40/membership.pgm": "ebf971381a37b2c54b22de7b3a54a5c6ea07a25731561d40d04b0166b874b736",
    "segment-40/phi.pgm": "373d48598dbe1f882b97a08f2f0a06f6e34e91788ebb27c02e95d6d381b66977",
    "segment-40/overlay.ppm": "cd1505089dc2505c5e7afc554214b86294e0542fc4a9098e997076ea4cbef131",
    "segment-40/summary": "302d3c0ef831444969e4c9ffd4187a58b8b2d596886eff72600b2928fb4c0279",
    "segment-50/mask.pgm": "6a72e62735472d26571ee2fb45f79cb809acde34ab891ba98baaca32d276cd70",
    "segment-50/membership.pgm": "58c56521a1c4cb9257bad7ecb5b27eb2896330baa68c780b7674bd38e549e95e",
    "segment-50/phi.pgm": "81c830952393fb904a09e9d7cbb38bc1f85178ee7824816b4ae46b521ed604c0",
    "segment-50/overlay.ppm": "f98ed00fb66d2977d2a392c3aa28cba02dd1bf59621e069fad6e61c0f5a3606e",
    "segment-50/summary": "571aa14fdda84adba652c317eacb9eb32ff30df956c1a8c01a50201d9ce434dd",
    "preprocess-25/denoised.pgm": "97c92eb809e9fda20f909c24b5d62758036b9b857097af69958cd7a2a3524f7d",
    "preprocess-25/enhanced.pgm": "51b0d60ba0489e497781669fbb9c954fc29d359e4bf5260c638d27ed48500671",
    "preprocess-25/pectoral_removed.pgm": "a36d04904010e988818e2cf94ac8f9bca4ded054a03aa2c84ba21495bfaba5f3",
    "bm3d-45x70-25": "341677b587f1092389d4b302c244f560b22d04fd80b9bf5a6632c9a1a5b37395",
    "bm3d-40x8-50": "b8eb43b00c5565945e447390f7cf21dec5ac51f5bd08c1f15db1b122ce6d9cee",
    "bm3d-100x100-25": "c72491815e48fc0d795d8e286e230a32d12871f88c2cf3e5270e80475dd927c2",
    "bm3d-77x41-50": "83499ff53d19cf4ad3c0cb2bdebd4f9c1b8dcf8542fa9320720dd7bd20a186e5",
    "bm3d-tiles-100x100-25": "381fbc5ac01e80d31b7ac8c82400cc823a718c2932ab2ce347e87e195b57fcb1",
    "bm3d-tiles-77x41-50": "0bf0d38c79f03319dccc33d5f72991852d38a68b70cb0bcc53f56abee1dfe9da",
    "bm3d-tiles-96x8-25": "ae7c2bd2e4615aa3997554de02b78071433cd73ec9aae9e54420165fab29dcef",
    "median-64x4096-40": "64ebf8a7ec852dccc10eef9922c97bd4db39cd75bbb759bf8c056531abd22b14",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def assert_digest(name: str, data: bytes):
    digest = sha256(data)
    assert digest == DIGESTS.get(name), (
        f"{name}: sha256 {digest} (numpy {np.__version__}, scipy {scipy.__version__})")


def film(sigma: float) -> np.ndarray:
    """A 128x128 phantom at noise sigma (8-bit scale), seeded by sigma.

    A textured breast half-disc against a black background, a bright
    pectoral corner at the top left and one bright lesion, under
    clipped Gaussian noise.
    """
    rng = np.random.default_rng(int(sigma))
    rr, cc = np.mgrid[0:SIZE, 0:SIZE]
    clean = np.zeros((SIZE, SIZE))
    breast = (rr - SIZE / 2) ** 2 + cc ** 2 <= (0.85 * SIZE) ** 2
    clean[breast] = 0.35 + 0.05 * np.sin(rr[breast] / 7.0) * np.cos(cc[breast] / 11.0)
    clean[rr + cc < SIZE // 3] = 0.75
    r0, c0 = rng.integers(48, 80), rng.integers(40, 70)
    clean[(rr - r0) ** 2 + (cc - c0) ** 2 <= 11 ** 2] = 0.85
    noisy = clean + rng.standard_normal((SIZE, SIZE)) * sigma / 255.0
    return np.clip(noisy, 0.0, 1.0)


@pytest.mark.parametrize("sigma", [10.0, 25.0, 40.0, 50.0])
def test_segment_outputs_keep_their_bytes(tmp_path, monkeypatch, capsys, sigma):
    # relative paths keep the summary line free of the temporary directory
    monkeypatch.chdir(tmp_path)
    (tmp_path / "film.pgm").write_bytes(write_pgm(film(sigma)))
    assert main(["segment", "film.pgm", "-o", "out", "--set", f"pipeline.sigma={sigma}"]) == 0
    summary = capsys.readouterr().out.strip().splitlines()[-1]
    assert json.loads(summary)["image"] == "film.pgm"
    for name in SEGMENT_FILES:
        assert_digest(f"segment-{sigma:g}/{name}", (tmp_path / "out" / name).read_bytes())
    assert_digest(f"segment-{sigma:g}/summary", summary.encode())


def test_preprocess_outputs_keep_their_bytes(tmp_path):
    (tmp_path / "film.pgm").write_bytes(write_pgm(film(25.0)))
    out = tmp_path / "out"
    assert main(["preprocess", str(tmp_path / "film.pgm"), "-o", str(out),
                 "--set", "pipeline.sigma=25"]) == 0
    for name in PREPROCESS_FILES:
        assert_digest(f"preprocess-25/{name}", (out / name).read_bytes())


@pytest.mark.parametrize("shape, sigma", [((45, 70), 25.0), ((40, 8), 50.0),
                                          ((100, 100), 25.0), ((77, 41), 50.0)],
                         ids=["45x70-25", "40x8-50", "100x100-25", "77x41-50"])
def test_denoised_films_keep_their_bytes(shape, sigma):
    # 40 x 8 is 8 pixels wide, where the matcher carries block rows as on
    # any film (its groups are the reference alone; 96 x 8 below forms
    # groups); 100 x 100 has middle reference rows whose candidates span
    # all 33 rows, and 77 x 41 a far-border reference row 1 pixel below
    # the last stride-spaced one, at the high threshold pair
    rng = np.random.default_rng(shape[0] * shape[1])
    noisy = np.floor(rng.random(shape) * 8) / 8 + rng.standard_normal(shape) * sigma / 255.0
    out = bm3d_denoise(np.clip(noisy, 0.0, 1.0), sigma)
    assert out.dtype == np.float64 and out.shape == shape
    assert_digest(f"bm3d-{shape[0]}x{shape[1]}-{sigma:g}", out.tobytes())


@pytest.mark.parametrize("shape, sigma", [((100, 100), 25.0), ((77, 41), 50.0), ((96, 8), 25.0)],
                         ids=["100x100-25", "77x41-50", "96x8-25"])
def test_denoised_tiled_films_keep_their_bytes(shape, sigma):
    # on the films above every group is the reference alone, so their
    # bytes do not show the matching; flat 16 x 16 tiles under clipped
    # noise give the Wiener stage groups of up to 16 blocks (means about
    # 14, 12 and 13 here), so a distance summed wrong or a group picked
    # in another order moves these bytes, on an 8-pixel-wide film too
    out = bm3d_denoise(tiled_film(shape, sigma), sigma)
    assert out.dtype == np.float64 and out.shape == shape
    assert_digest(f"bm3d-tiles-{shape[0]}x{shape[1]}-{sigma:g}", out.tobytes())


def tiled_film(shape, sigma):
    h, w = shape
    rng = np.random.default_rng(h * w)
    levels = rng.choice([0.0, 0.3, 0.6, 1.0], ((h + 15) // 16, (w + 15) // 16))
    clean = np.kron(levels, np.ones((16, 16)))[:h, :w]
    return np.clip(clean + rng.standard_normal(shape) * sigma / 255.0, 0.0, 1.0)


# prints the OpenBLAS kernel this process loaded and the sha256 of
# bm3d_denoise on the film saved at argv[2], at sigma argv[3]
KERNEL_CHILD = """
import ctypes, hashlib, sys
import numpy as np
from mammocad.denoise import bm3d_denoise
corename = ctypes.CDLL(sys.argv[1]).scipy_openblas_get_corename64_
corename.restype = ctypes.c_char_p
out = bm3d_denoise(np.load(sys.argv[2]), float(sys.argv[3]))
print(corename().decode(), hashlib.sha256(out.tobytes()).hexdigest())
"""


def test_denoised_bytes_do_not_depend_on_the_blas_kernel(tmp_path):
    # OpenBLAS picks its matrix-multiply kernel by CPU when it loads, and
    # OPENBLAS_CORETYPE overrides the pick; SandyBridge's kernel has no
    # fused multiply-add, unlike the kernels of later CPUs. The Walsh
    # transform's products are exact, so both kernels must give the same
    # bytes, on a film whose groups take every size from 1 to 16 blocks
    libs = sorted(Path(np.__file__).parent.parent.glob("numpy.libs/libscipy_openblas64_*"))
    if not libs or platform.machine() != "x86_64":
        pytest.skip("needs numpy's bundled OpenBLAS on x86-64")
    np.save(tmp_path / "film.npy", tiled_film((100, 100), 25.0))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_CORETYPE"}
    env["PYTHONPATH"] = str(Path(mammocad.__file__).parents[1])
    runs = {}
    for coretype in (None, "SandyBridge"):
        done = subprocess.run(
            [sys.executable, "-c", KERNEL_CHILD, str(libs[0]), str(tmp_path / "film.npy"), "25"],
            capture_output=True, text=True, timeout=300,
            env=env if coretype is None else dict(env, OPENBLAS_CORETYPE=coretype))
        assert done.returncode == 0, done.stderr
        kernel, digest = done.stdout.split()
        runs[coretype] = kernel, digest
    assert runs["SandyBridge"][0] == "Sandybridge", runs
    if runs[None][0] == "Sandybridge":
        pytest.skip("this CPU's own OpenBLAS kernel is SandyBridge's")
    assert runs[None][1] == runs["SandyBridge"][1], runs


def test_median_filtered_column_tiles_keep_their_bytes():
    # a row of 40x40 windows on a 4096-wide film overflows the filter's
    # buffer, so each row is sorted in runs of columns
    shape = (64, 4096)
    rng = np.random.default_rng(shape[0] * shape[1])
    out = median_filter(np.round(rng.random(shape) * 255) / 255, 40)
    assert out.dtype == np.float64 and out.shape == shape
    assert_digest("median-64x4096-40", out.tobytes())
