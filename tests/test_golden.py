"""Golden CLI outputs: SHA-256 digests of every file the commands write.

The digests are literals, so a change to any output byte of `qss sparsify`,
`qss quantise` or `qss compress` on the fixed input fails here. A
`qss scalespace` CSV is hashed without its `entropy_bits` column: that
12-digit text can differ in the last digit between numpy builds (`np.log2`
SIMD paths), while every other column is an integer or an exact integer
ratio.
"""

import hashlib

import pytest

from qss.cli import main
from qss.pgm import save_pgm

from conftest import make_synthetic

# name: (argv, {output file: SHA-256 of its bytes}); "{d}" is the work
# directory, which holds in.pgm, the 32x32 synthetic image. The commands
# run in this order: the spars quantise reads the path sparsify writes.
GOLDEN = {
    "sparsify": (
        "sparsify {d}/in.pgm --density 0.1 --seed 1 --out {d}/path.txt"
        " --preview {d}/mask.pgm",
        {
            "path.txt": "73458ccbc747bec605fbd9e3f129300fd6c86042e684d98c6fee5b9133481f4c",
            "mask.pgm": "8fe5b92a7f1b20265cf0ce1bfaac2eddc170df3c57e2bb6a6658a34654ffef10",
        },
    ),
    "quantise-ward": (
        "quantise {d}/in.pgm --method ward --levels 8 --out {d}/qward",
        {
            "qward.pgm": "f216b69d1237324153f9df53fc841c16b863e374de7296289d3c4e2d9931bb80",
            "qward.qpath": "035407a319ae020060edb344b9b4e7a5e318cee0d3e4b2e440d9da4001f05db9",
        },
    ),
    "quantise-spars": (
        "quantise {d}/in.pgm --method spars --mask {d}/path.txt@0.1"
        " --levels 8 --out {d}/qspars",
        {
            "qspars.pgm": "2bdbd9f6179717fbadd76ed6832c31d34d9662a678d2d37775b96ba23ce3e9eb",
            "qspars.qpath": "993b44d89738ce6d344a569fb76bf35bab1270bb02150f7ac5ac53b70eb08629",
        },
    ),
    "compress-uniform": (
        "compress {d}/in.pgm --method uniform --ratio 20 --seed 1 --out {d}/uniform.txt",
        {
            "uniform.txt": "fbabba24b9a1a7eb2b7c53c353571bc460e3929930a74f7fe744ac5e2ed6f3ba",
            "uniform.pgm": "acdb09abf18a01a80ebbd8e5b23d87299143134af048fe91089faf93b5b2cab2",
        },
    ),
    "compress-ward": (
        "compress {d}/in.pgm --method ward --ratio 20 --seed 1 --out {d}/ward.txt",
        {
            "ward.txt": "ba1120fee4b2d89d345c6aad46ffded66ee0f7ab4635b49d85470e3fa16c3fd4",
            "ward.pgm": "a2e96c1a1b35030834b7c1370bd818215affcce79fd8032149c62ef84993b8c4",
        },
    ),
    "compress-spars": (
        "compress {d}/in.pgm --method spars --ratio 20 --seed 1 --out {d}/spars.txt",
        {
            "spars.txt": "e36759bf5c516857d546fb82b2408e962e6b0462b63124c3655ff38ed0817892",
            "spars.pgm": "98daebf3b7d790d043ff9203a0d3450733ff0dc6dc2f480d9b7f48bc6be016f8",
        },
    ),
    "scalespace-ward": (
        "scalespace {d}/in.pgm --method ward --report {d}/ss-ward.csv",
        {"ss-ward.csv": "4d83a2a342b09689dbd42a35fea8f9c8f0a74cd7ee0d59f89fad31e94a755ca0"},
    ),
    "scalespace-uniform": (
        "scalespace {d}/in.pgm --method uniform --report {d}/ss-uniform.csv",
        {"ss-uniform.csv": "bbcec7a4ea51497fee5528703f5cc7c6e2db5c0511ea91cf4ab2622fbd2e4ac0"},
    ),
    "scalespace-spars": (
        "scalespace {d}/in.pgm --method spars --mask {d}/path.txt@0.1"
        " --report {d}/ss-spars.csv",
        {"ss-spars.csv": "e7b12ee9958d435f3258715e519136bf3ac9a2e658f784eeea56a1eb117bc6fe"},
    ),
}


def _stable_bytes(path):
    """The file's bytes; for a CSV, without its `entropy_bits` column."""
    data = path.read_bytes()
    if path.suffix != ".csv":
        return data
    rows = [line.split(",") for line in data.decode().splitlines()]
    col = rows[0].index("entropy_bits")
    return "".join(",".join(r[:col] + r[col + 1 :]) + "\n" for r in rows).encode()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """SHA-256 of every output file, after running all commands once."""
    work = tmp_path_factory.mktemp("golden")
    save_pgm(work / "in.pgm", make_synthetic(32))
    for name, (argv, _) in GOLDEN.items():
        assert main(argv.format(d=work).split()) == 0, name
    return {
        f: hashlib.sha256(_stable_bytes(work / f)).hexdigest()
        for _, files in GOLDEN.values()
        for f in files
    }


@pytest.mark.parametrize("name", list(GOLDEN))
def test_cli_outputs_are_byte_identical(digests, name):
    for f, digest in GOLDEN[name][1].items():
        assert digests[f] == digest, f
