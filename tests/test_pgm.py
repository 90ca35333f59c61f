import os
import stat

import numpy as np
import pytest

from qss import Image, PgmError, read_pgm, write_pgm
from qss.pgm import load_pgm, save_pgm, write_atomic


def test_minimal_p5():
    img = read_pgm(b"P5 2 2 255\n" + bytes([0, 10, 20, 30]))
    assert (img.width, img.height) == (2, 2)
    assert list(img.pixels) == [0, 10, 20, 30]


def test_roundtrip_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        img = Image(5, 4, rng.integers(0, 256, 20))
        assert read_pgm(write_pgm(img)) == img


def test_p2_with_comments_equals_p5():
    img = Image(3, 2, [0, 50, 100, 150, 200, 250])
    p2 = b"P2\n# a comment\n3 2\n# another\n255\n0 50 100\n150 200 250\n"
    assert read_pgm(p2) == read_pgm(write_pgm(img)) == img


def test_comment_inside_p5_header():
    data = b"P5\n# c\n2 1\n255\n" + bytes([1, 2])
    assert list(read_pgm(data).pixels) == [1, 2]


@pytest.mark.parametrize(
    "data,match",
    [
        (b"P3 1 1 255\n0", "magic"),
        (b"P5 2 2", "header"),
        (b"P5 2 2 65535\n\x00\x00", "maxval"),
        (b"P5 2 2 255\n\x00\x00", "truncated"),
        (b"P2 2 1 255\n0", "truncated"),
        (b"P5 a 2 255\n", "header"),
        (b"P2 1 1 255\nx", "malformed"),
        (b"P2 1 1 255 -5", "outside"),
        (b"P2 1 1 255\n99999999999999999999", "outside"),
        (b"P5 1 1 255#c\n\x07", "missing raster separator"),
        (b"P5 1 1 255", "missing raster separator"),
        (b"P2 1 1 255 # only a comment", "truncated pixel data"),
        (b"P2 10000000000 10000000000 255 0", "truncated"),  # more samples than sys.maxsize
        # int() reads these; a PGM number is ASCII decimal digits only
        (b"P2 1 1 2_5_5 1_0", "non-numeric dimension"),
        (b"P2 +1 1 255 +7", "non-numeric dimension"),
        (b"P2 1 1 255 -0", "non-numeric sample"),
        (b"P5 1 1 +255\n\x07", "non-numeric dimension"),
        # more digits than int() converts
        pytest.param(
            b"P5 " + b"1" * 5000 + b" 1 255\n\x00", "non-numeric dimension", id="long-width"
        ),
        pytest.param(b"P2 1 1 255 " + b"1" * 5000, "non-numeric sample", id="long-sample"),
    ],
)
def test_parse_errors(data, match):
    with pytest.raises(PgmError, match=match):
        read_pgm(data)


@pytest.mark.parametrize(
    "data,expected",
    [
        (b"P2 2 1 255 7#c\n9", [7, 9]),  # a comment ends the token it touches
        (b"P2#c\n1 1 255 3", [3]),
        (b"P2\x0b1\x0c1\r255\t4", [4]),  # every bytes.isspace() byte separates
        (b"P5 1 1 # c\n255\n\x05", [5]),
        (b"P2 1 1#\n255 6", [6]),
        (b"P2 1 1 255 4#", [4]),
        (b"P5 2 1 255\n# ", [35, 32]),  # raster bytes are pixels, '#' too
    ],
)
def test_tokenizer_edge_cases(data, expected):
    assert list(read_pgm(data).pixels) == expected


def test_write_rejects_grey_depth_above_8_bit():
    with pytest.raises(PgmError, match="grey depth 512 exceeds 8 bit"):
        write_pgm(Image(1, 1, [300], grey_depth=512))


def test_value_above_maxval_rejected():
    with pytest.raises(PgmError, match="maxval"):
        read_pgm(b"P2 1 1 10\n11")


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)], ids=["022", "077", "002"]
)
def test_written_file_mode_follows_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        save_pgm(tmp_path / "out.pgm", Image(1, 1, [0]))
        write_atomic([(tmp_path / "out.txt", b"x\n")])
    finally:
        os.umask(old)
    for name in ("out.pgm", "out.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_write_atomic_leaves_the_umask_alone(tmp_path, monkeypatch):
    def umask(mask):
        raise AssertionError("the process umask was touched")

    monkeypatch.setattr(os, "umask", umask)
    write_atomic([(tmp_path / "a.txt", b"a"), (tmp_path / "b.txt", b"b")])
    assert sorted(os.listdir(tmp_path)) == ["a.txt", "b.txt"]  # no temp left
    assert (tmp_path / "a.txt").read_bytes() == b"a"


def test_file_helpers(tmp_path):
    img = Image(2, 2, [9, 8, 7, 6])
    path = tmp_path / "out.pgm"
    save_pgm(path, img)
    assert load_pgm(path) == img
