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
    ],
)
def test_parse_errors(data, match):
    with pytest.raises(PgmError, match=match):
        read_pgm(data)


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
        write_atomic(tmp_path / "out.txt", b"x\n")
    finally:
        os.umask(old)
    for name in ("out.pgm", "out.txt"):
        assert stat.S_IMODE((tmp_path / name).stat().st_mode) == mode


def test_file_helpers(tmp_path):
    img = Image(2, 2, [9, 8, 7, 6])
    path = tmp_path / "out.pgm"
    save_pgm(path, img)
    assert load_pgm(path) == img
