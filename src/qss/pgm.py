"""PGM (P2/P5) reading and P5 writing, maxval up to 255.

Comment lines starting with '#' are permitted anywhere in the header after
the magic token.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from .image import Image


class PgmError(ValueError):
    """Malformed PGM input."""


def _header_tokens(data: bytes, count: int, start: int):
    """Read `count` whitespace-separated tokens, skipping '#' comments.

    Returns the tokens and the offset one past the final token.
    """
    tokens = []
    i = start
    n = len(data)
    while len(tokens) < count:
        while i < n and data[i : i + 1].isspace():
            i += 1
        if i < n and data[i] == ord("#"):
            while i < n and data[i] != ord("\n"):
                i += 1
            continue
        if i >= n:
            raise PgmError("malformed header: unexpected end of file")
        j = i
        while j < n and not data[j : j + 1].isspace() and data[j] != ord("#"):
            j += 1
        tokens.append(data[i:j])
        i = j
    return tokens, i


def read_pgm(data: bytes) -> Image:
    """Parse a binary (P5) or ASCII (P2) PGM into an Image."""
    if len(data) < 2:
        raise PgmError("malformed header: too short")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmError("malformed header: unknown magic %r" % magic)
    tokens, pos = _header_tokens(data, 3, 2)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PgmError("malformed header: non-numeric dimension") from None
    if width <= 0 or height <= 0:
        raise PgmError("malformed header: non-positive dimensions")
    if maxval <= 0 or maxval > 255:
        raise PgmError("unsupported maxval %d (must be in [1, 255])" % maxval)
    n = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if pos >= len(data) or not data[pos : pos + 1].isspace():
            raise PgmError("malformed header: missing raster separator")
        raster = data[pos + 1 : pos + 1 + n]
        if len(raster) < n:
            raise PgmError("truncated pixel data: expected %d bytes" % n)
        pixels = np.frombuffer(raster, dtype=np.uint8).astype(np.int64)
    else:
        try:
            tokens, _ = _header_tokens(data, n, pos)
            pixels = np.array([int(t) for t in tokens], dtype=np.int64)
        except PgmError:
            raise PgmError("truncated pixel data: expected %d samples" % n) from None
        except ValueError:
            raise PgmError("malformed pixel data: non-numeric sample") from None
    if pixels.max() > maxval:
        raise PgmError("pixel value exceeds maxval %d" % maxval)
    return Image(width, height, pixels)


def write_pgm(image: Image) -> bytes:
    """Serialise an image as binary P5 with maxval 255."""
    if image.grey_depth > 256:
        raise PgmError("grey depth %d exceeds 8 bit" % image.grey_depth)
    header = b"P5\n%d %d\n255\n" % (image.width, image.height)
    return header + image.pixels.astype(np.uint8).tobytes()


def load_pgm(path) -> Image:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def write_atomic(path, data: bytes) -> None:
    """Write a file atomically (temp file + rename)."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_pgm(path, image: Image) -> None:
    """Write atomically as binary P5."""
    write_atomic(path, write_pgm(image))
