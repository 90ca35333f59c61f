"""PGM (P2/P5) reading and P5 writing, maxval up to 255.

Tokens are separated by whitespace, the bytes of `bytes.isspace`, and every
header and P2 raster token is a number in ASCII decimal digits. A '#'
comment may start wherever a token may, in the header after the magic and
in a P2 raster, and runs to the end of its line; it also ends a token it
touches. Exactly one whitespace byte separates a P5 header from its raster,
whose bytes are all pixels.
"""

from __future__ import annotations

import errno
import os
import re
from itertools import islice

import numpy as np

from .image import Image

# a '#' comment to the end of its line, or a token; in a bytes pattern \s is
# exactly the whitespace of bytes.isspace()
_TOKEN = re.compile(rb"#[^\n]*|[^\s#]+")


class PgmError(ValueError):
    """Malformed PGM input."""


def read_pgm(data: bytes) -> Image:
    """Parse a binary (P5) or ASCII (P2) PGM into an Image."""
    if len(data) < 2:
        raise PgmError("malformed header: too short")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmError("malformed header: unknown magic %r" % magic)
    tokens = (m for m in _TOKEN.finditer(data, 2) if not m[0].startswith(b"#"))
    header = list(islice(tokens, 3))
    if len(header) < 3:
        raise PgmError("malformed header: unexpected end of file")
    try:
        if not all(m[0].isdigit() for m in header):  # ASCII-only for bytes
            raise ValueError
        # int() also refuses more digits than sys.get_int_max_str_digits()
        width, height, maxval = (int(m[0]) for m in header)
    except ValueError:
        raise PgmError("malformed header: non-numeric dimension") from None
    if width <= 0 or height <= 0:
        raise PgmError("malformed header: non-positive dimensions")
    if maxval <= 0 or maxval > 255:
        raise PgmError("unsupported maxval %d (must be in [1, 255])" % maxval)
    n = width * height
    pos = header[-1].end()
    if magic == b"P5":
        # exactly one whitespace byte separates the header from the raster
        if not data[pos : pos + 1].isspace():
            raise PgmError("malformed header: missing raster separator")
        raster = data[pos + 1 : pos + 1 + n]
        if len(raster) < n:
            raise PgmError("truncated pixel data: expected %d bytes" % n)
        pixels = np.frombuffer(raster, dtype=np.uint8)
        if pixels.max() > maxval:
            raise PgmError("pixel value exceeds maxval %d" % maxval)
    else:
        # a file holds fewer tokens than bytes; islice refuses a stop > maxsize
        raster = [m[0] for m in islice(tokens, min(n, len(data)))]
        if len(raster) < n:
            raise PgmError("truncated pixel data: expected %d samples" % n)
        try:
            pixels = [int(t) for t in raster]
        except ValueError:
            raise PgmError("malformed pixel data: non-numeric sample") from None
        # checked as Python ints: a huge sample must not overflow int64
        if not all(0 <= s <= maxval for s in pixels):
            raise PgmError("pixel value outside [0, maxval %d]" % maxval)
        # after the range, so a negative sample reads as outside it; then
        # what int() takes beyond ASCII digits ('+7', '-0', '1_0') fails
        if not b"".join(raster).isdigit():
            raise PgmError("malformed pixel data: non-numeric sample")
    return Image(width, height, pixels)  # which takes its own int64 copy


def write_pgm(image: Image) -> bytes:
    """Serialise an image as binary P5 with maxval 255."""
    if image.grey_depth > 256:
        raise PgmError("grey depth %d exceeds 8 bit" % image.grey_depth)
    header = b"P5\n%d %d\n255\n" % (image.width, image.height)
    return header + image.pixels.astype(np.uint8).tobytes()


def load_pgm(path) -> Image:
    with open(path, "rb") as fh:
        return read_pgm(fh.read())


def write_atomic(outputs) -> None:
    """Write every (path, data) pair of `outputs`, or none of them.

    Each data goes to a temp file in its target's directory, and the temps
    are renamed onto their targets only once every one is written, so a
    failure to write any of them (a target that is a directory included)
    removes every temp and renames nothing. Two targets that resolve to
    one file raise ValueError before any temp is made. An OSError carries
    the target it failed on as its `filename`. Each temp, named
    `.qss-<16 hex digits>.tmp`, is created with mode 0o666, so the kernel
    sets its mode at creation as it does for `open()`: the umask and any
    default ACL apply, and the process umask is never touched.
    """
    outputs = [(os.fspath(path), data) for path, data in outputs]
    real = [os.path.realpath(path) for path, _ in outputs]
    for k, (path, _) in enumerate(outputs):
        if real[k] in real[:k]:
            raise ValueError("two outputs name the same file %s" % path)
    temps = []
    try:
        for path, data in outputs:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            tmp = os.path.join(os.path.dirname(path), ".qss-%s.tmp" % os.urandom(8).hex())
            # O_BINARY (Windows only) keeps the bytes untranslated
            flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL | getattr(os, "O_BINARY", 0)
            fd = os.open(tmp, flags, 0o666)
            temps.append(tmp)
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
        for (path, _), tmp in zip(outputs, temps):
            os.replace(tmp, path)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from exc
    finally:
        for tmp in temps:  # a renamed temp no longer exists
            if os.path.exists(tmp):
                os.unlink(tmp)


def save_pgm(path, image: Image) -> None:
    """Write atomically as binary P5."""
    write_atomic([(path, write_pgm(image))])
