"""Property tests of the three file parsers and of the greedy merge loop.

The parsers read input from outside the program, so the only exception a
parser may raise is its own: `PgmError` for PGM bytes, `ValueError` for
`QSSPATH` and `QSSQPATH` text; valid files round-trip. The merge loop gives
the steps of a reference that recomputes every cost at every step. Examples
are derandomised so that a run is repeatable.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from qss import Image, PgmError, read_pgm, write_pgm
from qss.quantisation import (
    MergeStep,
    QuantisationPath,
    read_quant_path_file,
    write_quant_path_file,
)
from qss.sparsification import SparsificationPath, read_path_file, write_path_file
from test_quantisation import assert_merge_matches_reference

repeatable = settings(derandomize=True, database=None, deadline=None)

# integers of every size, including ones past int64 and negatives
_ints = st.one_of(st.integers(-300, 300), st.integers(-(10**30), 10**30))


def _lines_of(header, item):
    """Text of a header line followed by a few item lines."""
    return st.builds(
        lambda head, items: "\n".join([head] + items),
        header,
        st.lists(item, max_size=12),
    )


@st.composite
def pgm_like(draw):
    """A P2 or P5 magic, then width, height, maxval and samples (each mostly
    a plausible number, sometimes a huge one or junk bytes), separators,
    comments and trailing raw bytes."""
    def token(plausible):
        kind = draw(st.integers(0, 9))  # drawn with a bias toward 0
        if kind == 9:
            return draw(st.binary(min_size=1, max_size=3))
        return b"%d" % draw(_ints if kind == 8 else plausible)

    tokens = [token(st.integers(1, 4)), token(st.integers(1, 4)), token(st.integers(1, 255))]
    tokens += [token(st.integers(-300, 300)) for _ in range(draw(st.integers(0, 16)))]
    parts = [draw(st.sampled_from([b"P2", b"P5"]))]
    for tok in tokens:
        parts.append(draw(st.sampled_from([b" ", b"\n", b"\t", b"\n#c\n"])))
        parts.append(tok)
    parts.append(draw(st.binary(max_size=16)))
    return b"".join(parts)


@given(st.one_of(st.binary(max_size=64), pgm_like()))
@settings(repeatable, max_examples=400)
def test_read_pgm_raises_only_pgm_error(data):
    try:
        image = read_pgm(data)
    except PgmError:
        return
    assert isinstance(image, Image)


@st.composite
def pgm_files(draw):
    """A valid image and a P2 or P5 encoding of it at some maxval."""
    width, height = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    maxval = draw(st.integers(1, 255))
    pixels = draw(
        st.lists(st.integers(0, maxval), min_size=width * height, max_size=width * height)
    )
    sep = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b" # comment\n"])
    header = [b"%d" % width, b"%d" % height, b"%d" % maxval]
    if draw(st.booleans()):
        data = b"P5" + b"".join(draw(sep) + t for t in header)
        data += draw(st.sampled_from([b" ", b"\n", b"\t"])) + bytes(pixels)
    else:
        tokens = header + [b"%d" % p for p in pixels]
        data = b"P2" + b"".join(draw(sep) + t for t in tokens) + draw(sep)
    return Image(width, height, pixels), data


@given(pgm_files())
@repeatable
def test_valid_pgm_round_trips(case):
    image, data = case
    assert read_pgm(data) == image
    assert read_pgm(write_pgm(image)) == image


@given(
    st.one_of(
        st.text(max_size=64),
        _lines_of(
            st.builds(
                str.__add__,
                st.sampled_from(["QSSPATH v1 N=", "QSSPATH v1 N", "QSSPATH v1"]),
                st.one_of(_ints.map(str), st.text(max_size=4)),
            ),
            st.one_of(st.integers(-2, 12).map(str), _ints.map(str), st.text(max_size=4)),
        ),
    )
)
@settings(repeatable, max_examples=400)
def test_read_path_file_raises_only_value_error(text):
    try:
        path = read_path_file(text)
    except ValueError:
        return
    assert isinstance(path, SparsificationPath)


@given(st.integers(1, 40).flatmap(lambda n: st.permutations(range(n))))
@repeatable
def test_valid_path_file_round_trips(order):
    path = SparsificationPath(np.array(order), len(order))
    back = read_path_file(write_path_file(path))
    assert back.image_size == path.image_size
    assert np.array_equal(back.removal_order, path.removal_order)


@given(
    st.one_of(
        st.text(max_size=64),
        _lines_of(
            st.sampled_from(["QSSQPATH v1", "QSSQPATH v1\n", "QSSQPATH"]),
            st.lists(
                st.one_of(st.integers(-2, 12).map(str), _ints.map(str), st.text(max_size=3)),
                max_size=4,
            ).map(" ".join),
        ),
    )
)
@settings(repeatable, max_examples=400)
def test_read_quant_path_file_raises_only_value_error(text):
    try:
        path = read_quant_path_file(text)
    except ValueError:
        return
    assert isinstance(path, QuantisationPath)


@st.composite
def quant_paths(draw):
    """A valid path: each step merges two active values into a free one."""
    values = sorted(draw(st.sets(st.integers(0, 255), min_size=1, max_size=12)))
    active, steps = list(values), []
    for _ in range(draw(st.integers(0, len(values) - 1))):
        i, j = sorted(
            draw(st.lists(st.integers(0, len(active) - 1), min_size=2, max_size=2, unique=True))
        )
        low, high = active[i], active[j]
        rest = set(active) - {low, high}
        free = [v for v in range(values[0], values[-1] + 1) if v not in rest]
        merged = draw(st.sampled_from(free))
        steps.append(MergeStep(low, high, merged))
        active = sorted(rest | {merged})
    return QuantisationPath(tuple(values), tuple(steps))


@given(quant_paths())
@repeatable
def test_valid_quant_path_file_round_trips(path):
    assert read_quant_path_file(write_quant_path_file(path)) == path


@st.composite
def merge_inputs(draw):
    """Ascending values with tied counts, and a Gram whose clusters form
    dense blocks (random basis rows) and single clusters (indicators)."""
    values = sorted(draw(st.sets(st.integers(0, 255), min_size=1, max_size=40)))
    counts = draw(st.lists(st.integers(1, 3), min_size=len(values), max_size=len(values)))
    blocks = draw(st.lists(st.integers(1, 6), min_size=1, max_size=len(values)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gram = np.diag(np.array(counts, dtype=np.float64))
    dots = np.zeros(len(values))
    start = 0
    for size in blocks:
        block = slice(start, min(start + size, len(values)))
        if size > 1:
            psi = rng.random((block.stop - block.start, 16))
            dots[block] = psi @ rng.normal(0.0, 20.0, 16)
            gram[block, block] = psi @ psi.T
        start = block.stop
    return np.array(values), np.array(counts), dots, gram


@given(merge_inputs())
@settings(repeatable, max_examples=150)
def test_greedy_merge_matches_reference(case):
    assert_merge_matches_reference(*case)


@st.composite
def ward_inputs(draw):
    """Ward's input at up to 256 levels: counts of up to about 256 x 256
    pixels, each drawn from a few sizes, so that most merges meet ties."""
    levels = draw(st.integers(2, 256))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = np.sort(rng.choice(256, size=levels, replace=False))
    sizes = rng.integers(1, 2**16 // levels + 1, size=draw(st.integers(1, 4)))
    counts = rng.choice(sizes, size=levels).astype(np.float64)
    return values, counts, np.zeros(levels), np.diag(counts)


@given(ward_inputs())
@settings(repeatable, max_examples=20)
def test_ward_merge_matches_reference(case):
    assert_merge_matches_reference(*case)
