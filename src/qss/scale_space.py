"""Quantisation scale-spaces as image streams, and executable property checks.

`generate` yields the images one at a time. Every property checked is read
from four statistics of a scale's histogram: the level count, the lowest
and highest value, and the entropy. `verify_scale_space` partitions each
image of a sequence once, in a single pass; `report_csv` carries per-value
sums along the path over one histogram of the domain, building neither an
image nor a histogram per scale. Both feed `_check`, so one set of rules
judges them. The checks return structured per-step reports rather than
booleans so the same numbers can be dumped as CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .image import (
    Image, LevelPartition, Mask, _domain, _with_domain, entropy, level_partition,
)
from .quantisation import (
    PathError, QuantisationPath, _check_initial_values, _quantised_known_values, apply_path,
    apply_steps,
)

ENTROPY_TOL = 1e-12


def generate(image: Image, mask: Mask | None, path: QuantisationPath):
    """Yield the family f^0 ... f^L of quantised images along the path,
    each read from the original through one composed lookup table."""
    for values in _quantised_known_values(_domain(image, mask), path, image.grey_depth):
        yield _with_domain(image, mask, values)


@dataclass
class LyapunovReport:
    entropies: list = field(default_factory=list)
    active_levels: list = field(default_factory=list)
    violations: list = field(default_factory=list)  # non-increase failures
    strict_violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations and not self.strict_violations


@dataclass
class BoundReport:
    values: list = field(default_factory=list)
    violations: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations


def _stats(part: LevelPartition):
    """(levels, lowest value, highest value, entropy) of one histogram."""
    return part.values.size, int(part.values[0]), int(part.values[-1]), entropy(part)


def _check(stats):
    """Judge every rule along a sequence of per-scale statistics in one pass.

    Each item is `_stats` of one scale's histogram: (levels, lo, hi,
    entropy). Entropy never increases, and drops strictly on a real merge:
    a merge of two non-empty level sets shows as a drop in the number of
    occurring values, while steps touching an empty level set leave the
    histogram unchanged. Total contrast never increases. Every scale stays
    within [min f^0, max f^0]. An empty sequence raises ValueError.
    """
    lyap, contrast, bounds = LyapunovReport(), BoundReport(), BoundReport()
    for m, (levels, lo, hi, h) in enumerate(stats):
        if m > 0:
            h0 = lyap.entropies[-1]
            if h > h0 + ENTROPY_TOL:
                lyap.violations.append(m - 1)
            if levels < lyap.active_levels[-1] and not h <= h0 - ENTROPY_TOL:
                lyap.strict_violations.append(m - 1)
            if hi - lo > contrast.values[-1]:
                contrast.violations.append(m - 1)
            first_lo, first_hi = bounds.values[0]
            if lo < first_lo or hi > first_hi:
                bounds.violations.append(m)
        lyap.entropies.append(h)
        lyap.active_levels.append(levels)
        contrast.values.append(hi - lo)
        bounds.values.append((lo, hi))
    if not lyap.entropies:
        raise ValueError("empty scale-space sequence")
    return lyap, contrast, bounds


def verify_scale_space(
    sequence, mask: Mask | None = None
) -> tuple[LyapunovReport, BoundReport, BoundReport]:
    """Judge entropy, total contrast and max-min of a sequence in one pass.

    Each image is partitioned once, so `sequence` may be a generator such
    as `generate(...)`. Returns the triple (entropy `LyapunovReport`,
    contrast `BoundReport`, max-min `BoundReport`): entropy never increases
    and strictly drops on real merges, total contrast never increases, and
    every scale stays within [min f^0, max f^0].
    """
    return _check(_stats(level_partition(img, mask)) for img in sequence)


def verify_semigroup(
    image: Image, mask: Mask | None, path: QuantisationPath, l: int, n: int
) -> bool:
    """f^{l+n} from f^0 equals n further steps applied to f^l, exactly."""
    direct = apply_path(image, mask, path, l + n)
    staged = apply_path(image, mask, path, l)
    staged = apply_steps(staged, mask, path.steps[l : l + n])
    return direct == staged


def _walk(part: LevelPartition, path: QuantisationPath, grey_depth: int):
    """Yield (`_stats`, squared error) of every scale m = 0 ... len(path).

    `part` is the histogram of the domain of f^0. Each value x carries the
    pixel count n_x and the sum S_x of the original values of the pixels
    now at x. A step moves its two sources' sums onto the merged value r
    and adds its change of the squared error against f^0,
    (n_a + n_b) r^2 - 2r (S_a + S_b) - (n_a a^2 - 2a S_a) - (n_b b^2 - 2b S_b),
    an exact integer (the sums of squared original values cancel). A step
    between two absent values changes nothing; any other reads the
    statistics from the counts.

    A first pass walks the counts and sums in Python integers, which also
    gives every count the path reaches: those of f^0, then one per merge.
    The summands p log2 p of `entropy`, p being a count over the domain
    size, are computed for all of them in one array operation, and each
    scale's entropy sums the summands of its occurring values in ascending
    value order, as `entropy` sums those of a histogram: each summand and
    so each entropy is bit-identical to `entropy(level_partition(f^m))`.
    """
    n = np.zeros(grey_depth, dtype=np.int64)
    n[part.values] = part.counts
    counts, sums = n.tolist(), (n * np.arange(grey_depth)).tolist()
    occurs = n > 0
    reached = part.counts.tolist()
    merges, err = [], 0  # (a, b, r, squared error) of a step that moves pixels
    for step in path.steps:
        a, b, r = step.source_low, step.source_high, step.merged_value
        na, nb, sa, sb = counts[a], counts[b], sums[a], sums[b]
        if na or nb:
            err += ((na + nb) * r * r - 2 * r * (sa + sb)
                    - na * a * a + 2 * a * sa - nb * b * b + 2 * b * sb)
            counts[a] = counts[b] = sums[a] = sums[b] = 0
            counts[r], sums[r] = na + nb, sa + sb
            reached.append(na + nb)
            merges.append((a, b, r, err))
        else:
            merges.append(None)
    p = np.array(reached, dtype=np.int64) / part.domain_size
    p *= np.log2(p)
    terms = np.zeros(grey_depth)  # the summand of each value's count
    terms[part.values] = p[: part.values.size]
    stats, err = _stats(part), 0
    yield stats, err
    merged = iter(p[part.values.size:])
    for merge in merges:
        if merge is not None:
            a, b, r, err = merge
            occurs[a] = occurs[b] = terms[a] = terms[b] = 0
            occurs[r], terms[r] = True, next(merged)
            occurring = np.flatnonzero(occurs)
            stats = (occurring.size, int(occurring[0]), int(occurring[-1]),
                     float(0.0 - np.sum(terms[occurring])))
        yield stats, err


def report_csv(image: Image, mask: Mask | None, path: QuantisationPath):
    """Per-step CSV: step, active_levels, entropy_bits, contrast, mse, pass flags.

    The domain (the mask when one is supplied, the whole image otherwise)
    is partitioned once and `_walk` carries each grey value's pixel count
    and sum of original values along the path, O(1) per step plus the
    entropy of the steps that change the histogram: a sum of summands
    p log2 p, all computed up front from the counts the path reaches, and
    bit-identical to the entropy of the generated image. The MSE against
    f^0 is the exact integer squared error over the domain size. The statistics
    are judged by `_check`, as `verify_scale_space` judges generated
    images. The path's values must lie in [0, grey_depth), as `generate`'s
    images do. Returns the CSV text and the entropy report of `generate`'s
    images.
    """
    part = level_partition(image, mask)
    _check_initial_values(part.values, path)
    if path.initial_values[0] < 0 or path.initial_values[-1] >= image.grey_depth:
        raise PathError("path values outside [0, %d)" % image.grey_depth)
    scales = list(_walk(part, path, image.grey_depth))
    lyap, contrast, bounds = _check(stats for stats, _ in scales)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["step", "active_levels", "entropy_bits", "contrast", "mse",
         "entropy_ok", "contrast_ok", "maxmin_ok"]
    )
    for m, (_, err) in enumerate(scales):
        writer.writerow(
            [
                m,
                lyap.active_levels[m],
                "%.12g" % lyap.entropies[m],
                contrast.values[m],
                "%.12g" % (err / part.domain_size),
                int(m - 1 not in lyap.violations and m - 1 not in lyap.strict_violations),
                int(m - 1 not in contrast.violations),
                int(m not in bounds.violations),
            ]
        )
    return buf.getvalue(), lyap
