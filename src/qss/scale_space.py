"""Quantisation scale-spaces as image streams, and executable property checks.

`generate` yields the images one at a time. Every property checked is read
from a level histogram (level count, entropy, lowest and highest value): the
verifiers partition each image of a sequence once, in a single pass, and
`report_csv` walks the path over one histogram of the domain, building no
image per scale. Verifiers return structured per-step reports rather than
booleans so the same numbers can be dumped as CSV.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

from .image import Image, Mask, _domain, _histogram, _with_domain, entropy, level_partition
from .quantisation import QuantisationPath, _quantised_known_values, apply_path, apply_steps

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


def _check(partitions):
    """Judge every rule along a sequence of histograms in one pass.

    Each `LevelPartition` is the histogram of one scale. Entropy never
    increases, and drops strictly on a real merge: a merge of two non-empty
    level sets shows as a drop in the number of occurring values, while
    steps touching an empty level set leave the histogram unchanged. Total
    contrast never increases. Every scale stays within [min f^0, max f^0].
    An empty sequence raises ValueError.
    """
    lyap, contrast, bounds = LyapunovReport(), BoundReport(), BoundReport()
    for m, part in enumerate(partitions):
        h, levels = entropy(part), part.values.size
        lo, hi = int(part.values[0]), int(part.values[-1])
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


def verify_lyapunov_entropy(sequence, mask: Mask | None = None) -> LyapunovReport:
    """Check that entropy never increases and strictly drops on real merges."""
    return _check(level_partition(img, mask) for img in sequence)[0]


def verify_contrast_lyapunov(sequence, mask: Mask | None = None) -> BoundReport:
    """Total contrast is non-increasing along the sequence."""
    return _check(level_partition(img, mask) for img in sequence)[1]


def verify_maxmin(sequence, mask: Mask | None = None) -> BoundReport:
    """All scales stay within [min f^0, max f^0]."""
    return _check(level_partition(img, mask) for img in sequence)[2]


def verify_semigroup(
    image: Image, mask: Mask | None, path: QuantisationPath, l: int, n: int
) -> bool:
    """f^{l+n} from f^0 equals n further steps applied to f^l, exactly."""
    direct = apply_path(image, mask, path, l + n)
    staged = apply_path(image, mask, path, l)
    staged = apply_steps(staged, mask, path.steps[l : l + n])
    return direct == staged


def report_csv(image: Image, mask: Mask | None, path: QuantisationPath):
    """Per-step CSV: step, active_levels, entropy_bits, contrast, mse, pass flags.

    The domain (the mask when one is supplied, the whole image otherwise)
    is partitioned once and the path walks its occurring values v: at scale
    m the counts n_v are re-binned at the scaled values s_v, and the MSE
    against f^0 is the exact integer sum of n_v (s_v - v)^2 over the domain
    size. Returns the CSV text and the entropy report of `generate`'s images.
    """
    part = level_partition(image, mask)
    scales = list(_quantised_known_values(part.values, path, image.grey_depth))
    lyap, contrast, bounds = _check(_histogram(s, part.counts) for s in scales)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["step", "active_levels", "entropy_bits", "contrast", "mse",
         "entropy_ok", "contrast_ok", "maxmin_ok"]
    )
    for m, s in enumerate(scales):
        writer.writerow(
            [
                m,
                lyap.active_levels[m],
                "%.12g" % lyap.entropies[m],
                contrast.values[m],
                "%.12g" % (int(part.counts @ (s - part.values) ** 2) / part.domain_size),
                int(m - 1 not in lyap.violations and m - 1 not in lyap.strict_violations),
                int(m - 1 not in contrast.violations),
                int(m not in bounds.violations),
            ]
        )
    return buf.getvalue(), lyap
