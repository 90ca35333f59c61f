"""Walk through a quantisation scale-space step by step.

Builds a small test image, derives its hierarchical merging path with the
clustering quantiser, and prints how entropy, contrast and level count
evolve while the guaranteed invariants are checked along the way.
"""

import numpy as np

from qss import (
    Image,
    generate,
    level_partition,
    verify_scale_space,
    verify_semigroup,
    ward_path,
)


def make_image(side=24, seed=3):
    rng = np.random.default_rng(seed)
    x, y = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side))
    px = 40 + 150 * x + 20 * np.sin(6 * y)
    px[(x - 0.6) ** 2 + (y - 0.4) ** 2 < 0.04] = 230
    px = np.clip(np.rint(px + rng.normal(0, 2, px.shape)), 0, 255)
    return Image(side, side, px.astype(np.int64).ravel())


def main():
    img = make_image()
    path = ward_path(level_partition(img))
    print("image: %dx%d, %d occurring grey levels, %d merge steps"
          % (img.width, img.height, len(path.initial_values), len(path)))

    # generate yields one image at a time; nothing holds the whole family.
    # One pass judges every scale and keeps its statistics per step.
    report, contrast, bounds = verify_scale_space(generate(img, None, path))
    print("\n  step  levels  entropy  contrast")
    stride = max(1, (len(path) + 1) // 12)
    for m in range(len(path) + 1):
        if m % stride == 0 or m == len(path):
            print("  %4d  %6d  %7.4f  %8d" % (m, report.active_levels[m],
                                              report.entropies[m], contrast.values[m]))

    print("\nentropy is a Lyapunov sequence: %s" % report.passed)
    print("max-min bounds hold at every step: %s" % bounds.passed)

    # applying m steps then n more equals applying m+n at once
    mid = len(path) // 2
    ok = verify_semigroup(img, None, path, mid, len(path) - mid)
    print("cascade property (split at step %d): %s" % (mid, ok))


if __name__ == "__main__":
    main()
