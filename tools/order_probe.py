"""Print check 11's EEMP and IEMP halving ratios at the packaged start and
at ten starts perturbed at the rounding level.

Check 11 (``tests/test_acceptance.py``) integrates Klein-Gordon n=32 to
T = 1 in 20 and 40 steps and takes the ratio of the two final solution
errors (``_kg_order_ratio``); it passes when the ratio lies in [3, 5].
This prints that ratio for EEMP and IEMP at the committed x0 and at ten
draws x0 (1 + 1e-15 d), d standard normal from
``np.random.default_rng(1)``, so a change that moves rounding shows how
far the ratios can move without any change of the method.  It checks
nothing and gates nothing.

Usage: python3 tools/order_probe.py

Imports symkry from this checkout's ``src/`` and check 11's function from
its ``tests/``; takes a few seconds.
"""

import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from symkry import KleinGordonSystem  # noqa: E402
from test_acceptance import _kg_order_ratio  # noqa: E402

DRAWS = 10


def main():
    x0 = KleinGordonSystem(n=32).initial_state
    d = np.random.default_rng(1).standard_normal((DRAWS, x0.size))
    starts = [("committed x0", x0)] + [(f"draw {i}", x0 * (1.0 + 1e-15 * d[i]))
                                      for i in range(DRAWS)]
    print(f"{'start':>14s} {'EEMP':>7s} {'IEMP':>7s}")
    ratios = {"EEMP": [], "IEMP": []}
    for label, start in starts:
        row = [_kg_order_ratio(method, x0=start) for method in ratios]
        for method, ratio in zip(ratios, row):
            ratios[method].append(ratio)
        print(f"{label:>14s} {row[0]:7.3f} {row[1]:7.3f}")
    for method, values in ratios.items():
        print(f"{method}: min {min(values):.3f}, max {max(values):.3f} over {len(values)} starts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
