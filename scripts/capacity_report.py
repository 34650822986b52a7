#!/usr/bin/env python3
"""Print the three capacity quantities side by side for the built-in corpus.

For each channel: the zero-error lower-bound ladder (two rungs), the exact
feedback zero-error capacity, and a certified bracket on the ordinary
capacity.  Everything is exact or certified; floats below are for display.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from certcap.capacity import feedback_zero_error_capacity, shannon_capacity
from certcap.channel import binary_symmetric, noiseless, typewriter
from certcap.confgraph import CapacityLadder, certified_graph, extend_ladder

CORPUS = [
    ("noiseless binary", noiseless(2)),
    ("noiseless ternary", noiseless(3)),
    ("BSC(1/10)", binary_symmetric(Fraction(1, 10))),
    ("BSC(1/4)", binary_symmetric(Fraction(1, 4))),
    ("pentagon typewriter", typewriter(5)),
    ("heptagon typewriter", typewriter(7)),
]


def main() -> int:
    header = f"{'channel':<22} {'C0 lower':>10} {'C0FB':>10} {'C bracket':>24}"
    print(header)
    print("-" * len(header))
    for name, ch in CORPUS:
        graph = certified_graph(ch)
        if graph.is_complete():
            c0_lo = "0"
        else:
            ladder = CapacityLadder()
            for n in (1, 2):
                ladder = extend_ladder(ladder, graph, n)
            c0_lo = f"{float(ladder.running_best.lo):.5f}"
        fb = feedback_zero_error_capacity(ch)
        fb_text = f"{float((fb.upper.lo + fb.upper.hi) / 2):.5f}"
        bounds = shannon_capacity(ch, Fraction(1, 10 ** 6))
        bracket = f"[{float(bounds.lower.lo):.6f}, {float(bounds.upper.hi):.6f}]"
        print(f"{name:<22} {c0_lo:>10} {fb_text:>10} {bracket:>24}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
