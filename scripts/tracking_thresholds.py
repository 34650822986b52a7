#!/usr/bin/env python3
"""Operational side of the capacity thresholds, at desk scale.

Sweeps the scalar growth rate over the noiseless binary channel (rate 1)
and over the pentagon channel with the 5-message block-2 zero-error code
(rate ~1.1609), reporting whether the tracking error stayed within the
analytic bound.  Then runs the divergence smoke batch over a noisy channel.
"""

import sys
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from certcap.channel import binary_symmetric, noiseless, typewriter
from certcap.classify import Regime
from certcap.confgraph import CapacityLadder, certified_graph, extend_ladder
from certcap.linalg import as_matrix
from certcap.plant import Plant
from certcap.simulate import (SimConfig, SimulationError, identity_code,
                              run_estimation, witness_code)


def plant_for(a: Fraction) -> Plant:
    return Plant(as_matrix([[a]]), c=as_matrix([[Fraction(1)]]),
                 disturbance_bound=Fraction(1, 10))


def sweep(name, channel, code, growths, horizon=3000) -> None:
    print(f"{name} (code rate log2({code.size})/{code.block_length}):")
    for a in growths:
        cfg = SimConfig(plant_for(a), channel, Regime("se-nofb"), code,
                        horizon=horizon, seed=42)
        try:
            traj = run_estimation(cfg)
        except SimulationError:
            print(f"  a = {str(a):>5}: refused (rate at or below the growth)")
            continue
        print(f"  a = {str(a):>5}: bounded={traj.summary['bounded']} "
              f"max_error={float(Fraction(traj.summary['max_error'])):.4f} "
              f"bound={float(Fraction(traj.summary['analytic_bound'])):.4f}")
    print()


def main() -> int:
    nl2 = noiseless(2)
    sweep("noiseless binary", nl2, identity_code(nl2),
          [Fraction(5, 4), Fraction(3, 2), Fraction(7, 4), Fraction(2)])

    pentagon = typewriter(5)
    graph = certified_graph(pentagon)
    ladder = extend_ladder(extend_ladder(CapacityLadder(), graph, 1), graph, 2)
    sweep("pentagon + block-2 zero-error code", pentagon,
          witness_code(pentagon, ladder.rungs[-1].witness),
          [Fraction(3, 2), Fraction(2), Fraction(9, 4), Fraction(5, 2)],
          horizon=1200)

    bsc = binary_symmetric(Fraction(1, 4))
    diverged = 0
    seeds = 50
    for seed in range(seeds):
        cfg = SimConfig(plant_for(Fraction(3, 2)), bsc, Regime("se-nofb"),
                        identity_code(bsc), horizon=10_000, seed=seed)
        if run_estimation(cfg).summary["diverged_at"] is not None:
            diverged += 1
    print(f"BSC(1/4), naive binary code, a = 3/2: error exceeded 1000 on "
          f"{diverged}/{seeds} seeds")
    return 0


if __name__ == "__main__":
    sys.exit(main())
