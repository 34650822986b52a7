"""certcap: certified capacity bounds and solvability classification for
control loops over discrete noisy channels.

Everything is exact rational arithmetic or certified interval enclosures;
there is no floating-point fast path in any reported quantity.
"""

from .capacity import (FeedbackCapacity, MinimaxRung, ShannonBounds,
                       feedback_zero_error_capacity, minimax_ladder_step,
                       shannon_capacity)
from .channel import (Channel, SupportCertificate, binary_symmetric,
                      certify_support, exact_channel, hovering_stream,
                      load_channel, noiseless, product_channel,
                      resolving_stream, stream_channel, typewriter)
from .classify import (Regime, Verdict, classify, classify_fixed_plant,
                       dovetail, revalidate)
from .confgraph import (CapacityLadder, ConfusabilityGraph, certified_graph,
                        confusability_graph, extend_ladder, max_independent_set,
                        strong_power)
from .enclosure import Enclosure, log2_enclosure, parse_rational, rational_str
from .linprog import LinearProgram, LpSolution, solve_lp
from .plant import (InstabilityExponent, Plant, instability_exponent, is_detectable,
                    is_stabilizable, load_plant)
from .roots import UnstableModuli, schur_stable, symmetric_eigenvalue_enclosures
from .simulate import (CodeSpec, SimConfig, Trajectory, identity_code,
                       run_estimation, run_stabilization, run_weak_detection,
                       witness_code)

__version__ = "0.1.0"
