"""certcap: certified capacity bounds and solvability classification for
control loops over discrete noisy channels.

Everything is exact rational arithmetic or certified interval enclosures;
no module uses floats: the capacity proposer, a heuristic, runs in decimal.
"""

__version__ = "0.1.0"
