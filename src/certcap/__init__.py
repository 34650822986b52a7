"""certcap: certified capacity bounds and solvability classification for
control loops over discrete noisy channels.

Everything is exact rational arithmetic or certified interval enclosures;
there is no floating-point fast path in any reported quantity.
"""

__version__ = "0.1.0"
