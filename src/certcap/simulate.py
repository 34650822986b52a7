"""Desk-scale control-loop simulation in exact rational arithmetic.

Epoch-quantizer scheme for scalar or diagonal plants: the coder and decoder
share an uncertainty box, each epoch the box is split into cells, the cell
index crosses the channel as a block codeword, and both sides refine.  With
a zero-error code the two stay synchronized and the radius recursion gives
an analytic sup bound; over a noisy channel with a code that is not
zero-error the mirrored states drift apart and the error blows up, which is
what the divergence smoke runs demonstrate.

All state arithmetic is exact.  Each mode keeps one integer denominator L
with x, the coder centre, the decoder centre and the radius (the two boxes
share it: the radius recursion never reads a message) as integer numerators
over it: a refine multiplies L by the cell count and a plant step by q for
a = p/q; L starts with the factors of 2^32 D_den its first step needs, so
disturbances are integer numerators over 2^32 D_den, which divides L from
then on.  Without a drive x is also kept over its own denominator, free of
cell counts.  Each step reduces x, x_hat and the error in one pass over the
modes, by a binary-gcd split and a few-bit base holding every odd prime of
L; a row the base test leaves open strips the base's primes by small gcds,
never by a gcd with L's large odd part.  Maxima and the divergence test
compare integer numerators once bit lengths leave the comparison open.
Noise and disturbances come from a seeded generator with exact inverse-CDF
comparisons (one table per channel row and run), so identical
configurations reproduce identical trajectories byte for byte.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from math import gcd, inf, lcm, prod

from .channel import Channel
from .enclosure import rational_str
from .plant import Plant, Regime


DIVERGENCE_THRESHOLD = Fraction(1000)  # a run stops once its error exceeds this


class SimulationError(ValueError):
    """Configuration cannot run (bad shapes, impossible contraction, ...)."""


@dataclass(frozen=True)
class CodeSpec:
    """Block code over the channel input alphabet (symbol indices)."""

    block_length: int
    codewords: tuple

    def __post_init__(self):
        if any(len(c) != self.block_length for c in self.codewords):
            raise SimulationError("codeword length mismatch")
        if len(set(self.codewords)) != len(self.codewords):
            raise SimulationError("duplicate codewords")

    @property
    def size(self) -> int:
        return len(self.codewords)


def identity_code(ch: Channel) -> CodeSpec:
    return CodeSpec(1, tuple((i,) for i in range(len(ch.inputs))))


def witness_code(ch: Channel, witness) -> CodeSpec:
    """Code from independent-set witness words (tuples of input labels)."""
    index = {v: i for i, v in enumerate(ch.inputs)}
    words = [tuple(index[s] for s in word) for word in witness]
    if not words:
        raise SimulationError("empty witness")
    return CodeSpec(len(words[0]), tuple(words))


@dataclass(frozen=True)
class SimConfig:
    plant: Plant
    channel: Channel
    regime: Regime
    code: CodeSpec
    horizon: int
    seed: int
    initial_radius: Fraction = Fraction(1)
    x0: tuple | None = None

    def start_state(self) -> tuple[Fraction, ...]:
        if self.x0 is not None:
            xs = tuple(Fraction(v) for v in self.x0)
            if len(xs) != len(self.plant.a):
                raise SimulationError("x0 dimension mismatch")
            if any(abs(v) > self.initial_radius for v in xs):
                raise SimulationError("x0 outside the initial uncertainty box")
            return xs
        return tuple(Fraction(self.initial_radius) / 3 for _ in range(len(self.plant.a)))


@dataclass(frozen=True)
class Trajectory:
    """A run's rows, one per step, and its summary."""

    times: tuple
    x: tuple
    x_hat: tuple
    u: tuple
    error: tuple  # sup-norm estimation error per step
    summary: dict

    def csv_lines(self):
        """The trajectory CSV one newline-terminated line at a time."""
        yield "t,x,x_hat,error,u\n"
        for i, t in enumerate(self.times):
            yield ",".join([str(t), _vec(self.x[i]), _vec(self.x_hat[i]),
                            rational_str(self.error[i]), _vec(self.u[i])]) + "\n"

    def to_csv(self) -> str:
        return "".join(self.csv_lines())


def _vec(values) -> str:
    return ";".join(rational_str(v) for v in values)


# ---------------------------------------------------------------------------
# exact channel sampling

def sample_output(rng: random.Random, row) -> int:
    """Inverse-CDF draw honoring rational probabilities exactly.

    The uniform variate is consumed lazily bit by bit until its dyadic
    bracket falls inside a single CDF cell, so every output index has
    exactly its row probability.
    """
    return _draw(rng, *_inverse_cdf(row))


def _inverse_cdf(row) -> tuple[int, list]:
    """(den, cums): the row's cumulative probabilities are cums[i] / den."""
    den = lcm(*(p.denominator for p in row))
    return den, list(accumulate(p.numerator * (den // p.denominator) for p in row))


def _draw(rng: random.Random, den: int, cums: list) -> int:
    num = bits = 0
    while True:
        # [lo, hi) = [num, num + 1) / 2**bits, compared with cum / den
        num = (num << 32) | rng.getrandbits(32)
        bits += 32
        lo = num * den
        prev = 0
        for idx, cum in enumerate(cums):
            if lo + den <= cum << bits:
                if lo >= prev << bits:
                    return idx
                break
            prev = cum


# ---------------------------------------------------------------------------
# rows in lowest terms

def _dyadic_split(den: int, base: int = 0) -> tuple[int, int, int, int]:
    """(den, v, odd, base) with den = odd * 2**v and odd odd, for den > 0, and
    base odd with every prime of odd dividing it (odd itself by default)."""
    v = (den & -den).bit_length() - 1
    return den, v, den >> v, base or den >> v


def _lowest_terms(n: int, split) -> Fraction:
    """n / den in lowest terms, for split = _dyadic_split(den, base).

    gcd(n, den) = 2**min(v2(n), v) * gcd(n, odd) (Stein 1967): the power of
    two comes out by shifts, exact for negative n too.  Every prime of odd
    divides base, so g = gcd(n, base) is gcd(n, odd) when g divides odd and
    n / g is coprime to base.  The coprimality test takes no division: for
    each prime p of base, v_p(gcd(n, g base)) = min(v_p(n), v_p(g) +
    v_p(base)), which is v_p(g) exactly when v_p(n) = v_p(g), so
    gcd(n, g base) = g just when gcd(n / g, base) = 1.  Otherwise gcd(n, odd)
    is built from small gcds, not taken whole: every common prime of rest and
    left divides base, so h = gcd(gcd(rest, base), left) is 1 just when they
    are coprime, and g gathers each h that rest and left are divided by
    (gcd(0, odd) = odd).  The pair is coprime with a positive denominator,
    so the Fraction is built without a second gcd, as
    ``Fraction._from_coprime_ints`` does; the result equals Fraction(n, den).
    """
    den, v, odd, base = split
    k = min((n & -n).bit_length() - 1, v) if n else v
    g = gcd(n, base)
    if g != 1 and base != odd and (odd % g or gcd(n, g * base) != g):
        g, rest, left = (1, n, odd) if n else (odd, 0, 1)
        while (h := gcd(gcd(rest, base), left)) != 1:
            g, rest, left = g * h, rest // h, left // h
    if k:
        n, den = n >> k, den >> k
    if g != 1:
        n, den = n // g, den // g
    value = object.__new__(Fraction)
    value._numerator = n
    value._denominator = den
    return value


# ---------------------------------------------------------------------------
# cell allocation across modes

def _allocate_cells(modes, n: int, total: int, allow_boundary: bool):
    """Per-mode cell counts with product <= total.

    Strict contraction needs a_i**n < M_i per mode; the weak flavour allows
    equality (no decay, flagged as boundary by the caller).
    """
    mins = []
    for a in modes:
        growth = a ** n
        if growth < 1 or (growth == 1 and allow_boundary):
            need = 1
        elif allow_boundary:
            need = int(-((-growth.numerator) // growth.denominator))  # ceil
        else:
            need = int(growth.numerator // growth.denominator) + 1
        mins.append(need)
    product = prod(mins)
    if product > total:
        raise SimulationError(
            "contraction impossible: the code carries too few messages for "
            f"the plant growth (needs {product}, code has {total})")
    # hand out spare capacity to the slowest-contracting mode, deterministically
    while True:
        order = sorted(range(len(mins)), key=lambda i: (-(modes[i] ** n) / mins[i], i))
        i = next((i for i in order if product // mins[i] * (mins[i] + 1) <= total), None)
        if i is None:
            return mins
        product = product // mins[i] * (mins[i] + 1)
        mins[i] += 1


# ---------------------------------------------------------------------------
# the epoch quantizer loop

def check_setup(plant: Plant, channel: Channel, regime: Regime, horizon: int,
                initial_radius: Fraction) -> tuple[Fraction, ...]:
    """Refuse what the simulator cannot run with any code; return A's diagonal.

    None of these checks reads the code, so ``simulate --code auto`` makes
    them before it searches for one.
    """
    if regime.kind == "weak" and (plant.disturbance_bound or 0) != 0:
        raise SimulationError("weak detection models an undisturbed plant (D = 0)")
    if not channel.is_exact:
        raise SimulationError("the simulator needs an exact channel, not a stream")
    if horizon < 0:
        raise SimulationError(f"horizon must be >= 0, got {horizon}")
    if initial_radius < 0:
        raise SimulationError(f"initial radius must be >= 0, got {rational_str(initial_radius)}")
    a, dim = plant.a, len(plant.a)
    if any(a[i][j] != 0 for i in range(dim) for j in range(dim) if i != j):
        raise SimulationError("simulator supports scalar/diagonal A only")
    c, b = plant.c, plant.b
    if c is None or len(c) != dim or any(c[i][j] != (1 if i == j else 0)
                                         for i in range(len(c)) for j in range(dim)):
        raise SimulationError("simulator supports full-state sensing (C = I) only")
    if any(a[i][i] < 0 for i in range(dim)):
        raise SimulationError("simulator expects non-negative diagonal entries")
    if regime.kind == "stab-fb":
        if b is None:
            raise SimulationError("stabilization needs an input map B")
        if len(b[0]) != dim or any(b[i][j] != 0 for i in range(dim)
                                   for j in range(dim) if i != j) \
                or any(b[i][i] == 0 for i in range(dim)):
            raise SimulationError("stabilization supports diagonal invertible B only")
    return tuple(a[i][i] for i in range(dim))


def _run_loop(cfg: SimConfig) -> Trajectory:
    modes = check_setup(cfg.plant, cfg.channel, cfg.regime, cfg.horizon, cfg.initial_radius)
    # stab-fb drives the plant (check_setup checked its B); weak allows a_i^n = M_i
    with_control, allow_boundary = cfg.regime.kind == "stab-fb", cfg.regime.kind == "weak"
    dim = len(modes)
    n = cfg.code.block_length
    if with_control:  # the deadbeat control u = -a x_hat / b of each mode
        control = [-a / cfg.plant.b[i][i] for i, a in enumerate(modes)]

    bound = cfg.plant.disturbance_bound or Fraction(0)
    cells = _allocate_cells(modes, n, cfg.code.size, allow_boundary)
    used = prod(cells)
    ps, qs = [a.numerator for a in modes], [a.denominator for a in modes]

    # x, coder centre, decoder centre, radius of mode i = X, C, H, R[i] / L[i];
    # every disturbance is z / zeta_den for an integer z
    rng = random.Random(cfg.seed)
    getrandbits = rng.getrandbits
    zeta_den = bound.denominator << 32 if bound else 1
    bound_num = bound.numerator << 32
    r0 = Fraction(cfg.initial_radius)
    start = cfg.start_state()
    # L starts at L0 s with L0 m q s = lcm(L0 m q, zeta_den): the first step,
    # after the first refine, lands on a multiple of zeta_den.  Without a
    # drive x is also kept as Y / K, K started alike but never refined
    L0 = [lcm(r0.denominator, v.denominator) for v in start]
    L = [d * (zeta_den // gcd(d * m * q, zeta_den)) for d, m, q in zip(L0, cells, qs)]
    K = [d * (zeta_den // gcd(d * q, zeta_den)) for d, q in zip(L0, qs)]
    X = [v.numerator * (d // v.denominator) for v, d in zip(start, L)]
    Y = [v.numerator * (d // v.denominator) for v, d in zip(start, K)]
    C, H = [0] * dim, [0] * dim
    R = [r0.numerator * (d // r0.denominator) for d in L]
    # L and K gain only cell counts, mode denominators and factors of
    # zeta_den: base holds their odd primes
    base = _dyadic_split(used * prod(qs) * zeta_den
                         * r0.denominator * prod(v.denominator for v in start))[2]

    xs, xhats, us, errors = [], [], [], []
    epochs, zero_error = 0, True
    decodes = {}
    rows, codewords = cfg.channel.rows, cfg.code.codewords
    tables = [_inverse_cdf(row) for row in rows]
    t, diverged_at, horizon = 0, None, cfg.horizon
    max_error, max_size = Fraction(0), -inf
    # 2**limit_bits <= DIVERGENCE_THRESHOLD: an error of bit size below it cannot pass
    limit_num, limit_den = DIVERGENCE_THRESHOLD.numerator, DIVERGENCE_THRESHOLD.denominator
    limit_bits = limit_num.bit_length() - limit_den.bit_length() - 1
    zeta = [0] * dim  # without a disturbance every step draws this zero row

    while t < horizon and diverged_at is None:
        # quantize against the coder's box: cell floor((x - c + r) m / 2r),
        # clamped, and transmit the mixed-radix cell index
        message = 0
        for i in reversed(range(dim)):
            m = cells[i]
            idx = 0 if R[i] == 0 else (X[i] - C[i] + R[i]) * m // (2 * R[i])
            message = message * m + min(max(idx, 0), m - 1)
        received = tuple([_draw(rng, *tables[sym]) for sym in codewords[message]])
        decoded = decodes.get(received)
        if decoded is None:
            decoded = decodes[received] = _decode(rows, cfg.code, used, received)

        # the coder refines on what it sent, the decoder on what it decoded
        sent, got = message, decoded
        for i in range(dim):
            m = cells[i]
            sent, k = divmod(sent, m)
            got, j = divmod(got, m)
            L[i] *= m
            X[i] *= m
            C[i] = C[i] * m + R[i] * (2 * k + 1 - m)
            H[i] = H[i] * m + R[i] * (2 * j + 1 - m)
        epochs += 1
        zero_error = zero_error and decoded == message

        for _ in range(n):
            if t >= horizon or diverged_at is not None:
                break
            # one pass; top is the first mode of largest error
            x_hat, x = [], []
            for i in range(dim):
                split = _dyadic_split(L[i], base)
                x_hat.append(_lowest_terms(H[i], split))
                x.append(_lowest_terms(X[i], split) if with_control
                         else _lowest_terms(Y[i], _dyadic_split(K[i], base)))
                gap = abs(X[i] - H[i])
                if not i or gap * L[top] > top_gap * L[i]:
                    top, top_gap, top_split = i, gap, split
            x_hat = tuple(x_hat)
            err = _lowest_terms(top_gap, top_split)
            xs.append(tuple(x))
            xhats.append(x_hat)
            us.append(tuple([control[i] * x_hat[i] for i in range(dim)])
                      if with_control else ())
            errors.append(err)
            # err < 2**(size + 1) and max_error > 2**(max_size - 1), so the bit
            # lengths settle most comparisons without a product
            size = top_gap.bit_length() - L[top].bit_length()
            if size + 2 > max_size and (err.numerator * max_error.denominator
                                        > max_error.numerator * err.denominator):
                max_error, max_size = err, size
            if size >= limit_bits and top_gap * limit_den > limit_num * L[top]:
                diverged_at = t
            if bound:
                zeta = [bound.numerator * (2 * getrandbits(32) - (1 << 32))
                        for _ in range(dim)]
            for i in range(dim):
                # x -> a x + b u + zeta over L q for a = p/q and zeta = z w / (L q);
                # the deadbeat drive b u = -a x_hat cancels the decoder centre
                p = ps[i]
                L[i] = d = L[i] * qs[i]
                w = d // zeta_den
                drive = H[i] if with_control else 0
                X[i] = p * (X[i] - drive) + zeta[i] * w
                C[i] = p * (C[i] - drive)
                H[i] = p * (H[i] - drive)
                R[i] = p * R[i] + bound_num * w
                if not with_control:
                    K[i] = d = K[i] * qs[i]
                    Y[i] = p * Y[i] + zeta[i] * (d // zeta_den)
            t += 1

    # each mode's radius recursion r -> a^n r / cells + drift has a fixed
    # point when it contracts; the sup bound needs every mode to contract
    stars = [bound * sum(a ** j for j in range(n)) / (1 - a ** n / cells[i])
             if a ** n < cells[i] else None for i, a in enumerate(modes)]
    analytic = None if None in stars else max([cfg.initial_radius, *stars])

    decay_ratio = max(a ** n / cells[i] for i, a in enumerate(modes))

    summary = {
        "regime": cfg.regime.kind,
        "horizon": cfg.horizon,
        "seed": cfg.seed,
        "epochs": epochs,
        "block_length": n,
        "message_count": cfg.code.size,
        "cells": list(cells),
        "max_error": rational_str(max_error),
        "analytic_bound": rational_str(analytic) if analytic is not None else None,
        "bounded": analytic is not None and max_error <= analytic,
        "decay_ratio": rational_str(decay_ratio),
        "boundary": decay_ratio == 1,
        "diverged_at": diverged_at,
        "zero_error_transcript": zero_error,
    }

    return Trajectory(tuple(range(t)), tuple(xs), tuple(xhats), tuple(us), tuple(errors), summary)


def _decode(rows, code: CodeSpec, used: int, received) -> int:
    """The first most likely message, or 0 when none could give ``received``."""
    best, best_like = 0, Fraction(0)
    for m in range(used):
        like = Fraction(1)
        for sym, y in zip(code.codewords[m], received):
            like *= rows[sym][y]
            if like == 0:
                break
        if like > best_like:
            best, best_like = m, like
    return best


def run_estimation(cfg: SimConfig) -> Trajectory:
    """Tracking run: quantized state estimation over the channel.

    Refuses when no per-mode cell allocation contracts strictly (code rate
    at or below the plant's growth).  With a zero-error code the recorded
    error never exceeds the analytic radius bound; with anything else the
    bound is reported but typically violated, which is the point of the
    divergence smoke runs.
    """
    if cfg.regime.kind not in ("se-nofb", "se-fb"):
        raise SimulationError("estimation run expects an se-* regime")
    return _run_loop(cfg)


def run_stabilization(cfg: SimConfig) -> Trajectory:
    """Stabilization run: per-mode deadbeat control from the decoded estimate.

    The coder mirror is handed the applied control drive; over a channel
    where the code is not zero-error the coder and decoder boxes still
    desynchronize through mis-decoded cells, so those runs diverge.
    """
    if cfg.regime.kind != "stab-fb":
        raise SimulationError("stabilization run expects regime stab-fb")
    return _run_loop(cfg)


def run_weak_detection(cfg: SimConfig) -> Trajectory:
    """Undisturbed tracking: the radius decays geometrically (or sits at the
    boundary when the code rate exactly matches the growth, which is flagged
    rather than refused)."""
    if cfg.regime.kind != "weak":
        raise SimulationError("weak detection expects regime weak")
    return _run_loop(cfg)
