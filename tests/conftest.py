import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from certcap.channel import (Channel, ResourceCapError, binary_symmetric, hovering_stream,
                             noiseless, resolving_stream, typewriter)
from certcap.enclosure import DomainError
from certcap.linalg import as_matrix
from certcap.plant import Plant

DATA_DIR = Path(__file__).resolve().parent / "data"

DEFAULT_PRODUCT_CAP = 4096


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture(scope="session")
def pentagon():
    return typewriter(5)


@pytest.fixture(scope="session")
def bsc14():
    return binary_symmetric(Fraction(1, 4))


@pytest.fixture(scope="session")
def bsc110():
    return binary_symmetric(Fraction(1, 10))


@pytest.fixture(scope="session")
def nl2():
    return noiseless(2)


@pytest.fixture(scope="session")
def hover_channel(nl2):
    return hovering_stream(nl2, [(0, 1)])


@pytest.fixture(scope="session")
def pentagon_stream(pentagon):
    return resolving_stream(pentagon, 3)


def scalar_plant(a, b=None, disturbance=None):
    return Plant(as_matrix([[Fraction(a)]]), c=as_matrix([[Fraction(1)]]),
                 b=as_matrix([[Fraction(b)]]) if b is not None else None,
                 disturbance_bound=Fraction(disturbance) if disturbance is not None else None)


def diagonal_plant(values, disturbance=None):
    n = len(values)
    a = [[Fraction(values[i]) if i == j else Fraction(0) for j in range(n)]
         for i in range(n)]
    c = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    b = [[Fraction(1)] if i == 0 else [Fraction(0)] for i in range(n)]
    return Plant(as_matrix(a), c=as_matrix(c), b=as_matrix(b),
                 disturbance_bound=Fraction(disturbance) if disturbance is not None else None)


def verify_recursion(traj, cfg) -> bool:
    """Re-check x(t+1) = A x(t) + B u(t) + zeta(t) exactly on a finished
    trajectory, mode by mode, from the recorded states, inputs and
    disturbances."""
    modes = cfg.modes()
    b = cfg.plant.b
    for t in range(len(traj.times) - 1):
        for i, a_i in enumerate(modes):
            drive = sum(b[i][j] * u for j, u in enumerate(traj.u[t])) if b else 0
            if traj.x[t + 1][i] != a_i * traj.x[t][i] + drive + traj.zetas[t][i]:
                return False
    return True


def intersects(a, b) -> bool:
    """Whether two enclosures share a point."""
    return a.lo <= b.hi and b.lo <= a.hi


def product_channel(ch: Channel, n: int, cap: int = DEFAULT_PRODUCT_CAP) -> Channel:
    """n-fold memoryless extension on tuple alphabets, exact entries only: a
    brute-force reference for strong powers and tuple-labelled channels."""
    if not ch.is_exact:
        raise DomainError("product channels need exact entries")
    if n < 1:
        raise DomainError("block length must be >= 1")
    size = len(ch.inputs) ** n
    if size > cap:
        raise ResourceCapError(f"{size} input tuples exceed the cap of {cap}")
    in_tuples = list(product(range(len(ch.inputs)), repeat=n))
    out_tuples = list(product(range(len(ch.outputs)), repeat=n))
    rows = []
    for xs in in_tuples:
        row = []
        for ys in out_tuples:
            w = Fraction(1)
            for x, y in zip(xs, ys):
                w *= ch.rows[x][y]
                if w == 0:
                    break
            row.append(w)
        rows.append(tuple(row))
    new_inputs = tuple(tuple(ch.inputs[i] for i in xs) for xs in in_tuples)
    new_outputs = tuple(tuple(ch.outputs[i] for i in ys) for ys in out_tuples)
    return Channel(new_inputs, new_outputs, rows=tuple(rows))
