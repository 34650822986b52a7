"""Seeded corpora for the three workloads, as plain JSON-ready data.

Nothing here imports certcap: a corpus is a list of operation specs whose
plants and channels are rational-string documents in certcap's own input
format.  The workload process turns them into files and objects; the
oracles read the same documents.  The same (workload, seed) always gives the
same corpus, and every seed gives the same operation kinds, sizes and order,
so the work per pass barely depends on the seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F

WORKLOADS = ("decide", "ladder", "track")

# Search limits the classification engine uses for its own ladder task
# (classify.ZeroErrorLadderTask); the ladder workload runs rungs the same way.
LADDER_NODE_BUDGET = 20_000
LADDER_VERTEX_CAP = 1024

# A maximum independent set of the pentagon's strong square (alpha = 5),
# written down from the known construction x -> (x, 2x mod 5).
PENTAGON_BLOCK2_WITNESS = [[x, (2 * x) % 5] for x in range(5)]

# The published sweep of scripts/decision_demo.py.
SWEEP_GROWTHS = [F(x, 4) for x in (4, 5, 6, 8, 9, 10, 11, 12, 13)]

# Non-normal plants whose true exponent (eigenvalue moduli) lies strictly
# below C0fb(pentagon) = log2(5/2), while the singular-value route in
# plant.instability_exponent reports more than that.
GRAM_ROUTE_FAULT = ("plant.instability_exponent sums log2 of singular values, "
                    "not of eigenvalue moduli, so it overstates eta for "
                    "non-normal A and se-fb returns Unsolvable")
GRAM_FAULT_PLANTS = [[[F(2), F(3)], [F(0), F(1, 2)]],
                     [[F(3, 2), F(2)], [F(0), F(1, 3)]]]

TARGET_MARGIN = 0.05

PRODUCT_WITNESS_FAULT = ("confgraph._best_product_witness splits block 4 as "
                         "3+1, so rung 4 records alpha=20 < alpha(C5^2)^2 = 25")

# What the oracles must report, exactly and in this order (regular
# expressions, each matched in full), for an operation to count as showing
# its known fault; any other report on it is a wrong output.
GRAM_ROUTE_PROBLEMS = [r"outcome Unsolvable, expected \['Solvable'\] \(.*\)",
                       r"eta_lo exceeds the true eta"]
PRODUCT_WITNESS_PROBLEMS = [r"rung 4: alpha=\d+ < alpha_2 \* alpha_2 = 25 "
                            r"\(not supermultiplicative\)"]

# Timed passes per run are fixed, so that every run with the same --seconds
# attempts the same operations: --seconds divided by the wall time of one
# pass on the reference machine (perfbench/README.md), at least MIN_PASSES.
PASS_SECONDS = {"decide": 4.5, "ladder": 9.5, "track": 2.5}
MIN_PASSES = 3


def passes(workload: str, seconds: float) -> int:
    return max(MIN_PASSES, round(seconds / PASS_SECONDS[workload]))


def rs(value) -> str:
    return str(F(value))


# ---------------------------------------------------------------------------
# channels

def exact_doc(rows) -> dict:
    n_in, n_out = len(rows), len(rows[0])
    return {"inputs": list(range(n_in)), "outputs": list(range(n_out)),
            "mode": "exact", "rows": [[rs(w) for w in row] for row in rows]}


def typewriter_rows(q: int):
    return [[F(1, 2) if j in (i, (i + 1) % q) else F(0) for j in range(q)]
            for i in range(q)]


def noiseless_rows(q: int):
    return [[F(int(i == j)) for j in range(q)] for i in range(q)]


def bsc_rows(p: F):
    return [[1 - p, p], [p, 1 - p]]


def sparse_random_rows(rng: random.Random, k: int, slot: str):
    """k inputs over k outputs; input x reaches x, x+1 and maybe one more output.

    The extra output is drawn from the far side of the cycle, so the
    confusability graph is neither empty nor complete.  Which outputs each
    input reaches is drawn from a generator keyed by the slot, not by the
    seed: the cost of the independence search swings tenfold between support
    patterns of one size (and even between relabelings of one pattern), which
    would make a seed's run time say more about its graphs than about the
    code.  The seed draws the transition probabilities.
    """
    shape = random.Random(f"support/{slot}/{k}")
    rows = []
    for x in range(k):
        support = {x, (x + 1) % k}
        if shape.random() < 0.5:
            support.add((x + shape.randrange(2, k - 1)) % k)
        weights = {y: rng.randint(1, 4) for y in sorted(support)}
        total = sum(weights.values())
        rows.append([F(weights.get(y, 0), total) for y in range(k)])
    return rows


# ---------------------------------------------------------------------------
# plants

def _identity(n):
    return [[F(int(i == j)) for j in range(n)] for i in range(n)]


def _mat_mul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _inverse(a):
    n = len(a)
    aug = [list(row) + _identity(n)[i] for i, row in enumerate(a)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def _det(a) -> F:
    a = [list(row) for row in a]
    n, det = len(a), F(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return F(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            a[r] = [v - f * w for v, w in zip(a[r], a[col])]
    return det


def _cayley_orthogonal(rng: random.Random, n: int):
    """Rational orthogonal Q = (I - S)(I + S)^-1 from a random skew S."""
    s = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = F(rng.choice((-2, -1, 1, 2)), 2)
            s[i][j], s[j][i] = v, -v
    eye = _identity(n)
    minus = [[eye[i][j] - s[i][j] for j in range(n)] for i in range(n)]
    plus = [[eye[i][j] + s[i][j] for j in range(n)] for i in range(n)]
    return _mat_mul(minus, _inverse(plus))


_PYTHAGOREAN = ((F(3, 5), F(4, 5)), (F(5, 13), F(12, 13)), (F(8, 17), F(15, 17)))
_STABLE = (F(1, 2), F(2, 3), F(3, 4), F(-1, 2), F(-3, 5))
_UNSTABLE = (F(5, 4), F(3, 2), F(7, 4), F(-5, 4), F(-3, 2), F(2))


def normal_plant(rng: random.Random, n: int) -> dict:
    """Dense normal plant Q M Q^T with a known spectrum.

    M is block diagonal: real modes and, for n >= 3, one scaled rotation
    block (a complex pair).  C and B pick out the unstable modes, so the
    pair is detectable and stabilizable while the unobservable part is a
    non-trivial stable block for the exact Schur test.
    """
    q = _cayley_orthogonal(rng, n)
    m = [[F(0)] * n for _ in range(n)]
    unstable = []
    i = 0
    if n >= 3:
        c, s = rng.choice(_PYTHAGOREAN)
        r = rng.choice((F(1, 2), F(5, 4), F(3, 2)))
        m[0][0], m[0][1], m[1][0], m[1][1] = r * c, -r * s, r * s, r * c
        if r > 1:
            unstable += [0, 1]
        i = 2
    modes = [rng.choice(_UNSTABLE)] + [rng.choice(_STABLE + _UNSTABLE)
                                       for _ in range(n - i - 1)]
    for k, d in enumerate(modes):
        m[i + k][i + k] = d
        if abs(d) > 1:
            unstable.append(i + k)
    a = _mat_mul(_mat_mul(q, m), _transpose(q))
    qt = _transpose(q)
    c = [qt[k] for k in unstable] or [qt[0]]
    eta = sum(math.log2(abs(m[k][k])) for k in unstable if k >= i)
    if i and r > 1:
        eta += 2 * math.log2(r)
    return {"A": a, "C": c, "B": _transpose(c), "eta": eta}


def expanding_plant(rng: random.Random, n: int) -> dict:
    """Non-normal lam (I + E) with |E| <= 1/8 in Frobenius norm.

    Every singular value is at least lam * 7/8 > 1, so the singular-value
    and eigenvalue routes agree on eta = log2 |det A| even though A is not
    normal.
    """
    lam = rng.choice((F(5, 4), F(4, 3), F(3, 2)))
    a = [[lam * (int(i == j) + F(rng.randint(-4, 4), 32 * n)) for j in range(n)]
         for i in range(n)]
    return {"A": a, "C": _identity(n), "B": _identity(n),
            "eta": math.log2(abs(_det(a)))}


def contracting_plant(rng: random.Random, n: int) -> dict:
    """Dense non-normal plant with Frobenius norm below one, so eta = 0."""
    a = [[F(rng.randint(-7, 7), 8 * n) for _ in range(n)] for _ in range(n)]
    return {"A": a, "C": _identity(n), "B": _identity(n), "eta": 0.0}


def plant_doc(p: dict, disturbed: bool = True) -> dict:
    doc = {"A": [[rs(v) for v in row] for row in p["A"]]}
    if p.get("C") is not None:
        doc["C"] = [[rs(v) for v in row] for row in p["C"]]
    if p.get("B") is not None:
        doc["B"] = [[rs(v) for v in row] for row in p["B"]]
    if disturbed:
        doc["D"] = "1/10"  # the disturbance bound of every disturbed plant
    return doc


def scalar_plant(a: F, disturbed: bool = True) -> dict:
    return plant_doc({"A": [[a]], "C": [[F(1)]], "B": [[F(1)]]}, disturbed)


def diagonal_plant(modes) -> dict:
    n = len(modes)
    a = [[modes[i] if i == j else F(0) for j in range(n)] for i in range(n)]
    return plant_doc({"A": a, "C": _identity(n), "B": _identity(n)})


# ---------------------------------------------------------------------------
# operation specs

def _op(group: list, kind: str, name: str, **spec) -> None:
    spec.update(kind=kind, id=name.replace("/", "_"))
    spec.setdefault("fault", None)
    spec.setdefault("fault_problems", [])
    group.append(spec)


def _interleave(groups) -> list:
    """Round-robin over groups so every operation kind recurs through a pass;
    ids get their position as a prefix."""
    out = []
    groups = [list(g) for g in groups if g]
    while groups:
        for g in groups:
            spec = g.pop(0)
            spec["id"] = f"{len(out):03d}-{spec['id']}"
            out.append(spec)
        groups = [g for g in groups if g]
    return out


def decide_corpus(seed: int) -> list:
    """CLI calls: analyze / eta / fb-capacity / capacity, all in-process."""
    rng = random.Random(f"decide/{seed}")
    pent = exact_doc(typewriter_rows(5))
    channels = {
        "pentagon": pent,
        "typewriter7": exact_doc(typewriter_rows(7)),
        "bsc1_4": exact_doc(bsc_rows(F(1, 4))),
        "bsc1_10": exact_doc(bsc_rows(F(1, 10))),
        "noiseless2": exact_doc(noiseless_rows(2)),
        "noiseless3": exact_doc(noiseless_rows(3)),
        "noiseless4": exact_doc(noiseless_rows(4)),
        "sparse6": exact_doc(sparse_random_rows(rng, 6, "decide")),
        "sparse7": exact_doc(sparse_random_rows(rng, 7, "decide")),
    }
    streams = {
        "resolve-pentagon3": {"stream": "resolving", "base": pent, "level": 3},
        "resolve-sparse6-4": {"stream": "resolving", "base": channels["sparse6"],
                              "level": 4},
        "hover-noiseless2": {"stream": "hovering", "base": channels["noiseless2"],
                             "entries": [[0, 1]], "depth": 64},
    }
    # Channels a dense plant is compared against, with their C0fb (se-fb,
    # stab-fb) or Shannon capacity (weak).  A plant is only paired with a
    # channel whose capacity is at least TARGET_MARGIN away from its eta:
    # the cost of separating the two grows without bound as they approach,
    # and exact ties are covered by the fixed sweep.
    fb_targets = {"pentagon": math.log2(5 / 2), "typewriter7": math.log2(7 / 2),
                  "noiseless2": 1.0, "noiseless3": math.log2(3), "noiseless4": 2.0,
                  "bsc1_4": 0.0}
    weak_targets = {"bsc1_10": 1 + 0.1 * math.log2(0.1) + 0.9 * math.log2(0.9),
                    "noiseless4": 2.0, "typewriter7": math.log2(7) - 1}

    def pick(targets, eta):
        return rng.choice([k for k, c in sorted(targets.items())
                           if abs(c - eta) >= TARGET_MARGIN])

    sweep, dense, chans, stream_ops, faults = [], [], [], [], []

    def analyze(group, name, plant, channel, regime, **extra):
        argv = ["analyze", "--plant", "{plant}", "--channel", "{channel}",
                "--regime", regime]
        if "budget" in extra:
            argv += ["--budget", str(extra.pop("budget"))]
        _op(group, "cli", name, argv=argv, plant=plant, channel=channel,
            regime=regime, **extra)

    for a in SWEEP_GROWTHS:
        for regime in ("se-fb", "stab-fb", "weak", "se-nofb"):
            if regime == "weak" and a == F(5, 2):
                continue  # exact tie with C = log2(5/2): runs out its whole budget
            if regime == "se-nofb" and a > 2:
                continue  # the ladder would grow past 25 vertices
            analyze(sweep, f"sweep-{regime}-a{a}", scalar_plant(a, regime != "weak"),
                    pent, regime)

    families = []
    for n in (2, 3, 4, 5):
        families.append((f"normal{n}", normal_plant(rng, n)))
        families.append((f"expanding{n}", expanding_plant(rng, n)))
    for n in (3, 5):
        families.append((f"contracting{n}", contracting_plant(rng, n)))
    for name, p in families:
        doc = plant_doc(p)
        _op(dense, "cli", f"eta-{name}", argv=["eta", "--plant", "{plant}"], plant=doc)
        target = pick(fb_targets, p["eta"])
        analyze(dense, f"{name}-se-fb-{target}", doc, channels[target], "se-fb")
        if name.startswith("normal"):
            target = pick(fb_targets, p["eta"])
            analyze(dense, f"{name}-stab-fb-{target}", doc, channels[target], "stab-fb")
        if not name.startswith("contracting"):
            target = pick(weak_targets, p["eta"])
            analyze(dense, f"{name}-weak-{target}", plant_doc(p, disturbed=False),
                    channels[target], "weak")

    # The alternating optimisation behind `capacity` needs from tens to
    # thousands of iterations depending on the transition probabilities, so
    # the seeded sparse channels get only the LP-based fb-capacity, and the
    # one channel without a closed-form capacity is fixed.
    fixed = exact_doc(sparse_random_rows(random.Random("fixed"), 5, "decide-fixed"))
    for name, ch in list(channels.items()) + [("sparse5-fixed", fixed)]:
        _op(chans, "cli", f"fb-capacity-{name}",
            argv=["fb-capacity", "--channel", "{channel}"], channel=ch)
        if not name.startswith("sparse") or name == "sparse5-fixed":
            _op(chans, "cli", f"capacity-{name}",
                argv=["capacity", "--channel", "{channel}"], channel=ch)

    stream_growths = {"resolve-pentagon3": (F(2), F(3)),
                      "resolve-sparse6-4": (F(5, 4), F(4)),
                      "hover-noiseless2": (F(3, 2), F(3))}
    for name, spec in streams.items():
        for a in stream_growths[name]:
            analyze(stream_ops, f"stream-{name}-a{a}", scalar_plant(a), spec, "se-fb",
                    budget=500)

    for k, a in enumerate(GRAM_FAULT_PLANTS):
        analyze(faults, f"gram-fault{k}-se-fb-pentagon",
                plant_doc({"A": a, "C": _identity(2), "B": _identity(2)}),
                pent, "se-fb", fault=GRAM_ROUTE_FAULT, fault_problems=GRAM_ROUTE_PROBLEMS)

    return _interleave([sweep, dense, chans, stream_ops, faults])


def ladder_corpus(seed: int) -> list:
    """Zero-error ladder builds and se-nofb classifications."""
    rng = random.Random(f"ladder/{seed}")
    pent = exact_doc(typewriter_rows(5))
    c7 = exact_doc(typewriter_rows(7))
    heavy, light, engine = [], [], []
    _op(heavy, "ladder", "pentagon-to4", channel=pent, max_block=4,
        fault=PRODUCT_WITNESS_FAULT, fault_problems=PRODUCT_WITNESS_PROBLEMS)
    _op(heavy, "ladder", "typewriter7-to3", channel=c7, max_block=3)
    _op(light, "ladder", "pentagon-to3", channel=pent, max_block=3)
    _op(light, "ladder", "typewriter7-to2", channel=c7, max_block=2)
    for k in (6, 7, 8, 9):
        _op(light, "ladder", f"sparse{k}-to2",
            channel=exact_doc(sparse_random_rows(rng, k, "ladder")), max_block=2)
    _op(heavy, "ladder", "sparse6-to3",
        channel=exact_doc(sparse_random_rows(rng, 6, "ladder3")), max_block=3)
    _op(engine, "classify", "se-nofb-pentagon-a3", plant=scalar_plant(F(3)),
        channel=pent, regime="se-nofb", budget=200)
    bsc = exact_doc(bsc_rows(F(1, 4)))
    a = rng.choice((F(5, 4), F(3, 2), F(7, 4)))
    _op(engine, "classify", f"se-nofb-bsc1_4-a{a}", plant=scalar_plant(a),
        channel=bsc, regime="se-nofb", budget=200)
    return _interleave([heavy, engine, light])


def track_corpus(seed: int) -> list:
    """Exact simulations through the run_* API and through `certcap simulate`."""
    rng = random.Random(f"track/{seed}")
    nl2 = exact_doc(noiseless_rows(2))
    pent = exact_doc(typewriter_rows(5))
    bsc = exact_doc(bsc_rows(F(1, 4)))
    identity = {"identity": True}
    witness = {"witness": PENTAGON_BLOCK2_WITNESS}

    def x0(dim):
        return [rs(F(rng.randint(-64, 64), 64)) for _ in range(dim)]

    bounded, diverging, cli = [], [], []

    # zero_error: the code never confuses two messages over this channel, so
    # the run must stay inside its analytic bound
    def sim(group, name, run, plant, channel, regime, code, horizon):
        _op(group, "sim", name, run=run, plant=plant, channel=channel, regime=regime,
            code=code, horizon=horizon, sim_seed=rng.randrange(1 << 30),
            x0=x0(len(plant["A"])), zero_error=channel is not bsc)

    sim(bounded, "est-noiseless2-a3/2", "estimation", scalar_plant(F(3, 2)), nl2,
        "se-nofb", identity, 1200)
    sim(bounded, "est-pentagon-a2", "estimation", scalar_plant(F(2)), pent,
        "se-nofb", witness, 1500)
    sim(bounded, "est-pentagon-diag", "estimation",
        diagonal_plant([F(5, 4), F(6, 5)]), pent, "se-fb", witness, 700)
    sim(bounded, "stab-noiseless2-a3/2", "stabilization", scalar_plant(F(3, 2)), nl2,
        "stab-fb", identity, 1000)
    sim(bounded, "stab-pentagon-a2", "stabilization", scalar_plant(F(2)), pent,
        "stab-fb", witness, 600)
    sim(bounded, "weak-noiseless2-a3/2", "weak_detection", scalar_plant(F(3, 2), False), nl2,
        "weak", identity, 1000)
    sim(bounded, "weak-noiseless2-a2", "weak_detection", scalar_plant(F(2), False), nl2,
        "weak", identity, 300)
    sim(bounded, "est-noiseless2-a5/4", "estimation", scalar_plant(F(5, 4)), nl2,
        "se-nofb", identity, 400)
    for a in (F(9, 8), F(5, 4), F(3, 2)):
        sim(diverging, f"diverge-bsc1_4-a{a}", "estimation", scalar_plant(a), bsc,
            "se-nofb", identity, 1500)

    def simulate(name, plant, channel, regime, horizon, *code_args):
        argv = ["simulate", "--plant", "{plant}", "--channel", "{channel}",
                "--regime", regime, "--horizon", str(horizon),
                "--seed", str(rng.randrange(1 << 30)), *code_args,
                "--trace-out", "{csv}"]
        _op(cli, "cli", name, argv=argv, plant=plant, channel=channel, regime=regime,
            zero_error=True)

    simulate("cli-est-pentagon-auto2", scalar_plant(F(2)), pent, "se-nofb", 900,
             "--code", "auto", "--block-length", "2")
    simulate("cli-est-noiseless2-a7/4", scalar_plant(F(7, 4)), nl2, "se-nofb", 800)
    simulate("cli-stab-noiseless2-a3/2", scalar_plant(F(3, 2)), nl2, "stab-fb", 500)
    return _interleave([bounded, cli, diverging])


CORPORA = {"decide": decide_corpus, "ladder": ladder_corpus, "track": track_corpus}


def build(workload: str, seed: int) -> list:
    return CORPORA[workload](seed)
