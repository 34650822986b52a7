"""Checks of certcap's outputs against computations made apart from certcap.

Nothing here imports certcap.  The reference values come from:
  - eta: eigenvalue moduli from mpmath.eig at 50 digits;
  - C0fb: log2(1/psi), psi from scipy.optimize.linprog;
  - Shannon capacity: closed forms (noiseless, BSC, typewriter) or an
    independent Blahut-Arimoto iteration in numpy;
  - alpha: networkx on strong powers of at most 64 vertices, and published
    values for the pentagon and the heptagon;
  - witnesses: pairwise independence from the channel rows;
  - simulations: the loop's own invariants, recomputed from its rows.

Each check returns a list of problems; an empty list means the output is
right.  Floating-point references are compared with a margin far above their
error and far below any gap the corpus relies on.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from fractions import Fraction as F
from pathlib import Path

import mpmath
import networkx as nx
import numpy as np
from scipy.optimize import linprog

mpmath.mp.dps = 50
MARGIN = 1e-7            # float references (LP, Blahut-Arimoto) against rationals
ETA_TOL = mpmath.mpf(10) ** -30
NX_MAX_VERTICES = 64
# published independence numbers of strong powers of odd cycles
# (Baumert et al. 1971; Vesel and Zerovnik 2002 for C7^3)
PUBLISHED_ALPHA = {("cycle", 5, 2): 5, ("cycle", 5, 3): 10, ("cycle", 5, 4): 25,
                   ("cycle", 7, 2): 10, ("cycle", 7, 3): 33}
# Lovasz (1979): C0(C5) = log2(5) / 2
PENTAGON_C0 = math.log2(5) / 2


def q(text) -> F:
    return F(text)


def mpf(value) -> mpmath.mpf:
    value = F(value)
    return mpmath.mpf(value.numerator) / value.denominator


def rows_of(doc) -> list[list[F]]:
    return [[q(w) for w in row] for row in doc["rows"]]


# ---------------------------------------------------------------------------
# reference quantities

def eta(a_rows) -> mpmath.mpf:
    """Sum of log2 |lambda| over eigenvalues with |lambda| >= 1."""
    a = mpmath.matrix([[mpf(q(v)) for v in row] for row in a_rows])
    eigenvalues = [a[0, 0]] if len(a_rows) == 1 else mpmath.eig(a, left=False, right=False)
    total = mpmath.mpf(0)
    for lam in eigenvalues:
        modulus = abs(lam)
        if modulus >= 1:
            total += mpmath.log(modulus, 2)
    return total


def supports(rows) -> list[set[int]]:
    """For each output, the inputs that reach it."""
    return [{x for x in range(len(rows)) if rows[x][y] > 0} for y in range(len(rows[0]))]


def confusable(rows) -> list[list[bool]]:
    n = len(rows)
    adj = [[False] * n for _ in range(n)]
    for reach in supports(rows):
        for i in reach:
            for j in reach:
                adj[i][j] = adj[i][j] or i != j
    return adj


def c0fb(rows) -> tuple[bool, float, float]:
    """(zero capacity, 1/psi, C0fb) by Shannon's minimax, solved by linprog."""
    adj = confusable(rows)
    n = len(rows)
    if all(adj[i][j] for i in range(n) for j in range(n) if i != j):
        return True, 1.0, 0.0
    reach = [s for s in supports(rows) if s]
    # variables p_0..p_{n-1}, t; minimise t with sum_{x in S_y} p_x <= t
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.array([[1.0 if x in s else 0.0 for x in range(n)] + [-1.0] for s in reach])
    a_eq = np.array([[1.0] * n + [0.0]])
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(len(reach)), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"linprog failed: {res.message}")
    psi = res.fun
    return False, 1.0 / psi, math.log2(1.0 / psi)


def _binary_entropy(p: float) -> float:
    return 0.0 if p in (0.0, 1.0) else -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def closed_form_capacity(rows) -> float | None:
    """Noiseless, binary symmetric and typewriter channels."""
    n, m = len(rows), len(rows[0])
    if n == m and all(rows[i][j] == (1 if i == j else 0) for i in range(n) for j in range(m)):
        return math.log2(n)
    if n == m == 2 and rows[0][1] == rows[1][0] and rows[0][0] == rows[1][1]:
        return 1 - _binary_entropy(float(rows[0][1]))
    half = F(1, 2)
    if n == m and all(rows[i][j] == (half if j in (i, (i + 1) % n) else 0)
                      for i in range(n) for j in range(m)):
        return math.log2(n) - 1
    return None


def blahut_arimoto(rows, gap: float = 1e-10, max_iter: int = 200_000) -> tuple[float, float]:
    """Capacity bracket [I(p), max_x D(W_x || pW)] from the classic iteration."""
    w = np.array([[float(v) for v in row] for row in rows])
    p = np.full(w.shape[0], 1.0 / w.shape[0])
    with np.errstate(divide="ignore", invalid="ignore"):
        log_w = np.where(w > 0, np.log2(np.where(w > 0, w, 1.0)), 0.0)
    for _ in range(max_iter):
        out = p @ w
        log_out = np.log2(np.where(out > 0, out, 1.0))
        div = (w * (log_w - log_out)).sum(axis=1)
        lower, upper = float(p @ div), float(div.max())
        if upper - lower <= gap:
            return lower, upper
        p = p * np.exp2(div)
        p /= p.sum()
    raise RuntimeError("Blahut-Arimoto did not converge")


def shannon(rows) -> tuple[float, float]:
    exact = closed_form_capacity(rows)
    if exact is not None:
        return exact, exact
    return blahut_arimoto(rows)


def strong_power_graph(adj, n: int) -> nx.Graph:
    k = len(adj)
    words = list(itertools.product(range(k), repeat=n))
    g = nx.Graph()
    g.add_nodes_from(words)
    for a, b in itertools.combinations(words, 2):
        if all(x == y or adj[x][y] for x, y in zip(a, b)):
            g.add_edge(a, b)
    return g


def alpha(rows, n: int) -> int | None:
    """Independence number of the n-th strong power, when a reference exists."""
    family = channel_family(rows)
    if family is not None and (family[0], family[1], n) in PUBLISHED_ALPHA:
        return PUBLISHED_ALPHA[(family[0], family[1], n)]
    if len(rows) ** n > NX_MAX_VERTICES:
        return None
    complement = nx.complement(strong_power_graph(confusable(rows), n))
    _, size = nx.max_weight_clique(complement, weight=None)
    return size


def channel_family(rows):
    """('cycle', k) when the confusability graph is the k-cycle in label order."""
    adj = confusable(rows)
    k = len(adj)
    if k >= 4 and all(adj[i][j] == ((j - i) % k in (1, k - 1))
                      for i in range(k) for j in range(k) if i != j):
        return ("cycle", k)
    return None


def c0_lower(rows, max_vertices: int = 25) -> float:
    """Best rate log2(alpha(G^n))/n over powers of at most max_vertices."""
    best, n = 0.0, 1
    while len(rows) ** n <= max_vertices:
        a = alpha(rows, n)
        best = max(best, math.log2(a) / n)
        n += 1
    return best


def independent(rows, words) -> bool:
    """No two codewords can produce the same output block."""
    adj = confusable(rows)
    for a, b in itertools.combinations(words, 2):
        if all(x == y or adj[x][y] for x, y in zip(a, b)):
            return False
    return True


# ---------------------------------------------------------------------------
# small helpers on certcap's JSON

def enc_contains(enc: dict, value, tol=ETA_TOL) -> bool:
    return mpf(q(enc["lo"])) - tol <= value <= mpf(q(enc["hi"])) + tol


def enc_width(enc: dict) -> F:
    return q(enc["hi"]) - q(enc["lo"])


def log2_of(value) -> mpmath.mpf:
    return mpmath.log(mpf(value), 2)


def channel_rows(spec):
    """Exact rows of an op's channel; for a stream, the base channel it wraps."""
    doc = spec["channel"]
    if "stream" in doc:
        return rows_of(doc["base"])
    return rows_of(doc)


# ---------------------------------------------------------------------------
# operation checks

def check(spec: dict, out: dict, workdir: Path) -> list[str]:
    kind = spec["kind"]
    if kind == "cli":
        if out["exit"] not in (0, 3):
            return [f"exit code {out['exit']}: {out['stderr'].strip()}"]
        command = spec["argv"][0]
        if command == "simulate":
            return check_simulation(spec, json.loads(out["stdout"]), workdir,
                                    csv_name=out["csv"])
        doc = json.loads(out["stdout"])
        if (out["exit"] == 3) != (doc.get("outcome") == "Undetermined"):
            return [f"exit code {out['exit']} does not match the outcome"]
        return {"analyze": check_verdict, "eta": check_eta,
                "fb-capacity": check_fb_capacity,
                "capacity": check_capacity}[command](spec, doc)
    if kind == "ladder":
        return check_ladder(channel_rows(spec), spec["max_block"], out)
    if kind == "classify":
        return check_verdict(spec, out)
    return check_simulation(spec, out["summary"], workdir, rows_name=out["rows"])


def check_eta(spec, doc) -> list[str]:
    problems = []
    enc = doc["eta"]
    true_eta = eta(spec["plant"]["A"])
    if not enc_contains(enc, true_eta):
        problems.append(f"eta enclosure [{enc['lo']}, {enc['hi']}] misses "
                        f"{mpmath.nstr(true_eta, 12)}")
    if enc_width(enc) > F(1, 1 << 30):
        problems.append("eta enclosure wider than the requested 2^-30")
    return problems


def check_fb_capacity(spec, doc, width=F(1, 1 << 20)) -> list[str]:
    zero, inverse, _ = c0fb(rows_of(spec["channel"]))
    problems = []
    if doc["zero_capacity"] != zero:
        problems.append(f"zero_capacity {doc['zero_capacity']} != {zero}")
    got = q(doc["exact_inverse_psi"])
    if abs(float(got) - inverse) > MARGIN * inverse:
        problems.append(f"1/psi {got} != linprog {inverse}")
    if not enc_contains(doc["enclosure"], log2_of(got)):
        problems.append("C0fb enclosure misses log2(1/psi)")
    if enc_width(doc["enclosure"]) > width:
        problems.append("C0fb enclosure wider than requested")
    return problems


def check_capacity(spec, doc, tolerance=F(1, 10**6)) -> list[str]:
    rows = rows_of(spec["channel"])
    problems = check_ladder(rows, 2, doc["c0_lb"])
    problems += check_fb_capacity(spec, doc["c0fb"])
    lo, hi = shannon(rows)
    lower, upper = doc["shannon"]["lower"], doc["shannon"]["upper"]
    if float(q(lower["lo"])) > hi + MARGIN or float(q(upper["hi"])) < lo - MARGIN:
        problems.append(f"Shannon bracket [{lower['lo']}, {upper['hi']}] misses "
                        f"[{lo}, {hi}]")
    if q(upper["hi"]) - q(lower["lo"]) > tolerance:
        problems.append("Shannon bracket wider than the tolerance")
    return problems


def check_ladder(rows, max_block: int, doc) -> list[str]:
    problems = []
    rungs = doc["rungs"]
    if [r["n"] for r in rungs] != list(range(1, max_block + 1)):
        return [f"rungs {[r['n'] for r in rungs]} != 1..{max_block}"]
    found = {}
    for r in rungs:
        n, a = r["n"], r["alpha"]
        words = [tuple(w) if isinstance(w, list) else (w,) for w in r["witness"]]
        if len(words) != a or len(set(words)) != a or any(len(w) != n for w in words):
            problems.append(f"rung {n}: witness does not have alpha={a} distinct words")
        elif not independent(rows, words):
            problems.append(f"rung {n}: witness words are confusable")
        rate = mpmath.log(a, 2) / n
        if not (mpf(q(r["rate_lo_lo"])) <= rate <= mpf(q(r["rate_lo_hi"]))):
            problems.append(f"rung {n}: rate enclosure misses log2({a})/{n}")
        ref = alpha(rows, n)
        if ref is not None and (a > ref or (r["exact"] and a != ref)):
            problems.append(f"rung {n}: alpha={a} (exact={r['exact']}) but alpha is {ref}")
        found[n] = a
        for k in range(1, n):
            if a < found[k] * found[n - k]:
                problems.append(f"rung {n}: alpha={a} < alpha_{k} * alpha_{n - k} = "
                                f"{found[k] * found[n - k]} (not supermultiplicative)")
                break
    best = max(rungs, key=lambda r: q(r["rate_lo_lo"]))
    if q(doc["running_best"]["lo"]) != q(best["rate_lo_lo"]):
        problems.append("running_best is not the best rung")
    return problems


def _capacity_reference(regime, rows):
    """(lo, hi) of the capacity that decides the regime."""
    if regime in ("se-fb", "stab-fb"):
        c = c0fb(rows)[2]
        return c, c
    if regime == "weak":
        return shannon(rows)
    c = c0_lower(rows)
    return c, c


def check_verdict(spec, doc) -> list[str]:
    regime = spec["regime"]
    rows = channel_rows(spec)
    stream = "stream" in spec["channel"]
    true_eta = eta(spec["plant"]["A"])
    lo, hi = _capacity_reference(regime, rows)
    e = float(true_eta)
    if regime == "se-nofb":
        if len(rows) == 5 and channel_family(rows) == ("cycle", 5) and e > PENTAGON_C0:
            expected = {"Undetermined"}
        elif all(confusable(rows)[i][j] for i in range(len(rows))
                 for j in range(len(rows)) if i != j) and e > 0:
            expected = {"Undetermined"}      # C0 = 0: nothing can beat eta
        else:
            expected = {"Solvable"} if e < lo - MARGIN else {"Solvable", "Undetermined"}
    elif e < lo - MARGIN:
        expected = {"Undetermined"} if stream else {"Solvable"}
    elif e > hi + MARGIN:
        expected = {"Unsolvable"}
    else:
        expected = {"Undetermined"}
    outcome = doc["outcome"]
    problems = []
    if outcome not in expected:
        problems.append(f"outcome {outcome}, expected {sorted(expected)} "
                        f"(eta={e:.9f}, capacity in [{lo:.9f}, {hi:.9f}])")
    cert = doc["certificate"]
    kind = cert["kind"]
    if kind == "budget":
        enc = (cert["progress"].get("eta") or {}).get("enclosure")
        if enc and not enc_contains(enc, true_eta):
            problems.append("progress eta enclosure misses the true eta")
        return problems
    if kind == "independent-set":
        words = [tuple(w) if isinstance(w, list) else (w,) for w in cert["witness"]]
        if len(words) != cert["alpha"] or not independent(rows, words):
            problems.append("independent-set witness is not a zero-error code")
        if mpf(q(cert["rate_lo"]["lo"])) > mpmath.log(cert["alpha"], 2) / cert["n"]:
            problems.append("certified rate exceeds log2(alpha)/n")
        if not enc_contains(cert["eta"], true_eta):
            problems.append("certificate eta misses the true eta")
        return problems
    if kind == "psi":
        if float(q(cert["c0fb_upper"]["hi"])) < hi - MARGIN:
            problems.append("c0fb_upper is below the true C0fb")
        if mpf(q(cert["eta_lo"])) > true_eta + ETA_TOL:
            problems.append("eta_lo exceeds the true eta")
        return problems
    if kind == "separated-intervals":
        if not enc_contains(cert["eta"], true_eta):
            problems.append("certificate eta misses the true eta")
        cap = cert["capacity"]
        if cert["relation"] == "eta-below-capacity" and float(q(cap["lo"])) > hi + MARGIN:
            problems.append("certified capacity lower end exceeds the capacity")
        if cert["relation"] == "capacity-below-eta" and float(q(cap["hi"])) < lo - MARGIN:
            problems.append("certified capacity upper end is below the capacity")
        return problems
    return problems + [f"unknown certificate kind {kind}"]


# ---------------------------------------------------------------------------
# simulations

def _vec(text: str) -> list[F]:
    return [q(v) for v in text.split(";")] if text else []


def _rows_from_csv(path: Path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["t", "x", "x_hat", "error", "u"]:
            raise ValueError("unexpected CSV header")
        for t, x, xh, err, u in reader:
            yield int(t), _vec(x), _vec(xh), q(err), _vec(u)


def _rows_from_dump(path: Path):
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            t, x, xh, u, err = json.loads(line)
            yield t, [q(v) for v in x], [q(v) for v in xh], q(err), [q(v) for v in u]


def check_simulation(spec, summary, workdir, rows_name=None, csv_name=None):
    plant = spec["plant"]
    dim = len(plant["A"])
    modes = [q(plant["A"][i][i]) for i in range(dim)]
    gains = [q(plant["B"][i][i]) for i in range(dim)] if "B" in plant else [F(0)] * dim
    d = q(plant.get("D", "0"))
    problems = []
    path = workdir / "out" / (rows_name or csv_name)
    rows = _rows_from_dump(path) if rows_name else _rows_from_csv(path)
    prev = None
    max_err = F(0)
    count = 0
    last_t = None
    over = None
    for t, x, xh, err, u in rows:
        if t != count:
            problems.append(f"row {count} has t={t}")
            break
        if err != max(abs(a - b) for a, b in zip(x, xh)):
            problems.append(f"t={t}: error != |x - x_hat|")
            break
        if prev is not None:
            px, pu = prev
            for i in range(dim):
                drive = gains[i] * pu[i] if pu else 0
                if abs(x[i] - modes[i] * px[i] - drive) > d:
                    problems.append(f"t={t}: |x(t) - a x(t-1) - b u(t-1)| > D")
                    break
        if err > 1000 and over is None:
            over = t
        max_err = max(max_err, err)
        prev = (x, u)
        last_t = t
        count += 1
    if problems:
        return problems
    if q(summary["max_error"]) != max_err:
        problems.append("summary max_error is not the largest row error")
    n = summary["block_length"]
    cells = summary["cells"]
    if math.prod(cells) > summary["message_count"]:
        problems.append("cells use more messages than the code has")
    r0 = F(1)
    stars = []
    for a, m in zip(modes, cells):
        shrink = 1 - a ** n / m
        stars.append(d * sum(a ** j for j in range(n)) / shrink if shrink > 0 else None)
    analytic = max(max(r0, s) for s in stars) if all(s is not None for s in stars) else None
    if summary["analytic_bound"] != (str(analytic) if analytic is not None else None):
        problems.append(f"analytic bound {summary['analytic_bound']} != {analytic}")
    bounded = analytic is not None and max_err <= analytic
    if summary["bounded"] != bounded:
        problems.append("bounded flag disagrees with the rows")
    if summary["diverged_at"] != over:
        problems.append(f"diverged_at {summary['diverged_at']} != first error > 1000 at {over}")
    if over is not None and last_t != over:
        problems.append("run did not stop at divergence")
    if over is None and count != spec.get("horizon", summary["horizon"]):
        problems.append(f"{count} rows for horizon {summary['horizon']}")
    if spec["zero_error"]:
        if not summary["zero_error_transcript"]:
            problems.append("zero-error code decoded a wrong message")
        if not bounded and not summary["boundary"]:
            problems.append("zero-error run left its analytic bound")
    if "witness" in spec.get("code", {}):
        if not independent(rows_of(spec["channel"]),
                           [tuple(w) for w in spec["code"]["witness"]]):
            problems.append("witness code is not zero-error")
    return problems
