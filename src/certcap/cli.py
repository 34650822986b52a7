"""Command-line interface.

Commands: analyze, capacity, zero-error, fb-capacity, eta, simulate.
Reports are JSON on stdout (sorted keys, rational strings, no floats), so
identical invocations produce identical bytes.  Exit codes: 0 for a halted
verdict or completed computation, 3 for Undetermined at budget, 1 for
input/usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .capacity import feedback_zero_error_capacity, shannon_capacity
from .channel import ResourceCapError, load_channel
from .classify import (Regime, RegimePreconditionError, UNDETERMINED, classify,
                       classify_fixed_plant)
from .confgraph import (CapacityLadder, certified_graph, check_power_size,
                        clique_cover_weight, extend_ladder, max_independent_set,
                        strong_power)
from .enclosure import DomainError, Enclosure, parse_rational
from .plant import instability_exponent, load_plant
from .simulate import (SimConfig, SimulationError, identity_code, run_estimation,
                       run_stabilization, run_weak_detection, witness_code)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_UNDETERMINED = 3

DEFAULT_BUDGET_ENV = "CERTCAP_BUDGET"


class CliError(Exception):
    pass


def _read_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise CliError(f"file not found: {path}")
    except OSError as exc:  # a directory, no permission, ...
        raise CliError(f"cannot read {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise CliError(f"invalid JSON in {path}: {exc}")


def _emit(doc: dict, mode: str) -> None:
    if mode == "json":
        sys.stdout.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
        sys.stdout.write("\n")
    else:
        for line in _text_lines(doc, ""):
            sys.stdout.write(line + "\n")
    sys.stdout.flush()  # a closed reader raises here, in main's try, not at exit


def _text_lines(node, prefix):
    if isinstance(node, dict):
        for key in sorted(node):
            yield from _text_lines(node[key], f"{prefix}{key}." if prefix else f"{key}.")
    elif isinstance(node, list):
        yield f"{prefix[:-1]} = {json.dumps(node, sort_keys=True)}"
    else:
        yield f"{prefix[:-1]} = {node}"


def _budget(flag: int | None) -> int:
    """--budget if given, else CERTCAP_BUDGET, else 10 000; never negative."""
    name, raw = "--budget", flag
    if flag is None:
        name, raw = DEFAULT_BUDGET_ENV, os.environ.get(DEFAULT_BUDGET_ENV, "10000")
    try:
        budget = int(raw)
    except ValueError:
        raise CliError(f"{name} must be an integer, got {raw!r}")
    if budget < 0:
        raise CliError(f"{name} must be >= 0, got {budget}")
    return budget


@functools.cache  # one parser per process; parse_args returns a fresh Namespace
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="certcap",
        description="certified capacity bounds and solvability classification "
                    "for control over discrete noisy channels")
    parser.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)

    an = sub.add_parser("analyze", help="classify a (plant, channel, regime) triple")
    an.add_argument("--plant", required=True)
    an.add_argument("--channel", required=True)
    an.add_argument("--regime", required=True,
                    choices=("se-nofb", "se-fb", "stab-fb", "weak"))
    an.add_argument("--budget", type=int, default=None)
    an.add_argument("--fixed-eta", default=None,
                    help="exact exponent value (rational); runs the single-sided query")
    an.add_argument("--direction", choices=("capacity-above", "capacity-below"),
                    default=None, help="direction for --fixed-eta queries")

    cap = sub.add_parser("capacity", help="full capacity report for a channel")
    cap.add_argument("--channel", required=True)
    cap.add_argument("--tolerance", default="1/1000000")
    cap.add_argument("--max-block", type=int, default=2)

    ze = sub.add_parser("zero-error", help="zero-error lower-bound ladder")
    ze.add_argument("--channel", required=True)
    ze.add_argument("--max-block", type=int, default=2)

    fb = sub.add_parser("fb-capacity", help="feedback zero-error capacity")
    fb.add_argument("--channel", required=True)
    fb.add_argument("--width", default="1/1048576")

    et = sub.add_parser("eta", help="instability exponent enclosure")
    et.add_argument("--plant", required=True)
    et.add_argument("--width", default="1/1073741824")

    sim = sub.add_parser("simulate", help="run the control-loop simulator")
    sim.add_argument("--plant", required=True)
    sim.add_argument("--channel", required=True)
    sim.add_argument("--regime", required=True,
                     choices=("se-nofb", "se-fb", "stab-fb", "weak"))
    sim.add_argument("--horizon", type=int, default=1000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--block-length", type=int, default=1)
    sim.add_argument("--code", choices=("identity", "auto"), default="identity")
    sim.add_argument("--radius", default="1")
    sim.add_argument("--trace-out", default=None,
                     help="write the trajectory CSV to this path")
    return parser


def _cmd_analyze(args) -> int:
    if args.direction is not None and args.fixed_eta is None:
        raise CliError("--direction needs --fixed-eta")
    budget = _budget(args.budget)
    ch = load_channel(_read_json(args.channel))
    if args.fixed_eta is not None:
        direction = args.direction or "capacity-above"
        eta = Enclosure.exact(parse_rational(args.fixed_eta))
        verdict = classify_fixed_plant(eta, ch, direction, budget)
    else:
        plant = load_plant(_read_json(args.plant))
        verdict = classify(plant, ch, Regime(args.regime), budget)
    _emit(verdict.to_json(), args.format)
    return EXIT_UNDETERMINED if verdict.outcome == UNDETERMINED else EXIT_OK


def _ladder_report(ch, max_block: int) -> dict:
    if max_block < 1:
        raise CliError(f"--max-block must be >= 1, got {max_block}")
    graph = certified_graph(ch)
    check_power_size(graph, max_block)  # fail before the lower rungs run
    ladder = CapacityLadder()
    for n in range(1, max_block + 1):
        ladder = extend_ladder(ladder, graph, n)
    return ladder.to_json()


def _cmd_capacity(args) -> int:
    ch = load_channel(_read_json(args.channel))
    report = {
        "c0_lb": _ladder_report(ch, args.max_block),
        "c0fb": feedback_zero_error_capacity(ch).to_json(),
        "shannon": shannon_capacity(ch, parse_rational(args.tolerance)).to_json(),
    }
    _emit(report, args.format)
    return EXIT_OK


def _cmd_zero_error(args) -> int:
    ch = load_channel(_read_json(args.channel))
    _emit(_ladder_report(ch, args.max_block), args.format)
    return EXIT_OK


def _cmd_fb_capacity(args) -> int:
    ch = load_channel(_read_json(args.channel))
    result = feedback_zero_error_capacity(ch, parse_rational(args.width))
    _emit(result.to_json(), args.format)
    return EXIT_OK


def _cmd_eta(args) -> int:
    plant = load_plant(_read_json(args.plant))
    enc = instability_exponent(plant.a, parse_rational(args.width))
    _emit({"eta": enc.to_json()}, args.format)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    if args.trace_out:  # fail before the run, and leave no file behind
        existed = os.path.lexists(args.trace_out)
        try:
            open(args.trace_out, "a").close()
        except OSError as exc:
            raise CliError(f"cannot write {args.trace_out}: {exc.strerror}")
        if not existed:
            os.remove(args.trace_out)
    plant = load_plant(_read_json(args.plant))
    ch = load_channel(_read_json(args.channel))
    if args.code == "identity":
        if args.block_length != 1:
            raise CliError("--code identity sends one symbol per message; "
                           f"--block-length must be 1, got {args.block_length}")
        code = identity_code(ch)
    else:
        base, n = certified_graph(ch), args.block_length

        def bound() -> int:  # a product of fractional clique covers covers baseⁿ
            return clique_cover_weight(base, base.clique_cover) ** n // 1
        power = strong_power(base, n)
        code = witness_code(ch, max_independent_set(power, upper_bound=bound).witness)
    regime = Regime(args.regime)
    cfg = SimConfig(plant, ch, regime, code, horizon=args.horizon, seed=args.seed,
                    initial_radius=parse_rational(args.radius))
    run = {"weak": run_weak_detection, "stab-fb": run_stabilization}.get(
        regime.kind, run_estimation)
    traj = run(cfg)
    if args.trace_out:
        with open(args.trace_out, "w", encoding="utf-8") as fh:
            fh.writelines(traj.csv_lines())
    _emit(traj.summary, args.format)
    return EXIT_OK


_COMMANDS = {
    "analyze": _cmd_analyze,
    "capacity": _cmd_capacity,
    "zero-error": _cmd_zero_error,
    "fb-capacity": _cmd_fb_capacity,
    "eta": _cmd_eta,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_ERROR if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # the reader is gone (| head); as on SIGPIPE, no traceback
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_ERROR
    except (CliError, DomainError, SimulationError, RegimePreconditionError,
            ResourceCapError, ValueError, KeyError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
