"""Command-line front end.

Subcommands: capacity, uniform, assign, noisefree, simulate, sweep. Channel
instances come from flat key-value spec files (see model.parse_spec_text);
precoders travel as text code files with M lines of Q 1-based indices.

SNR convention: SNR = (average constellation power under uniform inputs)
/ noise power, in dB. Interference power is excluded. For the {-1,+1}
constellation this makes SNR = 1 / P_N.

Exit codes: 0 success, 2 bad input, 3 solver budget exceeded,
4 non-convergence. Every budget is checked before the work it guards.
"""

from __future__ import annotations

import argparse
import itertools
import math
import os
import sys
from collections.abc import Collection
from dataclasses import dataclass, replace

from . import assign as _assign
from . import entropy as _entropy
from . import noisefree as _noisefree
from . import optimize as _optimize
from . import sim as _sim
from .entropy import LN2
from .model import (
    BudgetExceededError,
    ChannelSpec,
    MarginalSet,
    PrecoderCode,
    load_spec,
    noise_power_for_snr_db,
)

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_NO_CONVERGENCE = 4

SWEEP_CSV_VERSION = "causalprecode-sweep-v1"

# Enumerating every permutation assignment keeps the per-assignment sweep
# columns fixed; beyond this M only the optimal assignment is tracked.
_SWEEP_ALL_PERMUTATIONS_MAX_M = 4

# Longest sweep: a wider --snr-db range fails before any work (exit 3).
_SNR_POINTS_MAX = 10_000


def _fmt(value: float) -> str:
    return f"{value:.12g}"


def _symbol_str(symbol) -> str:
    return ",".join(str(i) for i in symbol)


def assignment_id(tuples) -> str:
    """Canonical, CSV-safe id of an assignment: "1-2;2-1" style."""
    return ";".join(
        "-".join(str(i) for i in t) for t in sorted(tuple(t) for t in tuples)
    )


def write_code_file(path: str, code: PrecoderCode) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_code_text(code))


def format_code_text(code: PrecoderCode) -> str:
    return "\n".join(" ".join(str(i) for i in t) for t in code.symbols) + "\n"


def parse_code_text(text: str) -> PrecoderCode:
    rows = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            rows.append(tuple(int(tok) for tok in line.split()))
        except ValueError:
            raise ValueError(f"code file line {lineno}: expected integers") from None
    if not rows:
        raise ValueError("code file contains no symbols")
    return PrecoderCode(tuple(rows))


def load_code(path: str) -> PrecoderCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_text(fh.read())


@dataclass(frozen=True)
class SweepRow:
    """One SNR point of a sweep."""

    snr_db: float
    rate_per_assignment: dict[str, float]
    lp_rate_bits: float
    ba_capacity_bits: float | None
    chosen_assignment: str
    ba_converged: bool


def _sweep_assignments(spec: ChannelSpec) -> dict[str, tuple[tuple[int, ...], ...]] | None:
    """Fixed assignments of the per-assignment sweep columns, keyed by id in
    id order, or None for best-only."""
    if spec.q == 2 and spec.m <= _SWEEP_ALL_PERMUTATIONS_MAX_M:
        tuples = [tuple((i + 1, perm[i]) for i in range(spec.m))
                  for perm in itertools.permutations(range(1, spec.m + 1))]
        return dict(sorted((assignment_id(t), t) for t in tuples))
    return None


def sweep_point(
    spec: ChannelSpec,
    snr_db: float,
    with_ba: bool,
    assignments: dict[str, tuple[tuple[int, ...], ...]] | None,
) -> SweepRow:
    point = replace(
        spec, noise_power=noise_power_for_snr_db(spec.constellation, snr_db)
    )
    costs = _entropy.cost_tensor(point)
    lp = _optimize.solve_uniform_lp(costs)
    # The LP optimum and every assignment have uniform marginals, so they
    # share one h(Y) and each rate is h(Y) minus its mean cost.
    h_y = _entropy.output_entropy(MarginalSet.uniform(point.m, point.q), point)
    if assignments is None:
        tuples = _assign.multidim_assignment(costs, lp).tuples
        assignments = {assignment_id(tuples): tuples}
    rates = {
        aid: (h_y - math.fsum(costs.entry(t) for t in tuples) / point.m) / LN2
        for aid, tuples in assignments.items()
    }
    chosen = max(sorted(rates), key=lambda aid: rates[aid])
    ba = None
    if with_ba:
        ba = _optimize.capacity(point, costs=costs, lp=lp)
    return SweepRow(
        snr_db=snr_db,
        rate_per_assignment=rates,
        lp_rate_bits=(h_y - lp.objective) / LN2,
        ba_capacity_bits=None if ba is None else ba.capacity_bits,
        chosen_assignment=chosen,
        ba_converged=ba is None or ba.converged,
    )


def sweep_csv(rows: list[SweepRow], ids: Collection[str] | None) -> str:
    if ids is None:
        rate_cols = ["best_assignment_rate_bits"]
    else:
        rate_cols = [f"rate[{aid}]" for aid in ids]
    lines = [f"# {SWEEP_CSV_VERSION}"]
    lines.append(
        ",".join(
            ["snr_db", "lp_rate_bits", "ba_capacity_bits", "chosen_assignment"]
            + rate_cols
        )
    )
    for row in rows:
        ba = "" if row.ba_capacity_bits is None else _fmt(row.ba_capacity_bits)
        if ids is None:
            rate_vals = [_fmt(next(iter(row.rate_per_assignment.values())))]
        else:
            rate_vals = [_fmt(row.rate_per_assignment[aid]) for aid in ids]
        lines.append(
            ",".join(
                [_fmt(row.snr_db), _fmt(row.lp_rate_bits), ba, row.chosen_assignment]
                + rate_vals
            )
        )
    return "\n".join(lines) + "\n"


def _parse_snr_range(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError("--snr-db expects a:b:step")
    lo, hi, step = (float(p) for p in parts)
    if not all(map(math.isfinite, (lo, hi, step))) or step <= 0 or hi < lo:
        raise ValueError("--snr-db expects finite a <= b and step > 0")
    gaps = (hi - lo) / step + 1e-9  # may overflow to inf for finite a, b, step
    if not gaps < _SNR_POINTS_MAX:
        raise BudgetExceededError(f"--snr-db spans more than {_SNR_POINTS_MAX} points")
    return [lo + k * step for k in range(int(gaps) + 1)]


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _cmd_capacity(args) -> int:
    spec = load_spec(args.specfile)
    _optimize.check_capacity_options(args.tol, args.max_iter)
    _optimize.check_capacity_budget(spec)
    costs = _entropy.cost_tensor(spec)
    result = _optimize.capacity(spec, costs=costs, tol=args.tol, max_iter=args.max_iter)
    pmf = result.pmf  # its support is within the bound: `capacity` checks it
    print(f"capacity_bits (discretized channel): {_fmt(result.capacity_bits)}")
    print(f"iterations: {result.iterations}  converged: {result.converged}")
    print(f"support-reduced pmf ({len(pmf.support())} symbols, "
          f"bound {spec.m * spec.q - spec.q + 1}):")
    for t in pmf.support():
        print(f"  ({_symbol_str(t)})  p={_fmt(pmf.prob(t))}")
    print("support-reduced mutual information bits: "
          f"{_fmt(_entropy.mutual_information(pmf, spec, costs=costs))}")
    return EXIT_OK if result.converged else EXIT_NO_CONVERGENCE


def _cmd_uniform(args) -> int:
    spec = load_spec(args.specfile)
    _optimize.check_marginal_budget(spec.m, spec.q)
    costs = _entropy.cost_tensor(spec)
    sol = _optimize.solve_uniform_lp(costs)
    h_y = _entropy.output_entropy(MarginalSet.uniform(spec.m, spec.q), spec)
    print(f"objective (sum h*p, nats): {_fmt(sol.objective)}")
    print(f"uniform-transmission rate bits: {_fmt((h_y - sol.objective) / LN2)}")
    support = sol.pmf.support()
    print(f"support ({len(support)} symbols, bound {spec.m * spec.q - spec.q + 1}):")
    for t in support:
        print(f"  ({_symbol_str(t)})  p={_fmt(sol.pmf.prob(t))}")
    return EXIT_OK


def _cmd_assign(args) -> int:
    spec = load_spec(args.specfile)
    _assign.check_budget(spec.m, spec.q)
    costs = _entropy.cost_tensor(spec)
    a = _assign.multidim_assignment(costs)
    rate = _assign.assignment_rate(a, spec, costs=costs)
    print(f"assignment ({assignment_id(a.tuples)}), total cost {_fmt(a.total_cost)} nats")
    print(f"rate bits: {_fmt(rate)}")
    code = a.code()
    if args.out:
        write_code_file(args.out, code)
        print(f"code file written: {args.out}")
    else:
        print(format_code_text(code), end="")
    return EXIT_OK


def _cmd_noisefree(args) -> int:
    spec = load_spec(args.specfile)
    ordered = sorted(spec.constellation)
    if _noisefree.is_arithmetic_progression(ordered):
        zcode = _noisefree.build_zero_error_code(spec)
        how = "constructive (arithmetic progression)"
    else:
        zcode = _noisefree.exhaustive_search(spec)
        how = "exhaustive search"
    m = spec.m
    rate = math.log2(m)
    if zcode is None:
        print(f"no zero-error code of rate {rate:g} bits exists: "
              f"no {m} tuples have mutually disjoint output multisets")
        return EXIT_OK
    ok = _noisefree.verify_zero_error(zcode)
    print(f"zero-error code ({how}), rate {rate:g} bits:")
    for message, (t, ms) in enumerate(zip(zcode.code.symbols, zcode.multisets)):
        outs = " ".join(_fmt(v) for v in ms.elements)
        print(f"  message {message}: tuple ({_symbol_str(t)})  outputs {{{outs}}}")
    print(f"disjointness: {'PASS' if ok else 'FAIL'}")
    if args.out:
        write_code_file(args.out, zcode.code)
        print(f"code file written: {args.out}")
    return EXIT_OK if ok else EXIT_BAD_INPUT


def _cmd_simulate(args) -> int:
    spec = load_spec(args.specfile)
    code = load_code(args.code)
    report = _sim.simulate(code, spec, trials=args.trials, seed=args.seed,
                           workers=args.workers)
    print(_sim.CSV_HEADER)
    print(_sim.csv_row(report, spec))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    spec = load_spec(args.specfile)
    _optimize.check_marginal_budget(spec.m, spec.q)
    snrs = _parse_snr_range(args.snr_db)
    for snr in snrs:  # each point's noise power and capacity, before any point's work
        noise = noise_power_for_snr_db(spec.constellation, snr)
        if args.with_ba:
            _optimize.check_capacity_budget(replace(spec, noise_power=noise))
    assignments = _sweep_assignments(spec)
    rows = [sweep_point(spec, s, args.with_ba, assignments) for s in snrs]
    text = sweep_csv(rows, assignments)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")
    unconverged = [_fmt(row.snr_db) for row in rows if not row.ba_converged]
    if unconverged:
        print(f"error: capacity did not converge at SNR {', '.join(unconverged)} dB",
              file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _available_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _workers(text: str) -> int:
    """simulate --workers: at least 1, and no more threads than CPUs available.

    Reports do not depend on the worker count, so the clamp is silent.
    """
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return min(n, _available_cpus())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="causalprecode",
        description="Precoding for AWGN channels with causally-known discrete interference",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("capacity", help="certified capacity (active-set Newton) + support reduction")
    p.add_argument("specfile")
    p.add_argument("--tol", type=float, default=1e-7,
                   help="width of the certified interval, nats")
    p.add_argument("--max-iter", type=int, default=1000)
    p.set_defaults(func=_cmd_capacity)

    p = sub.add_parser("uniform", help="uniform-transmission LP solution and rate")
    p.add_argument("specfile")
    p.set_defaults(func=_cmd_uniform)

    p = sub.add_parser("assign", help="optimal integral assignment and its rate")
    p.add_argument("specfile")
    p.add_argument("--out", help="write the code file here")
    p.set_defaults(func=_cmd_assign)

    p = sub.add_parser("noisefree", help="zero-error code certificate for Y = X + S")
    p.add_argument("specfile")
    p.add_argument("--out", help="write the code file here")
    p.set_defaults(func=_cmd_noisefree)

    p = sub.add_parser("simulate", help="Monte Carlo run of a code file")
    p.add_argument("specfile")
    p.add_argument("--code", required=True)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=_workers, default=1)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("sweep", help="SNR sweep CSV of rates and assignments")
    p.add_argument("specfile")
    p.add_argument("--snr-db", required=True, help="a:b:step inclusive range in dB")
    p.add_argument("--out", help="write the CSV here (default stdout)")
    p.add_argument("--with-ba", action="store_true",
                   help="also compute the capacity per point")
    p.set_defaults(func=_cmd_sweep)
    return parser


# One parser per process: `run` may be called many times in one process, and
# each call parses into a fresh namespace.
_PARSER = build_parser()


def run(argv=None) -> int:
    """Entry point returning an exit code (0/2/3/4)."""
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
