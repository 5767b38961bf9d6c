"""One run of one workload, in a fresh interpreter started by run.py.

Order of work:
1. set-up: import the package, write the input files, pass a tiny warm-up
   job through every layer the workload uses (``--setup-only`` stops here);
2. check round: every job once under a capturing tracer, then the output
   checks of checks.py, outside any timed region;
3. timed rounds (passes over the whole job list) for about ``--seconds``;
   another round starts only if half of one still fits. With ``--trace 1``
   untraced and traced rounds alternate.
Every timed job must exit 0 and print exactly what it printed in the check
round, and must start with the package's caches empty (``_grid_nodes``
today), as a CLI call in a fresh process would. The last stdout line is one
JSON object for run.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (needs the paths above)

# Every functools cache of the package (today only entropy._grid_nodes), so
# that no job is served by an entry an earlier job with the same spec filled:
# a CLI call starts in a fresh process. Looked up once, before any wrapping.
CACHES = [fn for name, mod in list(sys.modules.items())
          if name.startswith("causalprecode.")
          for fn in vars(mod).values() if hasattr(fn, "cache_clear")]


def _clear_caches() -> int:
    """Empty the caches; returns the entries left behind (should be 0)."""
    for fn in CACHES:
        fn.cache_clear()
    return sum(fn.cache_info().currsize for fn in CACHES)


def run_job(job) -> tuple[int | None, str, float]:
    """(exit code or None if it raised, stdout or traceback, seconds)."""
    start = time.perf_counter()
    try:
        code, out = workloads.run_cli(job.argv)
    except Exception:  # a job that raises is a counted failure, not a crash
        code, out = None, traceback.format_exc(limit=3)
    return code, out, time.perf_counter() - start


def run_round(jobs, tracer=None) -> tuple[list, float]:
    results = []
    start = time.perf_counter()
    for k, job in enumerate(jobs):
        stale = _clear_caches()
        if tracer is None:
            code, out, seconds = run_job(job)
        else:
            with tracer.job(k, job.label):
                code, out, seconds = run_job(job)
        results.append((code, out, seconds, stale))
    return results, time.perf_counter() - start


def check_round(jobs, results, costs) -> tuple[list[list[str]], dict]:
    """Problems per job of the check round, and the worst error per tolerance."""
    import checks

    problems, worst = [], {}
    for k, (job, (code, out, _, stale)) in enumerate(zip(jobs, results)):
        report = checks.Report()
        if stale:
            report.fail(f"started with {stale} stale cache entries")
        try:
            _check_job(report, job, code, out, jobs, results, costs.get(k, []))
        except Exception as exc:  # unparseable output is a failed job
            report.fail(f"check raised {exc!r}")
        problems.append(report.problems)
        for tol, error in report.worst.items():
            worst[tol] = max(error, worst.get(tol, error))
    return problems, worst


def _check_job(report, job, code, out, jobs, results, costs) -> None:
    import checks

    if job.kind == "capacity":
        checks.check_capacity(report, job.spec, code, out, costs)
    elif code != 0:
        report.fail(f"exit {code}: {out.strip()[-200:]}")
    elif job.kind == "uniform":
        checks.check_uniform(report, job.spec, out, costs[0])
    elif job.kind == "assign":
        checks.check_assign(report, job.spec, out, costs[0])
    elif job.kind == "sweep":
        checks.check_sweep(report, job.spec, out, costs)
    else:
        checks.check_simulate(report, out, job.extra["rate_bits"], job.extra["trials"])
        first = next(i for i, j in enumerate(jobs)
                     if j.extra.get("code") == job.extra["code"])
        if results[first][1] != out:
            report.fail("report differs from the workers=1 report")


def layer_metrics(spans, traced_walls, untraced_walls, trials_per_round: int) -> dict:
    """Per-layer metrics, per traced pass over the job list; 0 for unused layers."""
    n = len(traced_walls)
    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def self_s(name):
        return sum(s.self_s for s in by.get(name, [])) / n

    def total(name, key):
        return sum(s.counters.get(key, 0) for s in by.get(name, [])) / n

    def calls(name):
        return len(by.get(name, [])) / n

    def peak(name, value):
        return max((value(s) for s in by.get(name, [])), default=0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    rate = {}
    for label, pick in (("w1", lambda w: w == 1), ("wN", lambda w: w > 1)):
        chosen = [s for s in by.get("sim.simulate", [])
                  if pick(s.counters.get("workers", 1))]
        rate[label] = ratio(sum(s.counters.get("trials", 0) for s in chosen),
                            sum(s.duration for s in chosen))
    ct, ba, lp = "entropy.cost_tensor", "optimize.blahut_arimoto", "optimize.solve_marginal_lp"
    mi, mda = "entropy.mutual_information", "assign.multidim_assignment"
    jobs = [s.duration for s in by.get("job", [])]
    untraced = statistics.median(untraced_walls)
    m = {
        f"{ct}.self_s": (self_s(ct), "s"),
        f"{ct}.calls": (calls(ct), "count"),
        f"{ct}.node_symbols": (total(ct, "node_symbols"), "count"),
        f"{ct}.ns_per_node_symbol": (1e9 * ratio(self_s(ct), total(ct, "node_symbols")), "ns"),
        "entropy.quadrature_grid.nodes_max": (
            peak("entropy.quadrature_grid", lambda s: s.counters.get("nodes", 0)), "count"),
        f"{mi}.self_s": (self_s(mi), "s"),
        f"{mi}.calls": (calls(mi), "count"),
        f"{lp}.self_s": (self_s(lp), "s"),
        f"{lp}.pivots": (total(lp, "pivots"), "count"),
        f"{lp}.support_max": (peak(lp, lambda s: s.counters.get("support", 0)), "count"),
        "optimize.solve_uniform_lp.self_s": (self_s("optimize.solve_uniform_lp"), "s"),
        f"{ba}.self_s": (self_s(ba), "s"),
        f"{ba}.iterations": (total(ba, "iterations"), "count"),
        f"{ba}.converged_frac": (ratio(total(ba, "converged"), calls(ba)), "ratio"),
        f"{ba}.s_per_iteration": (ratio(self_s(ba), total(ba, "iterations")), "s"),
        "optimize.support_reduce.self_s": (self_s("optimize.support_reduce"), "s"),
        "assign.hungarian.self_s": (self_s("assign.hungarian"), "s"),
        f"{mda}.self_s": (self_s(mda), "s"),
        f"{mda}.calls": (calls(mda), "count"),
        f"{mda}.s_max": (peak(mda, lambda s: s.duration), "s"),
        "sim.simulate.self_s": (self_s("sim.simulate"), "s"),
        "sim.simulate.trials": (total("sim.simulate", "trials"), "count"),
        "sim.simulate.trials_per_s.w1": (rate["w1"], "1/s"),
        "sim.simulate.trials_per_s.wN": (rate["wN"], "1/s"),
        "sim.simulate.pool_speedup": (ratio(rate["wN"], rate["w1"]), "ratio"),
        "trials_per_s": (trials_per_round / untraced, "1/s"),
        "cli.run.self_s": (self_s("cli.run"), "s"),
        "job.s.p50": (statistics.median(jobs), "s"),
        "job.count": (len(jobs), "count"),
        "trace.overhead_frac": (statistics.median(traced_walls) / untraced - 1.0, "ratio"),
        "trace.span_cover_frac": (sum(jobs) / sum(traced_walls), "ratio"),
    }
    return {k: {"value": float(v), "unit": u} for k, (v, u) in m.items()}


def percentile_line(times: list[float]) -> str:
    """Median, and p90 only where at least ten samples lie beyond it."""
    parts = [f"p50 {statistics.median(times):.6g} s"]
    if len(times) >= 100:
        parts.append(f"p90 {statistics.quantiles(times, n=10)[-1]:.6g} s")
    return ", ".join(parts) + f" (n={len(times)})"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=sorted(workloads.BUILDERS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-out", help="write the traced rounds' spans here")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    jobs = workloads.build(args.workload, args.seed, args.workdir)
    workloads.warmup(args.workload, args.workdir)
    if args.setup_only:
        return 0

    import checks
    from tracer import Tracer

    check_tracer = Tracer(capture_costs=True)
    with check_tracer:
        reference, _ = run_round(jobs, check_tracer)
    problems, worst = check_round(jobs, reference, check_tracer.costs)
    del check_tracer

    spans_tracer = Tracer()
    walls = {False: [], True: []}
    job_times = []
    timed_problems = []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(walls[False]) > len(walls[True])
        if traced:
            with spans_tracer:
                results, wall = run_round(jobs, spans_tracer)
        else:
            results, wall = run_round(jobs)
            job_times += [(r[2], job.label) for r, job in zip(results, jobs)]
        walls[traced].append(wall)
        for job, ref, (code, out, _, stale) in zip(jobs, reference, results):
            if stale:
                timed_problems.append(f"{job.label}: started with {stale} stale cache entries")
            elif code != 0 or out != ref[1]:
                timed_problems.append(
                    f"{job.label}: exit {code} or output differs from the checked round")
        # Start another pass only if at least half of it fits in --seconds.
        done = time.perf_counter() - start + wall / 2 >= args.seconds
        if done and (not args.trace or walls[True]):
            break

    attempted = len(jobs) * (1 + len(walls[False]) + len(walls[True]))
    failed = sum(1 for found in problems if found) + len(timed_problems)
    notes = [f"{job.label}: {'; '.join(found)}" for job, found in zip(jobs, problems) if found]
    notes += timed_problems
    info = [
        f"rounds: 1 checked + {len(walls[False])} untraced + {len(walls[True])} traced, "
        f"{len(jobs)} jobs each",
        "untraced pass s: " + ", ".join(f"{w:.4g}" for w in walls[False]),
        f"failed_frac: {failed}/{attempted} = {failed / attempted:.4g}",
        f"job_s: {percentile_line([t for t, _ in job_times])}",
        "slowest jobs: " + ", ".join(f"{label} {t:.3g} s" for t, label in sorted(job_times)[-3:]),
        "worst check error (tolerance): " + ", ".join(
            f"{tol} {error:.3g} ({checks.TOLERANCES[tol]:g})"
            for tol, error in sorted(worst.items())),
    ]
    for job, (code, out, _, _) in zip(jobs, reference):
        if job.kind == "sweep":
            digest = hashlib.sha256(out.encode()).hexdigest()
            info.append(f"sweep csv sha256 [{job.label}]: {digest}")
    trials = sum(job.extra.get("trials", 0) for job in jobs)
    wall_s = statistics.median(walls[False])
    if trials:
        info.append(f"trials_per_s: {trials / wall_s:.6g} 1/s")
    info += [f"FAILED {note}" for note in notes[:20]]

    if args.trace:
        metrics = layer_metrics(spans_tracer.spans, walls[True], walls[False], trials)
        if args.trace_out:
            with open(args.trace_out, "w", encoding="utf-8") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "jobs": [job.label for job in jobs],
                           "spans": spans_tracer.to_json()}, fh)
            info.append(f"trace written: {args.trace_out}")
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {"wall_s": {"value": wall_s, "unit": "s"},
                   "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
    for line in info:
        print(line)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
