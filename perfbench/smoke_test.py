"""Smoke test of the benchmark itself; takes a few seconds.

    python3 perfbench/smoke_test.py      (or: python3 -m pytest perfbench/smoke_test.py)

Every workload runs one tiny job through the same runner and output checks
as a real run and must pass; then a deliberately perturbed rate, and a BA
run cut short (exit 4), must each be counted as failed.
"""

from __future__ import annotations

import os
import sys
import tempfile
from dataclasses import replace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import worker  # noqa: E402  (puts src/ on the path)
from causalprecode import assign, optimize  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import Job, build  # noqa: E402


def _tiny_jobs(workdir: str) -> list[Job]:
    """One small job per workload, taken from that workload's own inputs."""
    def inputs(workload):
        os.mkdir(os.path.join(workdir, workload))
        return build(workload, 0, os.path.join(workdir, workload))

    ladder = inputs("ladder")
    sweep = inputs("snr_sweep")[0]
    capacity = [j for j in inputs("capacity") if j.label == "capacity binary 10 dB"]
    montecarlo = inputs("montecarlo")[:2]
    tiny_sweep = Job("sweep binary 0:10:5", "sweep", sweep.argv[:2] + ["--snr-db=0:10:5"],
                     sweep.spec)
    return ladder[:2] + [tiny_sweep] + capacity + montecarlo


def _check(jobs, perturb=None) -> list[list[str]]:
    with Tracer(capture_costs=True) as tracer:
        if perturb:
            perturb()
        results, _ = worker.run_round(jobs, tracer)
    problems, _ = worker.check_round(jobs, results, tracer.costs)
    return problems


def _shift_rate(sol, delta):
    return sol if sol.rate_bits is None else replace(sol, rate_bits=sol.rate_bits + delta)


def test_every_workload_passes_one_tiny_job():
    with tempfile.TemporaryDirectory() as workdir:
        jobs = _tiny_jobs(workdir)
        assert {j.kind for j in jobs} == {"uniform", "assign", "sweep", "capacity", "simulate"}
        problems = _check(jobs)
    assert problems == [[]] * len(jobs), problems


def test_perturbed_rates_are_counted_as_failed():
    rate, lp = assign.assignment_rate, optimize.solve_uniform_lp

    def perturb():
        # Replaces the tracer's wrappers; leaving the tracer restores the originals.
        assign.assignment_rate = lambda *a, **k: rate(*a, **k) + 1e-4
        optimize.solve_uniform_lp = lambda *a, **k: _shift_rate(lp(*a, **k), 1e-4)

    with tempfile.TemporaryDirectory() as workdir:
        jobs = build("ladder", 0, workdir)[:2]  # uniform and assign, rand 4/3
        problems = _check(jobs, perturb)
    assert [j.kind for j in jobs] == ["uniform", "assign"]
    assert all(any("vs Riemann" in p for p in found) for found in problems), problems
    assert assign.assignment_rate is rate and optimize.solve_uniform_lp is lp


def test_unconverged_capacity_is_counted_as_failed():
    with tempfile.TemporaryDirectory() as workdir:
        job = [j for j in build("capacity", 0, workdir) if j.label == "capacity pam4q3 0 dB"][0]
        job.argv = job.argv + ["--max-iter", "5"]
        problems = _check([job])
    assert problems == [["exit 4 (BA not converged)"]], problems


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
