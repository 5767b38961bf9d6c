"""Job lists of the benchmark workloads, generated from the workload seed.

A job is one CLI call, ``causalprecode.cli.run(argv)``, on spec and code
files that set-up writes into a work directory. Every workload is a closed
loop: one client, one job at a time.

Random instances follow the recipe of ``tests/helpers.random_spec``
(points and levels uniform on [-2, 2], weights uniform on [0.2, 1]), except
that the extreme point and level sit at -2 and +2: the quadrature grid then
has the same size for every seed, and only the contents vary. The structured
instances get their constellation labels permuted by the seed, which
permutes the cost tensor without changing the work.

Work whose time depends on the instance by orders of magnitude, exact
assignment at 6/3 and 5/4 and BA on random 4/3, cannot give a time that
repeats across seeds; it runs in the ``tails`` probe, which BENCHMARK.json
does not list (see NOTES.md).
"""

from __future__ import annotations

import contextlib
import io
import os
import zlib
from dataclasses import dataclass, field

import numpy as np

from causalprecode import cli
from causalprecode.model import ChannelSpec, format_spec_text, noise_power_for_snr_db

LADDER_NOISE = 0.05
# (M, Q, also run through `assign`). Exact assignment at 6/3 and 5/4 runs in
# the `tails` probe; larger sizes (6/4, 7/3, 8/3, 8/4) run nowhere.
LADDER_SIZES = (
    (4, 3, True), (6, 3, False), (4, 4, True), (5, 4, False),
    (8, 3, False), (16, 3, False), (32, 2, True),
)
TAIL_ASSIGN_SIZES = ((6, 3), (5, 4))
PAM4 = (-3.0, -1.0, 1.0, 3.0)
PAM8 = (-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0)
BINARY = (-1.0, 1.0)
# SNR ranges of the two sweeps: binary at a fine step, PAM-4 (24 rates per
# point) at a coarse one. Both end at 60 dB, where the grid is largest.
SWEEPS = (("binary", BINARY, BINARY, "-5:60:1"), ("pam4q2", PAM4, BINARY, "-5:60:13"))
# (name, X, S, SNR dB): structured instances on which BA converges at its
# defaults; PAM-8/Q=3 at 10 dB (about 1,600 iterations) dominates.
CAPACITY_CASES = (
    ("binary", BINARY, BINARY, (0.0, 5.0, 10.0)),
    ("pam4q2", PAM4, BINARY, (0.0, 5.0, 10.0)),
    ("pam4q3", PAM4, (-2.0, 0.0, 2.0), (0.0, 5.0, 10.0)),
    ("pam8q2", PAM8, BINARY, (5.0, 10.0)),
    ("pam4q4", PAM4, PAM4, (5.0, 10.0)),
    ("pam8q3", PAM8, (-2.0, 0.0, 2.0), (10.0, 15.0)),
)
MC_TRIALS = 1_000_000
TAIL_INSTANCES = 4


@dataclass
class Job:
    """One CLI call and what its output checks need to know."""

    label: str
    kind: str  # uniform | assign | sweep | capacity | simulate
    argv: list[str]
    spec: ChannelSpec
    extra: dict = field(default_factory=dict)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _pinned_points(rng: np.random.Generator, n: int) -> np.ndarray:
    """n distinct points: -2, +2 and n - 2 uniform on (-2, 2), in random order."""
    while True:
        pts = np.concatenate([[-2.0, 2.0], np.round(rng.uniform(-2.0, 2.0, size=n - 2), 6)])
        if len(set(pts)) == n:
            return rng.permutation(pts)


def random_spec(rng: np.random.Generator, m: int, q: int, noise: float) -> ChannelSpec:
    x, s = _pinned_points(rng, m), _pinned_points(rng, q)
    r = rng.uniform(0.2, 1.0, size=q)
    r = r / r.sum()
    r[-1] = 1.0 - r[:-1].sum()
    return ChannelSpec(tuple(x), tuple(s), tuple(r), noise)


def structured_spec(rng, x, s, noise: float, probs=None) -> ChannelSpec:
    probs = probs if probs is not None else (1.0 / len(s),) * len(s)
    return ChannelSpec(tuple(rng.permutation(np.asarray(x))), s, probs, noise)


def _seeded_probs(rng, q: int) -> tuple[float, ...]:
    r = rng.uniform(0.3, 0.7, size=q)
    r = r / r.sum()
    r[-1] = 1.0 - r[:-1].sum()
    return tuple(r)


def _write_spec(workdir: str, name: str, spec: ChannelSpec) -> str:
    path = os.path.join(workdir, name + ".spec")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_spec_text(spec))
    return path


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI call in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    return code, out.getvalue()


def _ladder(rng, workdir) -> list[Job]:
    jobs = []
    for m, q, with_assign in LADDER_SIZES:
        spec = random_spec(rng, m, q, LADDER_NOISE)
        path = _write_spec(workdir, f"rand{m}x{q}", spec)
        jobs.append(Job(f"uniform rand {m}/{q}", "uniform", ["uniform", path], spec))
        if with_assign:
            jobs.append(Job(f"assign rand {m}/{q}", "assign", ["assign", path], spec))
    spec = structured_spec(rng, PAM8, (-3.0, -1.0, 1.0, 3.0), LADDER_NOISE)
    path = _write_spec(workdir, "pam8q4", spec)
    jobs.append(Job("uniform pam8 8/4", "uniform", ["uniform", path], spec))
    return jobs


def _snr_sweep(rng, workdir) -> list[Job]:
    jobs = []
    for name, x, s, snr in SWEEPS:
        spec = structured_spec(rng, x, s, 0.1, _seeded_probs(rng, len(s)))
        path = _write_spec(workdir, name, spec)
        jobs.append(Job(f"sweep {name} {snr}", "sweep",
                        ["sweep", path, "--snr-db=" + snr], spec))
    return jobs


def _capacity(rng, workdir) -> list[Job]:
    jobs = []
    for name, x, s, snrs in CAPACITY_CASES:
        for snr in snrs:
            noise = noise_power_for_snr_db(x, snr)
            spec = structured_spec(rng, x, s, noise)
            path = _write_spec(workdir, f"{name}_{snr:g}dB", spec)
            jobs.append(Job(f"capacity {name} {snr:g} dB", "capacity",
                            ["capacity", path], spec))
    return [jobs[i] for i in rng.permutation(len(jobs))]


def _montecarlo(rng, workdir) -> list[Job]:
    """Codes come from `assign` on each spec, run here as part of set-up."""
    specs = (
        ("binary", structured_spec(rng, BINARY, BINARY, 0.1, _seeded_probs(rng, 2))),
        ("pam4q2", structured_spec(rng, PAM4, BINARY, 0.25, _seeded_probs(rng, 2))),
        ("rand4x3", random_spec(rng, 4, 3, LADDER_NOISE)),
    )
    jobs = []
    for name, spec in specs:
        path = _write_spec(workdir, name, spec)
        code_path = os.path.join(workdir, name + ".code")
        code, out = run_cli(["assign", path, "--out", code_path])
        if code != 0:
            raise RuntimeError(f"set-up: assign on {name} exited {code}")
        rate = float(out.split("rate bits:", 1)[1].split()[0])
        sim_seed = str(int(rng.integers(0, 2**31)))
        for workers in (1, nproc()):
            argv = ["simulate", path, "--code", code_path, "--trials", str(MC_TRIALS),
                    "--seed", sim_seed, "--workers", str(workers)]
            jobs.append(Job(f"simulate {name} w{workers}", "simulate", argv, spec,
                            {"code": name, "workers": workers, "rate_bits": rate,
                             "trials": MC_TRIALS}))
    return jobs


def _tails(rng, workdir) -> list[Job]:
    """Known-defect probe, not in BENCHMARK.json: BA at its defaults fails to
    converge on about half of these random 4/3 instances (exit 4, counted as
    failed), and exact assignment at 6/3 and 5/4 takes 0.01-7 s by instance."""
    jobs = []
    for k in range(TAIL_INSTANCES):
        spec = random_spec(rng, 4, 3, LADDER_NOISE)
        path = _write_spec(workdir, f"rand4x3_{k}", spec)
        jobs.append(Job(f"capacity rand 4/3 #{k}", "capacity", ["capacity", path], spec))
        for m, q in TAIL_ASSIGN_SIZES:
            spec = random_spec(rng, m, q, LADDER_NOISE)
            path = _write_spec(workdir, f"rand{m}x{q}_{k}", spec)
            jobs.append(Job(f"assign rand {m}/{q} #{k}", "assign", ["assign", path], spec))
    return jobs


BUILDERS = {
    "ladder": _ladder,
    "snr_sweep": _snr_sweep,
    "capacity": _capacity,
    "montecarlo": _montecarlo,
    "tails": _tails,
}


def build(workload: str, seed: int, workdir: str) -> list[Job]:
    """Write the workload's input files and return its job list."""
    rng = np.random.default_rng([seed, zlib.crc32(workload.encode())])
    return BUILDERS[workload](rng, workdir)


def warmup(workload: str, workdir: str) -> None:
    """Pass one tiny job through every layer the workload uses."""
    path = _write_spec(workdir, "warmup", ChannelSpec(BINARY, BINARY, (0.5, 0.5), 0.5))
    # Q = 3 takes `assign` through multidim_assignment instead of hungarian.
    path_q3 = _write_spec(workdir, "warmup_q3",
                          ChannelSpec(BINARY, (-1.0, 0.0, 1.0), (0.4, 0.3, 0.3), 0.5))
    if workload == "ladder":
        calls = [["uniform", path], ["assign", path], ["assign", path_q3]]
    elif workload == "snr_sweep":
        calls = [["sweep", path, "--snr-db=0:1:1"]]
    elif workload == "capacity":
        calls = [["capacity", path]]
    elif workload == "tails":
        calls = [["capacity", path], ["assign", path_q3]]
    else:
        code_path = os.path.join(workdir, "warmup.code")
        calls = [["assign", path, "--out", code_path]] + [
            ["simulate", path, "--code", code_path, "--trials", "70000",
             "--workers", str(w)] for w in (1, nproc())
        ]
    for argv in calls:
        code, _ = run_cli(argv)
        if code != 0:
            raise RuntimeError(f"warm-up {argv[0]} exited {code}")
