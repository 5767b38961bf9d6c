"""causalprecode benchmark: one workload, one seed, one measured run.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. Each run starts fresh interpreters: ``SETUP_REPEATS`` that only set
up (their median wall time is ``setup_s``), then one that sets up, checks
and measures (worker.py). BLAS is held to one thread, so a run never has more
busy threads than ``nproc``. With ``--trace 0`` the last stdout line reports
the end-to-end metrics, with ``--trace 1`` the per-layer metrics.
``--workload all`` runs the four workloads and the ``tails`` probe in
turn. Files go to ``.perfbench_out/`` in the checkout; work files are removed
at the end, traces are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
WORKLOADS = tuple(w["name"] for w in
                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"])
PROBES = ("tails",)  # known-defect probe; see NOTES.md
SETUP_REPEATS = 5
RUN_LIMIT_S = 170.0  # a run must end within 180 s


def _env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def _worker(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run worker.py to completion; on timeout it is killed and reaped."""
    return subprocess.run([sys.executable, str(HERE / "worker.py"), *args], env=_env(),
                          cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def run_workload(workload: str, seed: int, seconds: int, trace: int) -> tuple[list, dict]:
    """Returns (human-readable lines, result object)."""
    deadline = time.monotonic() + RUN_LIMIT_S
    work = OUT / f"work-{workload}-{seed}-{os.getpid()}"
    common = ["--workload", workload, "--seed", str(seed)]
    try:
        setup_times = []
        for k in range(SETUP_REPEATS):
            wd = work / f"setup{k}"
            wd.mkdir(parents=True)
            start = time.perf_counter()
            proc = _worker(common + ["--workdir", str(wd), "--setup-only"],
                           deadline - time.monotonic())
            setup_times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up exited {proc.returncode}:\n{proc.stderr}")
        wd = work / "run"
        wd.mkdir()
        extra = ["--trace-out", str(OUT / f"trace-{workload}-seed{seed}.json")] if trace else []
        proc = _worker(common + ["--workdir", str(wd), "--seconds", str(seconds),
                                 "--trace", str(trace)] + extra,
                       deadline - time.monotonic())
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}:\n{proc.stderr}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    setup_s = statistics.median(setup_times)
    if not trace:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}
    header = [f"workload {workload}, seed {seed}, {seconds} s, trace {trace}",
              f"setup_s samples: {', '.join(f'{t:.4f}' for t in setup_times)}"]
    body = [f"{name}: {m['value']:.6g} {m['unit']}" for name, m in result["metrics"].items()]
    return header + lines[:-1] + body, result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="causalprecode benchmark")
    p.add_argument("--workload", required=True, choices=WORKLOADS + PROBES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "causalprecode" / "__init__.py").is_file():
        print(f"error: no causalprecode sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    names = WORKLOADS + PROBES if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            lines, results[name] = run_workload(name, args.seed, args.seconds, args.trace)
            print("\n".join(lines), flush=True)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
