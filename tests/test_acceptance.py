"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines directly.
"""

import math
import time

import numpy as np
import pytest

import causalprecode as cp
from causalprecode import cli
from helpers import (
    QuadratureGrid,
    binary_spec,
    differential_entropy,
    enumerate_vertex_objectives,
    exhaustive_assignment_min,
    integrate,
    mixture_pdf,
    quadrature_grid,
    random_spec,
    uniform_rate_bits,
)

ID_LOW = "1-1;2-2"
ID_HIGH = "1-2;2-1"

# Observed once on first computation and frozen: the two assignment-rate
# curves of the binary instance cross between these sweep points (the
# bisected crossover sits near -0.614 dB).
CROSSOVER_BRACKET_DB = (-1.0, -0.5)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_fig2_sweep():
    spec = binary_spec()
    snrs = [-5.0 + 0.5 * k for k in range(61)]
    assignments = {ID_LOW: ((1, 1), (2, 2)), ID_HIGH: ((1, 2), (2, 1))}
    t0 = time.time()
    rows = cli.sweep_points(cli.sweep_specs(spec, snrs), snrs, with_ba=False,
                            assignments=assignments)
    elapsed = time.time() - t0

    diffs = [r.rate_per_assignment[ID_HIGH] - r.rate_per_assignment[ID_LOW] for r in rows]
    sign_changes = [
        (snrs[i], snrs[i + 1])
        for i in range(len(diffs) - 1)
        if (diffs[i] < 0) != (diffs[i + 1] < 0)
    ]
    one_crossover = (
        len(sign_changes) == 1
        and all(d < 0 for d in diffs[: snrs.index(sign_changes[0][0]) + 1])
        and all(d > 0 for d in diffs[snrs.index(sign_changes[0][1]) :])
        and rows[0].chosen_assignment == ID_LOW
        and rows[-1].chosen_assignment == ID_HIGH
    )
    gaps = [r.lp_rate_bits - max(r.rate_per_assignment.values()) for r in rows]
    integrality_band = min(gaps) >= -1e-9 and max(gaps) <= 1e-6
    lp_rates = [r.lp_rate_bits for r in rows]
    envelope_monotone = all(b >= a - 1e-12 for a, b in zip(lp_rates, lp_rates[1:]))
    final_rate = rows[-1].lp_rate_bits
    regression = sign_changes == [CROSSOVER_BRACKET_DB]

    ok = (
        one_crossover
        and integrality_band
        and envelope_monotone
        and final_rate >= 0.99
        and elapsed < 60.0
        and regression
    )
    report(
        1,
        ok,
        f"one crossover in {sign_changes}, lp-max in [{min(gaps):.2e}, {max(gaps):.2e}], "
        f"rate(25dB)={final_rate:.6f}, {elapsed:.1f}s",
    )
    assert one_crossover, f"expected exactly one crossover, got {sign_changes}"
    assert integrality_band, f"lp vs best assignment gap range [{min(gaps)}, {max(gaps)}]"
    assert envelope_monotone
    assert final_rate >= 0.99
    assert elapsed < 60.0
    assert regression, f"crossover moved: {sign_changes} != [{CROSSOVER_BRACKET_DB}]"


def test_criterion_2_support_bound():
    rng = np.random.default_rng(200)
    violations = 0
    checked = 0
    for _ in range(200):
        m = int(rng.integers(2, 5))
        q = int(rng.integers(2, 4))
        spec = random_spec(rng, m, q, noise_power=float(rng.uniform(0.05, 2.0)))
        costs = cp.cost_tensor(spec)
        bound = m * q - q + 1
        uniform = cp.solve_uniform_lp(costs)
        raw = rng.uniform(0.1, 1.0, size=(q, m))
        targets = cp.MarginalSet(raw / raw.sum(axis=1, keepdims=True))
        general = cp.solve_marginal_lp(costs, targets)
        for sol in (uniform, general):
            checked += 1
            if len(sol.pmf.support()) > bound:
                violations += 1
    ok = violations == 0
    report(2, ok, f"{checked} LP solutions over 200 random specs, {violations} violations")
    assert ok


def test_criterion_3_q2_integrality():
    rng = np.random.default_rng(300)
    worst_obj = 0.0
    worst_vertex = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 7))
        costs = cp.CostTensor(rng.normal(size=(m, m)))
        lp = cp.solve_uniform_lp(costs)
        h = cp.multidim_assignment(costs)
        worst_obj = max(worst_obj, abs(lp.objective - h.total_cost / m))
        near = np.minimum(np.abs(lp.pmf.probs), np.abs(lp.pmf.probs - 1.0 / m))
        worst_vertex = max(worst_vertex, float(near.max()))
    ok = worst_obj <= 1e-8 and worst_vertex <= 1e-8
    report(
        3,
        ok,
        f"200 matrices: max |lp - assignment/M| = {worst_obj:.2e}, "
        f"max 0-or-1/M deviation = {worst_vertex:.2e}",
    )
    assert ok


def test_criterion_4_constructive_zero_error():
    rng = np.random.default_rng(400)
    failures = 0
    for _ in range(500):
        m = int(rng.integers(2, 9))
        q = int(rng.integers(1, 5))
        start = rng.integers(-12, 12) / 4.0
        step = rng.integers(1, 13) / 4.0
        constellation = tuple(start + k * step for k in range(m))
        levels = rng.choice(np.arange(-20, 21) / 4.0, size=q, replace=False)
        spec = cp.ChannelSpec(
            constellation, tuple(sorted(float(v) for v in levels)), (1.0 / q,) * q, 0.0
        )
        try:
            z = cp.build_zero_error_code(spec)
        except Exception:
            failures += 1
            continue
        if not cp.verify_zero_error(z):
            failures += 1
            continue
        rows = cp.marginals_of(cp.code_pmf(z.code, m)).per_state
        if not np.allclose(rows, 1.0 / m, atol=1e-12):
            failures += 1
    ok = failures == 0
    report(4, ok, f"500 arithmetic-progression instances, {failures} failures")
    assert ok


def test_criterion_5_counterexample_certificate():
    none_spec = cp.ChannelSpec(
        (0.0, 1.0, 2.0, 4.0), (0.0, 1.0, 3.0), (1 / 3, 1 / 3, 1 / 3), 0.0
    )
    some_spec = cp.ChannelSpec(
        (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 3.0), (1 / 3, 1 / 3, 1 / 3), 0.0
    )
    found_none = cp.exhaustive_search(none_spec) is None
    z = cp.exhaustive_search(some_spec)
    found_some = z is not None and cp.verify_zero_error(z)
    ok = found_none and found_some
    report(
        5,
        ok,
        "X={0,1,2,4},S={0,1,3} -> none; X={0,1,2,3},S={0,1,3} -> verified code",
    )
    assert found_none
    assert found_some


def test_criterion_6_quadrature_accuracy():
    worst_entropy = 0.0
    for var in (0.01, 0.1, 1.0, 10.0):
        sigma = math.sqrt(var)
        grid = QuadratureGrid(-10 * sigma, 10 * sigma, panels=40)
        pdf = lambda y: np.exp(-0.5 * y * y / var) / math.sqrt(2 * math.pi * var)
        err = abs(differential_entropy(pdf, grid) - cp.gaussian_entropy(var))
        worst_entropy = max(worst_entropy, err)
    worst_norm = 0.0
    rng = np.random.default_rng(600)
    for _ in range(10):
        spec = random_spec(rng, 3, 2, noise_power=float(rng.uniform(0.05, 2.0)))
        grid = quadrature_grid(spec)
        for t in cp.enumerate_symbols(spec):
            mass = integrate(lambda y: mixture_pdf(t, y, spec), grid)
            worst_norm = max(worst_norm, abs(mass - 1.0))
    ok = worst_entropy <= 1e-9 and worst_norm <= 1e-9
    report(
        6,
        ok,
        f"Gaussian entropy err {worst_entropy:.2e}, mixture normalization err "
        f"{worst_norm:.2e}",
    )
    assert ok


def test_criterion_7_oracle_equivalences():
    rng = np.random.default_rng(700)
    # simplex vs exhaustive vertex enumeration
    worst_lp = 0.0
    for m, q, repeats in ((2, 2, 5), (3, 2, 5), (2, 3, 5), (3, 3, 2)):
        for _ in range(repeats):
            costs = cp.CostTensor(rng.normal(size=(m,) * q))
            raw = rng.uniform(0.1, 1.0, size=(q, m))
            targets = cp.MarginalSet(raw / raw.sum(axis=1, keepdims=True))
            sol = cp.solve_marginal_lp(costs, targets)
            oracle = enumerate_vertex_objectives(m, q, targets.per_state, costs.values)
            worst_lp = max(worst_lp, abs(sol.objective - oracle))
    # branch and bound vs exhaustive assignment enumeration
    worst_bnb = 0.0
    for _ in range(10):
        tensor = rng.normal(size=(3, 3, 3))
        a = cp.multidim_assignment(cp.CostTensor(tensor))
        worst_bnb = max(worst_bnb, abs(a.total_cost - exhaustive_assignment_min(tensor)))
    # capacity dominates the uniform restriction, at the solver's defaults
    worst_margin = math.inf
    for _ in range(50):
        m = int(rng.integers(2, 4))
        q = 2 if m == 3 else int(rng.integers(2, 4))
        spec = random_spec(rng, m, q, noise_power=float(rng.uniform(0.1, 1.5)))
        costs = cp.cost_tensor(spec)
        uniform = uniform_rate_bits(spec, cp.solve_uniform_lp(costs))
        result = cp.capacity(spec, costs)
        worst_margin = min(worst_margin, result.capacity_bits - uniform)
    ok = worst_lp <= 1e-9 and worst_bnb == 0.0 and worst_margin >= -1e-6
    report(
        7,
        ok,
        f"simplex vs vertices err {worst_lp:.2e}, bnb vs exhaustive err "
        f"{worst_bnb:.2e}, min(capacity - uniform) = {worst_margin:.2e} bits",
    )
    assert worst_lp <= 1e-9
    assert worst_bnb == 0.0
    assert worst_margin >= -1e-6


def test_criterion_8_end_to_end_simulation():
    spec = binary_spec(noise_power=0.01)  # 20 dB
    code = cp.PrecoderCode(((1, 2), (2, 1)))
    r1 = cp.simulate(code, spec, trials=10**6, seed=2026, workers=1)
    r8 = cp.simulate(code, spec, trials=10**6, seed=2026, workers=8)
    truth = cp.mutual_information(cp.code_pmf(code, spec.m), spec, cp.cost_tensor(spec))
    mi_err = abs(r1.empirical_mi_bits - truth)
    ok = r1.ser < 1e-4 and mi_err < 0.02 and r1 == r8
    report(
        8,
        ok,
        f"SER={r1.ser:.2e}, |MI_hat - MI|={mi_err:.2e} bits, workers 1 vs 8 "
        f"identical: {r1 == r8}",
    )
    assert r1.ser < 1e-4
    assert mi_err < 0.02
    assert r1 == r8
