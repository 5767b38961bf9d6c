"""Shared test fixtures and independent oracles.

Everything here stays deliberately dumb: brute-force enumeration, Riemann
sums, and IPF fills that do not share code paths with the solvers they
check.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from causalprecode import ChannelSpec, PrecoderCode
from causalprecode.model import SUPPORT_THRESHOLD


def binary_spec(noise_power: float = 0.1) -> ChannelSpec:
    """X = S = {-1,+1}, equiprobable interference."""
    return ChannelSpec((-1.0, 1.0), (-1.0, 1.0), (0.5, 0.5), noise_power)


def random_spec(rng: np.random.Generator, m: int, q: int, noise_power: float) -> ChannelSpec:
    """Random instance with distinct constellation points and levels."""
    while True:
        x = np.round(rng.uniform(-2.0, 2.0, size=m), 6)
        s = np.round(rng.uniform(-2.0, 2.0, size=q), 6)
        if len(set(x)) == m and len(set(s)) == q:
            break
    r = rng.uniform(0.2, 1.0, size=q)
    r = r / r.sum()
    r[-1] = 1.0 - r[:-1].sum()
    return ChannelSpec(tuple(x), tuple(s), tuple(r), noise_power)


def random_code(rng: np.random.Generator, m: int, q: int) -> PrecoderCode:
    """M symbols that use every index once per position (an assignment)."""
    columns = [np.arange(1, m + 1)] + [rng.permutation(m) + 1 for _ in range(q - 1)]
    return PrecoderCode(tuple(map(tuple, np.stack(columns, axis=1))))


def riemann_entropy(pdf, lo: float, hi: float, n: int = 400_000) -> float:
    """Brute-force midpoint Riemann sum of -integral p ln p (nats)."""
    y = np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
    p = np.asarray(pdf(y))
    mask = p > 1e-300
    return float(np.sum(np.where(mask, -p * np.log(np.where(mask, p, 1.0)), 0.0)) * (hi - lo) / n)


def marginal_constraint_matrix(m: int, q: int) -> np.ndarray:
    """All MQ marginal-constraint rows over the M^Q lexicographic columns."""
    rows = []
    symbols = list(itertools.product(range(1, m + 1), repeat=q))
    for state in range(q):
        for letter in range(1, m + 1):
            rows.append([1.0 if t[state] == letter else 0.0 for t in symbols])
    return np.asarray(rows)


def enumerate_vertex_objectives(
    m: int, q: int, targets: np.ndarray, costs: np.ndarray
) -> float:
    """Exhaustive minimum of sum c*p over the vertices of the marginal polytope.

    Enumerates every basis (column subset of size MQ - Q + 1 of the reduced
    constraint matrix), solves it, and keeps feasible basic solutions. The
    determinants of these 0-1 systems are integers, so nonsingularity is a
    clean |det| >= 0.5 test.
    """
    full = marginal_constraint_matrix(m, q)
    keep = list(range(m)) + [
        state * m + letter for state in range(1, q) for letter in range(m - 1)
    ]
    a = full[keep]
    b = targets.reshape(-1)[keep]
    n_rows, n_cols = a.shape
    best = math.inf
    combos = list(itertools.combinations(range(n_cols), n_rows))
    chunk = 20000
    for start in range(0, len(combos), chunk):
        idx = np.asarray(combos[start : start + chunk])
        mats = a.T[idx].transpose(0, 2, 1)  # (batch, rows, rows)
        dets = np.linalg.det(mats)
        ok = np.abs(dets) > 0.5
        if not np.any(ok):
            continue
        rhs = np.broadcast_to(b, (int(ok.sum()), n_rows))[..., None]
        sols = np.linalg.solve(mats[ok], rhs)[..., 0]
        feas = np.all(sols >= -1e-10, axis=1)
        if not np.any(feas):
            continue
        cols = idx[ok][feas]
        vals = np.einsum("ij,ij->i", sols[feas], costs.reshape(-1)[cols])
        best = min(best, float(vals.min()))
    return best


def ipf_feasible_point(
    rng: np.random.Generator, m: int, q: int, targets: np.ndarray, iters: int = 300
) -> np.ndarray:
    """Random joint pmf with (nearly) the target marginals, via IPF scaling."""
    t = rng.uniform(0.2, 1.0, size=(m,) * q)
    for _ in range(iters):
        for axis in range(q):
            axes = tuple(a for a in range(q) if a != axis)
            cur = t.sum(axis=axes) if axes else t
            shape = [1] * q
            shape[axis] = m
            t = t * (targets[axis] / cur).reshape(shape)
    return t.reshape(-1)


def exhaustive_assignment_min(costs: np.ndarray) -> float:
    """Minimum assignment cost by enumerating all (M!)^(Q-1) assignments."""
    n = costs.shape[0]
    q = costs.ndim
    best = math.inf
    for perms in itertools.product(itertools.permutations(range(n)), repeat=q - 1):
        total = math.fsum(
            costs[(i, *(perm[i] for perm in perms))] for i in range(n)
        )
        best = min(best, total)
    return best


def lexicographic_assignment_oracle(costs: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """The lexicographically first of all (M!)^(Q-1) assignments, as 1-based
    tuple sequences, whose total is within 1e-9 (relative) of the minimum."""
    n = costs.shape[0]
    candidates = []
    for perms in itertools.product(itertools.permutations(range(n)), repeat=costs.ndim - 1):
        rows = tuple((i, *(perm[i] for perm in perms)) for i in range(n))
        candidates.append((math.fsum(costs[r] for r in rows), rows))
    best = min(total for total, _ in candidates)
    limit = best + 1e-9 * max(1.0, abs(best))
    first = min(rows for total, rows in candidates if total <= limit)
    return tuple(tuple(i + 1 for i in r) for r in first)


def dense_blahut_arimoto(
    spec: ChannelSpec, step: float, tol: float = 1e-7, max_iter: int = 10000
) -> tuple[float, np.ndarray, bool, int]:
    """Blahut-Arimoto on a dense M^Q x cells channel matrix over midpoint cells.

    The cells have width `step` and cover the means widened by 10 noise
    sigmas; each row is a symbol's Gaussian mixture at the cell centers,
    normalized to sum to 1. Returns (capacity bits, pmf, converged,
    iterations), with the same stopping rule and update as the package.
    """
    sigma = math.sqrt(spec.noise_power)
    x = np.asarray(spec.constellation)
    s = np.asarray(spec.interference_levels)
    r = np.asarray(spec.interference_probs)
    lo = x.min() + s.min() - 10.0 * sigma
    hi = x.max() + s.max() + 10.0 * sigma
    n_cells = max(2, math.ceil((hi - lo) / step))
    y = lo + (np.arange(n_cells) + 0.5) * step
    letters = np.asarray(list(itertools.product(range(spec.m), repeat=spec.q)))
    means = x[letters] + s  # (M^Q, Q)
    z = (y[None, None, :] - means[:, :, None]) / sigma
    w = (r[None, :, None] * np.exp(-0.5 * z * z)).sum(axis=1)
    w /= w.sum(axis=1, keepdims=True)
    w_log_w = np.sum(np.where(w > 0.0, w * np.log(np.where(w > 0.0, w, 1.0)), 0.0), axis=1)
    n = len(w)
    p = np.full(n, 1.0 / n)
    info = 0.0
    for iterations in range(1, max_iter + 1):
        p_y = p @ w
        div = w_log_w - w @ np.log(np.where(p_y > 0.0, p_y, 1.0))
        info = float(np.dot(p, div))
        if div.max() - div[p > SUPPORT_THRESHOLD].min() < tol:
            return info / math.log(2.0), p / p.sum(), True, iterations
        scaled = p * np.exp(div - div.max())
        p = scaled / scaled.sum()
    return info / math.log(2.0), p / p.sum(), False, max_iter
