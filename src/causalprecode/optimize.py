"""Linear programs over the associated channel and a capacity oracle.

Two LPs share one engine: minimize sum h_{i_1...i_Q} p_{i_1...i_Q} subject to
fixed per-state marginals (the general problem), and the same with all
marginals uniform 1/M (uniform transmission). The constraint system has
MQ rows of which MQ - Q + 1 are independent; solving on a basis of that
size yields optima with support at most MQ - Q + 1. The engine is a
one-phase revised simplex from a northwest-corner basis.

The capacity oracle is Blahut-Arimoto on the channel whose outputs are the
nodes of the default quadrature grid; it prices every symbol from the cost
tensor and an M x Q table of integrals on those nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import entropy as _entropy
from .model import (
    SUPPORT_THRESHOLD,
    BudgetExceededError,
    ChannelSpec,
    JointPmf,
    MarginalSet,
    marginals_of,
)
from .entropy import LN2, CostTensor, QuadratureGrid

# Reduced-cost / pivot tolerances for the dense simplex.
_RC_TOL = 1e-10
_PIVOT_TOL = 1e-11
_RATIO_TIE_TOL = 1e-12

# Largest dense marginal-constraint matrix, MQ x M^Q elements (128 MiB of
# float64); the LPs and Blahut-Arimoto refuse larger instances.
MARGINAL_MATRIX_MAX = 1 << 24


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A basic optimal solution of the marginal-constrained minimization."""

    pmf: JointPmf
    objective: float  # minimized sum h*p, nats
    iterations: int
    basis_size: int
    rate_bits: float | None = None  # uniform-transmission rate, when computed


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Blahut-Arimoto output for the associated channel on the quadrature nodes."""

    pmf: JointPmf
    capacity_bits: float
    converged: bool
    iterations: int
    lower_bounds: tuple[float, ...] | None = None


class SimplexError(RuntimeError):
    """Internal simplex failure (should not occur on transportation instances)."""


def check_marginal_budget(m: int, q: int) -> None:
    """Raise BudgetExceededError if the MQ x M^Q marginal matrix is too large."""
    if m * q * m**q > MARGINAL_MATRIX_MAX:
        raise BudgetExceededError(
            f"marginal constraints for M={m}, Q={q} take MQ x M^Q = {m * q * m**q} "
            f"elements, beyond the budget of {MARGINAL_MATRIX_MAX}"
        )


def _marginal_rows(m: int, q: int) -> tuple[np.ndarray, list[int]]:
    """All MQ marginal-constraint rows over the M^Q lexicographic symbols, and
    the indices of MQ - Q + 1 independent ones among them.

    Row s*M + i selects the symbols with i_s = i. All M rows of state 1 are
    kept; for every later state the last letter's row is dropped (it is
    implied by the others, since every state's rows sum to the total mass).
    """
    check_marginal_budget(m, q)
    digits = np.unravel_index(np.arange(m**q), (m,) * q)
    rows = np.asarray([digits[s] == i for s in range(q) for i in range(m)], dtype=float)
    return rows, [k for k in range(m * q) if k < m or k % m != m - 1]


def _northwest_corner(per_state: np.ndarray) -> list[int]:
    """Flat ranks of a starting basis for the marginals `per_state` (Q x M).

    Every state's interior cumulative marginals are merged in one stable
    sort; from letters (1, ..., 1) each breakpoint advances its state's
    letter. The MQ - Q + 1 symbols visited each differ from the previous one
    in one coordinate, so they are independent, and their basic values are
    the gaps between consecutive breakpoints, hence >= 0.
    """
    q, m = per_state.shape
    breaks = np.cumsum(per_state[:, :-1], axis=1).reshape(-1)
    states = np.argsort(breaks, kind="stable") // (m - 1)
    steps = np.zeros((states.size + 1, q), dtype=int)
    steps[np.arange(1, states.size + 1), states] = 1
    return np.ravel_multi_index(np.cumsum(steps, axis=0).T, (m,) * q).tolist()


def _iterate_simplex(
    a: np.ndarray,
    b: np.ndarray,
    c: np.ndarray,
    basis: list[int],
    bland_after: int,
) -> tuple[list[int], np.ndarray, int]:
    """Revised simplex loop; returns (basis, basic values, pivot count).

    Dantzig pricing until `bland_after` consecutive degenerate pivots have
    occurred, then Bland's rule (guarantees termination on these highly
    degenerate transportation polytopes).
    """
    n_rows, n_cols = a.shape
    bland = False
    degenerate_run = 0
    iterations = 0
    max_iterations = 200 * (n_rows + n_cols) + 1000
    while True:
        basis_mat = a[:, basis]
        x_basic = np.linalg.solve(basis_mat, b)
        duals = np.linalg.solve(basis_mat.T, c[basis])
        reduced = c - duals @ a
        reduced[basis] = 0.0
        if bland:
            candidates = np.nonzero(reduced < -_RC_TOL)[0]
            if candidates.size == 0:
                return basis, x_basic, iterations
            entering = int(candidates[0])
        else:
            best = reduced.min()
            if best >= -_RC_TOL:
                return basis, x_basic, iterations
            # Lowest index among near-ties, so h_t equal up to rounding enter alike on any BLAS.
            entering = int(np.flatnonzero(reduced <= best + _RATIO_TIE_TOL)[0])
        direction = np.linalg.solve(basis_mat, a[:, entering])
        positive = direction > _PIVOT_TOL
        if not np.any(positive):
            raise SimplexError("unbounded direction on a bounded polytope")
        ratios = np.full(n_rows, np.inf)
        ratios[positive] = np.maximum(x_basic[positive], 0.0) / direction[positive]
        theta = float(ratios.min())
        ties = np.nonzero(ratios <= theta + _RATIO_TIE_TOL)[0]
        # Among tied rows leave the smallest variable index (Bland-safe).
        leaving_row = int(min(ties, key=lambda i: basis[i]))
        basis[leaving_row] = entering
        iterations += 1
        if theta <= _RATIO_TIE_TOL:
            degenerate_run += 1
            if degenerate_run > bland_after:
                bland = True
        else:
            degenerate_run = 0
        if iterations > max_iterations:
            raise SimplexError("simplex failed to terminate")


def solve_marginal_lp(costs: CostTensor, targets: MarginalSet) -> LpSolution:
    """Minimize sum h*p over joint pmfs with the given per-state marginals.

    Returns a basic optimal solution, so the support never exceeds
    MQ - Q + 1.
    """
    m, q = costs.m, costs.q
    if (targets.q, targets.m) != (q, m):
        raise ValueError("targets shape does not match the cost tensor")
    a, keep = _marginal_rows(m, q)
    b = targets.per_state.reshape(-1)
    c = costs.values.reshape(-1)
    basis, x_basic, iterations = _iterate_simplex(
        a[keep], b[keep], c, _northwest_corner(targets.per_state), bland_after=10 * m * q
    )
    x = np.zeros(c.size)
    x[basis] = np.maximum(x_basic, 0.0)
    objective = float(np.dot(c, x))
    residual = np.abs(a @ x - b).max()
    if residual > 1e-8:
        raise SimplexError(f"constraint residual {residual:.3e} exceeds 1e-8")
    total = x.sum()
    if abs(total - 1.0) > 1e-9:  # guard against accumulated round-off
        x = x / total
    return LpSolution(
        pmf=JointPmf(m, q, x),
        objective=objective,
        iterations=iterations,
        basis_size=len(basis),
    )


def solve_uniform_lp(
    costs: CostTensor,
    spec: ChannelSpec | None = None,
    grid: QuadratureGrid | None = None,
) -> LpSolution:
    """Uniform transmission: solve_marginal_lp with every marginal = 1/M.

    When `spec` is given, the achieved rate h(Y) - objective is reported in
    bits via `rate_bits`, with h(Y) on `grid` if one is given.
    """
    sol = solve_marginal_lp(costs, MarginalSet.uniform(costs.m, costs.q))
    if spec is None:
        return sol
    h_y = _entropy.output_entropy(MarginalSet.uniform(spec.m, spec.q), spec, grid)
    return replace(sol, rate_bits=(h_y - sol.objective) / LN2)


def support_reduce(
    spec: ChannelSpec,
    p: JointPmf,
    costs: CostTensor | None = None,
    grid: QuadratureGrid | None = None,
) -> LpSolution:
    """Shrink the support of p to at most MQ - Q + 1 without losing rate.

    Re-solves the marginal LP with targets = marginals of p; the optimum has
    the same h(Y) and no larger h(Y|T), hence mutual information at least
    that of p.
    """
    if costs is None:
        costs = _entropy.cost_tensor(spec, grid)
    return solve_marginal_lp(costs, marginals_of(p))


def blahut_arimoto(
    spec: ChannelSpec,
    costs: CostTensor | None = None,
    tol: float = 1e-7,
    max_iter: int = 10000,
    track_lower_bounds: bool = False,
) -> CapacityResult:
    """Capacity of the associated channel with outputs on the quadrature nodes, in bits.

    Alternating maximization over the input pmf; stops when the per-symbol
    Kuhn-Tucker divergences agree within `tol` nats (max over all symbols
    minus min over the support). Each divergence is
    D_t = -h_t - sum_j G[i_j, j] with G[i, j] = integral of
    r_j phi(y - x_i - s_j) ln p_Y(y), so an iteration needs only the cost
    tensor `costs` (default: `cost_tensor(spec)`) and an M x Q table of
    those integrals on the nodes of `quadrature_grid(spec)`.
    """
    grid = _entropy.quadrature_grid(spec)
    if costs is None:
        costs = _entropy.cost_tensor(spec)
    if (costs.m, costs.q) != (spec.m, spec.q):
        raise ValueError("cost tensor shape does not match the channel spec")
    nodes, weights = _entropy._grid_nodes(grid)
    # Columns state-major, like the rows of `a`: column j*M + i is r_j phi(y - x_i - s_j).
    g = _entropy._components(spec, nodes).transpose(0, 2, 1).reshape(len(nodes), -1)
    live = g.any(axis=1)  # nodes where every component underflows add nothing
    g, weights = g[live], weights[live]
    a, _ = _marginal_rows(spec.m, spec.q)
    h = costs.values.reshape(-1)
    p = np.full(h.size, 1.0 / h.size)
    bounds: list[float] = []
    info = 0.0
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        p_y = g @ (a @ p)
        log_p_y = np.log(np.where(p_y > 0.0, p_y, 1.0))
        div = -h - ((weights * log_p_y) @ g) @ a  # KL(density of t || p_Y), nats
        info = float(np.dot(p, div))
        if track_lower_bounds:
            bounds.append(info / LN2)
        gap = float(div.max() - div[p > SUPPORT_THRESHOLD].min())
        if gap < tol:
            converged = True
            break
        scaled = p * np.exp(div - div.max())
        p = scaled / scaled.sum()
    return CapacityResult(
        pmf=JointPmf(spec.m, spec.q, p / p.sum()),
        capacity_bits=info / LN2,
        converged=converged,
        iterations=iterations,
        lower_bounds=tuple(bounds) if track_lower_bounds else None,
    )
