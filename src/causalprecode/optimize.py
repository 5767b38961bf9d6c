"""Linear programs over the associated channel, and its capacity.

Two LPs: minimize sum h_{i_1...i_Q} p_{i_1...i_Q} subject to fixed
per-state marginals (the general problem), and the same with all marginals
uniform 1/M (uniform transmission). The constraint system has MQ rows of
which MQ - Q + 1 are independent; solving on a basis of that size yields
optima with support at most MQ - Q + 1. The general problem's engine is a
one-phase revised simplex from a northwest-corner basis. A symbol touches
only Q marginals, so the simplex prices from the cost tensor and an M x Q
table of duals; marginals are letter-major (i*Q + j for letter i, state
j) here and in the capacity solver. It keeps an explicit basis inverse,
updated by one eta transform per pivot and refactorized every 64 pivots,
and at exit solves the final basis afresh, so the pmf and duals it returns
come from one clean factorization. The uniform LP at Q = 2 is the
assignment problem, whose polytope (Birkhoff's) has the permutation
matrices for vertices, so one Hungarian solves it exactly (Kuhn 1955), and
its potentials are the M x 2 dual table; at any other Q it is the simplex
with uniform targets.

Capacity is computed on the channel whose outputs are the nodes of
`entropy._output_grid`: the MQ output means cut into clusters 20 sigma
apart, each on its own panels, in sigma units, so the node count does not
grow with SNR. An active-set Newton method starts from the uniform-LP
solution (the optimal input needs at most MQ - Q + 1 symbols). It prices
every symbol from the cost tensor and an M x Q table of integrals on those
nodes, and returns a certified interval [I(p), max_t D_t].

Every function here takes the cost tensor (`entropy.cost_tensor`) as an
argument and none builds it, so a caller computes h_t once per spec.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy as _entropy
from .model import (
    DENSE_ELEMENTS_MAX,
    BudgetExceededError,
    ChannelSpec,
    JointPmf,
    MarginalSet,
    marginals_of,
)
from .entropy import LN2, CostTensor

# Reduced-cost / pivot tolerances for the simplex.
_RC_TOL = 1e-10
_PIVOT_TOL = 1e-11
_RATIO_TIE_TOL = 1e-12
# Dantzig pricing gives way to Bland's rule after this many consecutive
# degenerate pivots per constraint (of the MQ).
_BLAND_DEGENERATE_PER_ROW = 10
# The simplex's basis inverse is refactorized from the dense basis after this
# many eta updates, and whenever the entering direction it gives misses its
# column by more than _ETA_RESIDUAL_TOL.
_REFACTOR_PIVOTS = 64
_ETA_RESIDUAL_TOL = 1e-9
# Path slacks within this many nats of the least tie in `_hungarian`, so h_t
# equal up to rounding match alike on any BLAS.
_MATCH_TIE_TOL = 1e-13


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A basic optimal solution of the marginal-constrained minimization."""

    pmf: JointPmf
    objective: float  # minimized sum h*p, nats
    iterations: int  # simplex pivots; 0 on the uniform LP's Q = 2 route (one Hungarian)
    duals: np.ndarray  # M x Q: reduced cost of t is h_t - sum_j duals[t_j, j]


@dataclass(frozen=True, eq=False)
class CapacityResult:
    """Capacity of the associated channel with outputs on the nodes of
    `entropy._output_grid`, certified: it lies in [capacity_bits,
    upper_bound_bits]."""

    pmf: JointPmf
    capacity_bits: float  # I(pmf)
    upper_bound_bits: float  # max_t D_t at pmf
    converged: bool  # the interval is narrower than tol nats
    iterations: int


class SimplexError(RuntimeError):
    """Internal simplex failure (should not occur on transportation instances)."""


def _check_size(what: str, size: int) -> None:
    if size > DENSE_ELEMENTS_MAX:
        raise BudgetExceededError(f"{what} = {size}, beyond the budget of {DENSE_ELEMENTS_MAX}")


def check_marginal_budget(m: int, q: int) -> None:
    """Raise BudgetExceededError if the marginal LP is too large: its MQ
    constraints times M^Q columns exceed DENSE_ELEMENTS_MAX.

    At Q = 2 the uniform LP is one O(M^3) Hungarian, and the budget admits
    M <= 203. `uniform` on random 128/2 takes 0.09-0.13 s (0.28-0.30 s by
    the simplex) and on random 203/2 0.23-0.29 s (1.24-1.30 s), cost tensor
    included (2-core VM, BLAS at 1 thread).
    """
    _check_size(f"the LP for M={m}, Q={q} has MQ x M^Q = {m * q} constraints x {m**q} columns",
                m * q * m**q)


def check_capacity_budget(spec: ChannelSpec) -> None:
    """Raise BudgetExceededError if `capacity` cannot take the spec: its
    uniform-LP start is too large (`check_marginal_budget`), or its nodes x
    MQ component table on the output grid is.

    The nodes are counted from `entropy._output_clusters`, which the grid is
    built from: at most 20 panels of 16 nodes per distinct mean, however
    small sigma is.
    """
    check_marginal_budget(spec.m, spec.q)
    nodes = int(_entropy._output_clusters(spec)[2].sum()) * _entropy._NODES_PER_PANEL
    _check_size(
        f"capacity at P_N={spec.noise_power:g} takes a component table of nodes x MQ = "
        f"{nodes} x {spec.m * spec.q}", nodes * spec.m * spec.q
    )


def check_capacity_options(tol: float, max_iter: int) -> None:
    """Raise ValueError unless `max_iter` >= 1 and `tol` is finite and positive."""
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if not 0.0 < tol < np.inf:
        raise ValueError("tol must be finite and positive")


def _columns(ranks: np.ndarray, m: int, q: int) -> np.ndarray:
    """Letter-major marginal entries t_j*Q + j of the symbols `ranks`, shape (len, Q)."""
    digits = np.unravel_index(ranks, (m,) * q)
    return np.stack(digits, axis=-1) * q + np.arange(q)


def _incidence(ranks: np.ndarray, m: int, q: int) -> np.ndarray:
    """The MQ x len(ranks) 0-1 matrix mapping symbol weights to marginals."""
    b = np.zeros((m * q, len(ranks)))
    b[_columns(ranks, m, q), np.arange(len(ranks))[:, None]] = 1.0
    return b


def _minus_marginal_sums(tensor: np.ndarray, table: np.ndarray) -> np.ndarray:
    """tensor[t] - sum_j table[t_j, j] for every symbol t, in place on the
    (M,)*Q `tensor`, state by state; returns it flat. Only the capacity
    solver's prices use it: the printed capacity pmf depends on this
    rounding, where `_dual_sums` would move its last digits."""
    m, q = table.shape
    for j in range(q):
        tensor -= table[:, j].reshape((m,) + (1,) * (q - 1 - j))
    return tensor.reshape(-1)


def _dual_sums(table: np.ndarray) -> np.ndarray:
    """sum_j table[t_j, j] for every symbol t, flat in rank order: one outer
    sum per state from the last, so each pass runs along the longest axis.
    The simplex and the assignment price with it, in fewer passes than
    `_minus_marginal_sums` takes; the capacity solver keeps the latter,
    because only the capacity pmf depends on its state-by-state rounding."""
    m, q = table.shape
    sums = table[:, q - 1]
    for j in range(q - 2, -1, -1):
        sums = np.add.outer(table[:, j], sums).reshape(-1)
    return sums


def _hungarian(cost: np.ndarray) -> tuple[float, list[int], np.ndarray]:
    """Minimum-cost perfect matching of a square matrix, O(n^3): one
    shortest augmenting path per row, Dijkstra on the slacks
    cost[i, j] - u[i] - v[j] under row and column potentials u, v (Kuhn
    1955; the row-by-row form of Jonker and Volgenant 1987).

    Returns the matching's value (an exact `math.fsum` of its costs), the
    column matched to each row, and the n x 2 table of potentials u, v.

    Tie rule: path slacks within _MATCH_TIE_TOL of the least are tied. Each
    step of a search reaches the lowest-index free column among the tied
    ones, else the lowest-index tied one, at the least slack, through the
    earliest-reached row whose slack to it is within _MATCH_TIE_TOL of that
    column's own. Costs equal up to rounding therefore give the same
    matching, and a constant matrix takes O(n^2). Every slack stays >= 0 up
    to round-off, and a matched pair's is at most 2 _MATCH_TIE_TOL, so u, v
    are feasible duals and the matching is optimal within 2n _MATCH_TIE_TOL.
    """
    n, tol = cost.shape[0], _MATCH_TIE_TOL
    rows = cost.tolist()  # nested floats: no NumPy row view and scalar per lookup
    u = [0.0] * n
    v = [0.0] * n
    row_of = [-1] * n  # the row matched to each column, -1 if none
    col_of = [-1] * n  # the column matched to each row
    via = [0] * n  # the row through which a search reached each column
    for start in range(n):
        slack = [math.inf] * n  # least path slack to each column not yet reached
        remaining = list(range(n))  # columns not yet reached, ascending
        tree = [(start, 0.0)]  # rows reached, with their path slacks, in order
        reached = []  # the columns through which tree[1:] were reached
        least = 0.0
        i = start
        while True:
            row, base = rows[i], least - u[i]
            for j in remaining:
                cur = base + row[j] - v[j]
                if cur < slack[j]:
                    slack[j] = cur
            least = min([slack[j] for j in remaining])
            reach, j = least + tol, -1
            for col in remaining:
                if slack[col] <= reach:
                    if row_of[col] < 0:
                        j = col
                        break
                    if j < 0:
                        j = col
            remaining.remove(j)
            reach, vj = slack[j] + tol, v[j]
            for k, d in tree:
                if d - u[k] + rows[k][j] - vj <= reach:
                    break
            via[j] = k
            i = row_of[j]
            if i < 0:
                break
            reached.append(j)
            tree.append((i, least))
        for k, d in tree:
            u[k] += least - d
        for col, (_, d) in zip(reached, tree[1:]):
            v[col] -= least - d
        while True:  # augment along the path back to `start`
            k = via[j]
            row_of[j] = k
            col_of[k], j = j, col_of[k]
            if k == start:
                break
    value = math.fsum(rows[i][col_of[i]] for i in range(n))
    return value, col_of, np.column_stack([u, v])


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


def _entering(reduced: np.ndarray, bland: bool) -> int:
    """The entering symbol for these reduced costs, or -1 at optimality:
    under Bland's rule the lowest index with a negative reduced cost, else
    the lowest index among those within _RATIO_TIE_TOL of the most negative
    (so h_t equal up to rounding enter alike on any BLAS)."""
    if bland:
        below = reduced < -_RC_TOL
        first = int(np.argmax(below))
        return first if below[first] else -1
    lowest = int(reduced.argmin())
    best = reduced[lowest]
    if best >= -_RC_TOL:
        return -1
    return int(np.argmax(reduced[:lowest + 1] <= best + _RATIO_TIE_TOL))


def _refined(inverse: np.ndarray, basis_mat: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """B^-1 rhs from an approximate inverse of the basis B, refined once
    against B, so its error is that of a solve, not the etas' drift."""
    x = inverse @ rhs
    x += inverse @ (rhs - basis_mat @ x)
    return x


def _direction(inverse: np.ndarray, basis_mat: np.ndarray, kept: list[int]):
    """The entering direction B^-1 a for the 0-1 column a with ones at the
    rows `kept`: the sum of those columns of the inverse, refined once
    against the basis B. Returns it and the largest |B d - a| before the
    refinement, which measures how far the inverse has drifted."""
    direction = inverse[:, kept[0]].copy()
    for k in kept[1:]:
        direction += inverse[:, k]
    miss = basis_mat @ direction
    for k in kept:
        miss[k] -= 1.0
    direction -= inverse @ miss
    return direction, float(np.abs(miss).max())


def solve_marginal_lp(costs: CostTensor, targets: MarginalSet) -> LpSolution:
    """Minimize sum h*p over joint pmfs with the given per-state marginals.

    Returns a basic optimal solution, so the support never exceeds
    MQ - Q + 1, with its final M x Q duals u: the reduced costs
    h_t - sum_j u[t_j, j] are zero on the basis, up to round-off, and
    >= -1e-10 elsewhere.
    Dantzig pricing until 10MQ consecutive degenerate pivots have occurred,
    then Bland's rule (guarantees termination on these highly degenerate
    transportation polytopes).

    The basis inverse is kept explicitly and each pivot updates it by one
    eta (rank-one) transform, so a pivot makes no solve (product form of
    the inverse; Dantzig & Orchard-Hays 1954). The entering direction is
    the sum of the inverse's columns at the entering symbol's kept
    constraints. It, the duals and (when a symbol enters) the basic values
    are each taken from the inverse and refined once against the dense
    basis, so the pivots are those of a fresh solve per pivot. The inverse is refactorized from
    the dense basis every _REFACTOR_PIVOTS pivots, and whenever the
    direction it gives misses its column by more than _ETA_RESIDUAL_TOL.
    When its prices show optimality, the basic values and duals are solved
    afresh on the basis, and every symbol is priced again unless the fresh
    duals are the ones just priced. Only an optimal fresh pricing stops the
    simplex (any other refactorizes and pivots on), so the pmf and duals
    returned come from one clean factorization.
    """
    m, q = costs.m, costs.q
    if (targets.q, targets.m) != (q, m):
        raise ValueError("targets shape does not match the cost tensor")
    check_marginal_budget(m, q)
    # All M constraints of state 1, and of every later state all but the
    # last letter's (implied: every state's marginals sum to the total mass).
    rows = np.asarray([i * q + j for j in range(q) for i in range(m) if j == 0 or i < m - 1])
    n_rows = len(rows)
    kept_row = [-1] * (m * q)  # marginal entry -> its row among `rows`, -1 if dropped
    for k, row in enumerate(rows.tolist()):
        kept_row[row] = k
    b = targets.per_state.T.reshape(-1)
    b_rows = b[rows]
    c = costs.values.reshape(-1)
    strides = [m ** (q - 1 - j) for j in range(q)]
    basis = np.asarray(_northwest_corner(targets.per_state))
    basis_mat = _incidence(basis, m, q)[rows]
    inverse = np.linalg.inv(basis_mat)
    since_refactor = 0
    duals = np.zeros(m * q)  # zero on the dropped constraints
    dual_table = duals.reshape(m, q)
    fresh = False  # x_basic and duals were solved afresh on the current basis
    bland = False
    degenerate_run = 0
    iterations = 0
    max_iterations = 200 * (n_rows + c.size) + 1000
    while True:
        if not fresh:
            duals[rows] = _refined(inverse.T, basis_mat.T, c[basis])
        reduced = c - _dual_sums(dual_table)
        reduced[basis] = 0.0
        entering = _entering(reduced, bland)
        if entering < 0:
            if fresh:
                break
            x_basic = np.linalg.solve(basis_mat, b_rows)
            priced = duals[rows]
            duals[rows] = np.linalg.solve(basis_mat.T, c[basis])
            if np.array_equal(duals[rows], priced):
                break  # equal up to signed zeros: the pricing just done stands
            fresh = True
            continue
        if not fresh:
            x_basic = _refined(inverse, basis_mat, b_rows)
        kept = [k for k in (kept_row[entering // stride % m * q + j]
                            for j, stride in enumerate(strides)) if k >= 0]
        if fresh or since_refactor >= _REFACTOR_PIVOTS:
            inverse = np.linalg.inv(basis_mat)
            since_refactor = 0
        direction, miss = _direction(inverse, basis_mat, kept)
        if since_refactor and miss > _ETA_RESIDUAL_TOL:
            inverse = np.linalg.inv(basis_mat)
            since_refactor = 0
            direction = _direction(inverse, basis_mat, kept)[0]
        ratios = np.divide(np.maximum(x_basic, 0.0), direction, out=np.full(n_rows, np.inf),
                           where=direction > _PIVOT_TOL)
        theta = float(ratios.min())
        if theta == np.inf:
            raise SimplexError("unbounded direction on a bounded polytope")
        # Among tied rows leave the smallest variable index (Bland-safe).
        leaving_row = int(np.where(ratios <= theta + _RATIO_TIE_TOL, basis, c.size).argmin())
        pivot_row = inverse[leaving_row] / direction[leaving_row]
        inverse -= direction[:, None] * pivot_row
        inverse[leaving_row] = pivot_row
        since_refactor += 1
        basis[leaving_row] = entering
        basis_mat[:, leaving_row] = 0.0
        for k in kept:
            basis_mat[k, leaving_row] = 1.0
        fresh = False
        iterations += 1
        if theta <= _RATIO_TIE_TOL:
            degenerate_run += 1
            if degenerate_run > _BLAND_DEGENERATE_PER_ROW * m * q:
                bland = True
        else:
            degenerate_run = 0
        if iterations > max_iterations:
            raise SimplexError("simplex failed to terminate")
    x = np.zeros(c.size)
    x[basis] = np.maximum(x_basic, 0.0)
    objective = float(np.dot(c, x))
    residual = np.abs(_incidence(basis, m, q) @ x[basis] - b).max()
    if residual > 1e-8:
        raise SimplexError(f"constraint residual {residual:.3e} exceeds 1e-8")
    total = x.sum()
    if abs(total - 1.0) > 1e-9:  # guard against accumulated round-off
        x = x / total
    return LpSolution(
        pmf=JointPmf(m, q, x),
        objective=objective,
        iterations=iterations,
        duals=dual_table,
    )


def solve_uniform_lp(costs: CostTensor) -> LpSolution:
    """Uniform transmission: minimize sum h*p with every marginal = 1/M.

    At Q = 2 this is the assignment problem, solved by one `_hungarian`
    (Kuhn 1955; its polytope's vertices are the permutation matrices): the
    pmf is exactly 1/M on the matched pairs, the objective the `math.fsum`
    of their costs over M, the duals the row and column potentials, and
    `iterations` 0. The tie rule is the Hungarian's (`_hungarian`): slacks
    within 1e-13 nats tie, and go to the lowest free column, so costs equal
    up to rounding give the same vertex. The duals pass the simplex's
    checks: every reduced cost is >= 0 up to round-off, and at most 2e-13 on
    the support, so the objective is optimal within 2e-13 nats.
    At any other Q, `solve_marginal_lp` with uniform targets. Raises
    BudgetExceededError as `check_marginal_budget` does, before any work.

    The rate it achieves is h(Y) at uniform marginals minus `objective`.
    """
    m, q = costs.m, costs.q
    if q != 2:
        return solve_marginal_lp(costs, MarginalSet.uniform(m, q))
    check_marginal_budget(m, q)
    value, col, duals = _hungarian(costs.values)
    probs = np.zeros(m * m)
    probs[np.arange(m) * m + col] = 1.0 / m
    return LpSolution(pmf=JointPmf(m, q, probs), objective=value / m, iterations=0,
                      duals=duals)


def support_reduce(p: JointPmf, costs: CostTensor) -> LpSolution:
    """Shrink the support of p to at most MQ - Q + 1 without losing rate.

    Re-solves the marginal LP on the cost tensor `costs` with targets = the
    marginals of p; the optimum has the same h(Y) and no larger h(Y|T),
    hence mutual information at least that of p.
    """
    return solve_marginal_lp(costs, marginals_of(p))


# Means of the component table closer than this many noise sigmas count as
# one mean, and singular values of the support's distinct-mean image at most
# this fraction of its largest count as zero.
_MEAN_MERGE_SIGMAS = 1e-9
_IMAGE_RANK_TOL = 1e-9
# A line search accepts a step once the slope there is within this fraction
# of the slope at its start, and gives up after _LINE_SEARCH_STEPS trials.
_SLOPE_FRACTION = 0.1
_LINE_SEARCH_STEPS = 60
# Density floor in the line search's logarithms (p_Y + a dy is 0 at nodes
# around a mean that the step leaves or finds uncovered; the slope is
# infinite there).
_DENSITY_FLOOR = 1e-300
# Below the smallest normal float, p_Y = g u has underflowed, and prices take
# its log by log-sum-exp instead.
_NORMAL_MIN = np.finfo(float).tiny
# Offsets are clamped to this many sigmas. A node lies within its cluster, far
# nearer than this, so the clamp changes only components with exp(-z^2/2)
# exactly 0 either way, and keeps z^2 and every ln g finite.
_FAR_SIGMAS = 1e150


class _AssociatedChannel:
    """The associated channel with outputs on the nodes of `entropy._output_grid`.

    Everything is in sigma units, relative to each cluster's lowest mean:
    rescaling y changes no divergence, so densities are those of y / sigma
    and h_t is shifted by -ln sigma. Column i*Q + j of the component table
    `g` is r_j phi(z - o_ij) on the nodes z, o_ij being the offset of mean
    x_i + s_j, so symbol t has density sum_j g[:, t_j*Q + j], and a pmf has
    output density g u, u being its per-state marginals (letter-major).
    """

    def __init__(self, spec: ChannelSpec, costs: CostTensor) -> None:
        self.m, self.q = spec.m, spec.q
        sigma = _entropy._sigma(spec)
        self.nodes, self.weights, self.cluster, offsets = _entropy._output_grid(spec)
        self.offsets = np.clip(offsets, -_FAR_SIGMAS, _FAR_SIGMAS)
        self.log_r = np.log(np.tile(spec.interference_probs, self.m)) - 0.5 * math.log(2 * math.pi)
        self.g = self._log_components(slice(None))
        np.exp(self.g, out=self.g)  # in place: the table can be large
        self.costs = costs.values - math.log(sigma)
        self.h = self.costs.reshape(-1)
        # Distinct-mean image: row l of `image` gives, per column, the weight
        # r_j it puts on the l-th distinct mean x_i + s_j.
        means = np.add.outer(spec.constellation, spec.interference_levels).reshape(-1)
        order = np.argsort(means, kind="stable")
        group = np.empty(means.size, dtype=int)
        group[order] = np.concatenate([[0], np.cumsum(
            np.diff(means[order]) > _MEAN_MERGE_SIGMAS * sigma)])
        self.image = np.zeros((int(group.max()) + 1, means.size))
        self.image[group, np.arange(means.size)] = np.tile(spec.interference_probs, self.m)

    def _log_components(self, nodes) -> np.ndarray:
        """ln g at the `nodes` (an index), every column: the one place the
        component table is built."""
        z = self.offsets[self.cluster[nodes]]
        np.subtract(self.nodes[nodes, None], z, out=z)
        z *= z
        z *= -0.5
        z += self.log_r
        return z

    def prices(self, support: np.ndarray, p_s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Output density on the nodes, and every symbol's D_t = KL(f_t || p_Y) in nats.

        D_t = -h_t - sum_j G[t_j, j] with G[i, j] = sum_y w r_j phi(y - x_i - s_j) ln p_Y(y),
        broadcast over the (M,)*Q cost tensor. Where g u underflows, ln p_Y
        is a log-sum-exp over the columns u weights, never ln 0 or a floor:
        a floor would make D_t too small there, and max_t D_t no bound.
        """
        u = np.bincount(_columns(support, self.m, self.q).ravel(),
                        weights=np.repeat(p_s, self.q), minlength=self.m * self.q)
        p_y = self.g @ u
        normal = p_y >= _NORMAL_MIN
        log_p_y = np.log(p_y, out=np.zeros_like(p_y), where=normal)
        if not normal.all():
            holes = np.flatnonzero(~normal)
            live = u > 0.0
            terms = self._log_components(holes)[:, live] + np.log(u[live])
            top = terms.max(axis=1)
            log_p_y[holes] = top + np.log(np.exp(terms - top[:, None]).sum(axis=1))
        table = ((self.weights * log_p_y) @ self.g).reshape(self.m, self.q)
        return p_y, _minus_marginal_sums(np.negative(self.costs), table)

    def hessian(self, b: np.ndarray, p_y: np.ndarray) -> np.ndarray:
        """B^T K B with K = g^T diag(w / p_Y) g, as (gB)^T diag(w / p_Y) (gB):
        the columns of gB are the support's densities, so no nodes x MQ copy
        of g is made."""
        dens = self.g @ b
        scale = np.divide(self.weights, p_y, out=np.zeros_like(p_y), where=p_y > 0.0)
        return dens.T @ (dens * scale[:, None])

    def line_search(self, p_y: np.ndarray, dy: np.ndarray, linear: float, hi: float) -> float:
        """A step in [0, hi] near the maximum of the concave I(p + a d).

        `dy` is the output density of the direction d and `linear` = -h.d, so
        the slope is linear - sum w dy (ln(p_Y + a dy) + 1). Safeguarded
        Newton on the slope, bracketed by bisection.
        """
        w_dy = self.weights * dy

        def slope_and_curvature(a: float) -> tuple[float, float]:
            y = np.maximum(p_y + a * dy, _DENSITY_FLOOR)
            return linear - float(w_dy @ (np.log(y) + 1.0)), -float(w_dy @ (dy / y))

        start = slope_and_curvature(0.0)[0]
        if not start > 0.0:
            return 0.0
        lo, up = 0.0, hi
        a = min(1.0, hi)
        for _ in range(_LINE_SEARCH_STEPS):
            slope, curvature = slope_and_curvature(a)
            if slope >= 0.0:
                if a >= hi:
                    return hi
                lo = a
            else:
                up = a
            if abs(slope) <= _SLOPE_FRACTION * start:
                return a
            a = a - slope / curvature if curvature < 0.0 else up
            if not lo < a < up:
                a = 0.5 * (lo + up)
        return lo


def _move(support: np.ndarray, p_s: np.ndarray, d: np.ndarray, step: float, hi: float):
    """p_s + step d on the support; at the ratio-test bound `hi` the columns
    that reach zero there leave. Returns the new support and its weights."""
    moved = p_s + step * d
    if step >= hi:
        falling = d < 0.0
        ratio = np.full(len(p_s), np.inf)
        ratio[falling] = p_s[falling] / -d[falling]
        moved[ratio <= hi * (1.0 + 1e-12)] = 0.0
    keep = moved > 0.0
    return support[keep], moved[keep] / moved[keep].sum()


def _ratio_bound(p_s: np.ndarray, d: np.ndarray) -> float:
    """Largest step keeping p_s + step d >= 0 (inf if d never falls)."""
    falling = d < -1e-12 * np.abs(d).max(initial=0.0)
    return float(np.min(p_s[falling] / -d[falling])) if falling.any() else np.inf


def _null_space(a: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning the null space of `a`: its right singular
    vectors whose singular values are at most _IMAGE_RANK_TOL of the largest."""
    _, sv, vt = np.linalg.svd(a)
    return vt[np.count_nonzero(sv > _IMAGE_RANK_TOL * sv.max(initial=0.0)):].T


def _pivot(support: np.ndarray, p_s: np.ndarray, d_s: np.ndarray, null: np.ndarray):
    """Move to the boundary along the null space of the support's
    distinct-mean images, where p_Y is constant and I linear: along the
    projection of D there (uphill), or any null direction where D is flat."""
    d = null @ (null.T @ d_s)
    hi = _ratio_bound(p_s, d)
    if hi == np.inf:  # D is flat there
        d = null[:, 0]
        hi = _ratio_bound(p_s, d)
    return _move(support, p_s, d, hi, hi)


def _independent(channel: _AssociatedChannel, support, p_s, div):
    """Pivot (`_pivot`, with every symbol's D_t in `div`) until the
    support's distinct-mean images are independent; returns the support, its
    weights and its incidence (`_incidence`). Each pivot removes a symbol,
    and independent images number at most MQ - Q + 1."""
    while True:
        b = _incidence(support, channel.m, channel.q)
        null = _null_space(channel.image @ b)
        if not null.size:
            return support, p_s, b
        support, p_s = _pivot(support, p_s, div[support], null)


def _enter(channel: _AssociatedChannel, support, p_s, p_y, best: int):
    """Line search along e_best - p, for a symbol `best` off the support."""
    f_best = channel.g[:, _columns(np.asarray([best]), channel.m, channel.q)[0]].sum(axis=1)
    step = channel.line_search(p_y, f_best - p_y,
                               float(channel.h[support] @ p_s) - channel.h[best], 1.0)
    support = np.append(support, best)
    p_s = np.append(p_s * (1.0 - step), step)
    return support[p_s > 0.0], p_s[p_s > 0.0]


def _newton(channel: _AssociatedChannel, support, p_s, p_y, d_s, b):
    """Equality-constrained Newton step on the support, line-searched up to
    its ratio-test bound; falls back to the projected gradient where
    round-off has eaten the curvature."""
    k = len(support)
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = channel.hessian(b, p_y)
    kkt[k, k] = 0.0
    ascent = d_s - d_s.mean()
    try:
        d = np.linalg.solve(kkt, np.append(ascent, 0.0))[:k]
    except np.linalg.LinAlgError:
        d = ascent
    if not (np.all(np.isfinite(d)) and ascent @ d > 0.0):
        d = ascent
    hi = _ratio_bound(p_s, d)
    step = channel.line_search(p_y, channel.g @ (b @ d), -float(channel.h[support] @ d), hi)
    return _move(support, p_s, d, step, hi)


def capacity(
    spec: ChannelSpec,
    costs: CostTensor,
    tol: float = 1e-7,
    max_iter: int = 1000,
    lp: LpSolution | None = None,
) -> CapacityResult:
    """Capacity of the associated channel with outputs on the nodes of
    `entropy._output_grid`, given `costs`, the cost tensor of `spec`.

    Maximizes the concave I(p) = sum_t p_t D_t over input pmfs by an active
    set method, starting from the uniform-LP solution (`lp`, if the caller
    has solved it on `costs`, else `solve_uniform_lp`). Every iteration
    prices all symbols (D_t as in `_AssociatedChannel.prices`), then pivots
    while the support's distinct-mean images are dependent: the output
    density is constant along their null space, so I is linear there, a
    ratio test moves to the boundary, and the prices just taken still hold.
    It stops once max_t D_t - min over the support of D_t < `tol` nats, and
    otherwise takes one step:

    - an entering step, when the largest D_t lies off the support and
      max_t D_t - I(p) is at least I(p) - min over the support of D_t: a
      line search along e_t - p;
    - else a Newton step on the support, with curvature -B^T K B, where
      K = g^T diag(w / p_Y) g is MQ x MQ and B maps the support to its
      marginals, line-searched up to the ratio-test bound, where the
      columns that reach zero leave.

    Any p_Y bounds capacity above by max_t D_t, so the result certifies
    capacity in [capacity_bits, upper_bound_bits]. Every exit follows the
    pivots, so the returned pmf has independent distinct-mean images, hence
    at most MQ - Q + 1 symbols; a larger support raises RuntimeError.
    `iterations` counts the pricings. Raises ValueError if
    `check_capacity_options` fails or `costs` or `lp` does not have the
    spec's M and Q, and BudgetExceededError if `check_capacity_budget`
    fails, all before any work.
    """
    check_capacity_options(tol, max_iter)
    check_capacity_budget(spec)
    if (costs.m, costs.q) != (spec.m, spec.q):
        raise ValueError("cost tensor shape does not match the channel spec")
    if lp is not None and (lp.pmf.m, lp.pmf.q) != (spec.m, spec.q):
        raise ValueError("uniform LP shape does not match the channel spec")
    channel = _AssociatedChannel(spec, costs)
    start = (solve_uniform_lp(costs) if lp is None else lp).pmf.probs
    support = np.flatnonzero(start > 0.0)
    p_s = start[support] / start[support].sum()
    converged = False
    for iterations in range(1, max_iter + 1):
        p_y, div = channel.prices(support, p_s)
        # Pivots keep p_Y, so these prices stand for the reduced support too.
        support, p_s, b = _independent(channel, support, p_s, div)
        d_s = div[support]
        info = float(p_s @ d_s)
        upper = max(float(div.max()), info)  # I is a mean of D, up to rounding
        if upper - d_s.min() < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        best = int(np.argmax(div))
        if best not in support and upper - info >= info - d_s.min():
            support, p_s = _enter(channel, support, p_s, p_y, best)
        else:
            support, p_s = _newton(channel, support, p_s, p_y, d_s, b)
    if len(support) > channel.m * channel.q - channel.q + 1:
        raise RuntimeError(f"the capacity pmf has {len(support)} symbols, beyond MQ - Q + 1")
    probs = np.zeros(channel.h.size)
    probs[support] = p_s
    return CapacityResult(
        pmf=JointPmf(spec.m, spec.q, probs),
        capacity_bits=info / LN2,
        upper_bound_bits=upper / LN2,
        converged=converged,
        iterations=iterations,
    )
