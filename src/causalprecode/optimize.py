"""Linear programs over the associated channel, and its capacity.

Two LPs share one engine: minimize sum h_{i_1...i_Q} p_{i_1...i_Q} subject to
fixed per-state marginals (the general problem), and the same with all
marginals uniform 1/M (uniform transmission). The constraint system has
MQ rows of which MQ - Q + 1 are independent; solving on a basis of that
size yields optima with support at most MQ - Q + 1. The engine is a
one-phase revised simplex from a northwest-corner basis. A symbol touches
only Q marginals, so the simplex prices from the cost tensor and an M x Q
table of duals; marginals are letter-major (i*Q + j for letter i, state
j) here and in the capacity solver.

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

# Size budget, 2^24 (128 MiB of float64): the LPs' MQ constraints times M^Q
# columns, and the capacity solver's nodes x MQ component table. Larger
# instances are refused before any work.
DENSE_ELEMENTS_MAX = 1 << 24


@dataclass(frozen=True, eq=False)
class LpSolution:
    """A basic optimal solution of the marginal-constrained minimization."""

    pmf: JointPmf
    objective: float  # minimized sum h*p, nats
    iterations: int
    basis_size: int
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
    constraints times M^Q columns exceed DENSE_ELEMENTS_MAX."""
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
    (M,)*Q `tensor`, state by state; returns it flat."""
    m, q = table.shape
    for j in range(q):
        tensor -= table[:, j].reshape((m,) + (1,) * (q - 1 - j))
    return tensor.reshape(-1)


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


def solve_marginal_lp(costs: CostTensor, targets: MarginalSet) -> LpSolution:
    """Minimize sum h*p over joint pmfs with the given per-state marginals.

    Returns a basic optimal solution, so the support never exceeds
    MQ - Q + 1, with its final M x Q duals u: the reduced costs
    h_t - sum_j u[t_j, j] are zero on the basis, up to round-off, and
    >= -1e-10 elsewhere.
    Dantzig pricing until 10MQ consecutive degenerate pivots have occurred,
    then Bland's rule (guarantees termination on these highly degenerate
    transportation polytopes).
    """
    m, q = costs.m, costs.q
    if (targets.q, targets.m) != (q, m):
        raise ValueError("targets shape does not match the cost tensor")
    check_marginal_budget(m, q)
    # All M constraints of state 1, and of every later state all but the
    # last letter's (implied: every state's marginals sum to the total mass).
    rows = np.asarray([i * q + j for j in range(q) for i in range(m) if j == 0 or i < m - 1])
    b = targets.per_state.T.reshape(-1)
    b_rows = b[rows]
    c = costs.values.reshape(-1)
    strides = [m ** (q - 1 - j) for j in range(q)]
    basis = _northwest_corner(targets.per_state)
    basis_mat = _incidence(np.asarray(basis), m, q)[rows]
    n_rows = len(rows)
    duals = np.zeros(m * q)  # zero on the dropped constraints
    dual_table = duals.reshape(m, q)
    bland = False
    degenerate_run = 0
    iterations = 0
    max_iterations = 200 * (n_rows + c.size) + 1000
    while True:
        x_basic = np.linalg.solve(basis_mat, b_rows)
        duals[rows] = np.linalg.solve(basis_mat.T, c[basis])
        reduced = _minus_marginal_sums(costs.values.copy(), dual_table)
        reduced[basis] = 0.0
        if bland:
            candidates = np.nonzero(reduced < -_RC_TOL)[0]
            if candidates.size == 0:
                break
            entering = int(candidates[0])
        else:
            best = reduced.min()
            if best >= -_RC_TOL:
                break
            # Lowest index among near-ties, so h_t equal up to rounding enter alike on any BLAS.
            entering = int(np.flatnonzero(reduced <= best + _RATIO_TIE_TOL)[0])
        column = np.zeros(m * q)
        column[[entering // stride % m * q + j for j, stride in enumerate(strides)]] = 1.0
        column = column[rows]
        direction = np.linalg.solve(basis_mat, column)
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
        basis_mat[:, leaving_row] = column
        iterations += 1
        if theta <= _RATIO_TIE_TOL:
            degenerate_run += 1
            if degenerate_run > 10 * m * q:
                bland = True
        else:
            degenerate_run = 0
        if iterations > max_iterations:
            raise SimplexError("simplex failed to terminate")
    x = np.zeros(c.size)
    x[basis] = np.maximum(x_basic, 0.0)
    objective = float(np.dot(c, x))
    residual = np.abs(_incidence(np.asarray(basis), m, q) @ x[basis] - b).max()
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
        duals=dual_table,
    )


def solve_uniform_lp(costs: CostTensor) -> LpSolution:
    """Uniform transmission: solve_marginal_lp with every marginal = 1/M.

    The rate it achieves is h(Y) at uniform marginals minus `objective`.
    """
    return solve_marginal_lp(costs, MarginalSet.uniform(costs.m, costs.q))


def support_reduce(p: JointPmf, costs: CostTensor) -> LpSolution:
    """Shrink the support of p to at most MQ - Q + 1 without losing rate.

    Re-solves the marginal LP on the cost tensor `costs` with targets = the
    marginals of p; the optimum has the same h(Y) and no larger h(Y|T),
    hence mutual information at least that of p.
    """
    return solve_marginal_lp(costs, marginals_of(p))


# Means of the component table closer than this many noise sigmas count as
# one mean, and elimination pivots of the support's distinct-mean image
# below this fraction of its largest entry count as zero.
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
    """Columns spanning the null space of `a`, by Gauss-Jordan elimination
    with partial pivoting; pivots below _IMAGE_RANK_TOL of the largest entry
    count as zero. (Elimination, not an SVD: the LU solver is already loaded.)"""
    a = a.astype(float)
    rows, cols = a.shape
    tiny = _IMAGE_RANK_TOL * np.abs(a).max(initial=0.0)
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        p = r + int(np.argmax(np.abs(a[r:, c])))
        if abs(a[p, c]) <= tiny:
            continue
        a[[r, p]] = a[[p, r]]
        a[r] /= a[r, c]
        others = np.arange(rows) != r
        a[others] -= np.outer(a[others, c], a[r])
        pivots.append(c)
    free = [c for c in range(cols) if c not in pivots]
    null = np.zeros((cols, len(free)))
    null[free, np.arange(len(free))] = 1.0
    null[pivots] = -a[: len(pivots)][:, free]
    return null


def _pivot(support: np.ndarray, p_s: np.ndarray, d_s: np.ndarray, null: np.ndarray):
    """Move to the boundary along the null space of the support's
    distinct-mean images, where p_Y is constant and I linear: along the
    projection of D there (uphill), or any null direction where D is flat."""
    d = null @ np.linalg.solve(null.T @ null, null.T @ d_s)
    hi = _ratio_bound(p_s, d)
    if hi == np.inf:  # D is flat there
        d = null[:, 0]
        hi = _ratio_bound(p_s, d)
    return _move(support, p_s, d, hi, hi)


def _independent(channel: _AssociatedChannel, support, p_s, div):
    """Pivot (`_pivot`, with every symbol's D_t in `div`) until the
    support's distinct-mean images are independent; returns the support and
    its weights. Each pivot removes a symbol, and independent images number
    at most MQ - Q + 1."""
    while True:
        null = _null_space(channel.image @ _incidence(support, channel.m, channel.q))
        if not null.size:
            return support, p_s
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
) -> CapacityResult:
    """Capacity of the associated channel with outputs on the nodes of
    `entropy._output_grid`, given `costs`, the cost tensor of `spec`.

    Maximizes the concave I(p) = sum_t p_t D_t over input pmfs by an active
    set method, starting from the uniform-LP solution. Every iteration
    prices all symbols (D_t as in `_AssociatedChannel.prices`), stops once
    max_t D_t - min over the support of D_t < `tol` nats, and otherwise
    takes one step:

    - a pivot, while the support's distinct-mean images are dependent: the
      output density is constant along their null space, so I is linear
      there and a ratio test moves to the boundary, so the support never
      exceeds MQ - Q + 1;
    - an entering step, when the largest D_t lies off the support and
      max_t D_t - I(p) is at least I(p) - min over the support of D_t: a
      line search along e_t - p;
    - else a Newton step on the support, with curvature -B^T K B, where
      K = g^T diag(w / p_Y) g is MQ x MQ and B maps the support to its
      marginals, line-searched up to the ratio-test bound, where the
      columns that reach zero leave.

    Any p_Y bounds capacity above by max_t D_t, so the result certifies
    capacity in [capacity_bits, upper_bound_bits]. The returned pmf has
    independent distinct-mean images (pivots at exit, then one more pricing
    if any was taken), hence at most MQ - Q + 1 symbols; a larger support
    raises RuntimeError. Raises ValueError if
    `check_capacity_options` fails or `costs` does not have the spec's M and
    Q, and BudgetExceededError if `check_capacity_budget` fails, all before
    any work.
    """
    check_capacity_options(tol, max_iter)
    check_capacity_budget(spec)
    if (costs.m, costs.q) != (spec.m, spec.q):
        raise ValueError("cost tensor shape does not match the channel spec")
    channel = _AssociatedChannel(spec, costs)
    start = solve_uniform_lp(costs).pmf.probs
    support = np.flatnonzero(start > 0.0)
    p_s = start[support] / start[support].sum()
    converged = False
    independent = False  # the support's distinct-mean images, known to be
    for iterations in range(1, max_iter + 1):
        p_y, div = channel.prices(support, p_s)
        d_s = div[support]
        info = float(p_s @ d_s)
        upper = max(float(div.max()), info)  # I is a mean of D, up to rounding
        if upper - d_s.min() < tol:
            converged = True
            break
        if iterations == max_iter:
            break
        b = _incidence(support, channel.m, channel.q)
        null = _null_space(channel.image @ b)
        best = int(np.argmax(div))
        independent = False
        if null.size:
            support, p_s = _pivot(support, p_s, d_s, null)
        elif best not in support and upper - info >= info - d_s.min():
            support, p_s = _enter(channel, support, p_s, p_y, best)
        else:  # keeps a subset of the support, whose images are independent
            support, p_s = _newton(channel, support, p_s, p_y, d_s, b)
            independent = True
    if not independent:
        reduced, p_s = _independent(channel, support, p_s, div)
        if len(reduced) < len(support):  # pivots keep p_Y, so D_t and the certificate
            support = reduced
            div = channel.prices(support, p_s)[1]
            info = float(p_s @ div[support])
            upper = max(float(div.max()), info)
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
