"""Shared test fixtures and independent oracles.

Everything here stays deliberately dumb: brute-force enumeration, Riemann
sums, and IPF fills that do not share code paths with the solvers they
check.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from causalprecode import (
    ChannelSpec,
    CostTensor,
    JointPmf,
    LpSolution,
    MarginalSet,
    PrecoderCode,
    cost_tensor,
)
from causalprecode import entropy as _entropy
from causalprecode import optimize as _optimize
from causalprecode import sim as _sim
from causalprecode.model import SUPPORT_THRESHOLD, AssociatedSymbol


def binary_spec(noise_power: float = 0.1) -> ChannelSpec:
    """X = S = {-1,+1}, equiprobable interference."""
    return ChannelSpec((-1.0, 1.0), (-1.0, 1.0), (0.5, 0.5), noise_power)


# M = 128, Q = 2 with x_i = 38 i and S = {0, 19}: at P_N = 1 (68.9 dB) its 256
# output means lie 19 sigma apart, one cluster 4,845 sigma wide, so the
# capacity solver's component table has 77,840 nodes x 256 = 19.9M elements,
# beyond the budget. Above 67.5 dB every such table is.
CHAIN_128X2 = ChannelSpec(tuple(38.0 * i for i in range(128)), (0.0, 19.0), (0.5, 0.5), 1.0)


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


def uniform_rate_bits(spec: ChannelSpec, sol: LpSolution) -> float:
    """The uniform-transmission rate of a uniform-LP solution on the cost
    tensor of `spec`: h(Y) at uniform marginals minus its objective, in bits,
    as the CLI prints it."""
    h_y = _entropy.output_entropy(MarginalSet.uniform(spec.m, spec.q), spec)
    return (h_y - sol.objective) / _entropy.LN2


def random_code(rng: np.random.Generator, m: int, q: int) -> PrecoderCode:
    """M symbols that use every index once per position (an assignment)."""
    columns = [np.arange(1, m + 1)] + [rng.permutation(m) + 1 for _ in range(q - 1)]
    return PrecoderCode(tuple(map(tuple, np.stack(columns, axis=1))))


def components(spec: ChannelSpec, y) -> np.ndarray:
    """Component table g[..., i, j] = r_j phi(y - x_i - s_j; P_N), shape
    y.shape + (M, Q), in y itself (no sigma units)."""
    sigma = _entropy._sigma(spec)
    x = np.asarray(spec.constellation)
    s = np.asarray(spec.interference_levels)
    r = np.asarray(spec.interference_probs)
    z = (np.asarray(y, dtype=float)[..., None, None] - (x[:, None] + s[None, :])) / sigma
    return r * np.exp(-0.5 * z * z) / (sigma * math.sqrt(2.0 * math.pi))


def mixture_pdf(t: AssociatedSymbol, y, spec: ChannelSpec):
    """Likelihood of output y given associated symbol t; `y` may be a scalar
    or an ndarray, and the result has its shape."""
    t = tuple(int(i) for i in t)
    if len(t) != spec.q or any(not 1 <= i <= spec.m for i in t):
        raise ValueError(f"symbol {t} is not a {spec.q}-tuple over 1..{spec.m}")
    dens = components(spec, y)[..., np.array(t) - 1, np.arange(spec.q)].sum(axis=-1)
    return dens if dens.shape else float(dens)


def output_pdf(marginals: MarginalSet, y, spec: ChannelSpec):
    """Output density sum_q r_q sum_i marginals[q][i] phi(y - x_i - s_q)."""
    if marginals.m != spec.m or marginals.q != spec.q:
        raise ValueError("marginal shape does not match the channel spec")
    g = components(spec, y)
    dens = g.reshape(g.shape[:-2] + (-1,)) @ marginals.per_state.T.reshape(-1)
    return dens if dens.shape else float(dens)


# The oracles' rule: 32 Gauss-Legendre nodes per sigma/2 panel, pinned here
# so that no oracle follows a change of the package's own rule.
ORACLE_PANEL_SIGMAS = 0.5
ORACLE_NODES_PER_PANEL = 32


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre grid: `panels` equal panels over [lo, hi]."""

    lo: float
    hi: float
    panels: int
    nodes_per_panel: int = ORACLE_NODES_PER_PANEL


def grid_nodes(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Flat (nodes, weights) arrays of a composite grid, panel by panel."""
    ref_x, ref_w = leggauss(grid.nodes_per_panel)
    edges = np.linspace(grid.lo, grid.hi, grid.panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).reshape(-1)
    return nodes, (half[:, None] * ref_w[None, :]).reshape(-1)


def window(spec: ChannelSpec) -> tuple[float, float]:
    """The extreme means of a spec widened by 10 noise sigmas."""
    pad = _entropy._WINDOW_SIGMAS * _entropy._sigma(spec)
    lo = min(spec.constellation) + min(spec.interference_levels) - pad
    hi = max(spec.constellation) + max(spec.interference_levels) + pad
    return lo, hi


def quadrature_grid(spec: ChannelSpec) -> QuadratureGrid:
    """The default grid: panels of at most sigma/2 over `window(spec)`, one
    grid for every density of the spec, however far apart its means lie."""
    lo, hi = window(spec)
    panels = math.ceil((hi - lo) / _entropy._sigma(spec) / ORACLE_PANEL_SIGMAS)
    return QuadratureGrid(lo, hi, panels)


def integrate(pdf, grid: QuadratureGrid) -> float:
    """Plain integral of `pdf` over the grid (normalization checks)."""
    nodes, weights = grid_nodes(grid)
    return float(np.dot(weights, np.asarray(pdf(nodes), dtype=float)))


def differential_entropy(pdf, grid: QuadratureGrid) -> float:
    """Composite Gauss-Legendre estimate of -integral p ln p on the grid, in
    nats; `pdf` takes an ndarray of points and is nonnegative."""
    nodes, weights = grid_nodes(grid)
    return float(_entropy._entropy_from_samples(np.asarray(pdf(nodes), dtype=float), weights))


def riemann_entropy(pdf, lo: float, hi: float, n: int = 400_000) -> float:
    """Brute-force midpoint Riemann sum of -integral p ln p (nats)."""
    y = np.linspace(lo, hi, n, endpoint=False) + (hi - lo) / (2 * n)
    p = np.asarray(pdf(y))
    mask = p > 1e-300
    return float(np.sum(np.where(mask, -p * np.log(np.where(mask, p, 1.0)), 0.0)) * (hi - lo) / n)


def default_grid_entropies(spec: ChannelSpec) -> np.ndarray:
    """h_t in nats for every symbol, in flat-rank order, on the default grid.

    No cluster split: every symbol's density is summed from one component
    table on the nodes of `quadrature_grid(spec)`, in blocks of at most
    2^16 samples, and each block's partial entropies add up.
    """
    nodes, weights = grid_nodes(quadrature_grid(spec))
    g = components(spec, nodes)
    digits = np.unravel_index(np.arange(spec.num_symbols), (spec.m,) * spec.q)
    rows = max(1, (1 << 16) // spec.num_symbols)
    values = np.zeros(spec.num_symbols)
    for lo in range(0, len(nodes), rows):
        dens = sum(g[lo:lo + rows, digits[j], j] for j in range(spec.q))
        values += _entropy._entropy_from_samples(dens, weights[lo:lo + rows])
    return values


def marginal_constraint_matrix(m: int, q: int) -> np.ndarray:
    """All MQ marginal-constraint rows over the M^Q lexicographic columns."""
    rows = []
    symbols = list(itertools.product(range(1, m + 1), repeat=q))
    for state in range(q):
        for letter in range(1, m + 1):
            rows.append([1.0 if t[state] == letter else 0.0 for t in symbols])
    return np.asarray(rows)


def dense_marginal_lp(costs: CostTensor, targets: MarginalSet) -> tuple[LpSolution, int | None]:
    """`optimize.solve_marginal_lp` as it was before its eta-updated inverse:
    every pivot solves the dense basis three times (basic values, duals,
    entering direction). Same start, pricing, ratio test, tolerances and
    Bland threshold, read from `optimize` at call time. Returns the solution
    and the pivot after which Bland's rule took over (None if it never did).
    """
    opt = _optimize
    m, q = costs.m, costs.q
    rows = np.asarray([i * q + j for j in range(q) for i in range(m) if j == 0 or i < m - 1])
    b = targets.per_state.T.reshape(-1)
    b_rows = b[rows]
    c = costs.values.reshape(-1)
    strides = [m ** (q - 1 - j) for j in range(q)]
    basis = opt._northwest_corner(targets.per_state)
    basis_mat = opt._incidence(np.asarray(basis), m, q)[rows]
    n_rows = len(rows)
    duals = np.zeros(m * q)
    dual_table = duals.reshape(m, q)
    bland_from = None
    degenerate_run = 0
    iterations = 0
    while True:
        x_basic = np.linalg.solve(basis_mat, b_rows)
        duals[rows] = np.linalg.solve(basis_mat.T, c[basis])
        reduced = opt._minus_marginal_sums(costs.values.copy(), dual_table)
        reduced[basis] = 0.0
        if bland_from is not None:
            candidates = np.nonzero(reduced < -opt._RC_TOL)[0]
            if candidates.size == 0:
                break
            entering = int(candidates[0])
        else:
            best = reduced.min()
            if best >= -opt._RC_TOL:
                break
            entering = int(np.flatnonzero(reduced <= best + opt._RATIO_TIE_TOL)[0])
        column = np.zeros(m * q)
        column[[entering // stride % m * q + j for j, stride in enumerate(strides)]] = 1.0
        column = column[rows]
        direction = np.linalg.solve(basis_mat, column)
        positive = direction > opt._PIVOT_TOL
        ratios = np.full(n_rows, np.inf)
        ratios[positive] = np.maximum(x_basic[positive], 0.0) / direction[positive]
        theta = float(ratios.min())
        ties = np.nonzero(ratios <= theta + opt._RATIO_TIE_TOL)[0]
        leaving_row = int(min(ties, key=lambda i: basis[i]))
        basis[leaving_row] = entering
        basis_mat[:, leaving_row] = column
        iterations += 1
        if theta <= opt._RATIO_TIE_TOL:
            degenerate_run += 1
            if degenerate_run > opt._BLAND_DEGENERATE_PER_ROW * m * q and bland_from is None:
                bland_from = iterations
        else:
            degenerate_run = 0
    x = np.zeros(c.size)
    x[basis] = np.maximum(x_basic, 0.0)
    objective = float(np.dot(c, x))
    total = x.sum()
    if abs(total - 1.0) > 1e-9:
        x = x / total
    sol = LpSolution(pmf=JointPmf(m, q, x), objective=objective, iterations=iterations,
                     duals=dual_table)
    return sol, bland_from


def dense_null_space(a: np.ndarray) -> np.ndarray:
    """The null space of `a` by Gauss-Jordan elimination with partial
    pivoting, as `optimize._null_space` found it before the SVD: pivots at
    most _IMAGE_RANK_TOL of the largest entry count as zero. Each step
    subtracts an outer product from the rows a boolean mask selects. The
    columns span the null space but are not orthonormal."""
    a = a.astype(float)
    rows, cols = a.shape
    tiny = _optimize._IMAGE_RANK_TOL * np.abs(a).max(initial=0.0)
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


_VERTEX_CHUNK = 20000


@functools.lru_cache(maxsize=None)
def _vertex_bases(m: int, q: int) -> tuple[list[int], np.ndarray, np.ndarray]:
    """The rows kept of `marginal_constraint_matrix` (every state's but the
    last letter's after state 1), the reduced matrix, and all its bases, as
    column subsets of size MQ - Q + 1. They depend on (M, Q) only, so they
    are enumerated once. The determinants of these 0-1 systems are
    integers, so nonsingularity is a clean |det| >= 0.5 test.
    """
    full = marginal_constraint_matrix(m, q)
    keep = list(range(m)) + [
        state * m + letter for state in range(1, q) for letter in range(m - 1)
    ]
    a = full[keep]
    n_rows, n_cols = a.shape
    combos = np.fromiter(
        itertools.chain.from_iterable(itertools.combinations(range(n_cols), n_rows)),
        dtype=np.min_scalar_type(n_cols), count=math.comb(n_cols, n_rows) * n_rows,
    ).reshape(-1, n_rows)
    bases = []
    for start in range(0, len(combos), _VERTEX_CHUNK):
        idx = combos[start : start + _VERTEX_CHUNK]
        dets = np.linalg.det(a.T[idx].transpose(0, 2, 1))  # (batch, rows, rows)
        bases.append(idx[np.abs(dets) > 0.5])
    return keep, a, np.concatenate(bases)


def enumerate_vertex_objectives(
    m: int, q: int, targets: np.ndarray, costs: np.ndarray
) -> float:
    """Exhaustive minimum of sum c*p over the vertices of the marginal polytope.

    Solves every basis of the reduced constraint matrix (`_vertex_bases`)
    and keeps the feasible basic solutions.
    """
    keep, a, bases = _vertex_bases(m, q)
    b = targets.reshape(-1)[keep]
    n_rows = a.shape[0]
    best = math.inf
    for start in range(0, len(bases), _VERTEX_CHUNK):
        idx = bases[start : start + _VERTEX_CHUNK]
        mats = a.T[idx].transpose(0, 2, 1)
        rhs = np.broadcast_to(b, (len(idx), n_rows))[..., None]
        sols = np.linalg.solve(mats, rhs)[..., 0]
        feas = np.all(sols >= -1e-10, axis=1)
        if not np.any(feas):
            continue
        cols = idx[feas]
        vals = np.einsum("ij,ij->i", sols[feas], costs.reshape(-1)[cols])
        best = min(best, float(vals.min()))
    return best


def ipf_feasible_points(
    rng: np.random.Generator, m: int, q: int, targets: np.ndarray, count: int,
    iters: int = 300,
) -> np.ndarray:
    """`count` random joint pmfs with (nearly) the target marginals, via IPF
    scaling, one per row."""
    t = rng.uniform(0.2, 1.0, size=(count,) + (m,) * q)
    for _ in range(iters):
        for axis in range(q):
            axes = tuple(a + 1 for a in range(q) if a != axis)
            cur = t.sum(axis=axes) if axes else t
            shape = [count] + [1] * q
            shape[axis + 1] = m
            t = t * (targets[axis] / cur).reshape(shape)
    return t.reshape(count, -1)


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
    iterations), with the same stopping rule and update as `blahut_arimoto`.
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


@dataclass(frozen=True, eq=False)
class BlahutArimotoResult:
    pmf: JointPmf
    capacity_bits: float
    converged: bool
    iterations: int
    lower_bounds: tuple[float, ...]  # I(p) in bits at every iteration


def blahut_arimoto(
    spec: ChannelSpec,
    costs: CostTensor | None = None,
    tol: float = 1e-7,
    max_iter: int = 10000,
) -> BlahutArimotoResult:
    """Blahut-Arimoto on the associated channel with outputs on the default grid.

    Alternating maximization over all M^Q symbols; stops when the
    per-symbol divergences agree within `tol` nats (max over all symbols
    minus min over the support), the stopping rule of `optimize.capacity`.
    Each divergence is D_t = -h_t - sum_j G[i_j, j] with
    G[i, j] = integral of r_j phi(y - x_i - s_j) ln p_Y(y), priced from the
    cost tensor (default `cost_tensor(spec)`) and an M x Q table of those
    integrals on the nodes of `quadrature_grid(spec)`, through the dense
    marginal matrix of `marginal_constraint_matrix`.
    """
    if costs is None:
        costs = cost_tensor(spec)
    nodes, weights = grid_nodes(quadrature_grid(spec))
    # Columns state-major, like the rows of `a`: column j*M + i is r_j phi(y - x_i - s_j).
    g = components(spec, nodes).transpose(0, 2, 1).reshape(len(nodes), -1)
    live = g.any(axis=1)  # nodes where every component underflows add nothing
    g, weights = g[live], weights[live]
    a = marginal_constraint_matrix(spec.m, spec.q)
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
        bounds.append(info / math.log(2.0))
        gap = float(div.max() - div[p > SUPPORT_THRESHOLD].min())
        if gap < tol:
            converged = True
            break
        scaled = p * np.exp(div - div.max())
        p = scaled / scaled.sum()
    return BlahutArimotoResult(
        pmf=JointPmf(spec.m, spec.q, p / p.sum()),
        capacity_bits=info / math.log(2.0),
        converged=converged,
        iterations=iterations,
        lower_bounds=tuple(bounds),
    )


def allocating_decode_block(
    y: np.ndarray, means: np.ndarray, spec: ChannelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """`sim._decode_block` as it was before workspaces: every array fresh,
    np.argmax for the decision. (decisions, posterior entropies in nats)."""
    slope = means / spec.noise_power
    offset = np.log(np.asarray(spec.interference_probs)) - 0.5 * means * slope
    e = np.multiply.outer(slope.reshape(-1), y)
    e += offset.reshape(-1, 1)
    e -= e.max(axis=0)
    lik = np.exp(e, out=e).reshape(means.shape + (len(y),)).sum(axis=1)
    total = lik.sum(axis=0)
    lik_ln_lik = np.log(lik, out=np.zeros_like(lik), where=lik > 0.0)
    lik_ln_lik *= lik
    return np.argmax(lik, axis=0), np.log(total) - lik_ln_lik.sum(axis=0) / total


def allocating_simulate(code: PrecoderCode, spec: ChannelSpec, trials: int, seed: int):
    """`sim.simulate` as it was before workspaces, serially: each batch of
    `sim._BATCH` trials draws, searches and decodes into fresh arrays."""
    means = _sim._check_inputs(code, spec)
    m = means.shape[0]
    cum_r = np.cumsum(np.asarray(spec.interference_probs))
    errors, nats = 0, []
    for start in range(0, trials, _sim._BATCH):
        bits = np.random.Philox(key=seed)
        bits.advance(start)
        u = np.random.Generator(bits).random((min(_sim._BATCH, trials - start), 4))
        messages = np.minimum((u[:, 0] * m).astype(np.int64), m - 1)
        states = np.minimum(np.searchsorted(cum_r, u[:, 1], side="right"), spec.q - 1)
        radius = np.sqrt(-2.0 * spec.noise_power * np.log1p(-u[:, 2]))
        y = means[messages, states] + radius * np.cos(math.pi * u[:, 3])
        decoded, entropies = allocating_decode_block(y, means, spec)
        errors += int(np.count_nonzero(decoded != messages))
        nats.append(float(entropies.sum()))
    return _sim.SimReport(
        trials=trials,
        symbol_errors=errors,
        ser=errors / trials,
        empirical_mi_bits=math.log2(code.m) - math.fsum(nats) / trials / math.log(2.0),
        seed=seed,
    )
