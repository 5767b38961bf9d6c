"""Differential entropies and mutual information for the associated channel.

Given an associated symbol t = (i_1, ..., i_Q), the channel output density is
the Gaussian mixture sum_j r_j phi(y - x_{i_j} - s_j; P_N). This module
evaluates that likelihood, the output density induced by per-state marginals,
the tensor of conditional differential entropies h_{i_1...i_Q}, and
I(T;Y) = h(Y) - sum_t p(t) h_t.

Mixture entropies go through one kernel, `_mixture_entropies`: each
mixture is split where neighbouring means lie more than 20 sigma apart, and
h = sum_c W_c h_c + H(W) over its clusters. A cluster's h_c is closed form
for a single Gaussian, and otherwise an integral computed once per distinct
cluster shape, so the cost does not grow with SNR. Symbol sets whose
distinct clusters would cost more than the default grid (`quadrature_grid`)
fall back to it: there every density is a sum over one component table
r_j phi(y - x_i - s_j), and every entropy one weighted reduction of density
samples. The input sizes choose the path; no caller does.

All internal entropies are in nats; conversion to bits happens only at API
boundaries.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import AssociatedSymbol, ChannelSpec, JointPmf, MarginalSet, marginals_of

LN2 = math.log(2.0)

# Added to density samples before the log: 0 ln 0 = 0, and samples below it
# contribute less than 1e-297 to the entropy integrand.
_PDF_FLOOR = 1e-300

# Integration window extends this many noise sigmas beyond the extreme means.
_WINDOW_SIGMAS = 10.0

# Neighbouring means further apart than this many noise sigmas split a
# mixture into clusters whose windows do not overlap (overlap below e^-50).
_SPLIT_SIGMAS = 2 * _WINDOW_SIGMAS

# Every grid, default or cluster, is made of panels of at most this many
# noise sigmas, each with a Gauss-Legendre rule of this many nodes.
_PANEL_SIGMAS = 0.5
_NODES_PER_PANEL = 32

# Entropy of a unit-variance Gaussian, (1/2) ln(2 pi e), in nats.
_STANDARD_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)

# The cluster split runs when its distinct clusters need at most this many
# times the nodes x (symbols + MQ) of the default-grid path: one unit of
# either costs about the same (BENCH_cluster_split.json, `split_rule`).
_SPLIT_WORK_RATIO = 1.0

# Density samples reduced to entropies at once: a block of grid nodes x
# symbols stays within this many float64 elements (512 kB), so it stays in
# L2 cache from the gather through the log to the product with the weights.
_BLOCK_ELEMENTS = 1 << 16


def gaussian_entropy(variance: float) -> float:
    """Differential entropy of a Gaussian, (1/2) ln(2 pi e variance), in nats."""
    if variance <= 0.0:
        raise ValueError("variance must be positive")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


@dataclass(frozen=True)
class QuadratureGrid:
    """Composite Gauss-Legendre grid: `panels` equal panels over [lo, hi]."""

    lo: float
    hi: float
    panels: int
    nodes_per_panel: int = _NODES_PER_PANEL

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("grid needs lo < hi")
        if self.panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("grid needs panels >= 1 and nodes_per_panel >= 1")


@functools.lru_cache(maxsize=4)
def _reference_rule(nodes_per_panel: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1] (0.7 ms to compute for 32)."""
    rule = leggauss(nodes_per_panel)
    for a in rule:
        a.flags.writeable = False
    return rule


@functools.lru_cache(maxsize=64)
def _grid_nodes(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Flat (nodes, weights) arrays for a composite grid, fixed panel order."""
    ref_x, ref_w = _reference_rule(grid.nodes_per_panel)
    edges = np.linspace(grid.lo, grid.hi, grid.panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).reshape(-1)
    weights = (half[:, None] * ref_w[None, :]).reshape(-1)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def _panels(width):
    """Panels of at most _PANEL_SIGMAS across windows `width` sigmas wide."""
    return np.maximum(1, np.ceil(np.divide(width, _PANEL_SIGMAS))).astype(int)


def _window(spec: ChannelSpec) -> tuple[float, float]:
    """The extreme means of a spec widened by _WINDOW_SIGMAS noise sigmas."""
    pad = _WINDOW_SIGMAS * _sigma(spec)
    lo = min(spec.constellation) + min(spec.interference_levels) - pad
    hi = max(spec.constellation) + max(spec.interference_levels) + pad
    return lo, hi


def quadrature_grid(spec: ChannelSpec) -> QuadratureGrid:
    """Default grid for a spec: panels of width sigma/2 from the extreme means
    widened by 10 noise sigmas."""
    lo, hi = _window(spec)
    return QuadratureGrid(lo, hi, int(_panels((hi - lo) / _sigma(spec))))


def _sigma(spec: ChannelSpec) -> float:
    if spec.noise_power <= 0.0:
        raise ValueError("degenerate noise; use the noisefree module")
    return math.sqrt(spec.noise_power)


def _check_symbol(t: AssociatedSymbol, spec: ChannelSpec) -> tuple[int, ...]:
    t = tuple(int(i) for i in t)
    if len(t) != spec.q:
        raise ValueError(f"symbol has {len(t)} components, expected {spec.q}")
    if any(not 1 <= i <= spec.m for i in t):
        raise ValueError(f"symbol indices {t} out of range 1..{spec.m}")
    return t


def _components(spec: ChannelSpec, y) -> np.ndarray:
    """Component table g[..., i, j] = r_j phi(y - x_i - s_j; P_N), shape y.shape + (M, Q).

    Every noisy-channel density in the package is a sum over this table.
    """
    sigma = _sigma(spec)
    x = np.asarray(spec.constellation)
    s = np.asarray(spec.interference_levels)
    r = np.asarray(spec.interference_probs)
    norm = 1.0 / (sigma * math.sqrt(2.0 * math.pi))
    z = (np.asarray(y, dtype=float)[..., None, None] - (x[:, None] + s[None, :])) / sigma
    g = np.exp(-0.5 * z * z, out=z)  # reuses z: the table can be large
    g *= norm
    g *= r
    return g


def mixture_pdf(t: AssociatedSymbol, y, spec: ChannelSpec):
    """Likelihood of output y given associated symbol t.

    `y` may be a scalar or ndarray; returns the same shape.
    """
    t = _check_symbol(t, spec)
    dens = _components(spec, y)[..., np.array(t) - 1, np.arange(spec.q)].sum(axis=-1)
    return dens if dens.shape else float(dens)


def output_pdf(marginals: MarginalSet, y, spec: ChannelSpec):
    """Output density sum_q r_q sum_i marginals[q][i] phi(y - x_i - s_q)."""
    if marginals.m != spec.m or marginals.q != spec.q:
        raise ValueError("marginal shape does not match the channel spec")
    g = _components(spec, y)
    dens = g.reshape(g.shape[:-2] + (-1,)) @ marginals.per_state.T.reshape(-1)
    return dens if dens.shape else float(dens)


def _entropy_from_samples(p: np.ndarray, weights: np.ndarray) -> np.ndarray | float:
    """-integral p ln p from density samples on the grid, 0 ln 0 taken as 0.

    `p` holds one density per column (or is a single 1-D density); all
    columns reduce in one product with the quadrature weights.
    """
    p_ln_p = np.add(p, _PDF_FLOOR)
    np.log(p_ln_p, out=p_ln_p)
    p_ln_p *= p
    h = -(weights @ p_ln_p)
    if not np.all(np.isfinite(h)):
        raise ValueError("pdf produced non-finite values on the grid")
    return h


def integrate(pdf, grid: QuadratureGrid) -> float:
    """Plain integral of `pdf` over the grid (normalization checks)."""
    nodes, weights = _grid_nodes(grid)
    p = np.asarray(pdf(nodes), dtype=float)
    return float(np.dot(weights, p))


def differential_entropy(pdf, grid: QuadratureGrid) -> float:
    """Composite Gauss-Legendre estimate of -integral p ln p, in nats.

    `pdf` must accept an ndarray of evaluation points and be nonnegative.
    """
    nodes, weights = _grid_nodes(grid)
    p = np.asarray(pdf(nodes), dtype=float)
    return float(_entropy_from_samples(p, weights))


@dataclass(frozen=True, eq=False)
class CostTensor:
    """Conditional differential entropies h_{i_1...i_Q}, shape (M,)*Q, in nats."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.ndim < 1 or len(set(v.shape)) != 1:
            raise ValueError("cost tensor must be (M,)*Q shaped")
        if not np.all(np.isfinite(v)):
            raise ValueError("cost tensor entries must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def m(self) -> int:
        return self.values.shape[0]

    @property
    def q(self) -> int:
        return self.values.ndim

    def entry(self, symbol: AssociatedSymbol) -> float:
        return float(self.values[tuple(i - 1 for i in symbol)])


def _mixture_matrix(g: np.ndarray, digits: tuple[np.ndarray, ...]) -> np.ndarray:
    """Densities of the symbols with the given 0-based letters, from a component table.

    `g` has shape (N, M, Q) and `digits` holds Q letter arrays, as
    `np.unravel_index` gives them for flat ranks; returns shape
    (N, len(digits[0])), one column per symbol.
    """
    dens = g[:, digits[0], 0]
    for j in range(1, len(digits)):
        dens += g[:, digits[j], j]
    return dens


def _check_floor(values: np.ndarray, sigma: float) -> None:
    """A mixture's entropy is at least its component entropy; falling below
    it means the grid does not cover the densities."""
    floor = gaussian_entropy(sigma * sigma)
    if values.min() < floor - 1e-9:
        raise ValueError(
            f"entropy {values.min():.6g} below the Gaussian floor "
            f"{floor:.6g}; the quadrature grid does not cover the density"
        )


def _symbol_entropies(spec: ChannelSpec, grid: QuadratureGrid, ranks: np.ndarray) -> np.ndarray:
    """h_t in nats for the symbols with the given flat ranks, in `ranks` order.

    One component table serves all symbols; the grid is walked in blocks of
    nodes with at most _BLOCK_ELEMENTS samples, and each block's partial
    entropies add up.
    """
    nodes, weights = _grid_nodes(grid)
    g = _components(spec, nodes)
    digits = np.unravel_index(ranks, (spec.m,) * spec.q)
    rows = max(1, _BLOCK_ELEMENTS // len(ranks))
    values = sum(
        _entropy_from_samples(_mixture_matrix(g[lo:lo + rows], digits), weights[lo:lo + rows])
        for lo in range(0, len(nodes), rows)
    )
    _check_floor(values, _sigma(spec))
    return values


def _standard_entropies(
    offsets: np.ndarray, shares: np.ndarray, nodes: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """-integral f ln f (nats) of the unit-variance mixtures
    f(u) = sum_j shares[d, j] phi(u - offsets[d, j]), one per row d, on the
    given nodes, walked in blocks of at most _BLOCK_ELEMENTS component samples.
    """
    shares = (shares / math.sqrt(2.0 * math.pi))[:, None, :]
    rows = max(1, _BLOCK_ELEMENTS // offsets.size)

    def block(lo: int) -> np.ndarray:
        # (mixture, component, node): the sum over components is one short
        # row times a long matrix per mixture.
        z = nodes[None, None, lo:lo + rows] - offsets[:, :, None]
        z *= z
        z *= -0.5
        np.exp(z, out=z)
        return _entropy_from_samples((shares @ z)[:, 0, :].T, weights[lo:lo + rows])

    return sum(block(lo) for lo in range(0, len(nodes), rows))


@dataclass(frozen=True, eq=False)
class _ClusterSplit:
    """Gaussian mixtures split into separated clusters (see _mixture_entropies).

    Cluster c belongs to mixture `row[c]` (every mixture has one at least)
    and carries its weight `mass[c]`; `shape[c]` indexes its offsets and
    renormalized weights among the distinct ones, or is -1 for a single
    Gaussian.
    """

    sigma: float
    row: np.ndarray
    mass: np.ndarray
    shape: np.ndarray
    offsets: np.ndarray  # (D, C), in sigmas from the lowest mean, 0-padded
    shares: np.ndarray  # (D, C), 0-padded
    panels: np.ndarray  # (D,)

    def _groups(self):
        """(panels, the distinct shapes on that many panels, their most components)."""
        sizes = np.count_nonzero(self.shares, axis=1)
        for panels in sorted(set(self.panels.tolist())):  # np.unique would import numpy.ma
            members = np.flatnonzero(self.panels == panels)
            yield panels, members, int(sizes[members].max())

    @property
    def work(self) -> int:
        """Density samples x components that integrating the distinct shapes takes."""
        return sum(_NODES_PER_PANEL * p * len(members) * c for p, members, c in self._groups())

    def entropies(self) -> np.ndarray:
        """One entropy in nats per mixture: sum_c W_c h_c + H(W)."""
        # Every cluster grid starts _WINDOW_SIGMAS below the lowest mean with
        # panels of _PANEL_SIGMAS, so each is a prefix of the longest one.
        most = int(self.panels.max(initial=1))
        lo = -_WINDOW_SIGMAS
        nodes, weights = _grid_nodes(QuadratureGrid(lo, lo + most * _PANEL_SIGMAS, most))
        distinct = np.empty(len(self.panels))
        for panels, members, c in self._groups():
            n = panels * _NODES_PER_PANEL
            distinct[members] = _standard_entropies(
                self.offsets[members, :c], self.shares[members, :c], nodes[:n], weights[:n]
            )
        if distinct.size:
            _check_floor(distinct + math.log(self.sigma), self.sigma)
        h = np.full(self.shape.size, _STANDARD_ENTROPY)
        spread = self.shape >= 0
        h[spread] = distinct[self.shape[spread]]
        terms = self.mass * (h - np.log(self.mass))
        return np.bincount(self.row, weights=terms) + math.log(self.sigma)


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `a` (exact float equality) and each row's index
    among them; one lexicographic sort, cheaper than np.unique(axis=0)."""
    order = np.lexsort(a.T)
    ranked = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(a), dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


def _cluster_split(means: np.ndarray, weights: np.ndarray, sigma: float) -> _ClusterSplit:
    """Split the mixtures sum_j weights[k, j] N(means[k, j], sigma^2), one per row k.

    Each row is sorted, its zero-weight components dropped, and cut wherever
    neighbouring means lie more than _SPLIT_SIGMAS sigmas apart.
    """
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if not (np.isfinite(means).all() and np.isfinite(weights).all()) or (weights < 0.0).any():
        raise ValueError("mixture means and weights must be finite, the weights nonnegative")
    live = weights > 0.0
    if not live.any(axis=1).all():
        raise ValueError("every mixture needs a component of positive weight")
    order = np.argsort(np.where(live, means, np.inf), axis=1, kind="stable")
    keep = np.take_along_axis(live, order, axis=1)  # each row's live prefix
    mu = np.take_along_axis(means, order, axis=1)[keep]
    w = np.take_along_axis(weights, order, axis=1)[keep]
    row = np.nonzero(keep)[0]
    first = np.ones(mu.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (np.diff(mu) > _SPLIT_SIGMAS * sigma)
    starts = np.flatnonzero(first)
    cluster = np.cumsum(first) - 1
    mass = np.add.reduceat(w, starts)
    pos = np.arange(mu.size) - starts[cluster]
    width = int(pos.max()) + 1
    keys = np.zeros((starts.size, 2, width))
    keys[cluster, 0, pos] = (mu - mu[starts][cluster]) / sigma
    keys[cluster, 1, pos] = w / mass[cluster]
    # A cluster whose means coincide is one Gaussian; the others are keyed
    # on their offsets and shares, 0-padded to a common width.
    spread = keys[:, 0].max(axis=1) > 0.0
    distinct, inverse = _unique_rows(keys[spread].reshape(-1, 2 * width))
    shape = np.full(starts.size, -1)
    shape[spread] = inverse
    offsets, shares = distinct[:, :width], distinct[:, width:]
    panels = _panels(offsets.max(axis=1) + 2 * _WINDOW_SIGMAS)
    return _ClusterSplit(sigma, row[starts], mass, shape, offsets, shares, panels)


def _mixture_entropies(means: np.ndarray, weights: np.ndarray, sigma: float) -> np.ndarray:
    """Entropies in nats of the mixtures sum_j weights[k, j] N(means[k, j], sigma^2).

    Clusters more than _SPLIT_SIGMAS sigmas apart overlap below e^-50, so a
    mixture with cluster weights W_c has entropy sum_c W_c h_c + H(W), where
    h_c is the entropy of cluster c renormalized. That is ln sigma plus a
    function of the cluster's offsets over sigma and renormalized weights:
    the Gaussian entropy for one component or coincident means, else an
    integral on a grid over [-10, span + 10] sigmas, computed once per
    distinct (offsets, weights) key however many mixtures share it.
    """
    return _cluster_split(means, weights, sigma).entropies()


def _default_entropies(spec: ChannelSpec, ranks: np.ndarray) -> np.ndarray:
    """h_t in nats for the symbols with the given flat ranks.

    The cluster split runs unless its distinct clusters take more than
    _SPLIT_WORK_RATIO times the samples x components of `_symbol_entropies`
    on the default grid (nodes x (symbols + MQ)); then that path runs. Few
    distinct clusters (structured constellations, high SNR) split; random
    constellations at low SNR, with nearly one cluster per symbol, do not.
    """
    sigma = _sigma(spec)
    letters = np.stack(np.unravel_index(ranks, (spec.m,) * spec.q), axis=-1)
    means = np.asarray(spec.constellation)[letters] + np.asarray(spec.interference_levels)
    split = _cluster_split(means, np.broadcast_to(spec.interference_probs, means.shape), sigma)
    lo, hi = _window(spec)
    nodes = _NODES_PER_PANEL * _panels((hi - lo) / sigma)
    if split.work > _SPLIT_WORK_RATIO * nodes * (len(ranks) + spec.m * spec.q):
        return _symbol_entropies(spec, quadrature_grid(spec), ranks)
    return split.entropies()


def cost_tensor(spec: ChannelSpec) -> CostTensor:
    """Differential entropy of the output for every associated symbol."""
    values = _default_entropies(spec, np.arange(spec.num_symbols))
    return CostTensor(values.reshape((spec.m,) * spec.q))


def output_entropy(marginals: MarginalSet, spec: ChannelSpec) -> float:
    """h(Y) in nats for inputs with the given per-state marginals.

    The MQ-component output mixture goes through the cluster split, which
    never integrates more than the default grid would.
    """
    if marginals.m != spec.m or marginals.q != spec.q:
        raise ValueError("marginal shape does not match the channel spec")
    means = np.add.outer(spec.interference_levels, spec.constellation).reshape(1, -1)
    weights = (np.asarray(spec.interference_probs)[:, None] * marginals.per_state).reshape(1, -1)
    return float(_mixture_entropies(means, weights, _sigma(spec))[0])


def mutual_information(p: JointPmf, spec: ChannelSpec, costs: CostTensor | None = None) -> float:
    """I(T;Y) = h(Y) - sum_t p(t) h_t in bits, for input distribution p.

    h(Y) is computed from the per-state marginals of p. h_t is read from
    `costs` when given, else evaluated for the support of p only.
    """
    if p.m != spec.m or p.q != spec.q:
        raise ValueError("pmf shape does not match the channel spec")
    if costs is None:
        support = np.flatnonzero(p.probs)
        h_cond = np.dot(p.probs[support], _default_entropies(spec, support))
    else:
        h_cond = np.dot(p.probs, costs.values.reshape(-1))
    h_y = output_entropy(marginals_of(p), spec)
    return (h_y - float(h_cond)) / LN2
