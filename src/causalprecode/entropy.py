"""Differential entropies and mutual information for the associated channel.

Given an associated symbol t = (i_1, ..., i_Q), the channel output density is
the Gaussian mixture sum_j r_j phi(y - x_{i_j} - s_j; P_N). This module
evaluates that likelihood, the output density induced by per-state marginals,
the tensor of conditional differential entropies h_{i_1...i_Q}, and
I(T;Y) = h(Y) - sum_t p(t) h_t. Every density is a sum over one component
table r_j phi(y - x_i - s_j), and every entropy one weighted reduction of
density samples.

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
    nodes_per_panel: int = 32

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError("grid needs lo < hi")
        if self.panels < 1 or self.nodes_per_panel < 1:
            raise ValueError("grid needs panels >= 1 and nodes_per_panel >= 1")


@functools.lru_cache(maxsize=64)
def _grid_nodes(grid: QuadratureGrid) -> tuple[np.ndarray, np.ndarray]:
    """Flat (nodes, weights) arrays for a composite grid, fixed panel order."""
    ref_x, ref_w = leggauss(grid.nodes_per_panel)
    edges = np.linspace(grid.lo, grid.hi, grid.panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * ref_x[None, :]).reshape(-1)
    weights = (half[:, None] * ref_w[None, :]).reshape(-1)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


def quadrature_grid(spec: ChannelSpec, nodes_per_panel: int = 32) -> QuadratureGrid:
    """Default grid for a spec: panels of width sigma/2 from the extreme means
    widened by 10 noise sigmas."""
    sigma = _sigma(spec)
    lo = min(spec.constellation) + min(spec.interference_levels) - _WINDOW_SIGMAS * sigma
    hi = max(spec.constellation) + max(spec.interference_levels) + _WINDOW_SIGMAS * sigma
    panels = max(1, math.ceil((hi - lo) / (sigma / 2.0)))
    return QuadratureGrid(lo, hi, panels, nodes_per_panel)


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
    # A mixture's entropy is at least its component entropy; falling below
    # it means the grid does not cover the densities.
    floor = gaussian_entropy(spec.noise_power)
    if values.min() < floor - 1e-9:
        raise ValueError(
            f"cost tensor entry {values.min():.6g} below the Gaussian floor "
            f"{floor:.6g}; the quadrature grid does not cover the output"
        )
    return values


def cost_tensor(spec: ChannelSpec, grid: QuadratureGrid | None = None) -> CostTensor:
    """Differential entropy of the output for every associated symbol."""
    if grid is None:
        grid = quadrature_grid(spec)
    values = _symbol_entropies(spec, grid, np.arange(spec.num_symbols))
    return CostTensor(values.reshape((spec.m,) * spec.q))


def output_entropy(
    marginals: MarginalSet, spec: ChannelSpec, grid: QuadratureGrid
) -> float:
    """h(Y) in nats for inputs with the given per-state marginals."""
    nodes, weights = _grid_nodes(grid)
    return float(_entropy_from_samples(output_pdf(marginals, nodes, spec), weights))


def mutual_information(
    p: JointPmf,
    spec: ChannelSpec,
    grid: QuadratureGrid | None = None,
    costs: CostTensor | None = None,
) -> float:
    """I(T;Y) = h(Y) - sum_t p(t) h_t in bits, for input distribution p.

    h(Y) is computed from the per-state marginals of p. h_t is read from
    `costs` when given, else evaluated on `grid` for the support of p only.
    """
    if p.m != spec.m or p.q != spec.q:
        raise ValueError("pmf shape does not match the channel spec")
    if grid is None:
        grid = quadrature_grid(spec)
    if costs is None:
        support = np.flatnonzero(p.probs)
        h_cond = np.dot(p.probs[support], _symbol_entropies(spec, grid, support))
    else:
        h_cond = np.dot(p.probs, costs.values.reshape(-1))
    h_y = output_entropy(marginals_of(p), spec, grid)
    return (h_y - float(h_cond)) / LN2
