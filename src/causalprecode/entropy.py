"""Differential entropies and mutual information for the associated channel.

Given an associated symbol t = (i_1, ..., i_Q), the channel output density is
the Gaussian mixture sum_j r_j phi(y - x_{i_j} - s_j; P_N). This module
computes the entropy h(Y) of the output induced by per-state marginals,
the tensor of conditional differential entropies h_{i_1...i_Q}, and
I(T;Y) = h(Y) - sum_t p(t) h_t. `cost_tensor` is the only function that
evaluates h_t, always for every symbol; `mutual_information` and the
solvers take its tensor. `output_entropies` is the only function that
integrates h(Y), for many specs at once (a sweep's points, which differ only
in sigma); `output_entropy` is its one-spec case.

Mixture entropies go through one kernel, `_mixture_entropies`: each
mixture is split where neighbouring means lie more than 20 of its sigmas
apart, and h = sum_c W_c h_c + H(W) + ln sigma over its clusters. A
cluster's h_c, in sigma units, is closed form for a single Gaussian, and
otherwise an integral computed once per distinct cluster shape, however
many mixtures or sigmas share it, so the cost does not grow with SNR. The
capacity solver's output grid, `_output_grid`, is cut the same way: the MQ
output means split into clusters, each on its own panels in sigma units.
Every panel is one sigma wide and carries 16 Gauss-Legendre nodes, a rule
chosen by a scan against 64 nodes per sigma/2 (see _NODES_PER_PANEL). The
rule's nodes and weights on [-1, 1] are read-only module arrays, computed
once at import. No function takes a grid.

All internal entropies are in nats; conversion to bits happens only at API
boundaries.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .model import (AssociatedSymbol, ChannelSpec, JointPmf, MarginalSet,
                    check_symbol_budget, marginals_of)

LN2 = math.log(2.0)

# Added to density samples before the log: 0 ln 0 = 0, and samples below it
# contribute less than 1e-297 to the entropy integrand.
_PDF_FLOOR = 1e-300

# Integration window extends this many noise sigmas beyond the extreme means.
_WINDOW_SIGMAS = 10.0

# Neighbouring means further apart than this many noise sigmas split a
# mixture into clusters whose windows do not overlap (overlap below e^-50).
_SPLIT_SIGMAS = 2 * _WINDOW_SIGMAS

# Every grid is made of panels this many noise sigmas wide, each with a
# Gauss-Legendre rule of this many nodes. The scan in tests/test_entropy.py
# finds this rule within 2e-14 nats of 64 nodes per sigma/2, at round-off,
# and 12 nodes per sigma (or 6 per sigma/2) beyond that bound.
_PANEL_SIGMAS = 1.0
_NODES_PER_PANEL = 16

# That rule's nodes and weights on [-1, 1], once per process.
_RULE_NODES, _RULE_WEIGHTS = leggauss(_NODES_PER_PANEL)
_RULE_NODES.flags.writeable = False
_RULE_WEIGHTS.flags.writeable = False

# Entropy of a unit-variance Gaussian, (1/2) ln(2 pi e), in nats.
_STANDARD_ENTROPY = 0.5 * math.log(2.0 * math.pi * math.e)

# Density samples integrated at once: a block of mixtures x panels x
# max(components, nodes per panel) stays within this many float64 elements
# (512 kB), so it stays in L2 cache from the exps through the log to the
# product with the weights.
_BLOCK_ELEMENTS = 1 << 16

# Output-mixture components per stacked call of `output_entropies`. Over
# two runs, the h(Y) of a 66-point sweep (-5:60:1 dB) of random 128/2 took
# 58-59 ms one point per call, 55-56 ms at 2^10 components (4 points) per
# call, 67-94 ms at 2^12 and 81-127 ms in one call, which pads every
# distinct cluster to the most components any cluster has; binary took
# 5.9-7.3 ms one point per call and 0.45-0.55 ms at 2^10 (all 66). Intel
# Xeon (2-core shared VM), numpy 2.4, one BLAS thread.
_STACK_COMPONENTS = 1 << 10

# Largest exponent of the middle factor in `_standard_entropies`; e^700 is
# finite, and wherever the cap binds the first factor is exactly 0.
_EXP_CAP = 700.0

# First factors of `_standard_entropies` with exponents below this are
# written as 0 by a mask: numpy's exp takes a slow path from about -708 down
# (15x slower at -1000 on numpy 2.4). The panel then lies over 37.4 sigmas
# from the component, which adds below 1e-296 to the density at its nodes.
_EXP_FLOOR = -700.0


def gaussian_entropy(variance: float) -> float:
    """Differential entropy of a Gaussian, (1/2) ln(2 pi e variance), in nats."""
    if variance <= 0.0:
        raise ValueError("variance must be positive")
    return 0.5 * math.log(2.0 * math.pi * math.e * variance)


def _panels(width: np.ndarray) -> np.ndarray:
    """Panels of _PANEL_SIGMAS covering windows `width` sigmas wide. A
    cluster is at most _SPLIT_SIGMAS a mean wide, so the count fits an int."""
    return np.ceil(np.divide(width, _PANEL_SIGMAS)).astype(int)


def _sigma(spec: ChannelSpec) -> float:
    if spec.noise_power <= 0.0:
        raise ValueError("degenerate noise; use the noisefree module")
    return math.sqrt(spec.noise_power)


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


def _check_floor(values: np.ndarray) -> None:
    """A mixture's entropy is at least its component entropy; falling below
    it means the grid does not cover the densities. `values` are entropies
    of unit-variance mixtures, so the floor is that of every sigma."""
    if values.min() < _STANDARD_ENTROPY - 1e-9:
        raise ValueError(
            f"entropy {values.min():.6g} below the Gaussian floor "
            f"{_STANDARD_ENTROPY:.6g} (unit noise variance); the quadrature grid "
            f"does not cover the density"
        )


def _standard_entropies(offsets: np.ndarray, shares: np.ndarray, panels: np.ndarray) -> np.ndarray:
    """-integral f ln f (nats) of the unit-variance mixtures
    f(u) = sum_j shares[d, j] phi(u - offsets[d, j]), one per row d, each on
    its own `panels[d]` panels of _PANEL_SIGMAS from -_WINDOW_SIGMAS on.

    A node is u = c_p + r_k, with c_p its panel's centre and r_k one of the
    reference nodes scaled to the panel. With c_0 the first centre of a
    block of panels, each Gaussian factors as
        phi(u - o) ~ exp(-(c_p - o)^2 / 2) exp((o - c_0) r_k) exp(-(c_p - c_0) r_k - r_k^2 / 2),
    so a block takes one exp per panel and component, one per component and
    reference node, and one (panel, node) table shared by all its mixtures;
    the densities are then one batched matrix product. First factors with
    exponents below _EXP_FLOOR are masked to 0, so a component is live only
    within d = sqrt(-2 _EXP_FLOOR) = 37.4 sigmas of a centre. The middle
    exponent is capped at _EXP_CAP, which never binds on a live component:
    a block spans at most min(20 C, _PANEL_SIGMAS _BLOCK_ELEMENTS / max(C,
    nodes)) sigmas for C components (a cluster's neighbouring means are at
    most 20 sigmas apart), so a live middle exponent is at most
    (span + d) * _PANEL_SIGMAS / 2: 588 at C = 57, the worst case of 16
    nodes per 1-sigma panel. Rows go longest first into blocks of whole
    panels, rows x panels x max(components, nodes) at most _BLOCK_ELEMENTS;
    a row's panels beyond its own grid are masked out.
    """
    half = 0.5 * _PANEL_SIGMAS
    r, weights = half * _RULE_NODES, half * _RULE_WEIGHTS
    width = max(offsets.shape[1], r.size)
    shares = shares / math.sqrt(2.0 * math.pi)
    order = np.argsort(-panels, kind="stable")
    h = np.zeros(len(order))
    start = 0
    while start < len(order):
        most = int(panels[order[start]])
        step = max(1, min(most, _BLOCK_ELEMENTS // width))
        rows = order[start:start + max(1, _BLOCK_ELEMENTS // (step * width))]
        start += len(rows)
        o, w, ends = offsets[rows, :, None], shares[rows, :, None], panels[rows, None]
        for lo in range(0, most, step):
            index = np.arange(lo, min(lo + step, most))
            c = -_WINDOW_SIGMAS + half + _PANEL_SIGMAS * index
            first = o - c  # (row, component, panel): long inner loops over panels
            first *= first
            first *= -0.5
            live = (index < ends)[:, None, :]
            if first.min() < _EXP_FLOOR:  # only long clusters pay for the mask
                live = live & (first >= _EXP_FLOOR)
                np.maximum(first, _EXP_FLOOR, out=first)
            np.exp(first, out=first)
            first *= live
            middle = (o - c[0]) * r  # (row, component, node)
            np.minimum(middle, _EXP_CAP, out=middle)
            np.exp(middle, out=middle)
            middle *= w
            last = np.outer(c - c[0], r)
            last += 0.5 * r * r
            dens = first.transpose(0, 2, 1) @ middle
            dens *= np.exp(-last, out=last)
            samples = dens.reshape(len(rows), -1).T  # (node, row)
            h[rows] += _entropy_from_samples(samples, np.tile(weights, len(c)))
    return h


@dataclass(frozen=True, eq=False)
class _ClusterSplit:
    """Gaussian mixtures split into separated clusters (see _mixture_entropies).

    Cluster c belongs to mixture `row[c]` (every mixture has one at least)
    and carries its weight `mass[c]`; `shape[c]` indexes its offsets, in
    its mixture's sigmas, and renormalized weights among the distinct ones,
    or is -1 for a single Gaussian. Clusters of different sigmas share a
    distinct shape.
    """

    log_sigma: float | np.ndarray  # ln sigma, for all mixtures or one per mixture
    row: np.ndarray
    mass: np.ndarray
    shape: np.ndarray
    offsets: np.ndarray  # (D, C), in sigmas from the lowest mean, 0-padded
    shares: np.ndarray  # (D, C), 0-padded
    panels: np.ndarray  # (D,)

    def entropies(self) -> np.ndarray:
        """One entropy in nats per mixture: sum_c W_c h_c + H(W) + ln sigma."""
        distinct = _standard_entropies(self.offsets, self.shares, self.panels)
        if distinct.size:
            _check_floor(distinct)
        h = np.full(self.shape.size, _STANDARD_ENTROPY)
        spread = self.shape >= 0
        h[spread] = distinct[self.shape[spread]]
        terms = self.mass * (h - np.log(self.mass))
        return np.bincount(self.row, weights=terms) + self.log_sigma


def _unique_rows(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of `a` (exact float equality) and each row's index
    among them; one lexicographic sort, cheaper than np.unique(axis=0)."""
    if len(a) < 2:  # a single output mixture's one spread cluster: no sort
        return a, np.zeros(len(a), dtype=int)
    order = np.lexsort(a.T)
    ranked = a[order]
    new = np.ones(len(a), dtype=bool)
    new[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    inverse = np.empty(len(a), dtype=int)
    inverse[order] = np.cumsum(new) - 1
    return ranked[new], inverse


def _cluster_split(means: np.ndarray, weights: np.ndarray,
                   sigma: float | np.ndarray) -> _ClusterSplit:
    """Split the mixtures sum_j weights[k, j] N(means[k, j], sigma[k]^2), one per row k.

    `sigma` holds one noise sigma per row, or is a scalar for every row.
    Each row is sorted, its zero-weight components dropped, and cut wherever
    neighbouring means lie more than _SPLIT_SIGMAS of its sigmas apart.
    ln sigma is one math.log per sigma given, the same bits for a sigma
    given alone as a scalar or in an array.
    """
    means = np.asarray(means, dtype=float)
    weights = np.asarray(weights, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.ndim and sigma.shape != means.shape[:1]:
        raise ValueError("give one sigma per mixture, or one for all")
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
    scale = sigma[row] if sigma.ndim else sigma  # per component, or one for all
    gap = _SPLIT_SIGMAS * scale
    first = np.ones(mu.size, dtype=bool)
    first[1:] = (row[1:] != row[:-1]) | (mu[1:] - mu[:-1] > (gap[1:] if sigma.ndim else gap))
    starts = np.flatnonzero(first)
    cluster = np.cumsum(first) - 1
    mass = np.add.reduceat(w, starts)
    pos = np.arange(mu.size) - starts[cluster]
    width = int(pos.max()) + 1
    keys = np.zeros((starts.size, 2, width))
    keys[cluster, 0, pos] = (mu - mu[starts][cluster]) / scale
    keys[cluster, 1, pos] = w / mass[cluster]
    # A cluster whose means coincide is one Gaussian; the others are keyed
    # on their offsets and shares, 0-padded to a common width.
    spread = keys[:, 0].max(axis=1) > 0.0
    distinct, inverse = _unique_rows(keys[spread].reshape(-1, 2 * width))
    shape = np.full(starts.size, -1)
    shape[spread] = inverse
    offsets, shares = distinct[:, :width], distinct[:, width:]
    panels = _panels(offsets.max(axis=1) + 2 * _WINDOW_SIGMAS)
    log_sigma = np.array([math.log(v) for v in sigma.tolist()]) if sigma.ndim else math.log(sigma)
    return _ClusterSplit(log_sigma, row[starts], mass, shape, offsets, shares, panels)


def _mixture_entropies(means: np.ndarray, weights: np.ndarray,
                       sigma: float | np.ndarray) -> np.ndarray:
    """Entropies in nats of the mixtures sum_j weights[k, j] N(means[k, j], sigma[k]^2),
    with one sigma per row or a scalar for all.

    Clusters more than _SPLIT_SIGMAS sigmas apart overlap below e^-50, so a
    mixture with cluster weights W_c has entropy sum_c W_c h_c + H(W), where
    h_c is the entropy of cluster c renormalized. That is ln sigma plus a
    function of the cluster's offsets over sigma and renormalized weights:
    the Gaussian entropy for one component or coincident means, else an
    integral on a grid over [-10, span + 10] sigmas, computed once per
    distinct (offsets, weights) key however many mixtures share it.
    """
    return _cluster_split(means, weights, sigma).entropies()


def _output_clusters(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The MQ output means x_i + s_j (letter-major), every one of them, cut
    into clusters as `_cluster_split` cuts a mixture. Returns the means, each
    cluster's lowest mean, and its panels of _PANEL_SIGMAS from
    _WINDOW_SIGMAS below that mean to _WINDOW_SIGMAS beyond its highest."""
    sigma = _sigma(spec)
    means = np.add.outer(spec.constellation, spec.interference_levels).reshape(-1)
    ordered = np.sort(means)
    first = np.ones(ordered.size, dtype=bool)
    first[1:] = np.diff(ordered) > _SPLIT_SIGMAS * sigma
    lowest = ordered[first]
    highest = ordered[np.append(first[1:], True)]
    return means, lowest, _panels((highest - lowest) / sigma + 2 * _WINDOW_SIGMAS)


def _output_grid(spec: ChannelSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The output grid of the capacity solver: the panels of
    `_output_clusters`, each with the Gauss-Legendre rule, in sigma units.

    Returns every node's position in sigmas from its cluster's lowest mean,
    its weight, its cluster, and the (cluster, MQ) offsets in sigmas of
    every mean from each cluster's lowest. A node never sits at its absolute
    position, lowest mean + sigma * position: at high SNR that sum rounds
    sigma away.
    """
    means, lowest, panels = _output_clusters(spec)
    half = 0.5 * _PANEL_SIGMAS
    cluster = np.repeat(np.arange(panels.size), panels)
    index = np.arange(cluster.size) - np.repeat(np.cumsum(panels) - panels, panels)
    centres = -_WINDOW_SIGMAS + half + _PANEL_SIGMAS * index
    nodes = (centres[:, None] + half * _RULE_NODES).reshape(-1)
    weights = np.tile(half * _RULE_WEIGHTS, cluster.size)
    offsets = (means - lowest[:, None]) / _sigma(spec)
    return nodes, weights, np.repeat(cluster, _NODES_PER_PANEL), offsets


def cost_tensor(spec: ChannelSpec) -> CostTensor:
    """Differential entropy of the output for every associated symbol.

    Symbol t's mixture has means x_{i_j} + s_j and weights r_j; all M^Q
    mixtures go through the cluster split, so each distinct cluster shape
    is integrated once, on its own grid. Raises BudgetExceededError beyond
    the dense-storage cap (`model.check_symbol_budget`).
    """
    check_symbol_budget(spec)
    sigma = _sigma(spec)
    shape = (spec.m,) * spec.q
    letters = np.stack(np.unravel_index(np.arange(spec.num_symbols), shape), axis=-1)
    means = np.asarray(spec.constellation)[letters] + np.asarray(spec.interference_levels)
    weights = np.broadcast_to(spec.interference_probs, means.shape)
    return CostTensor(_mixture_entropies(means, weights, sigma).reshape(shape))


def output_entropies(marginals: MarginalSet, specs: Sequence[ChannelSpec]) -> np.ndarray:
    """h(Y) in nats under each spec, for inputs with the given per-state marginals.

    Each spec's MQ-component output mixture is one row of the cluster split,
    with its own sigma; the rows go through it in stacked calls of at most
    _STACK_COMPONENTS components, so the specs share one call's set-up and
    their distinct cluster shapes.
    """
    if any(marginals.m != spec.m or marginals.q != spec.q for spec in specs):
        raise ValueError("marginal shape does not match the channel spec")
    k = len(specs)
    levels = np.array([spec.interference_levels for spec in specs])[:, :, None]
    means = (levels + np.array([spec.constellation for spec in specs])[:, None, :]).reshape(k, -1)
    probs = np.array([spec.interference_probs for spec in specs])[:, :, None]
    weights = (probs * marginals.per_state).reshape(k, -1)
    sigma = np.array([_sigma(spec) for spec in specs])
    step = max(1, _STACK_COMPONENTS // (marginals.m * marginals.q))
    h = np.empty(k)
    for lo in range(0, k, step):
        rows = slice(lo, lo + step)
        h[rows] = _mixture_entropies(means[rows], weights[rows], sigma[rows])
    return h


def output_entropy(marginals: MarginalSet, spec: ChannelSpec) -> float:
    """h(Y) in nats for inputs with the given per-state marginals: the
    one-spec case of `output_entropies`."""
    return float(output_entropies(marginals, [spec])[0])


def mutual_information(p: JointPmf, spec: ChannelSpec, costs: CostTensor) -> float:
    """I(T;Y) = h(Y) - sum_t p(t) h_t in bits, for input distribution p.

    h(Y) is computed from the per-state marginals of p, and h_t is read from
    `costs`, the cost tensor of `spec`. Raises ValueError if p or costs does
    not have the spec's M and Q.
    """
    if p.m != spec.m or p.q != spec.q:
        raise ValueError("pmf shape does not match the channel spec")
    if (costs.m, costs.q) != (spec.m, spec.q):
        raise ValueError("cost tensor shape does not match the channel spec")
    h_cond = np.dot(p.probs, costs.values.reshape(-1))
    h_y = output_entropy(marginals_of(p), spec)
    return (h_y - float(h_cond)) / LN2
