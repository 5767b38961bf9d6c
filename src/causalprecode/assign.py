"""Integrality-constrained uniform transmission.

Forcing the joint pmf to put weight exactly 1/M on exactly M associated
symbols turns the uniform-transmission LP into an axial Q-index assignment
problem; Q = 2 is its bipartite case. One exact search serves every Q: a
lower bound that projects the costs onto one later coordinate at a time and
takes the Hungarian value of each projection (Pierskalla 1968; Balas and
Saltzman 1991), exact for Q = 2, gives the optimum directly for Q <= 2 and
prunes a branch and bound otherwise. A lexicographic depth-first pass under
the same bound then returns the lexicographically smallest tuple sequence
within 1e-9 (relative) of the optimum, so outputs are stable for
regression tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import entropy as _entropy
from .model import (
    AssociatedSymbol,
    BudgetExceededError,
    ChannelSpec,
    PrecoderCode,
    code_pmf,
)
from .entropy import CostTensor

# Exact-search budget for Q != 2.
_MAX_M = 8
_MAX_Q = 4


@dataclass(frozen=True, eq=False)
class Assignment:
    """M coordinate-disjoint symbols: each index 1..M used once per position."""

    tuples: tuple[AssociatedSymbol, ...]
    total_cost: float

    def __post_init__(self) -> None:
        tuples = tuple(tuple(int(i) for i in t) for t in self.tuples)
        m = len(tuples)
        if m == 0 or any(len(t) != len(tuples[0]) for t in tuples):
            raise ValueError("assignment needs M equal-length tuples")
        for pos in range(len(tuples[0])):
            if sorted(t[pos] for t in tuples) != list(range(1, m + 1)):
                raise ValueError(
                    f"coordinate {pos + 1} does not use every index 1..{m} exactly once"
                )
        object.__setattr__(self, "tuples", tuples)

    @property
    def m(self) -> int:
        return len(self.tuples)

    @property
    def q(self) -> int:
        return len(self.tuples[0])

    def code(self) -> PrecoderCode:
        return PrecoderCode(self.tuples)


def _hungarian_value(cost: np.ndarray) -> float:
    """Minimum cost of a perfect matching, O(n^3) with potentials."""
    n = cost.shape[0]
    if n == 0:
        return 0.0
    cost = cost.tolist()  # nested floats: no NumPy row view and scalar per lookup
    inf = math.inf
    u = [0.0] * (n + 1)
    v = [0.0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row assigned to column j (1-based, 0 = none)
    for row in range(1, n + 1):
        match[0] = row
        j0 = 0
        min_to = [inf] * (n + 1)
        prev = [0] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = inf
            j1 = -1
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = cost[i0 - 1][j - 1] - u[i0] - v[j]
                if cur < min_to[j]:
                    min_to[j] = cur
                    prev[j] = j0
                if min_to[j] < delta:
                    delta = min_to[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    min_to[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = prev[j0]
            match[j0] = match[j1]
            j0 = j1
    return math.fsum(cost[match[j] - 1][j - 1] for j in range(1, n + 1))


def _without(avail: list[list[int]], combo: tuple[int, ...]) -> list[list[int]]:
    """The free indices per later coordinate once `combo` takes its own."""
    return [[i for i in free if i != c] for free, c in zip(avail, combo)]


def _bound(values: np.ndarray, row: int, avail: list[list[int]]) -> float:
    """Lower bound on completing rows `row`.. from the free indices `avail`.

    For each later coordinate k, the costs minimized over the other later
    coordinates leave a matrix of rows by k-indices whose Hungarian value
    bounds every completion; the bound is the largest of these (exact for
    Q <= 2, valid for costs of either sign). For Q = 1 it is the sum of the
    remaining entries.
    """
    if row == values.shape[0]:
        return 0.0
    sub = values[np.ix_(range(row, values.shape[0]), *avail)]
    if sub.ndim == 1:
        return math.fsum(sub.tolist())
    later = range(1, sub.ndim)
    return max(
        _hungarian_value(sub.min(axis=tuple(a for a in later if a != k))) for k in later
    )


def _bnb_search(
    values: np.ndarray, row: int, avail: list[list[int]], prefix: float, best: float
) -> float:
    """The least total of a completion from `row` below `best`, else `best`:
    depth first, children by ascending cost, pruned by `_bound`."""
    if row == values.shape[0]:
        return prefix
    for inc, combo in sorted(
        (float(values[(row, *combo)]), combo) for combo in itertools.product(*avail)
    ):
        sub_avail = _without(avail, combo)
        if prefix + inc + _bound(values, row + 1, sub_avail) < best:
            best = _bnb_search(values, row + 1, sub_avail, prefix + inc, best)
    return best


def check_budget(m: int, q: int) -> None:
    """Raise BudgetExceededError if `multidim_assignment` cannot take an M, Q
    instance: Q = 2 has no budget, any other Q needs M <= 8 and Q <= 4."""
    if q != 2 and (m > _MAX_M or q > _MAX_Q):
        raise BudgetExceededError(
            f"instance too large for exact solver (M={m}, Q={q}; "
            f"beyond the budget of M<={_MAX_M}, Q<={_MAX_Q})"
        )


def multidim_assignment(costs: CostTensor) -> Assignment:
    """Exact minimum-cost axial assignment of a (M,)*Q cost tensor, any Q.

    The optimum is the root `_bound` for Q <= 2 and a branch and bound
    otherwise. Then one lexicographic depth-first pass fixes first
    coordinates 1..M in order, each to the first index combination whose
    cost plus the bound on the rest stays within 1e-9 (relative) of the
    optimum (an exact `math.fsum` of the chosen costs, that cost and the
    bound), backtracking where the bound was not tight: ties resolve to the
    lexicographically smallest tuple sequence. Raises BudgetExceededError
    as `check_budget` does.
    """
    values = costs.values
    n, q = values.shape[0], values.ndim
    check_budget(n, q)
    full = [list(range(n)) for _ in range(q - 1)]
    best = _bound(values, 0, full) if q <= 2 else _bnb_search(values, 0, full, 0.0, math.inf)
    limit = best + 1e-9 * max(1.0, abs(best))
    # Frame per open row: its untried combinations and free indices.
    stack = [(itertools.product(*full), full)]
    chosen: list[tuple[int, ...]] = []
    chosen_costs: list[float] = []
    while len(chosen) < n:
        combos, avail = stack[-1]
        row = len(chosen)
        for combo in combos:
            inc = float(values[(row, *combo)])
            sub_avail = _without(avail, combo)
            # fsum: costs that cancel at large magnitude must not round the test away
            if math.fsum([*chosen_costs, inc, _bound(values, row + 1, sub_avail)]) <= limit:
                chosen.append(combo)
                chosen_costs.append(inc)
                stack.append((itertools.product(*sub_avail), sub_avail))
                break
        else:
            stack.pop()
            if not chosen:  # pragma: no cover - would indicate a solver bug
                raise RuntimeError("no assignment within the optimum's tolerance")
            chosen.pop()
            chosen_costs.pop()
    tuples = tuple((row + 1, *(i + 1 for i in combo)) for row, combo in enumerate(chosen))
    return Assignment(tuples=tuples, total_cost=math.fsum(chosen_costs))


def assignment_rate(a: Assignment, spec: ChannelSpec, costs: CostTensor | None = None) -> float:
    """Mutual information (bits) of the pmf placing 1/M on each tuple of `a`.

    Rates `a.tuples`, not `a.total_cost`; h_t comes from `costs` when given.
    """
    return _entropy.mutual_information(code_pmf(a.code(), spec.m), spec, costs=costs)
