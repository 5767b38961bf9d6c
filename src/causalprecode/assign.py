"""Integrality-constrained uniform transmission.

Forcing the joint pmf to put weight exactly 1/M on exactly M associated
symbols turns the uniform-transmission LP into an assignment problem: a
minimum-cost perfect matching for Q = 2 (Hungarian method), and an exact
axial multidimensional assignment (branch and bound) for general Q.

Both solvers break cost ties by returning the lexicographically smallest
tuple sequence, so outputs are stable for regression tests.
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

# Exact-search budget for the multidimensional solver.
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


def _as_array(cost) -> np.ndarray:
    values = cost.values if isinstance(cost, CostTensor) else np.asarray(cost, float)
    if not np.all(np.isfinite(values)):
        raise ValueError("assignment costs must be finite")
    return values


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


def _lexicographic_assignment(values: np.ndarray, best: float, completes) -> Assignment:
    """The lexicographically smallest assignment whose total is within
    1e-9 (relative) of the optimum `best`.

    Rows are fixed in order, each to the first index combination after which
    `completes(row, avail, slack)` confirms that rows `row`.. can still be
    assigned from the per-coordinate free indices `avail` at cost <= slack.
    """
    n = values.shape[0]
    limit = best + 1e-9 * max(1.0, abs(best))
    avail = [list(range(n)) for _ in range(values.ndim - 1)]
    chosen: list[tuple[int, ...]] = []
    fixed_cost = 0.0
    for row in range(n):
        for combo in itertools.product(*avail):
            inc = float(values[(row, *combo)])
            sub_avail = [
                [i for i in avail[pos] if i != combo[pos]] for pos in range(len(avail))
            ]
            if completes(row + 1, sub_avail, limit - fixed_cost - inc):
                chosen.append(combo)
                fixed_cost += inc
                avail = sub_avail
                break
        else:  # pragma: no cover - would indicate a solver bug
            raise RuntimeError("no consistent choice found while fixing the assignment")
    tuples = tuple((row + 1, *(i + 1 for i in combo)) for row, combo in enumerate(chosen))
    total = math.fsum(float(values[tuple(i - 1 for i in t)]) for t in tuples)
    return Assignment(tuples=tuples, total_cost=total)


def hungarian(cost) -> Assignment:
    """Minimum-cost perfect matching on K_{M,M}.

    Rows are first coordinates, columns second; ties in total cost resolve
    to the lexicographically smallest matching.
    """
    values = _as_array(cost)
    if values.ndim != 2 or values.shape[0] != values.shape[1]:
        raise ValueError("hungarian needs a square cost matrix")
    n = values.shape[0]
    return _lexicographic_assignment(
        values,
        _hungarian_value(values),
        lambda row, avail, slack: (
            _hungarian_value(values[np.ix_(range(row, n), avail[0])]) <= slack
        ),
    )


def _row_lower_bound(values: np.ndarray, row: int, avail: list[list[int]]) -> float:
    """Cheapest completion of `row` ignoring cross-row conflicts."""
    return float(values[row][np.ix_(*avail)].min()) if avail else float(values[row])


def _bnb_search(
    values: np.ndarray,
    row: int,
    avail: list[list[int]],
    prefix: float,
    best: float,
    stop_below: float,
) -> float:
    """Depth-first min over completions from `row`; prunes against `best`.

    Returns the best completed total found (or the incoming `best` if the
    subtree cannot improve it). Bails out early once a total <= `stop_below`
    is known, which turns the search into a decision procedure.
    """
    n = values.shape[0]
    if row == n:
        return prefix
    children = []
    for combo in itertools.product(*avail):
        children.append((float(values[(row, *combo)]), combo))
    children.sort()
    for inc, combo in children:
        node_cost = prefix + inc
        sub_avail = [
            [i for i in avail[pos] if i != combo[pos]] for pos in range(len(avail))
        ]
        bound = node_cost
        for later in range(row + 1, n):
            bound += _row_lower_bound(values, later, sub_avail)
        if bound >= best:
            continue
        best = _bnb_search(values, row + 1, sub_avail, node_cost, best, stop_below)
        if best <= stop_below:
            return best
    return best


def _check_search_budget(m: int, q: int) -> None:
    if m > _MAX_M or q > _MAX_Q:
        raise BudgetExceededError(
            f"instance too large for exact solver (M={m}, Q={q}; "
            f"beyond the budget of M<={_MAX_M}, Q<={_MAX_Q})"
        )


def check_budget(m: int, q: int) -> None:
    """Raise BudgetExceededError if `assign` cannot take an M, Q instance.

    Q = 2 goes to the Hungarian method, which has no budget; any other Q to
    the exact search, which takes M <= 8 and Q <= 4.
    """
    if q != 2:
        _check_search_budget(m, q)


def multidim_assignment(cost) -> Assignment:
    """Exact minimum-cost axial assignment for a (M,)*Q cost tensor.

    Branch and bound fixing first coordinates 1..M in order, children by
    ascending incremental cost, bounding with per-row minima; ties resolve to
    the lexicographically smallest tuple sequence. Raises BudgetExceededError
    beyond M = 8 or Q = 4.
    """
    values = _as_array(cost)
    n = values.shape[0]
    q = values.ndim
    _check_search_budget(n, q)
    if q == 1:
        return Assignment(
            tuples=tuple((i,) for i in range(1, n + 1)),
            total_cost=math.fsum(float(v) for v in values),
        )
    full = [list(range(n)) for _ in range(q - 1)]
    # Decision query: a completion with total <= slack exists.
    return _lexicographic_assignment(
        values,
        _bnb_search(values, 0, full, 0.0, math.inf, -math.inf),
        lambda row, avail, slack: (
            _bnb_search(values, row, avail, 0.0, slack + 1e-15, slack) <= slack
        ),
    )


def assign(costs: CostTensor) -> Assignment:
    """Optimal integral assignment: Hungarian for Q = 2, branch and bound otherwise."""
    return hungarian(costs.values) if costs.q == 2 else multidim_assignment(costs)


def assignment_rate(a: Assignment, spec: ChannelSpec, costs: CostTensor | None = None) -> float:
    """Mutual information (bits) of the pmf placing 1/M on each tuple of `a`.

    Rates `a.tuples`, not `a.total_cost`; h_t comes from `costs` when given.
    """
    return _entropy.mutual_information(code_pmf(a.code(), spec.m), spec, costs=costs)
