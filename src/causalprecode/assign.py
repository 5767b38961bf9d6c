"""Integrality-constrained uniform transmission.

Forcing the joint pmf to put weight exactly 1/M on exactly M associated
symbols turns the uniform-transmission LP into an axial Q-index assignment
problem; Q = 2 is its bipartite case, and the uniform LP is its relaxation.
One exact search serves every Q. Optimal duals u come from the uniform LP
(`optimize.solve_uniform_lp`: one Hungarian at Q = 2, the simplex at any
other Q), whose vertex, when it is an assignment (always, at Q = 2), is
the optimum unless a reduced cost lies below round-off. An assignment
totals sum(u) plus the reduced costs of its tuples, so only tuples of small
reduced cost can lie within the tie tolerance, and no other tuple is tried
(reduced-cost fixing; Nemhauser and Wolsey 1988). Where the duals certify
no optimum, a branch and bound finds it, pruned by a lower bound that
projects the costs onto one later coordinate at a time and takes the
Hungarian value of each projection (Pierskalla 1968; Balas and Saltzman
1991), exact for Q = 2. A lexicographic depth-first pass then returns the
lexicographically smallest tuple sequence within 1e-9 (relative) of the
optimum, so outputs are stable for regression tests. It accepts a choice
by a known completion of the remaining rows, and computes the bound only
when that completion misses the tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import entropy as _entropy
from . import optimize as _optimize
from .model import (
    AssociatedSymbol,
    BudgetExceededError,
    ChannelSpec,
    PrecoderCode,
    code_pmf,
)
from .entropy import CostTensor

# Budget of the branch and bound that a fractional LP vertex needs.
_MAX_M = 8
_MAX_Q = 4
# Largest M for Q = 2: each Hungarian the tie pass falls back to is O(M^3)
# Python (the uniform LP's one Hungarian admits M <= 203).
_MAX_M_Q2 = 128
# Round-off allowance per term (MQ of them) of a reduced-cost sum, relative
# to the largest cost or dual.
_ROUNDOFF = 64 * np.finfo(float).eps


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


def _without(avail: list[list[int]], combo: tuple[int, ...]) -> list[list[int]]:
    """The free indices per later coordinate once `combo` takes its own."""
    return [[i for i in free if i != c] for free, c in zip(avail, combo)]


def _tries(candidates: list[tuple[int, ...]], avail: list[list[int]]):
    """The `candidates` of a row, in their lexicographic order, that use only free indices."""
    return (c for c in candidates if all(i in free for i, free in zip(c, avail)))


def _costs(values: np.ndarray, row: int, combos: list[tuple[int, ...]]) -> list[float]:
    """The costs of `combos` taken by rows `row`, `row` + 1, ..."""
    return [float(values[(r, *c)]) for r, c in enumerate(combos, row)]


def _bound(values: np.ndarray, row: int, avail: list[list[int]]):
    """Lower bound on completing rows `row`.. from the free indices `avail`,
    and for Q <= 2 a completion (combinations by row) attaining it, else None.

    For each later coordinate k, the costs minimized over the other later
    coordinates leave a matrix of rows by k-indices whose Hungarian value
    bounds every completion; the bound is the largest of these (exact for
    Q <= 2, valid for costs of either sign). For Q = 1 it is the sum of the
    remaining entries.
    """
    n = values.shape[0]
    if row == n:
        return 0.0, []
    sub = values[np.ix_(range(row, n), *avail)]
    if sub.ndim == 1:
        return math.fsum(sub.tolist()), [()] * (n - row)
    if sub.ndim == 2:
        value, col, _ = _optimize._hungarian(sub)
        return value, [(avail[0][j],) for j in col]
    later = range(1, sub.ndim)
    return max(
        _optimize._hungarian(sub.min(axis=tuple(a for a in later if a != k)))[0] for k in later
    ), None


def _bnb_search(values: np.ndarray, candidates, chosen, avail, prefix: float, best):
    """The least-total completion of the rows fixed by `chosen`, as (total,
    combinations by row), if its total is below best[0], else `best`: depth
    first over the candidates, children by ascending cost, pruned by `_bound`."""
    row = len(chosen)
    if row == values.shape[0]:
        return prefix, list(chosen)
    for inc, combo in sorted(
        (float(values[(row, *c)]), c) for c in _tries(candidates[row], avail)
    ):
        sub_avail = _without(avail, combo)
        if prefix + inc + _bound(values, row + 1, sub_avail)[0] < best[0]:
            chosen.append(combo)
            best = _bnb_search(values, candidates, chosen, sub_avail, prefix + inc, best)
            chosen.pop()
    return best


def _repair(witness: list[tuple[int, ...]], combo: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The rest of the completion `witness` once its first row takes `combo`:
    in each coordinate, the later row holding combo's index takes the index
    the first row gave up."""
    return [tuple(w if i == c else i for i, c, w in zip(t, combo, witness[0]))
            for t in witness[1:]]


def _reroute(candidates, row: int, witness: list[tuple[int]], combo: tuple[int]):
    """Q = 2: the rest of the completion `witness` of rows `row`.. once `row`
    takes column combo[0], rerouted along the shortest alternating path over
    the `candidates` from the later row that held that column to the column
    `row` gave up; None if there is none.

    With `witness` made of candidates, its rest less the row that lost its
    column is then a maximum matching of the candidates (Berge), so no
    completion of candidates exists.
    """
    cols = [t[0] for t in witness]
    target = cols[0]
    if combo[0] == target:
        return witness[1:]
    holder = {j: k for k, j in enumerate(cols) if k}  # column -> its row, relative to `row`
    start = holder.pop(combo[0])
    parent = {start: None}
    queue = [start]
    for k in queue:
        for (j,) in candidates[row + k]:
            if j == target:
                while k is not None:
                    cols[k], j = j, cols[k]
                    k = parent[k]
                return [(j,) for j in cols[1:]]
            nxt = holder.get(j)
            if nxt is not None and nxt not in parent:
                parent[nxt] = k
                queue.append(nxt)
    return None


def _vertex_assignment(probs: np.ndarray, n: int, q: int) -> list[tuple[int, ...]] | None:
    """The later-coordinate combinations by row of an LP vertex that is an
    assignment (M symbols of weight 1/M), else None."""
    ranks = np.flatnonzero(probs > 0.5 / n)
    if ranks.size != n:
        return None
    digits = np.stack(np.unravel_index(ranks, (n,) * q), axis=1)
    if not (np.sort(digits, axis=0) == np.arange(n)[:, None]).all():
        return None
    return [tuple(d[1:]) for d in digits.tolist()]


def check_budget(m: int, q: int) -> None:
    """Raise BudgetExceededError if `multidim_assignment` cannot take an M, Q
    instance: Q = 2 needs M <= 128 (the tie pass may fall back to O(M^3)
    Python Hungarians), any other Q the uniform LP's `check_marginal_budget`."""
    if q != 2:
        _optimize.check_marginal_budget(m, q)
    elif m > _MAX_M_Q2:
        raise BudgetExceededError(
            f"instance too large for exact solver (M={m}, Q=2; "
            f"beyond the budget of M<={_MAX_M_Q2})"
        )


def multidim_assignment(
    costs: CostTensor, lp: _optimize.LpSolution | None = None
) -> Assignment:
    """Exact minimum-cost axial assignment of a (M,)*Q cost tensor, any Q.

    Duals u come from the uniform LP (`lp`, if the caller has solved it on
    `costs`, else `optimize.solve_uniform_lp`: one Hungarian for Q = 2, the
    simplex otherwise), whose vertex, if an assignment (always, for Q = 2),
    is the candidate optimum. Any assignment A totals
    sum(u) + sum over A of rc_t = h_t - sum_j u[t_j, j], so one totalling at
    most T uses only tuples with
    rc_t <= T - sum(u) - (M - 1) min(0, min rc), up to a round-off margin.
    The candidate is optimal if its total is at most
    sum(u) + M min(0, min rc) (plus the margin); else a branch and bound over
    the tuples that could beat it finds the optimum. Then one lexicographic
    depth-first pass fixes first coordinates 1..M in order, each to the first
    allowed combination that keeps the exact `math.fsum` of the chosen costs
    and a completion of the rest within 1e-9 (relative) of the optimum. The
    completion tried first is the last one known, with the indices the
    combination takes handed back (for Q = 2 along an alternating path over
    allowed entries; none means none within it exists); failing that, `_bound`
    on the rest, backtracking where it was not tight. Ties resolve to the
    lexicographically smallest tuple sequence. Raises BudgetExceededError as
    `check_budget` does, and before a branch and bound from a fractional LP
    vertex unless M <= 8 and Q <= 4.
    """
    values = costs.values
    n, q = values.shape[0], values.ndim
    check_budget(n, q)
    if lp is None:
        lp = _optimize.solve_uniform_lp(costs)
    duals, witness = lp.duals, _vertex_assignment(lp.pmf.probs, n, q)
    reduced = values - _optimize._dual_sums(duals).reshape(values.shape)
    dual_sum = math.fsum(duals.ravel().tolist())
    lowest = min(0.0, float(reduced.min()))
    margin = _ROUNDOFF * n * q * float(np.abs(values).max() + q * np.abs(duals).max())

    def allowed(total: float) -> tuple[np.ndarray, list[list[tuple[int, ...]]]]:
        """The costs with every tuple that an assignment totalling at most
        `total` cannot use raised above any such total, so that bounds see
        only the rest, and per row, in lexicographic order, the
        later-coordinate combinations of the tuples it can use."""
        mask = reduced <= total - dual_sum - (n - 1) * lowest + margin
        raised = np.where(mask, values, 2.0 * n * (float(np.abs(values).max()) + 1.0))
        return raised, [list(map(tuple, np.argwhere(r).tolist())) for r in mask]

    full = [list(range(n)) for _ in range(q - 1)]
    best = math.fsum(_costs(values, 0, witness)) if witness else math.inf
    if not best <= dual_sum + n * lowest + margin:
        if witness is None and (n > _MAX_M or q > _MAX_Q):
            raise BudgetExceededError(
                f"fractional LP vertex: branch and bound too large (M={n}, Q={q}; "
                f"beyond the budget of M<={_MAX_M}, Q<={_MAX_Q})"
            )
        _, witness = _bnb_search(*allowed(best), [], full, 0.0, (best, witness))
        best = math.fsum(_costs(values, 0, witness))
    limit = best + 1e-9 * max(1.0, abs(best))
    raised, candidates = allowed(limit)
    # Frame per open row: its untried candidates, free indices and a completion.
    stack = [(_tries(candidates[0], full), full, witness)]
    chosen: list[tuple[int, ...]] = []
    chosen_costs: list[float] = []
    while len(chosen) < n:
        tries, avail, witness = stack[-1]
        row = len(chosen)
        for combo in tries:
            inc = float(values[(row, *combo)])
            sub_avail = _without(avail, combo)
            if q == 2:
                rest = _reroute(candidates, row, witness, combo)
                if rest is None:
                    continue
            else:
                rest = _repair(witness, combo)
            # fsum: costs that cancel at large magnitude must not round the test away
            if math.fsum([*chosen_costs, inc, *_costs(values, row + 1, rest)]) > limit:
                bound, completion = _bound(raised, row + 1, sub_avail)
                terms = [bound] if completion is None else _costs(values, row + 1, completion)
                if math.fsum([*chosen_costs, inc, *terms]) > limit:
                    continue
                rest = rest if completion is None else completion
            chosen.append(combo)
            chosen_costs.append(inc)
            if row + 1 < n:
                stack.append((_tries(candidates[row + 1], sub_avail), sub_avail, rest))
            break
        else:
            stack.pop()
            if not chosen:  # pragma: no cover - would indicate a solver bug
                raise RuntimeError("no assignment within the optimum's tolerance")
            chosen.pop()
            chosen_costs.pop()
    tuples = tuple((row + 1, *(i + 1 for i in combo)) for row, combo in enumerate(chosen))
    return Assignment(tuples=tuples, total_cost=math.fsum(chosen_costs))


def assignment_rate(a: Assignment, spec: ChannelSpec, costs: CostTensor) -> float:
    """Mutual information (bits) of the pmf placing 1/M on each tuple of `a`.

    Rates `a.tuples`, not `a.total_cost`, with h_t read from `costs`, the
    cost tensor of `spec`; `mutual_information` checks that they match.
    """
    return _entropy.mutual_information(code_pmf(a.code(), spec.m), spec, costs)
