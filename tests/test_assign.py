import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprecode import (
    Assignment,
    BudgetExceededError,
    ChannelSpec,
    CostTensor,
    JointPmf,
    assign,
    assignment_rate,
    cost_tensor,
    multidim_assignment,
    optimize,
    solve_uniform_lp,
)
from causalprecode.assign import _bound, _vertex_assignment, check_budget
from causalprecode.optimize import _hungarian
from helpers import (
    binary_spec,
    exhaustive_assignment_min,
    lexicographic_assignment_oracle,
    random_spec,
    uniform_rate_bits,
)


class TestAssignmentType:
    def test_coordinate_disjointness_enforced(self):
        with pytest.raises(ValueError, match="coordinate"):
            Assignment(tuples=((1, 1), (2, 1)), total_cost=0.0)

    def test_valid(self):
        a = Assignment(tuples=((1, 2), (2, 1)), total_cost=1.5)
        assert a.m == 2 and a.q == 2


class TestHungarian:
    def test_identity_optimal(self):
        cost = np.ones((3, 3)) - np.eye(3)
        a = multidim_assignment(CostTensor(cost))
        assert a.tuples == ((1, 1), (2, 2), (3, 3))
        assert a.total_cost == 0.0

    def test_antidiagonal(self):
        a = multidim_assignment(CostTensor([[1.0, 0.0], [0.0, 1.0]]))
        assert a.tuples == ((1, 2), (2, 1))
        assert a.total_cost == 0.0

    def test_binary_high_snr_tensor(self):
        spec = binary_spec(noise_power=0.01)
        a = multidim_assignment(cost_tensor(spec))
        assert set(a.tuples) == {(1, 2), (2, 1)}

    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_matches_factorial_search(self, m):
        rng = np.random.default_rng(50 + m)
        for _ in range(10):
            cost = rng.normal(size=(m, m))
            best = min(
                math.fsum(cost[i, p[i]] for i in range(m))
                for p in itertools.permutations(range(m))
            )
            assert multidim_assignment(CostTensor(cost)).total_cost == pytest.approx(
                best, abs=1e-9
            )

    @pytest.mark.parametrize("scale, shift", [(1.0, 0.0), (1.0, -7.0), (1e15, -3e15)],
                             ids=["normal", "negative", "large"])
    def test_potentials_are_optimal_duals(self, scale, shift):
        """cost[i, j] - u[i] - v[j] >= 0 up to round-off, and 0 on the matching."""
        rng = np.random.default_rng(44)
        for m in (1, 2, 5, 9, 16):
            for draw in (rng.normal, lambda size: rng.integers(-3, 4, size=size)):
                cost = scale * np.asarray(draw(size=(m, m)), float) + shift
                value, col, duals = _hungarian(cost)
                assert sorted(col) == list(range(m))
                assert value == math.fsum(cost[np.arange(m), col])
                rc = cost - duals[:, :1] - duals[:, 1:].T
                tol = 1e-13 * m * float(np.abs(cost).max() + np.abs(duals).max())
                assert rc.min() >= -tol
                assert np.abs(rc[np.arange(m), col]).max() <= tol
                assert value == pytest.approx(math.fsum(duals.ravel()), abs=m * tol)

    def test_lexicographic_ties(self):
        a = multidim_assignment(CostTensor(np.zeros((4, 4))))
        assert a.tuples == ((1, 1), (2, 2), (3, 3), (4, 4))

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError, match="shaped"):
            multidim_assignment(CostTensor(np.zeros((2, 3))))
        with pytest.raises(ValueError, match="finite"):
            multidim_assignment(CostTensor([[np.inf, 0.0], [0.0, 1.0]]))


class TestMultidim:
    def test_q2_agrees_with_hungarian(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            cost = rng.normal(size=(4, 4))
            m = multidim_assignment(CostTensor(cost))
            assert m.tuples == lexicographic_assignment_oracle(cost)
            assert m.total_cost == pytest.approx(_hungarian(cost)[0], abs=1e-12)

    def test_constant_tensor_ties(self):
        c = 0.7
        a = multidim_assignment(CostTensor(np.full((3, 3, 3), c)))
        assert a.total_cost == pytest.approx(3 * c, abs=1e-12)
        assert a.tuples == ((1, 1, 1), (2, 2, 2), (3, 3, 3))

    def test_matches_exhaustive_3x3x3(self):
        rng = np.random.default_rng(67)
        for _ in range(10):
            cost = rng.normal(size=(3, 3, 3))
            best = exhaustive_assignment_min(cost)
            a = multidim_assignment(CostTensor(cost))
            assert a.total_cost == pytest.approx(best, abs=1e-12)

    def test_q1_trivial(self):
        a = multidim_assignment(CostTensor([3.0, 1.0, 2.0]))
        assert a.tuples == ((1,), (2,), (3,))
        assert a.total_cost == pytest.approx(6.0)

    def test_budget(self):
        # Q = 2 needs M <= 128; any other Q takes the uniform LP's budget.
        check_budget(128, 2)
        check_budget(48, 3)
        with pytest.raises(BudgetExceededError, match="too large"):
            check_budget(129, 2)
        with pytest.raises(BudgetExceededError, match="beyond the budget"):
            check_budget(49, 3)
        with pytest.raises(BudgetExceededError, match="too large"):
            multidim_assignment(CostTensor(np.zeros((129, 129))))
        # An integral LP vertex needs no search, beyond M <= 8 and Q <= 4 too.
        a = multidim_assignment(CostTensor(np.zeros((9,) * 3)))
        assert a.tuples == tuple((i,) * 3 for i in range(1, 10))
        a = multidim_assignment(CostTensor(np.zeros((2,) * 5)))
        assert a.tuples == ((1,) * 5, (2,) * 5)

    def test_fractional_vertex_beyond_the_search_budget_fails_before_the_search(
        self, monkeypatch
    ):
        cost = np.random.default_rng(0).normal(size=(9, 9, 9))

        def no_search(*args):
            raise AssertionError("branch and bound started")

        monkeypatch.setattr(assign, "_bnb_search", no_search)
        with pytest.raises(BudgetExceededError, match="branch and bound"):
            multidim_assignment(CostTensor(cost))

    @pytest.mark.parametrize("m, seed", [(3, 1), (3, 8), (4, 0), (4, 2)])
    def test_fractional_vertex_takes_the_branch_and_bound(self, m, seed, monkeypatch):
        cost = np.random.default_rng(seed).normal(size=(m, m, m))
        lp = solve_uniform_lp(CostTensor(cost))
        assert _vertex_assignment(lp.pmf.probs, m, 3) is None
        roots = []
        search = assign._bnb_search

        def spy(values, candidates, chosen, avail, prefix, best):
            if not chosen:
                roots.append(best)
            return search(values, candidates, chosen, avail, prefix, best)

        monkeypatch.setattr(assign, "_bnb_search", spy)
        a = multidim_assignment(CostTensor(cost))
        assert roots == [(math.inf, None)]  # no incumbent, so every tuple is a candidate
        assert a.total_cost == pytest.approx(exhaustive_assignment_min(cost), abs=1e-12)
        assert a.tuples == lexicographic_assignment_oracle(cost)

    @pytest.mark.parametrize("vertex, shift", [("lp", 0.5), ("diagonal", 0.0), ("diagonal", 0.5)])
    def test_the_lp_gives_only_evidence(self, vertex, shift, monkeypatch):
        """The LP stops within its pricing tolerance, so its duals may be
        slightly infeasible and its vertex short of the optimum. Neither may
        change the result: here one dual is off by `shift`, and the vertex
        may be the diagonal assignment, which is not optimal."""
        cost = np.random.default_rng(67).normal(size=(3, 3, 3))
        want = lexicographic_assignment_oracle(cost)
        diagonal_total = math.fsum(cost[i, i, i] for i in range(3))
        assert diagonal_total > exhaustive_assignment_min(cost) + 1e-9
        solve = optimize.solve_marginal_lp

        def evidence(costs, targets):
            sol = solve(costs, targets)
            duals = sol.duals.copy()
            duals[0, 0] += shift
            if vertex == "diagonal":
                probs = np.zeros(27)
                probs[[0, 13, 26]] = 1.0 / 3.0
                sol = replace(sol, pmf=JointPmf(3, 3, probs))
            return replace(sol, duals=duals)

        monkeypatch.setattr(optimize, "solve_marginal_lp", evidence)
        a = multidim_assignment(CostTensor(cost))
        assert a.tuples == want

    @pytest.mark.parametrize("m, q", [(7, 3), (8, 3), (6, 4), (7, 4), (8, 4)])
    def test_sizes_beyond_the_exhaustive_oracles(self, m, q):
        """Random cost tensors whose LP vertex is an assignment: every
        coordinate is a permutation, and the total is M times the LP
        objective within the tie tolerance."""
        costs = cost_tensor(random_spec(np.random.default_rng(100), m, q, noise_power=0.05))
        a = multidim_assignment(costs)
        tuples = np.asarray(a.tuples)
        for k in range(q):
            assert sorted(tuples[:, k]) == list(range(1, m + 1))
        assert a.total_cost == math.fsum(costs.entry(t) for t in a.tuples)
        lp = solve_uniform_lp(costs)
        assert abs(a.total_cost - m * lp.objective) <= 1e-9 * max(1.0, abs(a.total_cost))

    def test_four_dim_small(self):
        rng = np.random.default_rng(71)
        cost = rng.normal(size=(3, 3, 3, 3))
        a = multidim_assignment(CostTensor(cost))
        best = exhaustive_assignment_min(cost)
        assert a.total_cost == pytest.approx(best, abs=1e-12)

    # Tie-heavy costs whose totals are exact: integers of both signs, also
    # scaled by 8 for totals of larger magnitude, and entries of 0 or 1e-9
    # that are 0 on the reversed diagonal, so that the best total is 0, the
    # totals of exactly 1e-9 sit on the edge of the tolerance, and the
    # lexicographically first assignment, the diagonal, is rarely optimal.
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_matches_lexicographic_oracle(self, q):
        rng = np.random.default_rng(90 + q)
        for m in {1: (1, 3, 6), 2: (2, 4, 6), 3: (2, 3, 4, 5), 4: (2, 3, 4)}[q]:
            for scale in (1.0, 8.0, 1e-9):
                for _ in range(4):
                    low, high = (0, 2) if scale == 1e-9 else (-2, 3)
                    cost = scale * rng.integers(low, high, size=(m,) * q).astype(float)
                    if scale == 1e-9:
                        cost[(np.arange(m), *(np.arange(m)[::-1],) * (q - 1))] = 0.0
                    a = multidim_assignment(CostTensor(cost))
                    want = lexicographic_assignment_oracle(cost)
                    assert a.tuples == want
                    assert a.total_cost == math.fsum(
                        cost[tuple(i - 1 for i in t)] for t in want
                    )


    # The tie pass once tested bound <= limit - fixed - inc in floats, which
    # rounds 1e20 - 1e20 + 1 away and so rejected every choice.
    @pytest.mark.parametrize("values", [
        [1e20, -1e20, 1.0],
        [[1e20, 1e20, 2.0], [0.0, 1.0, -1e20], [1.0, 2.0, 1e20]],
    ], ids=["q1", "q2"])
    def test_costs_that_cancel_at_large_magnitude(self, values):
        cost = np.asarray(values)
        a = multidim_assignment(CostTensor(cost))
        assert a.tuples == lexicographic_assignment_oracle(cost)
        assert a.total_cost == exhaustive_assignment_min(cost)

    @pytest.mark.parametrize("m, q", [(4, 3), (3, 4), (4, 4)])
    def test_real_cost_tensors_match_the_lexicographic_oracle(self, m, q):
        rng = np.random.default_rng(10 * m + q)
        specs = [random_spec(rng, m, q, noise_power) for noise_power in (0.05, 0.5)]
        # Evenly spaced points and levels at high SNR: many h_t tie exactly.
        specs.append(ChannelSpec(tuple(float(2 * i - m + 1) for i in range(m)),
                                 tuple(float(j) for j in range(q)), (1.0 / q,) * q, 0.01))
        for spec in specs:
            values = cost_tensor(spec).values
            a = multidim_assignment(CostTensor(values))
            want = lexicographic_assignment_oracle(values)
            assert a.tuples == want
            assert a.total_cost == math.fsum(values[tuple(i - 1 for i in t)] for t in want)


# Integer costs plus integer steps of 2^-30 (about 0.93e-9): totals one step
# apart sit inside the tie tolerance (1e-9 relative), two apart outside, and
# every total is exact. (With decimal 1e-9 steps, two completions whose exact
# totals differ by less than an ulp can round to either side of the limit; a
# search that tests the least completion of a prefix cannot see that.)
@settings(max_examples=60, deadline=None)
@given(st.data())
def test_near_ties_match_the_lexicographic_oracle(data):
    q = data.draw(st.integers(2, 4))
    m = data.draw(st.integers(2, {2: 5, 3: 4, 4: 3}[q]))
    size = m**q
    base = data.draw(st.lists(st.integers(-1, 1), min_size=size, max_size=size))
    steps = data.draw(st.lists(st.integers(-2, 2), min_size=size, max_size=size))
    cost = (np.asarray(base, float) + np.asarray(steps, float) * 2.0**-30).reshape((m,) * q)
    a = multidim_assignment(CostTensor(cost))
    want = lexicographic_assignment_oracle(cost)
    assert a.tuples == want
    assert a.total_cost == math.fsum(cost[tuple(i - 1 for i in t)] for t in want)


class TestBound:
    @pytest.mark.parametrize("q", [1, 2, 3, 4])
    def test_bounds_every_completion(self, q):
        """On random partial assignments, `_bound` is at most the exhaustive
        minimum completion, and equal to it at Q <= 2, where it also returns
        a completion attaining it."""
        rng = np.random.default_rng(100 + q)
        m = 5 if q < 4 else 4
        for _ in range(20):
            cost = rng.normal(size=(m,) * q)
            row = int(rng.integers(0, m))
            avail = [sorted(rng.choice(m, size=m - row, replace=False).tolist())
                     for _ in range(q - 1)]
            rest = exhaustive_assignment_min(cost[np.ix_(range(row, m), *avail)])
            bound, completion = _bound(cost, row, avail)
            if q <= 2:
                assert bound == rest
                # and a completion from the free indices attains it
                assert len(completion) == m - row
                if q == 2:
                    assert sorted(t[0] for t in completion) == avail[0]
                assert math.fsum(cost[(r, *t)] for r, t in enumerate(completion, row)) == bound
            else:
                assert bound <= rest
                assert completion is None


class TestRates:
    def test_binary_high_snr_approaches_one_bit(self):
        spec = binary_spec(noise_power=1e-3)
        a = Assignment(tuples=((1, 2), (2, 1)), total_cost=0.0)
        assert assignment_rate(a, spec, cost_tensor(spec)) == pytest.approx(1.0, abs=1e-4)

    def test_rate_bounded_by_log_m(self):
        rng = np.random.default_rng(73)
        for _ in range(5):
            spec = random_spec(rng, 3, 2, noise_power=float(rng.uniform(0.05, 1.0)))
            costs = cost_tensor(spec)
            a = multidim_assignment(costs)
            assert assignment_rate(a, spec, costs) <= math.log2(3) + 1e-9

    @pytest.mark.parametrize("noise_power", [0.01, 0.1, 1.0, 10.0])
    def test_best_assignment_equals_lp_rate_binary(self, noise_power):
        # Q=2 integrality is free: the LP optimum is an assignment.
        spec = binary_spec(noise_power)
        costs = cost_tensor(spec)
        lp = solve_uniform_lp(costs)
        rates = []
        for tuples in (((1, 1), (2, 2)), ((1, 2), (2, 1))):
            a = Assignment(tuples=tuples, total_cost=0.0)
            rates.append(assignment_rate(a, spec, costs))
        assert max(rates) == pytest.approx(uniform_rate_bits(spec, lp), abs=1e-9)


class TestQ2IntegralityIsFree:
    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_lp_vertex_is_assignment(self, m):
        rng = np.random.default_rng(80 + m)
        from causalprecode import CostTensor

        for _ in range(5):
            costs = CostTensor(rng.normal(size=(m, m)))
            lp = solve_uniform_lp(costs)
            h = multidim_assignment(costs)
            assert lp.objective * m == pytest.approx(h.total_cost, abs=1e-8)
            # vertex entries are 0 or 1/M
            near = np.minimum(np.abs(lp.pmf.probs), np.abs(lp.pmf.probs - 1.0 / m))
            assert near.max() < 1e-8

    def test_q3_integrality_gap_bounded(self):
        rng = np.random.default_rng(89)
        gaps = []
        for _ in range(5):
            spec = random_spec(rng, 3, 3, noise_power=float(rng.uniform(0.1, 1.0)))
            costs = cost_tensor(spec)
            lp_rate = uniform_rate_bits(spec, solve_uniform_lp(costs))
            a = multidim_assignment(costs)
            rate = assignment_rate(a, spec, costs)
            assert rate <= lp_rate + 1e-9
            gaps.append(lp_rate - rate)
        # record the observed integrality gaps for the Q=3 open question
        print("observed Q=3 integrality gaps (bits):", [f"{g:.3e}" for g in gaps])
