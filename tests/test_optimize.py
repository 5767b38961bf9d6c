import math
import tracemalloc

import numpy as np
import pytest

from causalprecode import (
    BudgetExceededError,
    ChannelSpec,
    CostTensor,
    JointPmf,
    LpSolution,
    MarginalSet,
    capacity,
    cost_tensor,
    marginals_of,
    mutual_information,
    noise_power_for_snr_db,
    solve_marginal_lp,
    solve_uniform_lp,
    support_reduce,
)
from causalprecode import optimize
from causalprecode.optimize import (
    _AssociatedChannel,
    _incidence,
    _northwest_corner,
    _null_space,
    _pivot,
)
from helpers import (
    CHAIN_128X2,
    binary_spec,
    blahut_arimoto,
    dense_blahut_arimoto,
    dense_marginal_lp,
    dense_null_space,
    enumerate_vertex_objectives,
    exhaustive_assignment_min,
    ipf_feasible_points,
    marginal_constraint_matrix,
    random_spec,
    uniform_rate_bits,
)


def random_costs(rng, m, q):
    return CostTensor(rng.normal(size=(m,) * q))


class TestMarginalLp:
    def test_q1_fixed_completely(self):
        rng = np.random.default_rng(2)
        h = rng.normal(size=(4,))
        costs = CostTensor(h)
        target = np.asarray([0.1, 0.2, 0.3, 0.4])
        sol = solve_marginal_lp(costs, MarginalSet(target[None, :]))
        assert np.allclose(sol.pmf.probs, target, atol=1e-12)
        assert sol.objective == pytest.approx(float(h @ target), abs=1e-12)

    def test_two_by_two_hand_polytope(self):
        # uniform targets, h11=h22=a < h12=h21=b: the 1-parameter family is
        # p11=p22=t/..., optimum puts everything on the diagonal.
        a, b = 1.0, 2.0
        costs = CostTensor(np.asarray([[a, b], [b, a]]))
        sol = solve_marginal_lp(costs, MarginalSet.uniform(2, 2))
        assert sol.pmf.prob((1, 1)) == pytest.approx(0.5, abs=1e-12)
        assert sol.pmf.prob((2, 2)) == pytest.approx(0.5, abs=1e-12)
        assert sol.objective == pytest.approx(a, abs=1e-12)

    @pytest.mark.parametrize("m,q", [(3, 1), (2, 2), (3, 2), (2, 3), (3, 3)])
    def test_matches_vertex_enumeration(self, m, q):
        rng = np.random.default_rng(100 + 10 * m + q)
        for k in range(4):
            costs = random_costs(rng, m, q)
            raw = rng.uniform(0.1, 1.0, size=(q, m))
            if k == 3:  # zero letters, e.g. a row [0.5, 0, 0.5]
                raw[::2, 1] = 0.0
            targets = MarginalSet(raw / raw.sum(axis=1, keepdims=True))
            sol = solve_marginal_lp(costs, targets)
            oracle = enumerate_vertex_objectives(
                m, q, targets.per_state, costs.values
            )
            assert sol.objective == pytest.approx(oracle, abs=1e-9)

    def test_beats_random_feasible_points(self):
        rng = np.random.default_rng(7)
        spec = random_spec(rng, 3, 2, noise_power=0.3)
        costs = cost_tensor(spec)
        raw = rng.uniform(0.1, 1.0, size=(2, 3))
        targets = MarginalSet(raw / raw.sum(axis=1, keepdims=True))
        sol = solve_marginal_lp(costs, targets)
        points = ipf_feasible_points(rng, 3, 2, targets.per_state, 1000)
        assert (points @ costs.values.reshape(-1)).min() >= sol.objective - 1e-9

    def test_constraints_and_support_bound(self):
        rng = np.random.default_rng(13)
        a_full_cache = {}
        for _ in range(25):
            m = int(rng.integers(2, 5))
            q = int(rng.integers(2, 4))
            costs = random_costs(rng, m, q)
            raw = rng.uniform(0.1, 1.0, size=(q, m))
            targets = MarginalSet(raw / raw.sum(axis=1, keepdims=True))
            sol = solve_marginal_lp(costs, targets)
            a_full = a_full_cache.setdefault((m, q), marginal_constraint_matrix(m, q))
            residual = np.abs(
                a_full @ sol.pmf.probs - targets.per_state.reshape(-1)
            ).max()
            assert residual < 1e-8
            assert len(sol.pmf.support()) <= m * q - q + 1

    def test_duals_price_every_symbol(self):
        """Reduced costs h_t - sum_j u[t_j, j] are >= -1e-10 (the pricing
        tolerance), 0 on the support, and the duals priced at the targets
        give the objective."""
        rng = np.random.default_rng(17)
        for m, q in ((3, 1), (3, 2), (4, 3), (3, 4)):
            costs = random_costs(rng, m, q)
            raw = rng.uniform(0.1, 1.0, size=(q, m))
            targets = MarginalSet(raw / raw.sum(axis=1, keepdims=True))
            sol = solve_marginal_lp(costs, targets)
            assert sol.duals.shape == (m, q)
            rc = costs.values.copy()
            for j in range(q):
                rc -= sol.duals[:, j].reshape((m,) + (1,) * (q - 1 - j))
            rc = rc.reshape(-1)
            assert rc.min() >= -1e-10 - 1e-12
            assert np.abs(rc[sol.pmf.probs > 0.0]).max() <= 1e-12
            priced = float(np.sum(sol.duals * targets.per_state.T))
            assert sol.objective == pytest.approx(priced, abs=1e-12)

    def test_northwest_corner_is_a_feasible_basis(self):
        rng = np.random.default_rng(43)
        cases = [rng.dirichlet(np.ones(m), size=q) for m, q in [(4, 1), (2, 4), (3, 3), (5, 2)]]
        cases += [
            np.full((3, 4), 0.25),  # every breakpoint tied across states
            np.asarray([[0.5, 0.0, 0.5], [0.0, 1.0, 0.0], [0.25, 0.25, 0.5]]),
            np.asarray([[0.25, 0.25, 0.5], [0.5, 0.0, 0.5]]),
        ]
        for per_state in cases:
            q, m = per_state.shape
            a = marginal_constraint_matrix(m, q)
            keep = [k for k in range(m * q) if k < m or k % m != m - 1]
            basis = _northwest_corner(per_state)
            assert len(set(basis)) == len(basis) == m * q - q + 1
            mat = a[keep][:, basis]
            assert np.linalg.matrix_rank(mat) == len(basis)
            x = np.linalg.solve(mat, per_state.reshape(-1)[keep])
            assert x.min() >= -1e-12
            p = np.zeros(m**q)
            p[basis] = x
            residual = a @ p - per_state.reshape(-1)
            assert np.abs(residual).max() <= 1e-12

    def test_forms_no_marginal_matrix(self):
        # Random 8/5: 32,768 symbols, so a dense MQ x M^Q marginal matrix
        # would take 10 MiB; the simplex holds M^Q vectors and 36 x 36 bases.
        rng = np.random.default_rng(3)
        costs = random_costs(rng, 8, 5)
        targets = MarginalSet.uniform(8, 5)
        tracemalloc.start()
        try:
            sol = solve_marginal_lp(costs, targets)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(sol.pmf.support()) <= 8 * 5 - 5 + 1
        assert peak < 4 << 20

    def test_degenerate_targets(self):
        # zero-probability letters force structural zeros
        costs = CostTensor(np.asarray([[1.0, 2.0], [3.0, 4.0]]))
        targets = MarginalSet(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
        sol = solve_marginal_lp(costs, targets)
        assert sol.pmf.prob((1, 2)) == pytest.approx(1.0, abs=1e-12)


def _assert_same_lp(sol, oracle):
    """Same pivots, support, and pmf, duals and objective to the last bit."""
    assert sol.iterations == oracle.iterations
    assert sol.pmf.support() == oracle.pmf.support()
    assert sol.pmf.probs.tobytes() == oracle.pmf.probs.tobytes()
    assert sol.duals.tobytes() == oracle.duals.tobytes()
    assert sol.objective == oracle.objective


_PAM8 = (-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0)


def _ladder_costs(noise_power):
    """The benchmark ladder's shapes: random 4/3 to 32/2, and PAM-8/Q=4."""
    rng = np.random.default_rng(24)
    shapes = [(4, 3), (6, 3), (4, 4), (5, 4), (8, 3), (16, 3), (32, 2)]
    specs = [random_spec(rng, m, q, noise_power) for m, q in shapes]
    specs.append(ChannelSpec(_PAM8, (-3.0, -1.0, 1.0, 3.0), (0.25,) * 4, noise_power))
    return [cost_tensor(spec) for spec in specs]


class TestEtaInverse:
    """The simplex with an eta-updated basis inverse takes the pivots of the
    three-solve loop it replaced (`helpers.dense_marginal_lp`) and returns
    its bytes."""

    @pytest.mark.parametrize("noise_power", [0.05, 0.5])
    def test_matches_the_dense_oracle_on_the_ladder(self, noise_power):
        for costs in _ladder_costs(noise_power):
            targets = MarginalSet.uniform(costs.m, costs.q)
            oracle, _ = dense_marginal_lp(costs, targets)
            _assert_same_lp(solve_marginal_lp(costs, targets), oracle)

    def test_matches_the_dense_oracle_on_general_targets(self):
        rng = np.random.default_rng(8)
        for m, q in [(5, 3), (6, 2), (4, 4), (8, 3), (3, 5)]:
            costs = cost_tensor(random_spec(rng, m, q, 0.2))
            for _ in range(3):
                per_state = rng.dirichlet(np.ones(m), size=q)
                per_state[rng.random((q, m)) < 0.25] = 0.0  # zero letters
                per_state[:, 0] += 1e-3
                per_state /= per_state.sum(axis=1, keepdims=True)
                targets = MarginalSet(per_state)
                oracle, _ = dense_marginal_lp(costs, targets)
                _assert_same_lp(solve_marginal_lp(costs, targets), oracle)

    @pytest.mark.parametrize("m,q", [(16, 3), (32, 2)])
    def test_matches_the_dense_oracle_on_rounded_costs(self, m, q):
        # The perturbations of test_support_survives_rounding_of_the_costs.
        values = cost_tensor(random_spec(np.random.default_rng(0), m, q, 0.05)).values
        for seed in range(3):
            flips = np.random.default_rng(seed).choice([-1, 0, 1], size=values.shape)
            costs = CostTensor(values * (1 + 4e-16 * flips))
            targets = MarginalSet.uniform(m, q)
            oracle, _ = dense_marginal_lp(costs, targets)
            # The simplex itself: at Q = 2 `solve_uniform_lp` takes a Hungarian.
            _assert_same_lp(solve_marginal_lp(costs, targets), oracle)

    def test_matches_the_dense_oracle_where_the_inverse_drifts(self):
        # Random 32/3 takes 904 pivots; with basic values taken from the
        # eta-updated inverse unrefined, the simplex ends after 903.
        costs = cost_tensor(random_spec(np.random.default_rng(1), 32, 3, 0.05))
        oracle, _ = dense_marginal_lp(costs, MarginalSet.uniform(32, 3))
        _assert_same_lp(solve_uniform_lp(costs), oracle)

    def test_refinement_recovers_a_drifted_inverse(self):
        # A basis of the marginal LP and its inverse off by 1e-9 (as after
        # many eta updates): one refinement step brings the direction and a
        # solve back to round-off.
        rng = np.random.default_rng(6)
        m, q = 6, 3
        rows = [i * q + j for j in range(q) for i in range(m) if j == 0 or i < m - 1]
        basis_mat = _incidence(np.asarray(_northwest_corner(np.full((q, m), 1.0 / m))), m, q)[rows]
        drifted = np.linalg.inv(basis_mat) + 1e-9 * rng.normal(size=basis_mat.shape)
        column = np.zeros(len(rows))
        column[[2, 7]] = 1.0
        direction, miss = optimize._direction(drifted, basis_mat, [2, 7])
        assert miss > 1e-10
        assert np.abs(direction - np.linalg.solve(basis_mat, column)).max() < 1e-14
        rhs = rng.normal(size=len(rows))
        exact = np.linalg.solve(basis_mat.T, rhs)
        assert np.abs(optimize._refined(drifted.T, basis_mat.T, rhs) - exact).max() < 1e-14

    @pytest.mark.parametrize("interval", [1, 10**9])
    def test_refactorization_interval_changes_nothing(self, monkeypatch, interval):
        monkeypatch.setattr(optimize, "_REFACTOR_PIVOTS", interval)
        for costs in _ladder_costs(0.05)[4:]:
            targets = MarginalSet.uniform(costs.m, costs.q)
            oracle, _ = dense_marginal_lp(costs, targets)
            _assert_same_lp(solve_marginal_lp(costs, targets), oracle)

    def test_bland_path_matches_the_dense_oracle(self, monkeypatch):
        # At the default threshold the ladder never reaches Bland's rule; at
        # one degenerate pivot per constraint random 16/3 switches to it at
        # pivot 166 of 554.
        monkeypatch.setattr(optimize, "_BLAND_DEGENERATE_PER_ROW", 1)
        costs = cost_tensor(random_spec(np.random.default_rng(0), 16, 3, 0.05))
        oracle, bland_from = dense_marginal_lp(costs, MarginalSet.uniform(16, 3))
        assert bland_from is not None and bland_from < oracle.iterations
        _assert_same_lp(solve_uniform_lp(costs), oracle)

    def test_one_factorization_per_refactorization_interval(self, monkeypatch):
        # Random 16/3 takes 271 pivots; a solve per pivot would make hundreds
        # of factorizations.
        costs = cost_tensor(random_spec(np.random.default_rng(0), 16, 3, 0.05))
        counts = {"factorizations": 0}
        for name in ("inv", "solve"):
            real = getattr(np.linalg, name)

            def counted(*args, real=real, **kwargs):
                counts["factorizations"] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        sol = solve_uniform_lp(costs)
        assert sol.iterations > 3 * optimize._REFACTOR_PIVOTS
        assert counts["factorizations"] <= math.ceil(
            sol.iterations / optimize._REFACTOR_PIVOTS) + 2


class TestUniformLp:
    def test_binary_high_snr_support(self):
        spec = binary_spec(noise_power=0.01)
        sol = solve_uniform_lp(cost_tensor(spec))
        assert sol.pmf.support() == [(1, 2), (2, 1)]
        assert sol.pmf.prob((1, 2)) == pytest.approx(0.5, abs=1e-9)
        assert uniform_rate_bits(spec, sol) == pytest.approx(1.0, abs=1e-3)

    def test_binary_low_snr_support(self):
        spec = binary_spec(noise_power=10.0)
        sol = solve_uniform_lp(cost_tensor(spec))
        assert sol.pmf.support() == [(1, 1), (2, 2)]

    def test_support_bound_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            m = int(rng.integers(2, 5))
            q = int(rng.integers(2, 4))
            sol = solve_uniform_lp(random_costs(rng, m, q))
            assert len(sol.pmf.support()) <= m * q - q + 1

    @pytest.mark.parametrize("m,q", [(16, 3), (32, 2)])
    def test_support_survives_rounding_of_the_costs(self, m, q):
        # Many h_t of a random spec agree to 1e-15, so another summation
        # order or BLAS kernel perturbs them at that level; the printed
        # vertex must not move with it.
        values = cost_tensor(random_spec(np.random.default_rng(0), m, q, 0.05)).values
        base = solve_uniform_lp(CostTensor(values))
        for seed in range(3):
            flips = np.random.default_rng(seed).choice([-1, 0, 1], size=values.shape)
            sol = solve_uniform_lp(CostTensor(values * (1 + 4e-16 * flips)))
            assert sol.pmf.support() == base.pmf.support()
            assert sol.iterations == base.iterations


def _q2_costs():
    """Q = 2 cost tensors: the ladder's random 32/2 at both noise powers,
    random M/2 for M = 2..32, and evenly spaced points and levels at high
    SNR, whose h_t tie exactly."""
    costs = [c for noise in (0.05, 0.5) for c in _ladder_costs(noise) if c.q == 2]
    rng = np.random.default_rng(29)
    costs += [cost_tensor(random_spec(rng, m, 2, noise))
              for m in range(2, 33) for noise in (0.05, 0.5)]
    costs += [cost_tensor(ChannelSpec(tuple(float(2 * i - m + 1) for i in range(m)),
                                      (0.0, 1.0), (0.5, 0.5), 0.01)) for m in (2, 4, 8, 16)]
    return costs


class TestQ2Route:
    """At Q = 2 `solve_uniform_lp` is one Hungarian: an optimal vertex of
    the simplex's LP, 1/M on a permutation, with duals that pass the
    simplex's reduced-cost checks."""

    def test_agrees_with_the_simplex_oracle(self):
        for costs in _q2_costs():
            m = costs.m
            sol = solve_uniform_lp(costs)
            oracle, _ = dense_marginal_lp(costs, MarginalSet.uniform(m, 2))
            # The simplex stops once no reduced cost is below -1e-10, so its
            # objective may lie above the optimum (by 1.2e-11 on one random
            # 6/2 here); the Hungarian's never does by more than 2e-13.
            assert -1e-10 <= sol.objective - oracle.objective <= 1e-12
            if m <= 7:
                best = exhaustive_assignment_min(costs.values)
                assert abs(sol.objective - best / m) <= 1e-12
            assert sol.iterations == 0
            ranks = np.flatnonzero(sol.pmf.probs)
            assert np.all(sol.pmf.probs[ranks] == 1.0 / m)
            rows, cols = np.divmod(ranks, m)
            assert rows.tolist() == list(range(m)) and sorted(cols.tolist()) == list(range(m))
            assert sol.objective == math.fsum(costs.values[rows, cols].tolist()) / m
            rc = costs.values - sol.duals[:, :1] - sol.duals[:, 1:].T
            assert rc.min() >= -1e-13  # round-off only: the duals are feasible
            assert np.abs(rc[rows, cols]).max() <= 1e-12
            assert sol.objective == pytest.approx(float(sol.duals.sum()) / m, abs=1e-12)

    def test_ties_take_the_lowest_columns(self):
        # Costs tied exactly or up to rounding: each row's search reaches the
        # lowest free tied column first, so the matching is the identity.
        rng = np.random.default_rng(3)
        for m in (1, 2, 5, 12):
            for values in (np.zeros((m, m)), 1.0 + 1e-15 * rng.normal(size=(m, m))):
                sol = solve_uniform_lp(CostTensor(values))
                assert sol.pmf.support() == [(i, i) for i in range(1, m + 1)]

    def test_budget_admits_m_up_to_203(self, monkeypatch):
        optimize.check_marginal_budget(203, 2)

        def no_work(*args):
            raise AssertionError("the Hungarian started")

        monkeypatch.setattr(optimize, "_hungarian", no_work)
        with pytest.raises(BudgetExceededError, match="beyond the budget"):
            solve_uniform_lp(CostTensor(np.zeros((204, 204))))


def _ba_oracle_specs():
    rng = np.random.default_rng(11)
    shapes = [(2, 2, 0.33), (3, 2, 0.81), (2, 3, 0.49), (4, 3, 0.64), (3, 3, 0.15), (4, 4, 0.36)]
    return [random_spec(rng, m, q, noise_power) for m, q, noise_power in shapes] + [
        binary_spec(noise_power=10 ** (-snr_db / 10.0)) for snr_db in (-5, 20, 40, 60)
    ] + [
        # Means 100 sigma apart at sigma = 1/2: midway, a node's only nonzero
        # component can be one subnormal step, so p_Y there underflows to 0.
        ChannelSpec((-25.0, 25.0), (0.0,), (1.0,), 0.25)
    ]


class TestBlahutArimoto:
    """The oracle itself, which the capacity solver is checked against."""

    def test_clean_binary_awgn_limit(self):
        # single interference level at 0, well-separated inputs, tiny noise
        spec = ChannelSpec((-1.0, 1.0), (0.0,), (1.0,), 0.005)
        result = blahut_arimoto(spec)
        assert result.converged
        assert result.capacity_bits == pytest.approx(1.0, abs=1e-3)

    def test_dominates_uniform_restriction(self):
        rng = np.random.default_rng(37)
        for _ in range(5):
            spec = random_spec(rng, 2, 2, noise_power=float(rng.uniform(0.1, 1.0)))
            grid_costs = cost_tensor(spec)
            uniform = solve_uniform_lp(grid_costs)
            ba = blahut_arimoto(spec)
            assert ba.capacity_bits >= uniform_rate_bits(spec, uniform) - 1e-6

    def test_universal_cardinality_bound(self):
        spec = binary_spec()
        result = blahut_arimoto(spec)
        assert 0.0 <= result.capacity_bits <= math.log2(spec.num_symbols)

    def test_lower_bounds_monotone(self):
        spec = binary_spec(noise_power=0.5)
        result = blahut_arimoto(spec)
        lbs = result.lower_bounds
        assert len(lbs) == result.iterations
        assert all(b >= a - 1e-12 for a, b in zip(lbs, lbs[1:]))

    def test_nonconvergence_flagged(self):
        spec = binary_spec()
        result = blahut_arimoto(spec, max_iter=2)
        assert not result.converged
        assert result.iterations == 2

    def test_symmetric_channel_uniform_is_optimal(self):
        # BPSK over plain AWGN (one interference level): by symmetry the
        # uniform input achieves capacity, so BA must match its quadrature MI
        spec = ChannelSpec((-1.0, 1.0), (0.0,), (1.0,), 0.4)
        uniform_mi = mutual_information(JointPmf.uniform(2, 1), spec, cost_tensor(spec))
        ba = blahut_arimoto(spec)
        assert ba.converged
        assert ba.capacity_bits == pytest.approx(uniform_mi, abs=1e-6)

    def test_binary_capacity_curve_sane(self):
        for snr_db in (-5.0, 0.0, 5.0, 10.0, 20.0):
            spec = binary_spec(noise_power=10 ** (-snr_db / 10.0))
            costs = cost_tensor(spec)
            lp = solve_uniform_lp(costs)
            ba = blahut_arimoto(spec)
            assert uniform_rate_bits(spec, lp) - 1e-6 <= ba.capacity_bits <= 1.0 + 1e-6

    @pytest.mark.parametrize(
        "spec",
        _ba_oracle_specs(),
        ids=["2-2", "3-2", "2-3", "4-3", "3-3", "4-4",
             "binary-5dB", "binary20dB", "binary40dB", "binary60dB", "apart100sigma"],
    )
    def test_matches_dense_midpoint_channel(self, spec):
        # The same iteration on a dense M^Q x cells channel over sigma/20
        # midpoint cells, built without the package's component table.
        # At 2,000 iterations 3-2, 4-3 and 4-4 stop unconverged; both must stop alike.
        capacity, pmf, converged, iterations = dense_blahut_arimoto(
            spec, math.sqrt(spec.noise_power) / 20.0, max_iter=2000
        )
        result = blahut_arimoto(spec, max_iter=2000)
        assert (result.converged, result.iterations) == (converged, iterations)
        assert result.capacity_bits == pytest.approx(capacity, abs=1e-10)
        assert np.abs(result.pmf.probs - pmf).max() < 1e-10

    def test_memory_does_not_grow_with_symbols_times_nodes(self):
        # A dense 4096 x cells channel matrix would peak at 144 MB here.
        spec = ChannelSpec((-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0),
                           (-3.0, -1.0, 1.0, 3.0), (0.25,) * 4, 0.05)
        costs = cost_tensor(spec)
        tracemalloc.start()
        try:
            blahut_arimoto(spec, costs=costs, max_iter=20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


PAM4 = (-3.0, -1.0, 1.0, 3.0)
PAM8 = (-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0)


def _pam4q4(snr_db):
    # x_i + s_j repeats across states, so directions that move mass without
    # changing p_Y exist, and I is linear along them
    return ChannelSpec(PAM4, PAM4, (0.25,) * 4, noise_power_for_snr_db(PAM4, snr_db))


def _equal_mean_specs():
    return [_pam4q4(snr_db) for snr_db in (0.0, 5.0, 10.0)] + [
        ChannelSpec(PAM4, (-1.0, 1.0), (0.5, 0.5), noise_power_for_snr_db(PAM4, 5.0)),
        ChannelSpec(PAM8, (-2.0, 0.0, 2.0), (1 / 3,) * 3, noise_power_for_snr_db(PAM8, 10.0)),
        binary_spec(0.1),
    ]


def _random_43_specs():
    rng = np.random.default_rng(1234)
    return [random_spec(rng, 4, 3, noise_power=0.05) for _ in range(16)]


class TestCapacity:
    TOL_BITS = 1e-7 / math.log(2.0)  # the default tol, in bits

    def _certified(self, result):
        assert result.converged
        assert result.capacity_bits <= result.upper_bound_bits
        assert result.upper_bound_bits < result.capacity_bits + self.TOL_BITS

    @pytest.mark.parametrize("spec", _equal_mean_specs() + _random_43_specs()[:4])
    def test_certified_interval(self, spec):
        self._certified(capacity(spec, cost_tensor(spec)))

    def test_at_least_the_uniform_lp_rate(self):
        # BA stops below the uniform-LP rate on several of these at its defaults.
        for spec in _random_43_specs() + [_pam4q4(0.0)]:
            costs = cost_tensor(spec)
            result = capacity(spec, costs)
            self._certified(result)
            uniform = uniform_rate_bits(spec, solve_uniform_lp(costs))
            assert result.capacity_bits >= uniform - 1e-9

    def test_matches_the_ba_oracle_where_it_converges(self):
        agreed = 0
        for spec in _ba_oracle_specs() + _equal_mean_specs()[:2]:
            oracle = blahut_arimoto(spec)
            result = capacity(spec, cost_tensor(spec))
            self._certified(result)
            if oracle.converged:
                agreed += 1
                assert abs(result.capacity_bits - oracle.capacity_bits) < self.TOL_BITS
            else:  # the oracle's I(p) is a lower bound all the same
                assert oracle.capacity_bits <= result.upper_bound_bits
        assert agreed >= 8

    @pytest.mark.parametrize("spec", _equal_mean_specs() + _random_43_specs())
    def test_support_within_the_theorem_bound(self, spec):
        costs = cost_tensor(spec)
        result = capacity(spec, costs)
        assert result.converged
        assert len(result.pmf.support()) <= spec.m * spec.q - spec.q + 1
        assert np.count_nonzero(result.pmf.probs) <= spec.m * spec.q - spec.q + 1
        assert result.pmf.probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert mutual_information(result.pmf, spec, costs) == pytest.approx(
            result.capacity_bits, abs=1e-9)

    def test_null_space_of_images(self):
        rng = np.random.default_rng(5)
        for rows, cols in [(3, 5), (6, 4), (7, 9), (1, 3)]:
            a = rng.integers(0, 2, size=(rows, cols)).astype(float)
            a[:, -1] = a[:, 0] + a[:, 1]  # at least one dependency
            null = _null_space(a)
            assert null.shape == (cols, cols - np.linalg.matrix_rank(a))
            assert np.abs(a @ null).max() < 1e-12
            assert np.linalg.matrix_rank(null) == null.shape[1]
        assert _null_space(np.eye(3)).shape == (3, 0)

    def test_null_space_is_an_orthonormal_basis_of_the_eliminations(self):
        # Random 0/1 and real matrices, and the distinct-mean images of
        # binary supports, whose columns repeat: the SVD's basis has the
        # elimination's column count, is orthonormal, and spans its space.
        rng = np.random.default_rng(13)
        mats = [rng.integers(0, 2, size=shape).astype(float)
                for shape in [(3, 5), (6, 4), (7, 9), (1, 3), (5, 5)]]
        mats += [rng.normal(size=(4, 7)), np.zeros((2, 3))]
        spec = binary_spec(noise_power=0.5)
        channel = _AssociatedChannel(spec, cost_tensor(spec))
        mats += [channel.image @ _incidence(np.asarray(support), 2, 2)
                 for support in ([0, 1, 2, 3], [0, 3], [1, 2, 3])]
        for a in mats:
            null, oracle = _null_space(a), dense_null_space(a)
            assert null.shape == oracle.shape
            assert np.abs(null.T @ null - np.eye(null.shape[1])).max(initial=0.0) <= 1e-12
            basis = np.linalg.qr(oracle)[0]
            assert np.abs(null @ null.T - basis @ basis.T).max(initial=0.0) <= 1e-12

    def test_pivot_moves_mass_without_moving_p_y(self):
        # Binary: (1,1) and (2,2) put the same means on the output as (1,2)
        # and (2,1), so the four images are dependent and I is linear along
        # their null direction.
        spec = binary_spec(noise_power=0.5)
        channel = _AssociatedChannel(spec, cost_tensor(spec))
        support, p_s = np.arange(4), np.asarray([0.1, 0.2, 0.3, 0.4])
        null = _null_space(channel.image @ _incidence(support, 2, 2))
        assert null.shape == (4, 1)
        p_y, div = channel.prices(support, p_s)
        support_after, p_after = _pivot(support, p_s, div[support], null)
        p_y_after, div_after = channel.prices(support_after, p_after)
        assert len(support_after) == 3
        assert np.allclose(p_y_after, p_y, rtol=1e-12, atol=0.0)
        assert p_after @ div_after[support_after] >= p_s @ div[support] - 1e-15

    def test_dependent_support_is_pivoted_after_the_pricing(self, monkeypatch):
        # Start from all four binary symbols, whose images are dependent, and
        # stop after one pricing: the pivots after it leave three symbols, p_Y
        # and max_t D_t, and I does not fall. No pricing is taken beyond the
        # iterations counted, at max_iter or at convergence.
        spec = binary_spec(noise_power=0.5)
        costs = cost_tensor(spec)
        everything = JointPmf(2, 2, np.asarray([0.1, 0.2, 0.3, 0.4]))
        monkeypatch.setattr(optimize, "solve_uniform_lp",
                            lambda c: LpSolution(everything, 0.0, 0, np.zeros((2, 2))))
        channel = _AssociatedChannel(spec, costs)
        div = channel.prices(np.arange(4), everything.probs)[1]
        pricings = []
        prices = _AssociatedChannel.prices

        def counted(self, support, p_s):
            pricings.append(len(support))
            return prices(self, support, p_s)

        monkeypatch.setattr(_AssociatedChannel, "prices", counted)
        result = capacity(spec, costs, max_iter=1)
        assert not result.converged and result.iterations == 1
        assert pricings == [4]
        assert len(result.pmf.support()) == 3
        assert result.upper_bound_bits == pytest.approx(div.max() / math.log(2.0), abs=1e-12)
        assert result.capacity_bits >= everything.probs @ div / math.log(2.0) - 1e-12
        assert mutual_information(result.pmf, spec, costs) == pytest.approx(
            result.capacity_bits, abs=1e-12)
        pricings.clear()
        result = capacity(spec, costs)
        assert result.converged and len(pricings) == result.iterations

    @pytest.mark.parametrize("spec", _equal_mean_specs())
    def test_every_exit_has_independent_images(self, spec):
        # At max_iter or at convergence, the support returned has passed the
        # pivots: its distinct-mean images are independent.
        costs = cost_tensor(spec)
        channel = _AssociatedChannel(spec, costs)
        for max_iter in range(1, 7):
            support = np.flatnonzero(capacity(spec, costs, max_iter=max_iter).pmf.probs)
            assert len(support) <= spec.m * spec.q - spec.q + 1
            assert _null_space(channel.image @ _incidence(support, spec.m, spec.q)).size == 0

    def test_support_beyond_the_bound_raises(self, monkeypatch):
        spec = binary_spec(noise_power=0.5)
        everything = JointPmf.uniform(2, 2)
        monkeypatch.setattr(optimize, "solve_uniform_lp",
                            lambda c: LpSolution(everything, 0.0, 0, np.zeros((2, 2))))
        monkeypatch.setattr(optimize, "_independent", lambda channel, support, p_s, div: (
            support, p_s, _incidence(support, channel.m, channel.q)))
        with pytest.raises(RuntimeError, match="beyond MQ - Q \\+ 1"):
            capacity(spec, cost_tensor(spec), max_iter=1)

    def test_upper_bound_holds_where_p_y_underflows(self):
        # Binary at 40 dB with support {(1,1)}: p_Y has means -2 and 0, so at
        # the nodes around +2 it is e^-20000, below the smallest float. The
        # symbols with a mean at +2 diverge from p_Y by about 10^4 nats.
        spec = binary_spec(noise_power=1e-4)
        sigma = 0.01
        channel = _AssociatedChannel(spec, cost_tensor(spec))
        p_y, div = channel.prices(np.asarray([0]), np.asarray([1.0]))
        assert (p_y == 0.0).any()
        lo, hi, n = -2.0 - 12 * sigma, 2.0 + 12 * sigma, 800_000
        step = (hi - lo) / n
        y = lo + step * (np.arange(n) + 0.5)

        def log_density(means):
            z = (y[:, None] - np.asarray(means)) / sigma
            log_phi = -0.5 * z * z - math.log(sigma * math.sqrt(2 * math.pi))
            return np.logaddexp.reduce(log_phi + math.log(0.5), axis=1)

        log_p_y = log_density([-2.0, 0.0])
        exact = []
        for i, j in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            log_f = log_density([spec.constellation[i - 1] - 1.0, spec.constellation[j - 1] + 1.0])
            exact.append(float(np.sum(np.exp(log_f) * (log_f - log_p_y))) * step)
        assert max(exact) > 9e3
        assert div.max() >= max(exact) - 1e-9
        assert div == pytest.approx(exact, rel=1e-9, abs=1e-6)

    def test_far_components_keep_every_log_finite(self):
        # Binary at 3,080 dB (P_N = 1e-308): means 2 apart lie 2e154 sigma
        # apart, so z^2 would overflow. With support {(1,1)}, p_Y underflows
        # around +2, and the log-sum-exp there needs finite terms.
        spec = binary_spec(noise_power=1e-308)
        with np.errstate(over="raise", invalid="raise"):
            channel = _AssociatedChannel(spec, cost_tensor(spec))
            assert np.isfinite(channel._log_components(slice(None))).all()
            p_y, div = channel.prices(np.asarray([0]), np.asarray([1.0]))
        assert (p_y == 0.0).any()
        assert np.isfinite(div).all()
        assert div.max() > 1e290  # symbols with a mean at +2: p_Y is e^-(10^300) there

    def test_nonconvergence_flagged(self):
        spec = binary_spec()
        costs = cost_tensor(spec)
        result = capacity(spec, costs, max_iter=1)
        assert not result.converged
        assert result.iterations == 1
        with pytest.raises(ValueError, match="max_iter"):
            capacity(spec, costs, max_iter=0)
        for tol in (math.nan, 0.0, -1.0, math.inf):  # no tolerance that can never be met
            with pytest.raises(ValueError, match="tol"):
                capacity(spec, costs, tol=tol)

    def test_starts_from_the_callers_uniform_lp(self):
        spec = _random_43_specs()[0]
        costs = cost_tensor(spec)
        own = capacity(spec, costs)
        given = capacity(spec, costs, lp=solve_uniform_lp(costs))
        assert given.pmf.probs.tobytes() == own.pmf.probs.tobytes()
        assert (given.capacity_bits, given.iterations) == (own.capacity_bits, own.iterations)
        other = solve_uniform_lp(random_costs(np.random.default_rng(0), 3, 3))
        with pytest.raises(ValueError, match="uniform LP shape"):
            capacity(spec, costs, lp=other)

    def test_budget_checked_before_any_work(self):
        with pytest.raises(BudgetExceededError, match="nodes x MQ"):
            capacity(CHAIN_128X2, cost_tensor(CHAIN_128X2))

    def test_memory_does_not_grow_with_symbols_times_nodes(self):
        spec = ChannelSpec(PAM8, PAM4, (0.25,) * 4, 0.05)
        costs = cost_tensor(spec)
        tracemalloc.start()
        try:
            result = capacity(spec, costs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.converged
        assert peak < 16e6


class TestSupportReduce:
    def test_vertex_fixed_point(self):
        spec = binary_spec()
        costs = cost_tensor(spec)
        sol = solve_uniform_lp(costs)
        again = support_reduce(sol.pmf, costs)
        mi_before = mutual_information(sol.pmf, spec, costs)
        mi_after = mutual_information(again.pmf, spec, costs)
        assert mi_after >= mi_before - 2e-6
        assert len(again.pmf.support()) <= len(sol.pmf.support())

    def test_ba_output_binary(self):
        spec = binary_spec()
        costs = cost_tensor(spec)
        ba = blahut_arimoto(spec)
        reduced = support_reduce(ba.pmf, costs)
        assert len(reduced.pmf.support()) <= 3  # MQ - Q + 1
        mi = mutual_information(reduced.pmf, spec, costs)
        assert mi == pytest.approx(ba.capacity_bits, abs=1e-4)

    def test_uniform_input(self):
        spec = binary_spec()
        costs = cost_tensor(spec)
        p = JointPmf.uniform(2, 2)
        reduced = support_reduce(p, costs)
        assert len(reduced.pmf.support()) <= 3
        assert mutual_information(reduced.pmf, spec, costs) >= (
            mutual_information(p, spec, costs) - 2e-6
        )
        # marginals preserved
        assert np.allclose(
            marginals_of(reduced.pmf).per_state, marginals_of(p).per_state, atol=1e-8
        )

    def test_mi_never_drops_random(self):
        rng = np.random.default_rng(41)
        for _ in range(5):
            spec = random_spec(rng, 3, 2, noise_power=float(rng.uniform(0.1, 1.0)))
            raw = rng.uniform(size=spec.num_symbols)
            p = JointPmf(spec.m, spec.q, raw / raw.sum())
            costs = cost_tensor(spec)
            reduced = support_reduce(p, costs)
            assert mutual_information(reduced.pmf, spec, costs) >= (
                mutual_information(p, spec, costs) - 2e-6
            )
