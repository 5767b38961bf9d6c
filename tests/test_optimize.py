import math
import tracemalloc

import numpy as np
import pytest

from causalprecode import (
    ChannelSpec,
    CostTensor,
    JointPmf,
    MarginalSet,
    blahut_arimoto,
    cost_tensor,
    marginals_of,
    mutual_information,
    solve_marginal_lp,
    solve_uniform_lp,
    support_reduce,
)
from causalprecode.optimize import _marginal_rows, _northwest_corner
from helpers import (
    binary_spec,
    dense_blahut_arimoto,
    enumerate_vertex_objectives,
    ipf_feasible_point,
    marginal_constraint_matrix,
    random_spec,
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
        c = costs.values.reshape(-1)
        for _ in range(1000):
            p = ipf_feasible_point(rng, 3, 2, targets.per_state)
            assert float(c @ p) >= sol.objective - 1e-9

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
            assert sol.basis_size == m * q - q + 1

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
            a, keep = _marginal_rows(m, q)
            basis = _northwest_corner(per_state)
            assert len(set(basis)) == len(basis) == m * q - q + 1
            mat = a[keep][:, basis]
            assert np.linalg.matrix_rank(mat) == len(basis)
            x = np.linalg.solve(mat, per_state.reshape(-1)[keep])
            assert x.min() >= -1e-12
            p = np.zeros(m**q)
            p[basis] = x
            residual = marginal_constraint_matrix(m, q) @ p - per_state.reshape(-1)
            assert np.abs(residual).max() <= 1e-12

    def test_degenerate_targets(self):
        # zero-probability letters force structural zeros
        costs = CostTensor(np.asarray([[1.0, 2.0], [3.0, 4.0]]))
        targets = MarginalSet(np.asarray([[1.0, 0.0], [0.0, 1.0]]))
        sol = solve_marginal_lp(costs, targets)
        assert sol.pmf.prob((1, 2)) == pytest.approx(1.0, abs=1e-12)


class TestUniformLp:
    def test_binary_high_snr_support(self):
        spec = binary_spec(noise_power=0.01)
        sol = solve_uniform_lp(cost_tensor(spec), spec)
        assert sol.pmf.support() == [(1, 2), (2, 1)]
        assert sol.pmf.prob((1, 2)) == pytest.approx(0.5, abs=1e-9)
        assert sol.rate_bits == pytest.approx(1.0, abs=1e-3)

    def test_binary_low_snr_support(self):
        spec = binary_spec(noise_power=10.0)
        sol = solve_uniform_lp(cost_tensor(spec), spec)
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
            uniform = solve_uniform_lp(grid_costs, spec)
            ba = blahut_arimoto(spec)
            assert ba.capacity_bits >= uniform.rate_bits - 1e-6

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
        uniform_mi = mutual_information(JointPmf.uniform(2, 1), spec)
        ba = blahut_arimoto(spec)
        assert ba.converged
        assert ba.capacity_bits == pytest.approx(uniform_mi, abs=1e-6)

    def test_binary_capacity_curve_sane(self):
        for snr_db in (-5.0, 0.0, 5.0, 10.0, 20.0):
            spec = binary_spec(noise_power=10 ** (-snr_db / 10.0))
            costs = cost_tensor(spec)
            lp = solve_uniform_lp(costs, spec)
            ba = blahut_arimoto(spec)
            assert lp.rate_bits - 1e-6 <= ba.capacity_bits <= 1.0 + 1e-6

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


class TestSupportReduce:
    def test_vertex_fixed_point(self):
        spec = binary_spec()
        costs = cost_tensor(spec)
        sol = solve_uniform_lp(costs, spec)
        again = support_reduce(spec, sol.pmf, costs=costs)
        mi_before = mutual_information(sol.pmf, spec, costs=costs)
        mi_after = mutual_information(again.pmf, spec, costs=costs)
        assert mi_after >= mi_before - 2e-6
        assert len(again.pmf.support()) <= len(sol.pmf.support())

    def test_ba_output_binary(self):
        spec = binary_spec()
        costs = cost_tensor(spec)
        ba = blahut_arimoto(spec)
        reduced = support_reduce(spec, ba.pmf, costs=costs)
        assert len(reduced.pmf.support()) <= 3  # MQ - Q + 1
        mi = mutual_information(reduced.pmf, spec, costs=costs)
        assert mi == pytest.approx(ba.capacity_bits, abs=1e-4)

    def test_uniform_input(self):
        spec = binary_spec()
        costs = cost_tensor(spec)
        p = JointPmf.uniform(2, 2)
        reduced = support_reduce(spec, p, costs=costs)
        assert len(reduced.pmf.support()) <= 3
        assert mutual_information(reduced.pmf, spec, costs=costs) >= (
            mutual_information(p, spec, costs=costs) - 2e-6
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
            reduced = support_reduce(spec, p, costs=costs)
            assert mutual_information(reduced.pmf, spec, costs=costs) >= (
                mutual_information(p, spec, costs=costs) - 2e-6
            )
