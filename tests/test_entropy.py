import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from causalprecode import (
    Assignment,
    ChannelSpec,
    JointPmf,
    MarginalSet,
    assignment_rate,
    cost_tensor,
    differential_entropy,
    gaussian_entropy,
    marginals_of,
    mixture_pdf,
    mutual_information,
    noise_power_for_snr_db,
    output_pdf,
    quadrature_grid,
)
from causalprecode import cli, entropy
from causalprecode.entropy import QuadratureGrid, integrate
from helpers import binary_spec, random_code, random_spec, riemann_entropy


def phi(y, mean, var):
    return np.exp(-0.5 * (y - mean) ** 2 / var) / math.sqrt(2 * math.pi * var)


class TestMixturePdf:
    def test_single_state_peak(self):
        spec = ChannelSpec((0.5, 2.0), (0.3,), (1.0,), 0.04)
        peak = mixture_pdf((1,), 0.5 + 0.3, spec)
        assert abs(peak - 1.0 / math.sqrt(2 * math.pi * 0.04)) < 1e-12

    @pytest.mark.parametrize("t", [(1, 1), (1, 2), (2, 1), (2, 2)])
    def test_normalization(self, t):
        spec = binary_spec()
        grid = quadrature_grid(spec)
        assert abs(integrate(lambda y: mixture_pdf(t, y, spec), grid) - 1.0) < 1e-9

    def test_binary_closed_form(self):
        spec = binary_spec()
        y = np.linspace(-4, 4, 101)
        got = mixture_pdf((1, 2), y, spec)
        want = 0.5 * phi(y, -2.0, 0.1) + 0.5 * phi(y, 2.0, 0.1)
        assert np.allclose(got, want, atol=1e-14)

    def test_zero_noise_rejected(self):
        spec = ChannelSpec((-1.0, 1.0), (0.0,), (1.0,), 0.0)
        with pytest.raises(ValueError, match="noisefree"):
            mixture_pdf((1,), 0.0, spec)


class TestOutputPdf:
    def test_deterministic_marginals(self):
        spec = binary_spec()
        marg = MarginalSet(np.asarray([[1.0, 0.0], [1.0, 0.0]]))
        y = np.linspace(-4, 4, 51)
        want = 0.5 * phi(y, -2.0, 0.1) + 0.5 * phi(y, 0.0, 0.1)  # x_1 + each s_q
        assert np.allclose(output_pdf(marg, y, spec), want, atol=1e-14)

    def test_single_state_uniform(self):
        spec = ChannelSpec((0.0, 1.0, 2.0), (0.5,), (1.0,), 0.02)
        marg = MarginalSet.uniform(3, 1)
        y = np.linspace(-1, 4, 51)
        want = sum(phi(y, x + 0.5, 0.02) for x in (0.0, 1.0, 2.0)) / 3.0
        assert np.allclose(output_pdf(marg, y, spec), want, atol=1e-14)

    def test_uniform_binary_expansion(self):
        # hand expansion: 1/4 [phi(y+2) + 2 phi(y) + phi(y-2)]
        spec = binary_spec()
        marg = MarginalSet.uniform(2, 2)
        y = np.linspace(-4, 4, 81)
        want = 0.25 * (phi(y, -2, 0.1) + 2 * phi(y, 0, 0.1) + phi(y, 2, 0.1))
        assert np.allclose(output_pdf(marg, y, spec), want, atol=1e-14)

    def test_total_probability_consistency(self):
        from causalprecode import enumerate_symbols

        rng = np.random.default_rng(5)
        for _ in range(10):
            spec = random_spec(rng, 3, 2, noise_power=float(rng.uniform(0.05, 1.0)))
            raw = rng.uniform(size=spec.num_symbols)
            p = JointPmf(spec.m, spec.q, raw / raw.sum())
            y = np.linspace(-6, 6, 64)
            via_marginals = output_pdf(marginals_of(p), y, spec)
            via_symbols = sum(
                p.probs[k] * mixture_pdf(t, y, spec)
                for k, t in enumerate(enumerate_symbols(spec))
            )
            assert np.allclose(via_marginals, via_symbols, atol=1e-12)


class TestDifferentialEntropy:
    @pytest.mark.parametrize("var", [0.01, 0.1, 1.0, 10.0])
    def test_gaussian_reference(self, var):
        sigma = math.sqrt(var)
        grid = QuadratureGrid(-10 * sigma, 10 * sigma, panels=40)
        got = differential_entropy(lambda y: phi(y, 0.0, var), grid)
        assert abs(got - gaussian_entropy(var)) < 1e-9

    def test_uniform_density(self):
        grid = QuadratureGrid(-0.5, 1.5, panels=16)
        pdf = lambda y: np.where((y >= 0.0) & (y <= 1.0), 1.0, 0.0)
        assert abs(differential_entropy(pdf, grid)) < 1e-6

    def test_separated_mixture(self):
        # Two far-apart components: entropy -> ln 2 + component entropy.
        var = 0.01
        pdf = lambda y: 0.5 * phi(y, -2, var) + 0.5 * phi(y, 2, var)
        grid = QuadratureGrid(-3.0, 3.0, panels=120)
        got = differential_entropy(pdf, grid)
        want = math.log(2.0) + gaussian_entropy(var)
        assert abs(got - want) < 1e-6
        # independent check: brute-force Riemann sum
        assert abs(got - riemann_entropy(pdf, -3.0, 3.0)) < 1e-6

    def test_nonfinite_rejected(self):
        grid = QuadratureGrid(0.0, 1.0, panels=2)
        with pytest.raises(ValueError, match="non-finite"):
            differential_entropy(lambda y: np.full_like(y, np.nan), grid)


class TestCostTensor:
    def test_collapsed_symbol_is_exact_gaussian(self):
        # (2,1) has means {0,0}: the mixture collapses to one Gaussian.
        spec = binary_spec()
        costs = cost_tensor(spec)
        grid = quadrature_grid(spec)
        pure = differential_entropy(lambda y: phi(y, 0.0, 0.1), grid)
        assert costs.entry((2, 1)) == pytest.approx(pure, abs=1e-12)
        assert abs(costs.entry((2, 1)) - gaussian_entropy(0.1)) < 1e-9

    def test_shift_invariance_h11_h22(self):
        costs = cost_tensor(binary_spec())
        assert abs(costs.entry((1, 1)) - costs.entry((2, 2))) < 1e-9

    def test_h12_vs_h21(self):
        # means {-2,+2} vs {0,0}: the first carries ~ln 2 extra entropy
        costs = cost_tensor(binary_spec(noise_power=0.01))
        assert costs.entry((1, 2)) == pytest.approx(
            math.log(2) + gaussian_entropy(0.01), abs=1e-6
        )
        assert costs.entry((2, 1)) == pytest.approx(gaussian_entropy(0.01), abs=1e-9)

    def test_equal_mean_multisets_equal_entropy(self):
        # X={0,1,2}, S={0,1}: (3,1) and (2,2) both have means {1,2}.
        spec = ChannelSpec((0.0, 1.0, 2.0), (0.0, 1.0), (0.5, 0.5), 0.2)
        costs = cost_tensor(spec)
        assert abs(costs.entry((3, 1)) - costs.entry((2, 2))) < 1e-12

    def test_state_exchange_symmetry(self):
        # equal r and mirrored levels: swapping states preserves any symbol
        # whose mean multiset survives the swap
        spec = binary_spec()
        costs = cost_tensor(spec)
        x, s = spec.constellation, spec.interference_levels
        for t in [(1, 1), (1, 2), (2, 1), (2, 2)]:
            u = (t[1], t[0])
            means_t = sorted(x[t[j] - 1] + s[j] for j in range(2))
            means_u = sorted(x[u[j] - 1] + s[j] for j in range(2))
            if means_t == means_u:
                assert abs(costs.entry(t) - costs.entry(u)) < 1e-9

    def test_floor_invariant(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            spec = random_spec(rng, 3, 3, noise_power=float(rng.uniform(0.05, 2.0)))
            costs = cost_tensor(spec)
            assert costs.values.min() >= gaussian_entropy(spec.noise_power) - 1e-9

    def test_blocks_do_not_change_the_tensor(self, monkeypatch):
        spec = random_spec(np.random.default_rng(5), 3, 3, 0.1)
        grid = quadrature_grid(spec)
        nodes = entropy._grid_nodes(grid)[0].size
        assert nodes % 9 != 0
        # every node in one block, then blocks of 9 nodes, the last one partial
        monkeypatch.setattr(entropy, "_BLOCK_ELEMENTS", nodes * 27)
        whole = cost_tensor(spec, grid).values
        monkeypatch.setattr(entropy, "_BLOCK_ELEMENTS", 9 * 27 + 1)
        assert np.allclose(cost_tensor(spec, grid).values, whole, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("noise_power", [0.05, 0.005])
    def test_memory_does_not_grow_with_symbols_times_nodes(self, noise_power):
        # PAM-8/Q=4: 4096 symbols; a dense density matrix would take
        # nodes x 4096 x 8 bytes (230 MB at P_N = 0.05).
        spec = ChannelSpec((-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0),
                           (-3.0, -1.0, 1.0, 3.0), (0.25,) * 4, noise_power)
        grid = quadrature_grid(spec)
        table_bytes = entropy._grid_nodes(grid)[0].size * spec.m * spec.q * 8
        tracemalloc.start()
        try:
            cost_tensor(spec, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * table_bytes + 4 * 8 * entropy._BLOCK_ELEMENTS

    def test_grid_too_narrow_for_the_floor_rejected(self):
        # [-0.5, 0.5] misses most of every mixture's mass: the truncated
        # integrals fall below the Gaussian floor and must not pass silently.
        with pytest.raises(ValueError, match="Gaussian floor"):
            cost_tensor(binary_spec(noise_power=0.1), QuadratureGrid(-0.5, 0.5, 4, 8))


class TestMutualInformation:
    def test_point_mass_is_zero(self):
        spec = binary_spec()
        p = JointPmf.from_entries(2, 2, {(2, 1): 1.0})
        assert abs(mutual_information(p, spec)) < 1e-12

    def test_fig2_high_snr_limit(self):
        spec = binary_spec(noise_power=1e-4)
        p = JointPmf.from_entries(2, 2, {(1, 2): 0.5, (2, 1): 0.5})
        assert mutual_information(p, spec) == pytest.approx(1.0, abs=1e-6)

    def test_bounds_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            spec = random_spec(rng, 2, 2, noise_power=float(rng.uniform(0.05, 1.0)))
            raw = rng.uniform(size=4)
            p = JointPmf(2, 2, raw / raw.sum())
            mi = mutual_information(p, spec)
            assert -1e-9 <= mi <= math.log2(4) + 1e-9

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(29)
        spec = binary_spec()
        for _ in range(10):
            a = rng.uniform(size=4)
            b = rng.uniform(size=4)
            pa = JointPmf(2, 2, a / a.sum())
            pb = JointPmf(2, 2, b / b.sum())
            mid = JointPmf(2, 2, 0.5 * (pa.probs + pb.probs))
            lhs = mutual_information(mid, spec)
            rhs = 0.5 * (mutual_information(pa, spec) + mutual_information(pb, spec))
            assert lhs >= rhs - 1e-9

    def test_noise_monotonicity(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            base = random_spec(rng, 3, 2, noise_power=float(rng.uniform(0.05, 0.5)))
            noisier = ChannelSpec(
                base.constellation,
                base.interference_levels,
                base.interference_probs,
                base.noise_power * 10.0,
            )
            raw = rng.uniform(size=base.num_symbols)
            p = JointPmf(base.m, base.q, raw / raw.sum())
            assert mutual_information(p, noisier) <= mutual_information(p, base) + 1e-9

    def test_costs_shortcut_matches(self):
        # A sweep rates each assignment as h(Y) minus its mean cost-tensor
        # entry; assignment_rate goes through mutual_information instead.
        # Binary takes the all-permutations columns, Q = 3 the best-only one.
        for spec in (binary_spec(), random_spec(np.random.default_rng(7), 3, 3, 0.2)):
            row = cli.sweep_point(spec, 10.0, False, cli._sweep_assignment_ids(spec))
            point = replace(
                spec, noise_power=noise_power_for_snr_db(spec.constellation, 10.0)
            )
            for aid, rate in row.rate_per_assignment.items():
                a = Assignment(cli._tuples_of_id(aid), total_cost=0.0)
                assert rate == pytest.approx(assignment_rate(a, point), abs=1e-12)

    @pytest.mark.parametrize("m,q", [(3, 3), (32, 2)])
    def test_support_only_rate_matches_the_full_tensor(self, m, q, monkeypatch):
        # Without `costs`, h_t is evaluated for the M support symbols only,
        # by the same reduction that fills the whole tensor.
        rng = np.random.default_rng(37 + m)
        spec = random_spec(rng, m, q, 0.05)
        grid = quadrature_grid(spec)
        a = Assignment(random_code(rng, m, q).symbols, total_cost=0.0)
        full = assignment_rate(a, spec, grid, cost_tensor(spec, grid))
        samples = []
        mixture_matrix = entropy._mixture_matrix
        monkeypatch.setattr(
            entropy,
            "_mixture_matrix",
            lambda g, digits: samples.append(g.shape[0] * len(digits[0]))
            or mixture_matrix(g, digits),
        )
        assert assignment_rate(a, spec, grid) == pytest.approx(full, abs=1e-12)
        # each support column once at every node, and no other column
        assert sum(samples) == m * entropy._grid_nodes(grid)[0].size

    def test_support_only_rate_keeps_the_floor_check(self):
        p = JointPmf.from_entries(2, 2, {(1, 2): 0.5, (2, 1): 0.5})
        with pytest.raises(ValueError, match="Gaussian floor"):
            mutual_information(
                p, binary_spec(noise_power=0.1), QuadratureGrid(-0.5, 0.5, 4, 8)
            )

    def test_output_normalization(self):
        spec = binary_spec()
        grid = quadrature_grid(spec)
        marg = MarginalSet.uniform(2, 2)
        assert abs(integrate(lambda y: output_pdf(marg, y, spec), grid) - 1.0) < 1e-9

    def test_against_independent_riemann_oracle(self):
        # recompute I(T;Y) from scratch: plain Riemann sums of the densities,
        # no shared quadrature code
        spec = binary_spec(noise_power=0.2)
        rng = np.random.default_rng(43)
        raw = rng.uniform(size=4)
        p = JointPmf(2, 2, raw / raw.sum())
        lo, hi = -8.0, 8.0
        h_y = riemann_entropy(
            lambda y: output_pdf(marginals_of(p), y, spec), lo, hi
        )
        h_y_t = sum(
            p.probs[k] * riemann_entropy(lambda y, t=t: mixture_pdf(t, y, spec), lo, hi)
            for k, t in enumerate([(1, 1), (1, 2), (2, 1), (2, 2)])
        )
        oracle_bits = (h_y - h_y_t) / math.log(2.0)
        assert mutual_information(p, spec) == pytest.approx(oracle_bits, abs=1e-7)
