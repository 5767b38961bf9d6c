import itertools
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from causalprecode import (
    Assignment,
    ChannelSpec,
    JointPmf,
    MarginalSet,
    assignment_rate,
    cost_tensor,
    gaussian_entropy,
    marginals_of,
    multidim_assignment,
    mutual_information,
    noise_power_for_snr_db,
)
from causalprecode import cli, entropy
from helpers import (
    QuadratureGrid,
    binary_spec,
    default_grid_entropies,
    differential_entropy,
    integrate,
    mixture_pdf,
    output_pdf,
    quadrature_grid,
    random_spec,
    riemann_entropy,
    window,
)


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
        most = int(_split_of(spec).panels.max())
        assert most > 2 * 9 and most % 9 != 0
        # every mixture in one block, then one mixture per block of 9 panels,
        # at least 3 blocks on the longest grid and its last one partial
        monkeypatch.setattr(entropy, "_BLOCK_ELEMENTS", 1 << 30)
        whole = cost_tensor(spec).values
        monkeypatch.setattr(entropy, "_BLOCK_ELEMENTS", 9 * entropy._NODES_PER_PANEL)
        assert np.allclose(cost_tensor(spec).values, whole, rtol=0.0, atol=1e-13)

    @pytest.mark.parametrize("noise_power", [0.05, 0.005])
    def test_memory_does_not_grow_with_symbols_times_nodes(self, noise_power):
        # PAM-8/Q=4: 4096 symbols; a dense density matrix on the default grid
        # would take nodes x 4096 x 8 bytes (230 MB at P_N = 0.05). The
        # traced peak is 2.4-2.5 MiB at either P_N: the means and the sort of
        # the split, then a few blocks of _BLOCK_ELEMENTS.
        spec = ChannelSpec(*PAM8Q4, noise_power)
        cost_tensor(spec)  # caches the Gauss-Legendre rule outside the trace
        tracemalloc.start()
        try:
            cost_tensor(spec)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 << 20


class TestMutualInformation:
    def test_point_mass_is_zero(self):
        spec = binary_spec()
        p = JointPmf.from_entries(2, 2, {(2, 1): 1.0})
        assert abs(mutual_information(p, spec, cost_tensor(spec))) < 1e-12

    def test_cost_tensor_of_another_spec_rejected(self):
        # PAM-4 with two levels and binary with four both have 16 symbols,
        # so only the tensor's shape tells their cost tensors apart.
        pam4 = ChannelSpec((-3.0, -1.0, 1.0, 3.0), (-1.0, 1.0), (0.5, 0.5), 0.1)
        costs = cost_tensor(ChannelSpec((-1.0, 1.0), (-3.0, -1.0, 1.0, 3.0), (0.25,) * 4, 0.1))
        with pytest.raises(ValueError, match="cost tensor shape"):
            mutual_information(JointPmf.uniform(4, 2), pam4, costs)
        a = Assignment(((1, 2), (2, 1), (3, 4), (4, 3)), total_cost=0.0)
        with pytest.raises(ValueError, match="cost tensor shape"):
            assignment_rate(a, pam4, costs)

    def test_fig2_high_snr_limit(self):
        spec = binary_spec(noise_power=1e-4)
        p = JointPmf.from_entries(2, 2, {(1, 2): 0.5, (2, 1): 0.5})
        assert mutual_information(p, spec, cost_tensor(spec)) == pytest.approx(1.0, abs=1e-6)

    def test_bounds_random(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            spec = random_spec(rng, 2, 2, noise_power=float(rng.uniform(0.05, 1.0)))
            raw = rng.uniform(size=4)
            p = JointPmf(2, 2, raw / raw.sum())
            mi = mutual_information(p, spec, cost_tensor(spec))
            assert -1e-9 <= mi <= math.log2(4) + 1e-9

    def test_midpoint_concavity(self):
        rng = np.random.default_rng(29)
        spec = binary_spec()
        costs = cost_tensor(spec)
        for _ in range(10):
            a = rng.uniform(size=4)
            b = rng.uniform(size=4)
            pa = JointPmf(2, 2, a / a.sum())
            pb = JointPmf(2, 2, b / b.sum())
            mid = JointPmf(2, 2, 0.5 * (pa.probs + pb.probs))
            lhs = mutual_information(mid, spec, costs)
            rhs = 0.5 * (mutual_information(pa, spec, costs) + mutual_information(pb, spec, costs))
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
            assert mutual_information(p, noisier, cost_tensor(noisier)) <= (
                mutual_information(p, base, cost_tensor(base)) + 1e-9)

    def test_costs_shortcut_matches(self):
        # A sweep rates each assignment as h(Y) minus its mean cost-tensor
        # entry; assignment_rate goes through mutual_information instead.
        # Binary takes the all-permutations columns, Q = 3 the best-only one.
        for spec in (binary_spec(), random_spec(np.random.default_rng(7), 3, 3, 0.2)):
            assignments = cli._sweep_assignments(spec)
            row = cli.sweep_point(spec, 10.0, False, assignments)
            point = replace(
                spec, noise_power=noise_power_for_snr_db(spec.constellation, 10.0)
            )
            if assignments is None:  # best-only: the optimal assignment's column
                tuples = multidim_assignment(cost_tensor(point)).tuples
                assignments = {cli.assignment_id(tuples): tuples}
            assert set(row.rate_per_assignment) == set(assignments)
            for aid, tuples in assignments.items():
                a = Assignment(tuples, total_cost=0.0)
                assert row.rate_per_assignment[aid] == pytest.approx(
                    assignment_rate(a, point, cost_tensor(point)), abs=1e-12)

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
        assert mutual_information(p, spec, cost_tensor(spec)) == pytest.approx(
            oracle_bits, abs=1e-7)


PAM8Q4 = ((-7.0, -5.0, -3.0, -1.0, 1.0, 3.0, 5.0, 7.0), (-3.0, -1.0, 1.0, 3.0), (0.25,) * 4)


def _mixture(means, weights, sigma):
    return lambda y: sum(w * phi(y, mu, sigma * sigma) for mu, w in zip(means, weights))


def _pinned(values):
    """`values` stretched onto [-2, 2], the extreme ones at -2 and +2."""
    v = np.asarray(values)
    return tuple(-2.0 + 4.0 * (v - v.min()) / (v.max() - v.min()))


def _split_of(spec):
    """The cluster split `cost_tensor` makes of the spec's M^Q mixtures."""
    shape = (spec.m,) * spec.q
    letters = np.stack(np.unravel_index(np.arange(spec.num_symbols), shape), axis=-1)
    means = np.asarray(spec.constellation)[letters] + np.asarray(spec.interference_levels)
    weights = np.broadcast_to(spec.interference_probs, means.shape)
    return entropy._cluster_split(means, weights, math.sqrt(spec.noise_power))


def _on_the_default_grid(marg, spec):
    """h(Y) on the default grid, without the cluster split."""
    return differential_entropy(lambda y: output_pdf(marg, y, spec), quadrature_grid(spec))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestClusterSplit:
    """The one entropy path: mixtures split where neighbouring means lie more
    than 20 sigma apart, each distinct cluster integrated once."""

    @pytest.mark.parametrize("gap", [19.9, 20.0, 20.1])
    def test_gaps_around_the_split_against_riemann(self, gap):
        sigma = 0.3
        means = sigma * np.array([0.0, 1.5, 1.5 + gap])
        weights = np.array([0.2, 0.3, 0.5])
        got = entropy._mixture_entropies(means[None], weights[None], sigma)[0]
        oracle = riemann_entropy(
            _mixture(means, weights, sigma), -12 * sigma, means[-1] + 12 * sigma
        )
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_coincident_means_are_one_gaussian(self):
        sigma = 0.2
        means = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 1.0 + 30 * sigma]])
        weights = np.array([[0.2, 0.3, 0.5], [0.2, 0.3, 0.5]])
        got = entropy._mixture_entropies(means, weights, sigma)
        assert got[0] == pytest.approx(gaussian_entropy(sigma * sigma), abs=1e-12)
        for h, mu in zip(got, means):
            oracle = riemann_entropy(
                _mixture(mu, weights[0], sigma), 1.0 - 12 * sigma, mu.max() + 12 * sigma
            )
            assert h == pytest.approx(oracle, abs=1e-9)

    @pytest.mark.parametrize("noise_power", [0.5, 1e-4])
    def test_output_entropy_with_zero_marginal_entries(self, noise_power):
        # At 1e-4 the zero-weight component x_2 + s_1 = 0 sits alone, 100
        # sigma from every live one.
        spec = binary_spec(noise_power)
        marg = MarginalSet(np.array([[1.0, 0.0], [0.25, 0.75]]))
        got = entropy.output_entropy(marg, spec)
        oracle = riemann_entropy(lambda y: output_pdf(marg, y, spec), *window(spec))
        assert got == pytest.approx(oracle, abs=1e-9)
        assert got == pytest.approx(_on_the_default_grid(marg, spec), abs=1e-12)

    @pytest.mark.parametrize("snr_db", [-5.0, 20.0, 60.0])
    @pytest.mark.parametrize(
        "spec",
        [
            ChannelSpec((-1.0, 1.0), (-1.0, 1.0), (0.4, 0.6), 1.0),
            ChannelSpec((-3.0, -1.0, 1.0, 3.0), (-1.0, 1.0), (0.3, 0.7), 1.0),
        ],
        ids=["binary", "pam4q2"],
    )
    def test_cost_tensor_and_output_entropy_against_riemann(self, spec, snr_db):
        point = replace(spec, noise_power=noise_power_for_snr_db(spec.constellation, snr_db))
        sigma = math.sqrt(point.noise_power)
        lo, hi = window(point)
        lo, hi = lo - 2 * sigma, hi + 2 * sigma
        costs = cost_tensor(point)
        for t in np.ndindex(costs.values.shape):
            symbol = tuple(i + 1 for i in t)
            oracle = riemann_entropy(lambda y: mixture_pdf(symbol, y, point), lo, hi)
            assert costs.values[t] == pytest.approx(oracle, abs=1e-9)
        uniform = MarginalSet.uniform(point.m, point.q)
        oracle = riemann_entropy(lambda y: output_pdf(uniform, y, point), lo, hi)
        assert entropy.output_entropy(uniform, point) == pytest.approx(oracle, abs=1e-9)

    def test_split_matches_the_explicit_grid(self):
        rng = np.random.default_rng(53)
        for m, q in [(2, 2), (3, 2), (4, 2), (3, 3), (4, 3)]:
            for snr_db in (-5.0, 5.0, 15.0, 30.0, 45.0, 60.0):
                spec = random_spec(rng, m, q, 1.0)
                spec = replace(
                    spec, noise_power=noise_power_for_snr_db(spec.constellation, snr_db)
                )
                on_grid = default_grid_entropies(spec)
                assert np.abs(cost_tensor(spec).values.ravel() - on_grid).max() <= 1e-12
                raw = rng.uniform(size=(q, m)) * (rng.uniform(size=(q, m)) < 0.7)
                raw[:, 0] += 0.1
                marg = MarginalSet(raw / raw.sum(axis=1, keepdims=True))
                assert entropy.output_entropy(marg, spec) == pytest.approx(
                    _on_the_default_grid(marg, spec), abs=1e-12
                )

    @pytest.mark.parametrize("m,q", [(16, 3), (32, 2), (8, 4)],
                             ids=["rand16x3", "rand32x2", "pam8q4"])
    def test_cost_tensor_reaches_no_default_grid(self, m, q, monkeypatch):
        # Random 16/3 at P_N = 0.05 has nearly one distinct cluster per
        # symbol, random 32/2 few components per symbol, PAM-8/Q=4 36
        # distinct clusters; all of them take the split alone.
        if m == 8:
            spec = ChannelSpec(*PAM8Q4, 0.05)
        else:
            # like the benchmark ladder: extreme point and level at -2 and +2
            spec = random_spec(np.random.default_rng(61), m, q, 0.05)
            spec = replace(spec, constellation=_pinned(spec.constellation),
                           interference_levels=_pinned(spec.interference_levels))

        def unreachable(*args):
            raise AssertionError("cost_tensor reached the capacity solver's output grid")

        # the package's one node grid is the capacity solver's
        for name in ("_output_clusters", "_output_grid"):
            monkeypatch.setattr(entropy, name, unreachable)
        costs = cost_tensor(spec)
        assert costs.values.shape == (m,) * q
        assert costs.values.min() >= gaussian_entropy(spec.noise_power) - 1e-9

    def test_wide_cluster_keeps_the_middle_factor_finite(self):
        # 152 means 19 sigma apart form one cluster 2,869 sigma wide, where
        # exp((o - c_0) r_k) would overflow without its cap; the components
        # overlap below e^-45, so h is ln 152 plus the Gaussian entropy.
        sigma = 0.7
        means = sigma * 19.0 * np.arange(152.0)[None]
        got = entropy._mixture_entropies(means, np.full_like(means, 1.0 / 152), sigma)[0]
        assert got == pytest.approx(math.log(152) + gaussian_entropy(sigma * sigma), abs=1e-12)

    def test_density_samples_do_not_grow_with_snr(self, monkeypatch):
        # PAM-8/Q=4: 36 distinct clusters at P_N = 0.05; at 1e-6 every
        # cluster is one Gaussian or coincident means, in closed form.
        samples = [0]
        budget = [math.inf]
        reduce = entropy._entropy_from_samples

        def counted(p, weights):
            samples[0] += p.size
            if samples[0] > budget[0]:
                raise AssertionError(f"more than {budget[0]} density samples")
            return reduce(p, weights)

        monkeypatch.setattr(entropy, "_entropy_from_samples", counted)
        cost_tensor(ChannelSpec(*PAM8Q4, 0.05))
        budget[0], samples[0] = samples[0], 0
        cost_tensor(ChannelSpec(*PAM8Q4, 1e-6))
        assert samples[0] <= budget[0]

    def test_split_keeps_the_floor_check(self, monkeypatch):
        # Cluster grids that stop at the extreme means miss the outer half
        # of every component: the truncated integrals fall below the
        # Gaussian floor.
        monkeypatch.setattr(entropy, "_WINDOW_SIGMAS", 0.0)
        with pytest.raises(ValueError, match="Gaussian floor"):
            cost_tensor(binary_spec(noise_power=0.1))

    @pytest.mark.parametrize(
        "means,weights",
        [([[0.0, np.inf]], [[0.5, 0.5]]), ([[0.0, 1.0]], [[np.nan, 1.0]]),
         ([[0.0, 1.0]], [[-0.5, 1.5]]), ([[0.0, 1.0]], [[0.0, 0.0]])],
    )
    def test_bad_mixtures_rejected(self, means, weights):
        with pytest.raises(ValueError, match="finite|positive"):
            entropy._mixture_entropies(np.array(means), np.array(weights), 1.0)


# The scan behind entropy's quadrature rule. Every entropy must lie within
# _SCAN_BOUND nats of a reference rule with 64 Gauss-Legendre nodes per
# sigma/2 panel. The ROADMAP measured 12 nodes per sigma at 5.8e-14 and 6 per
# sigma/2 at 2.0e-12. A finer scan read 5.3e-15 at 14 per sigma and 1.5e-14
# at 13; 16 per sigma keeps its truncation error far below round-off.
_SCAN_BOUND = 2e-14
_REFERENCE_RULE = (0.5, 64)  # panel width in sigmas, nodes per panel
_LADDER_SHAPES = ((4, 3), (6, 3), (4, 4), (5, 4), (8, 3), (16, 3), (32, 2))
_SCAN_NOISE_POWERS = (0.005, 0.05, 0.5, 1.0)


def _scan_specs():
    """The benchmark ladder's eight instance shapes, random M/Q and PAM-8/Q=4,
    at four noise powers."""
    rng = np.random.default_rng(7)
    for noise_power in _SCAN_NOISE_POWERS:
        for m, q in _LADDER_SHAPES:
            yield random_spec(rng, m, q, noise_power)
        yield ChannelSpec(*PAM8Q4, noise_power)


def _stress_mixtures():
    """Unit-variance 2- and 3-component mixtures, offsets from 0.05 to 20
    sigma, minor weights from 0.5 to 1e-4; zero-weight slots pad to width 3."""
    minors = (0.5, 0.1, 1e-2, 1e-3, 1e-4)
    means, weights = [], []
    for gap in (0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 3.0, 5.0, 8.0, 12.0, 16.0, 20.0):
        for w in minors:
            means.append((0.0, gap, 0.0))
            weights.append((1.0 - w, w, 0.0))
    gaps = (0.05, 0.5, 2.0, 5.0, 12.0, 20.0)
    for a, b in itertools.product(gaps, gaps):
        for w in minors[1:]:
            means += [(0.0, a, a + b)] * 2
            weights += [(1.0 - 2.0 * w, w, w), (w, 1.0 - 2.0 * w, w)]
    return np.array(means), np.array(weights)


def _rule_entropies(panel_sigmas, nodes_per_panel):
    """Every scanned cost tensor entry and stress entropy, in nats, with the
    package's kernel on the given rule."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(entropy, "_PANEL_SIGMAS", panel_sigmas)
        patch.setattr(entropy, "_NODES_PER_PANEL", nodes_per_panel)
        nodes, weights = leggauss(nodes_per_panel)
        patch.setattr(entropy, "_RULE_NODES", nodes)
        patch.setattr(entropy, "_RULE_WEIGHTS", weights)
        ladder = np.concatenate([cost_tensor(spec).values.ravel() for spec in _scan_specs()])
        stress = entropy._mixture_entropies(*_stress_mixtures(), 1.0)
    return ladder, stress


@pytest.fixture(scope="module")
def scan_references():
    """The reference rule's entropies: the ladder on the package's kernel,
    the stress mixtures on helpers' composite rule, which evaluates every
    density directly."""
    ladder = _rule_entropies(*_REFERENCE_RULE)[0]
    panel_sigmas, nodes = _REFERENCE_RULE
    stress = []
    for mu, w in zip(*_stress_mixtures()):
        lo, hi = -entropy._WINDOW_SIGMAS, mu.max() + entropy._WINDOW_SIGMAS
        grid = QuadratureGrid(lo, hi, math.ceil((hi - lo) / panel_sigmas), nodes)
        stress.append(differential_entropy(_mixture(mu, w, 1.0), grid))
    return ladder, np.array(stress)


def _scan_error(rule, references):
    """Largest distance in nats of a rule's entropies from the references."""
    return max(np.abs(got - want).max() for got, want in zip(_rule_entropies(*rule), references))


class TestQuadratureRule:
    def test_the_rule_is_within_the_bound(self, scan_references):
        rule = (entropy._PANEL_SIGMAS, entropy._NODES_PER_PANEL)
        assert _scan_error(rule, scan_references) <= _SCAN_BOUND

    @pytest.mark.parametrize("rule", [(1.0, 12), (0.5, 6)], ids=["12 per sigma", "6 per half"])
    def test_the_next_cheaper_rules_miss_the_bound(self, rule, scan_references):
        assert _scan_error(rule, scan_references) > _SCAN_BOUND

    def test_the_middle_exponent_cap_never_binds_on_a_live_component(self):
        # A block of C-component mixtures spans at most min(20 C sigmas, its
        # _BLOCK_ELEMENTS / max(C, nodes) panels); a component is live within
        # sqrt(-2 _EXP_FLOOR) sigmas of a panel centre.
        reach = math.sqrt(-2.0 * entropy._EXP_FLOOR)
        worst = 0.0
        for c in range(1, entropy._BLOCK_ELEMENTS + 1):
            panels = math.ceil(entropy._SPLIT_SIGMAS * c / entropy._PANEL_SIGMAS)
            step = min(panels, entropy._BLOCK_ELEMENTS // max(c, entropy._NODES_PER_PANEL))
            span = (step - 1) * entropy._PANEL_SIGMAS
            worst = max(worst, (span + reach) * entropy._PANEL_SIGMAS / 2)
        assert worst < entropy._EXP_CAP

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("c", [20, 57, 100])
    def test_chains_around_the_widest_block(self, c):
        # 19.5 sigma apart the means form one cluster; at C = 57 its block
        # spans about 1,100 sigmas, the widest any C gives. The components
        # overlap below e^-47, so h is ln C plus the Gaussian entropy.
        sigma = 0.3
        means = sigma * 19.5 * np.arange(float(c))[None]
        got = entropy._mixture_entropies(means, np.full_like(means, 1.0 / c), sigma)[0]
        assert got == pytest.approx(math.log(c) + gaussian_entropy(sigma * sigma), abs=3e-14)
