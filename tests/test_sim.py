import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import log_softmax, logsumexp

from causalprecode import (
    BudgetExceededError,
    ChannelSpec,
    PrecoderCode,
    code_pmf,
    cost_tensor,
    decode,
    mutual_information,
    noise_power_for_snr_db,
    simulate,
)
from causalprecode import sim
from causalprecode.sim import CSV_HEADER, csv_row
from helpers import allocating_simulate, binary_spec, random_code, random_spec

ZERO_ERROR_CODE = PrecoderCode(((1, 2), (2, 1)))


class TestReproducibility:
    def test_identical_reports_across_workers(self):
        spec = binary_spec()
        r1 = simulate(ZERO_ERROR_CODE, spec, trials=200_000, seed=123, workers=1)
        r8 = simulate(ZERO_ERROR_CODE, spec, trials=200_000, seed=123, workers=8)
        assert r1 == r8

    def test_identical_reports_for_a_ragged_last_batch(self):
        # three batches, the last one partial, and more workers than batches
        spec = binary_spec(noise_power=1.0)
        trials = 2 * sim._BATCH + 123
        r1 = simulate(ZERO_ERROR_CODE, spec, trials=trials, seed=29, workers=1)
        r8 = simulate(ZERO_ERROR_CODE, spec, trials=trials, seed=29, workers=8)
        assert r1 == r8 and r1.trials == trials

    def test_seed_changes_report(self):
        spec = binary_spec(noise_power=1.0)
        r1 = simulate(ZERO_ERROR_CODE, spec, trials=20_000, seed=1)
        r2 = simulate(ZERO_ERROR_CODE, spec, trials=20_000, seed=2)
        assert r1 != r2

    def test_prefix_stability(self, monkeypatch):
        # Trial k draws from Philox counter block k whatever the batch it
        # falls in, so trials [0, a + b) are trials [0, a) then [a, a + b).
        spec = binary_spec(noise_power=1.0)
        means = sim._check_inputs(ZERO_ERROR_CODE, spec)
        for a, b in [(1, 1), (37, 1013), (4099, 313)]:
            ws = sim._Workspace(means, spec, a + b)
            errors, nats = sim._run_batch(9, 0, a + b, ws)
            head = sim._run_batch(9, 0, a, ws)
            tail = sim._run_batch(9, a, b, ws)
            assert errors == head[0] + tail[0]
            assert math.isclose(nats, head[1] + tail[1], rel_tol=0.0, abs_tol=1e-9)
        default = simulate(ZERO_ERROR_CODE, spec, trials=3_001, seed=9)
        monkeypatch.setattr(sim, "_BATCH", 100)
        small = simulate(ZERO_ERROR_CODE, spec, trials=3_001, seed=9)
        assert default.symbol_errors > 0
        assert small.symbol_errors == default.symbol_errors
        assert math.isclose(small.empirical_mi_bits, default.empirical_mi_bits,
                            rel_tol=0.0, abs_tol=1e-12)


def workspace_cases():
    rng = np.random.default_rng(43)
    yield pytest.param(ChannelSpec((-1.0, 1.0), (0.0,), (1.0,), 0.5), PrecoderCode(((1,), (2,))),
                       2 * sim._BATCH + 123, id="q1 no cut points")
    yield pytest.param(random_spec(rng, 4, 4, 0.05), random_code(rng, 4, 4),
                       3 * sim._BATCH + 17, id="random 4/4")
    # means {-2, 0} and {0, 2} at sigma 0.1: near y = 0 both L_m are exactly 1
    yield pytest.param(binary_spec(noise_power=0.01), PrecoderCode(((1, 1), (2, 2))),
                       2 * sim._BATCH + 5, id="exact ties")
    # a last batch of one trial, on eight messages
    yield pytest.param(random_spec(rng, 8, 2, 0.05), random_code(rng, 8, 2),
                       sim._BATCH + 1, id="random 8/2 one-trial batch")


class TestWorkspaceKernel:
    @pytest.mark.parametrize("spec,code,trials", workspace_cases())
    def test_reports_match_the_allocating_kernel(self, spec, code, trials):
        reference = allocating_simulate(code, spec, trials, seed=31)
        assert reference.symbol_errors > 0
        for workers in (1, 2, 3, 8):
            assert simulate(code, spec, trials, seed=31, workers=workers) == reference

    @pytest.mark.filterwarnings("error")
    def test_noise_powers_that_overflow_the_exponents_are_refused(self):
        # On binary the exponents or their gaps overflow below about 4.5e-308,
        # and below about 2e-308 a trial's likelihoods would be NaN: SER
        # 0.50174 and MI nan at 1e-308. At 1e-300 the zero-error code still
        # decodes perfectly.
        for noise in (4e-308, 3e-308, 2e-308, 1.5e-308, 1e-308, 5e-324):
            with pytest.raises(ValueError, match="too small to simulate"):
                simulate(ZERO_ERROR_CODE, binary_spec(noise_power=noise), 1_000, seed=3)
            with pytest.raises(ValueError, match="too small to simulate"):
                decode(0.0, ZERO_ERROR_CODE, binary_spec(noise_power=noise))
        report = simulate(ZERO_ERROR_CODE, binary_spec(noise_power=1e-300), 50_000, seed=3)
        assert report.symbol_errors == 0 and report.empirical_mi_bits == 1.0

    def test_a_warm_batch_allocates_no_arrays(self):
        rng = np.random.default_rng(3)
        spec = random_spec(rng, 4, 3, 0.05)
        ws = sim._Workspace(sim._check_inputs(random_code(rng, 4, 3), spec), spec, sim._BATCH)
        sim._run_batch(1, 0, sim._BATCH, ws)
        tracemalloc.start()
        try:
            sim._run_batch(1, sim._BATCH, sim._BATCH, ws)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # below one float64 vector of a batch; the allocating kernel peaks at 4.6 MB
        assert peak < 8 * sim._BATCH

    def test_one_thread_per_batch_at_most(self, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(sim, "ThreadPoolExecutor", RecordingPool)
        spec = binary_spec()
        # one batch, or fewer than one worker, runs in the caller; three
        # batches take three of eight workers; five batches share three
        cases = [(sim._BATCH, 8), (2 * sim._BATCH + 1, 0), (2 * sim._BATCH + 1, 8),
                 (5 * sim._BATCH, 3)]
        for trials, workers in cases:
            serial = simulate(ZERO_ERROR_CODE, spec, trials, seed=2)
            assert simulate(ZERO_ERROR_CODE, spec, trials, seed=2, workers=workers) == serial
        assert sizes == [3, 3]


class TestErrorRates:
    def test_zero_error_code_at_tiny_noise(self):
        # means {-2,+2} vs {0,0}: at sigma ~ 0.032 the error probability is
        # astronomically small
        spec = binary_spec(noise_power=0.001)
        report = simulate(ZERO_ERROR_CODE, spec, trials=100_000, seed=11)
        assert report.ser < 1e-4

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_ser_monotone_in_noise(self, seed):
        quiet = simulate(ZERO_ERROR_CODE, binary_spec(0.01), trials=100_000, seed=seed)
        loud = simulate(ZERO_ERROR_CODE, binary_spec(1.0), trials=100_000, seed=seed)
        # three binomial sigmas of slack
        slack = 3.0 * math.sqrt(max(loud.ser * (1 - loud.ser), 1e-12) / loud.trials)
        assert quiet.ser <= loud.ser + slack

    @pytest.mark.parametrize("noise_power", [0.1, 0.5, 1.0])
    def test_antipodal_ser_matches_the_gaussian_tail(self, noise_power):
        # X = {-1, +1} with no interference errs when the noise crosses 0,
        # with probability Q(1 / sigma): this checks the noise distribution.
        spec = ChannelSpec((-1.0, 1.0), (0.0,), (1.0,), noise_power)
        report = simulate(PrecoderCode(((1,), (2,))), spec, trials=200_000, seed=13)
        p = 0.5 * math.erfc(1.0 / math.sqrt(2.0 * noise_power))
        assert abs(report.ser - p) <= 4.0 * math.sqrt(p * (1.0 - p) / report.trials)


class TestMiEstimate:
    def test_matches_quadrature_at_10db(self):
        spec = binary_spec(noise_power=0.1)
        truth = mutual_information(code_pmf(ZERO_ERROR_CODE, spec.m), spec, cost_tensor(spec))
        r5 = simulate(ZERO_ERROR_CODE, spec, trials=100_000, seed=19)
        assert abs(r5.empirical_mi_bits - truth) < 0.05
        r6 = simulate(ZERO_ERROR_CODE, spec, trials=1_000_000, seed=19)
        assert abs(r6.empirical_mi_bits - truth) < 0.02

    def test_matches_quadrature_at_0db(self):
        # heavily overlapping mixtures: the posterior entropy does the work
        spec = binary_spec(noise_power=1.0)
        truth = mutual_information(code_pmf(ZERO_ERROR_CODE, spec.m), spec, cost_tensor(spec))
        r = simulate(ZERO_ERROR_CODE, spec, trials=500_000, seed=21)
        assert abs(r.empirical_mi_bits - truth) < 0.01

    def test_report_fields(self):
        spec = binary_spec()
        r = simulate(ZERO_ERROR_CODE, spec, trials=1000, seed=3)
        assert r.trials == 1000 and r.seed == 3
        assert 0.0 <= r.ser <= 1.0 and r.symbol_errors <= r.trials


class TestDecode:
    def test_isolated_mean(self):
        spec = binary_spec(noise_power=0.01)
        assert decode(-2.0, ZERO_ERROR_CODE, spec) == 0
        assert decode(2.0, ZERO_ERROR_CODE, spec) == 0
        assert decode(0.0, ZERO_ERROR_CODE, spec) == 1

    def test_tie_breaks_to_smaller_index(self):
        # code {(1,1),(2,2)} has means {-2,0} and {0,2}: y=0 is an exact tie
        spec = binary_spec()
        code = PrecoderCode(((1, 1), (2, 2)))
        assert decode(0.0, code, spec) == 0

    def test_validation(self):
        spec = binary_spec()
        with pytest.raises(ValueError, match="noisefree"):
            decode(0.0, ZERO_ERROR_CODE, ChannelSpec((-1.0, 1.0), (0.0,), (1.0,), 0.0))
        with pytest.raises(ValueError, match="components"):
            decode(0.0, PrecoderCode(((1,), (2,))), spec)
        with pytest.raises(ValueError, match="constellation"):
            decode(0.0, PrecoderCode(((1, 3), (2, 1))), spec)


def reference_decode(y, means, spec):
    """Log-domain decoder written out directly: (decisions, top-two gap, entropy nats)."""
    log_r = np.log(np.asarray(spec.interference_probs))
    exponents = log_r - (y[:, None, None] - means[None]) ** 2 / (2.0 * spec.noise_power)
    loglik = logsumexp(exponents, axis=2)  # per message, shape (n, M)
    log_post = log_softmax(loglik, axis=1)
    post = np.exp(log_post)
    entropy = -np.where(post > 0.0, post * log_post, 0.0).sum(axis=1)
    top_two = np.sort(loglik, axis=1)[:, -2:]
    return np.argmax(loglik, axis=1), top_two[:, 1] - top_two[:, 0], entropy


def oracle_cases():
    rng = np.random.default_rng(101)
    for snr_db in (0.0, 20.0, 60.0):
        for m, q in ((2, 2), (3, 3), (4, 2), (5, 3)):
            spec = random_spec(rng, m, q, 1.0)
            noise = noise_power_for_snr_db(spec.constellation, snr_db)
            spec = ChannelSpec(spec.constellation, spec.interference_levels,
                               spec.interference_probs, noise)
            yield pytest.param(spec, random_code(rng, m, q), id=f"{m}/{q} {snr_db:g} dB")
    yield pytest.param(binary_spec(noise_power=1e-6), ZERO_ERROR_CODE, id="binary 1e-6")


@pytest.mark.parametrize("spec,code", oracle_cases())
def test_decode_block_matches_log_domain_reference(spec, code):
    means = sim._check_inputs(code, spec)
    rng = np.random.default_rng(7)
    flat = np.sort(means.reshape(-1))
    # Outputs around every mean, and across the midpoint of each pair of
    # neighbouring means at log-odds steps of order one, where the
    # posterior is spread at any SNR.
    mids = 0.5 * (flat[1:] + flat[:-1])
    step = spec.noise_power / np.maximum(np.diff(flat), 1e-3)
    y = np.concatenate([
        rng.choice(flat, 2000) + rng.normal(0.0, math.sqrt(spec.noise_power), 2000),
        (mids[:, None] + step[:, None] * np.linspace(-6.0, 6.0, 13)).reshape(-1),
        rng.uniform(flat[0] - 1.0, flat[-1] + 1.0, 500),
    ])
    decisions, entropies = sim._decode_block(y, sim._Workspace(means, spec, len(y)))
    ref_decisions, gap, ref_entropies = reference_decode(y, means, spec)
    clear = gap > 1e-9
    assert np.array_equal(decisions[clear], ref_decisions[clear])
    assert np.max(np.abs(entropies - ref_entropies)) < 1e-9


def test_trials_beyond_the_budget_raise_before_any_batch(monkeypatch):
    def no_batch(*args):
        raise AssertionError("a batch ran before the budget check")

    monkeypatch.setattr(sim, "_run_batch", no_batch)
    with pytest.raises(BudgetExceededError, match="beyond the budget"):
        simulate(ZERO_ERROR_CODE, binary_spec(), trials=sim._TRIALS_MAX + 1, seed=1)


def test_csv_row_format():
    spec = binary_spec(noise_power=0.1)
    r = simulate(ZERO_ERROR_CODE, spec, trials=1000, seed=5)
    row = csv_row(r, spec)
    fields = row.split(",")
    assert CSV_HEADER == "seed,trials,snr_db,ser,empirical_mi_bits"
    assert fields[0] == "5" and fields[1] == "1000"
    assert float(fields[2]) == pytest.approx(10.0)
    assert 0.0 <= float(fields[3]) <= 1.0
