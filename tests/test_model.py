import math

import numpy as np
import pytest

from causalprecode import (
    BudgetExceededError,
    ChannelSpec,
    JointPmf,
    MarginalSet,
    PrecoderCode,
    code_pmf,
    cost_tensor,
    entropy,
    enumerate_symbols,
    format_spec_text,
    marginals_of,
    model,
    parse_spec_text,
    precode,
    symbol_from_rank,
    symbol_rank,
)
from helpers import binary_spec


class TestChannelSpec:
    def test_levels_sorted_with_probs(self):
        spec = ChannelSpec((0.0, 1.0), (2.0, -1.0, 0.5), (0.2, 0.5, 0.3), 1.0)
        assert spec.interference_levels == (-1.0, 0.5, 2.0)
        assert spec.interference_probs == (0.5, 0.3, 0.2)

    def test_m_q(self):
        spec = binary_spec()
        assert (spec.m, spec.q, spec.num_symbols) == (2, 2, 4)

    @pytest.mark.parametrize(
        "kwargs,fragment",
        [
            (dict(constellation=(1.0,)), "constellation"),
            (dict(constellation=(1.0, 1.0)), "distinct"),
            (dict(interference_levels=(), interference_probs=()), "interference_levels"),
            (dict(interference_levels=(0.0, 0.0)), "distinct"),
            (dict(interference_probs=(0.7, 0.2)), "sum to 1"),
            (dict(interference_probs=(1.5, -0.5)), "positive"),
            (dict(interference_probs=(0.5,)), "one probability per"),
            (dict(noise_power=-1.0), "noise_power"),
            (dict(noise_power=float("nan")), "noise_power"),
            (dict(constellation=(float("inf"), 1.0)), "finite"),
        ],
    )
    def test_validation_errors(self, kwargs, fragment):
        base = dict(
            constellation=(-1.0, 1.0),
            interference_levels=(-1.0, 1.0),
            interference_probs=(0.5, 0.5),
            noise_power=0.1,
        )
        base.update(kwargs)
        with pytest.raises(ValueError, match=fragment):
            ChannelSpec(**base)

    def test_dense_cap(self, monkeypatch):
        # A spec takes any M and Q: `noisefree` and `simulate` never build
        # its symbols. The two functions that build all M^Q of them refuse
        # 10^8 before they allocate.
        spec = ChannelSpec(
            tuple(float(i) for i in range(10)),
            tuple(float(i) for i in range(8)),
            (0.125,) * 8,
            1.0,
        )
        assert spec.num_symbols == 10**8

        def refuse(*args, **kwargs):
            raise AssertionError("M^Q symbols built before the budget check")

        monkeypatch.setattr(model.itertools, "product", refuse)
        monkeypatch.setattr(entropy.np, "arange", refuse)
        for build in (enumerate_symbols, cost_tensor):
            with pytest.raises(BudgetExceededError, match="dense-storage cap"):
                build(spec)


class TestEnumeration:
    def test_single_state(self):
        spec = ChannelSpec((-1.0, 1.0), (0.0,), (1.0,), 1.0)
        assert enumerate_symbols(spec) == [(1,), (2,)]

    def test_lexicographic(self):
        assert enumerate_symbols(binary_spec()) == [(1, 1), (1, 2), (2, 1), (2, 2)]

    def test_four_cubed(self):
        spec = ChannelSpec(
            (0.0, 1.0, 2.0, 3.0), (0.0, 1.0, 2.0), (1 / 3, 1 / 3, 1 / 3), 1.0
        )
        assert len(enumerate_symbols(spec)) == 64

    @pytest.mark.parametrize("m,q", [(2, 1), (2, 2), (3, 2), (4, 3)])
    def test_rank_bijection(self, m, q):
        spec = ChannelSpec(
            tuple(float(i) for i in range(m)),
            tuple(float(i) for i in range(q)),
            (1.0 / q,) * q,
            1.0,
        )
        symbols = enumerate_symbols(spec)
        for rank, t in enumerate(symbols):
            assert symbol_rank(t, m) == rank
            assert symbol_from_rank(rank, m, q) == t


class TestJointPmf:
    def test_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            JointPmf(2, 2, np.asarray([0.5, 0.5, 0.5, 0.5]))
        with pytest.raises(ValueError, match="nonnegative"):
            JointPmf(2, 2, np.asarray([1.5, -0.5, 0.0, 0.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            JointPmf(2, 2, np.full(4, np.nan))
        with pytest.raises(ValueError, match="nonnegative"):
            JointPmf(2, 2, np.asarray([1.0, np.nan, 0.0, 0.0]))

    def test_support_threshold(self):
        p = JointPmf(2, 1, np.asarray([1.0 - 1e-12, 1e-12]))
        assert p.support() == [(1,)]

    def test_from_entries_and_prob(self):
        p = JointPmf.from_entries(2, 2, {(1, 2): 0.5, (2, 1): 0.5})
        assert p.prob((1, 2)) == 0.5
        assert p.prob((1, 1)) == 0.0


class TestMarginals:
    def test_point_mass(self):
        p = JointPmf.from_entries(2, 2, {(1, 2): 1.0})
        rows = marginals_of(p).per_state
        assert np.allclose(rows, [[1.0, 0.0], [0.0, 1.0]])

    def test_uniform_symmetry(self):
        p = JointPmf.uniform(3, 2)
        rows = marginals_of(p).per_state
        assert np.allclose(rows, 1.0 / 3.0)

    def test_fig2_regime(self):
        # p_{11} = p_{22} = 1/2 induces uniform per-state marginals
        p = JointPmf.from_entries(2, 2, {(1, 1): 0.5, (2, 2): 0.5})
        rows = marginals_of(p).per_state
        assert np.allclose(rows, 0.5)

    def test_mass_identity_random(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            m, q = rng.integers(2, 5), rng.integers(1, 4)
            raw = rng.uniform(size=m**q)
            p = JointPmf(int(m), int(q), raw / raw.sum())
            rows = marginals_of(p).per_state
            assert np.all(np.abs(rows.sum(axis=1) - 1.0) < 1e-12)

    def test_marginalset_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            MarginalSet(np.asarray([[0.6, 0.6]]))
        with pytest.raises(ValueError, match="nonnegative"):
            MarginalSet(np.asarray([[np.nan, np.nan], [0.5, 0.5]]))
        with pytest.raises(ValueError, match="nonnegative"):
            MarginalSet(np.asarray([[1.0, np.nan]]))


class TestPrecode:
    def test_lookup(self):
        spec = ChannelSpec((0.5, 1.5), (0.0, 1.0), (0.5, 0.5), 1.0)
        code = PrecoderCode(((1, 2), (2, 1)))
        assert precode(code, 0, 2, spec) == 1.5  # x_2
        assert precode(code, 1, 1, spec) == 1.5  # x_2

    def test_binary_example(self):
        code = PrecoderCode(((1, 2), (2, 1)))
        assert precode(code, 0, 1, binary_spec()) == -1.0

    def test_range_errors(self):
        spec = binary_spec()
        code = PrecoderCode(((1, 2), (2, 1)))
        with pytest.raises(ValueError, match="message"):
            precode(code, 2, 1, spec)
        with pytest.raises(ValueError, match="state index"):
            precode(code, 0, 3, spec)

    def test_duplicate_symbols_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            PrecoderCode(((1, 2), (1, 2)))

    def test_code_pmf_marginals(self):
        # every state coordinate is a permutation -> uniform marginals
        code = PrecoderCode(((1, 2, 3), (2, 3, 1), (3, 1, 2)))
        rows = marginals_of(code_pmf(code, 3)).per_state
        assert np.allclose(rows, 1.0 / 3.0)


class TestSpecFiles:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        x = tuple(rng.normal(size=3))
        s = tuple(np.sort(rng.normal(size=2)))
        spec = ChannelSpec(x, s, (0.25, 0.75), float(rng.uniform(0.01, 2.0)))
        again = parse_spec_text(format_spec_text(spec))
        assert again.constellation == spec.constellation
        assert again.interference_levels == spec.interference_levels
        assert again.interference_probs == spec.interference_probs
        assert again.noise_power == spec.noise_power

    def test_comments_and_blank_lines(self):
        text = """
# a binary instance
constellation = -1.0 1.0   # signal levels
interference_levels = -1.0 1.0

interference_probs = 0.5 0.5
noise_power = 0.1
"""
        spec = parse_spec_text(text)
        assert spec.m == 2 and spec.noise_power == 0.1

    VALID_TAIL = "interference_levels = 0\ninterference_probs = 1\nnoise_power = 1\n"

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("constellation = -1 1\nbogus = 3\n" + VALID_TAIL, "bogus"),
            ("constellation = -1 1\n", "interference_levels"),
            ("constellation = a b\n" + VALID_TAIL, "constellation"),
            ("constellation = -1 1\nconstellation = 0 1\n" + VALID_TAIL, "duplicate"),
            (
                "constellation = -1 1\ninterference_levels = 0\n"
                "interference_probs = 1\nnoise_power = 1 2\n",
                "noise_power",
            ),
        ],
    )
    def test_errors_name_the_key(self, text, fragment):
        with pytest.raises(ValueError, match=fragment):
            parse_spec_text(text)


def test_average_power_and_snr():
    from causalprecode import average_power, noise_power_for_snr_db, snr_db_of

    assert average_power((-1.0, 1.0)) == 1.0
    spec = binary_spec(noise_power=0.1)
    assert abs(snr_db_of(spec) - 10.0) < 1e-12
    assert abs(noise_power_for_snr_db((-1.0, 1.0), 20.0) - 0.01) < 1e-15
    # 10^(SNR/10) overflows above about 3,082 dB and underflows to 0 below
    # about -3,237 dB; a subnormal noise power is still a power
    assert noise_power_for_snr_db((-1.0, 1.0), 3080.0) == 1.0 / 10.0**308
    for snr_db in (4000.0, -4000.0, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="noise power"):
            noise_power_for_snr_db((-1.0, 1.0), snr_db)
    with pytest.raises(ValueError, match="noise power"):
        noise_power_for_snr_db((-1e300, 1e300), -30.0)
