from fractions import Fraction

import numpy as np
import pytest

from causalprecode import (
    BudgetExceededError,
    ChannelSpec,
    OutputMultiset,
    PrecoderCode,
    ZeroErrorCode,
    build_zero_error_code,
    decode_noisefree,
    exhaustive_search,
    is_arithmetic_progression,
    marginals_of,
    code_pmf,
    output_multisets,
    verify_zero_error,
)
from causalprecode import noisefree
from causalprecode.noisefree import snap


def nf_spec(constellation, levels):
    probs = tuple(1.0 / len(levels) for _ in levels)
    return ChannelSpec(tuple(constellation), tuple(levels), probs, 0.0)


class TestArithmeticProgression:
    def test_examples(self):
        assert is_arithmetic_progression([0.0, 1.0, 2.0, 3.0])
        assert not is_arithmetic_progression([0.0, 1.0, 2.0, 4.0])
        assert is_arithmetic_progression([-1.0, 1.0])

    def test_relative_tolerance(self):
        assert is_arithmetic_progression([0.0, 1.0, 2.0 + 1e-12])
        assert not is_arithmetic_progression([0.0, 1.0, 2.0 + 1e-6])


class TestSnap:
    def test_nice_rationals(self):
        assert snap(0.1) == Fraction(1, 10)
        assert snap(0.1) + snap(0.05) == snap(0.15)

    def test_float_coincidences_resolved(self):
        # 0.1 + 0.05 != 0.15 in floats, but must match after snapping
        assert snap(0.1 + 0.05) == snap(0.15)


class TestBuild:
    def test_unit_example(self):
        z = build_zero_error_code(nf_spec([0.0, 1.0], [0.0, 1.0]))
        by_tuple = {t: ms.elements for t, ms in zip(z.code.symbols, z.multisets)}
        assert by_tuple == {(1, 2): (0.0, 2.0), (2, 1): (1.0, 1.0)}
        assert verify_zero_error(z)

    def test_failed_invariant_raises(self, monkeypatch):
        # An exception, not an assert, so it also fires under python -O.
        monkeypatch.setattr(noisefree, "verify_zero_error", lambda zcode: False)
        with pytest.raises(RuntimeError, match="not disjoint"):
            build_zero_error_code(nf_spec([0.0, 1.0], [0.0, 1.0]))

    def test_single_state_identity(self):
        z = build_zero_error_code(nf_spec([0.0, 0.5, 1.0], [0.25]))
        assert z.code.symbols == ((1,), (2,), (3,))
        assert [ms.elements for ms in z.multisets] == [(0.25,), (0.75,), (1.25,)]

    def test_binary_plus_minus_one(self):
        z = build_zero_error_code(nf_spec([-1.0, 1.0], [-1.0, 1.0]))
        assert set(z.code.symbols) == {(1, 2), (2, 1)}
        by_tuple = {t: ms.elements for t, ms in zip(z.code.symbols, z.multisets)}
        assert by_tuple[(1, 2)] == (-2.0, 2.0)
        assert by_tuple[(2, 1)] == (0.0, 0.0)

    def test_unsorted_constellation_maps_back(self):
        # constellation given out of order; indices must refer to it as given
        z = build_zero_error_code(nf_spec([1.0, 0.0], [0.0, 1.0]))
        by_tuple = {t: ms.elements for t, ms in zip(z.code.symbols, z.multisets)}
        assert by_tuple == {(2, 1): (0.0, 2.0), (1, 2): (1.0, 1.0)}

    def test_rejects_non_progression(self):
        with pytest.raises(ValueError, match="arithmetic progression"):
            build_zero_error_code(nf_spec([0.0, 1.0, 2.0, 4.0], [0.0, 1.0]))

    def test_random_instances_all_succeed(self):
        rng = np.random.default_rng(97)
        for _ in range(200):
            m = int(rng.integers(2, 9))
            q = int(rng.integers(1, 5))
            start = rng.integers(-8, 8) / 4.0
            step = rng.integers(1, 9) / 4.0
            constellation = [start + k * step for k in range(m)]
            # levels on the same rational grid to exercise coincidences
            levels = rng.choice(np.arange(-16, 17) / 4.0, size=q, replace=False)
            spec = nf_spec(constellation, sorted(float(v) for v in levels))
            z = build_zero_error_code(spec)
            assert verify_zero_error(z)
            # every state coordinate uses each constellation point once
            rows = marginals_of(code_pmf(z.code, m)).per_state
            assert np.allclose(rows, 1.0 / m, atol=1e-12)

    def test_zero_error_end_to_end(self):
        # noise-free table lookup over every (message, state) pair
        spec = nf_spec([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0])
        z = build_zero_error_code(spec)
        for message, t in enumerate(z.code.symbols):
            for state in range(spec.q):
                y = spec.constellation[t[state] - 1] + spec.interference_levels[state]
                assert decode_noisefree(z, y) == message


class TestExhaustiveSearch:
    def test_counterexample_has_no_code(self):
        assert exhaustive_search(nf_spec([0.0, 1.0, 2.0, 4.0], [0.0, 1.0, 3.0])) is None

    def test_progression_instance_found(self):
        z = exhaustive_search(nf_spec([0.0, 1.0, 2.0, 3.0], [0.0, 1.0, 3.0]))
        assert z is not None and verify_zero_error(z)

    def test_q2_always_found(self):
        # two levels always admit a code, progression or not
        rng = np.random.default_rng(101)
        for _ in range(20):
            m = int(rng.integers(2, 6))
            vals = rng.choice(np.arange(0, 25), size=m, replace=False)
            constellation = sorted(float(v) for v in vals)
            levels = sorted(float(v) for v in rng.choice(np.arange(0, 13), size=2, replace=False))
            z = exhaustive_search(nf_spec(constellation, levels))
            assert z is not None and verify_zero_error(z)

    def test_oracle_agreement_small_grid(self):
        # wherever the search finds nothing, the constructive precondition fails
        rng = np.random.default_rng(103)
        for _ in range(30):
            m = int(rng.integers(2, 5))
            q = int(rng.integers(1, 4))
            vals = rng.choice(np.arange(0, 13), size=m, replace=False)
            constellation = sorted(float(v) for v in vals)
            levels = sorted(float(v) for v in rng.choice(np.arange(0, 9), size=q, replace=False))
            spec = nf_spec(constellation, levels)
            if exhaustive_search(spec) is None:
                assert not is_arithmetic_progression(constellation)

    def test_lexicographic_first_family(self):
        z = exhaustive_search(nf_spec([0.0, 1.0], [0.0, 1.0]))
        assert z.code.symbols == ((1, 2), (2, 1))

    def test_budget(self):
        spec = nf_spec([float(v) for v in (0, 1, 2, 4, 8, 16)], [0.0, 1.0])
        with pytest.raises(BudgetExceededError, match="too large"):
            exhaustive_search(spec)


class TestVerify:
    def test_constructed_code_passes(self):
        z = build_zero_error_code(nf_spec([0.0, 2.0, 4.0], [0.0, 1.0]))
        assert verify_zero_error(z)

    def test_identical_tuples_fail(self):
        code = PrecoderCode(((1, 2), (1, 2)), check_distinct=False)
        spec = nf_spec([0.0, 1.0], [0.0, 2.0])
        z = ZeroErrorCode(code=code, multisets=output_multisets(code, spec))
        assert not verify_zero_error(z)

    def test_multiplicity_within_one_multiset_allowed(self):
        z = ZeroErrorCode(
            code=PrecoderCode(((2, 1), (1, 2))),
            multisets=(OutputMultiset((1.0, 1.0)), OutputMultiset((0.0, 2.0))),
        )
        assert verify_zero_error(z)

    def test_decode_unreachable_output(self):
        z = build_zero_error_code(nf_spec([0.0, 1.0], [0.0, 1.0]))
        assert decode_noisefree(z, 7.25) is None
