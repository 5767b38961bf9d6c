"""Metamorphic properties of the cost tensor and of I(T;Y).

A mixture's differential entropy depends only on the shape of the output
density, so translating, reflecting or scaling the channel and relabelling
the constellation change the cost tensor in known ways. I(T;Y) is a
difference of two such entropies, so a common translation or a joint
scaling leaves it unchanged, and a reflection of X and S together leaves
every rate unchanged. Each property recomputes everything from scratch on
the transformed spec. Shrinking a pmf's support never lowers its rate,
relabelling the constellation leaves the capacity unchanged, and at high
SNR the Monte Carlo decoder must agree with the noise-free one.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from causalprecode import (
    Assignment,
    ChannelSpec,
    JointPmf,
    assignment_rate,
    build_zero_error_code,
    capacity,
    cost_tensor,
    decode,
    decode_noisefree,
    mutual_information,
    simulate,
    solve_uniform_lp,
    support_reduce,
)
from helpers import uniform_rate_bits

TOL = 1e-9
PROPERTY = settings(max_examples=25, deadline=None)


@st.composite
def specs(draw):
    m = draw(st.integers(2, 3))
    q = draw(st.integers(1, 3))
    x = draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m, unique=True))
    s = draw(st.lists(st.integers(-20, 20), min_size=q, max_size=q, unique=True))
    weights = np.asarray(draw(st.lists(st.integers(1, 9), min_size=q, max_size=q)), float)
    noise = draw(st.floats(0.05, 1.0))
    return ChannelSpec(
        tuple(v / 10.0 for v in x), tuple(v / 10.0 for v in s),
        tuple(weights / weights.sum()), noise,
    )


def pmf_for(spec, data):
    n = spec.num_symbols
    raw = data.draw(st.lists(st.integers(0, 9), min_size=n, max_size=n).filter(any))
    raw = np.asarray(raw, float)
    return JointPmf(spec.m, spec.q, raw / raw.sum())


def transformed(spec, x=None, s=None, noise=None):
    """A copy of spec with some fields replaced; each level keeps its probability."""
    return ChannelSpec(
        spec.constellation if x is None else tuple(x),
        spec.interference_levels if s is None else tuple(s),
        spec.interference_probs,
        spec.noise_power if noise is None else noise,
    )


@PROPERTY
@given(specs(), st.floats(-3.0, 3.0), st.booleans())
def test_common_translation_invariance(spec, c, shift_constellation):
    base = cost_tensor(spec).values
    if shift_constellation:
        moved = transformed(spec, x=[v + c for v in spec.constellation])
    else:
        moved = transformed(spec, s=[v + c for v in spec.interference_levels])
    assert np.allclose(cost_tensor(moved).values, base, rtol=0.0, atol=TOL)


@PROPERTY
@given(specs(), st.floats(0.25, 4.0))
def test_scaling_shifts_by_log_factor(spec, a):
    base = cost_tensor(spec).values
    scaled = transformed(
        spec,
        x=[a * v for v in spec.constellation],
        s=[a * v for v in spec.interference_levels],
        noise=a * a * spec.noise_power,
    )
    assert np.allclose(cost_tensor(scaled).values, base + math.log(a), rtol=0.0, atol=TOL)


@PROPERTY
@given(specs())
def test_reflection_invariance(spec):
    # Negated levels sort in reverse, so state j of the mirror is state
    # Q-1-j of the original: the tensor comes back with its axes reversed.
    base = cost_tensor(spec).values
    mirror = transformed(
        spec, x=[-v for v in spec.constellation], s=[-v for v in spec.interference_levels]
    )
    got = cost_tensor(mirror).values
    assert np.allclose(got, np.transpose(base, tuple(reversed(range(spec.q)))),
                       rtol=0.0, atol=TOL)


@PROPERTY
@given(specs(), st.randoms(use_true_random=False))
def test_relabelling_permutes_the_tensor(spec, rnd):
    perm = list(range(spec.m))
    rnd.shuffle(perm)
    base = cost_tensor(spec).values
    relabelled = transformed(spec, x=[spec.constellation[k] for k in perm])
    assert np.allclose(cost_tensor(relabelled).values, base[np.ix_(*[perm] * spec.q)],
                       rtol=0.0, atol=TOL)


@PROPERTY
@given(specs(), st.floats(-3.0, 3.0), st.booleans(), st.data())
def test_rate_common_translation_invariance(spec, c, shift_constellation, data):
    p = pmf_for(spec, data)
    if shift_constellation:
        moved = transformed(spec, x=[v + c for v in spec.constellation])
    else:
        moved = transformed(spec, s=[v + c for v in spec.interference_levels])
    assert math.isclose(mutual_information(p, moved, cost_tensor(moved)),
                        mutual_information(p, spec, cost_tensor(spec)), rel_tol=0.0, abs_tol=TOL)


@PROPERTY
@given(specs(), st.floats(0.25, 4.0), st.data())
def test_rate_joint_scaling_invariance(spec, a, data):
    # h(Y) and every h_t shift by the same ln a, so their difference stays.
    p = pmf_for(spec, data)
    scaled = transformed(
        spec,
        x=[a * v for v in spec.constellation],
        s=[a * v for v in spec.interference_levels],
        noise=a * a * spec.noise_power,
    )
    assert math.isclose(mutual_information(p, scaled, cost_tensor(scaled)),
                        mutual_information(p, spec, cost_tensor(spec)), rel_tol=0.0, abs_tol=TOL)


@PROPERTY
@given(specs(), st.data(), st.randoms(use_true_random=False))
def test_rates_reflection_invariance(spec, data, rnd):
    # State j of the mirror is state Q-1-j of the original, so a symbol
    # reads backwards there and a pmf tensor has its axes reversed.
    mirror = transformed(
        spec, x=[-v for v in spec.constellation], s=[-v for v in spec.interference_levels]
    )
    p = pmf_for(spec, data)
    reversed_axes = tuple(reversed(range(spec.q)))
    p_mirror = JointPmf(spec.m, spec.q, np.transpose(p.tensor(), reversed_axes).reshape(-1))
    mirror_costs, costs = cost_tensor(mirror), cost_tensor(spec)
    assert math.isclose(mutual_information(p_mirror, mirror, mirror_costs),
                        mutual_information(p, spec, costs), rel_tol=0.0, abs_tol=TOL)
    assert math.isclose(uniform_rate_bits(mirror, solve_uniform_lp(mirror_costs)),
                        uniform_rate_bits(spec, solve_uniform_lp(costs)),
                        rel_tol=0.0, abs_tol=TOL)
    columns = [list(range(1, spec.m + 1))]
    for _ in range(spec.q - 1):
        columns.append(rnd.sample(columns[0], spec.m))
    a = Assignment(tuple(zip(*columns)), total_cost=0.0)
    a_mirror = Assignment(tuple(t[::-1] for t in a.tuples), total_cost=0.0)
    assert math.isclose(assignment_rate(a_mirror, mirror, mirror_costs),
                        assignment_rate(a, spec, costs), rel_tol=0.0, abs_tol=TOL)


@PROPERTY
@given(specs(), st.data())
def test_support_reduce_never_lowers_the_rate(spec, data):
    p = pmf_for(spec, data)
    costs = cost_tensor(spec)
    reduced = support_reduce(p, costs).pmf
    assert mutual_information(reduced, spec, costs) >= mutual_information(p, spec, costs) - TOL


@PROPERTY
@given(specs(), st.randoms(use_true_random=False))
def test_relabelling_leaves_the_capacity(spec, rnd):
    # Relabelling permutes the symbols but not the channel; each certified
    # interval is narrower than tol nats and holds the same capacity.
    perm = list(range(spec.m))
    rnd.shuffle(perm)
    relabelled = transformed(spec, x=[spec.constellation[k] for k in perm])
    base = capacity(spec, cost_tensor(spec))
    moved = capacity(relabelled, cost_tensor(relabelled))
    assert base.converged and moved.converged
    assert math.isclose(moved.capacity_bits, base.capacity_bits,
                        rel_tol=0.0, abs_tol=1e-7 / math.log(2.0))


@settings(max_examples=10, deadline=None)
@given(st.integers(2, 3), st.data())
def test_simulated_ser_at_high_snr_matches_the_noise_free_decoder(q, data):
    # PAM-4 with integer levels: distinct noise-free outputs lie at least 1
    # apart, 500 noise sigmas at P_N = 1e-6, so the zero-error code must
    # decode without error and every posterior is one-hot.
    levels = data.draw(st.lists(st.integers(-6, 6), min_size=q, max_size=q, unique=True))
    weights = np.asarray(data.draw(st.lists(st.integers(1, 9), min_size=q, max_size=q)), float)
    spec = ChannelSpec((-3.0, -1.0, 1.0, 3.0), tuple(float(v) for v in levels),
                       tuple(weights / weights.sum()), 1e-6)
    zcode = build_zero_error_code(spec)
    for t in zcode.code.symbols:
        for state, i in enumerate(t):
            y = spec.constellation[i - 1] + spec.interference_levels[state]
            assert decode(y, zcode.code, spec) == decode_noisefree(zcode, y)
    report = simulate(zcode.code, spec, trials=20_000, seed=q)
    assert report.symbol_errors == 0 and report.ser == 0.0
    assert math.isclose(report.empirical_mi_bits, 2.0, rel_tol=0.0, abs_tol=TOL)
