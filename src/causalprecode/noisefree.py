"""The noise-free channel Y = X + S: one-shot zero-error codes.

A code of M associated symbols is zero-error iff the M output multisets
{x_{i_q} + s_q : q = 1..Q} are pairwise disjoint; the decoder then maps any
observed output to the unique message whose multiset contains it. When the
constellation is an arithmetic progression such a code always exists and is
built constructively, level by level; otherwise an exhaustive search over
tuple families settles existence for small instances.

Output values are compared exactly after snapping constellation points and
interference levels to rationals (within 1e-12), so disjointness never
depends on floating-point noise.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .model import (
    BudgetExceededError,
    ChannelSpec,
    PrecoderCode,
)

# Exhaustive-search budget: all families of M tuples out of M^Q.
_MAX_M = 5
_MAX_Q = 3

# Relative tolerance on the gaps of an arithmetic progression.
_AP_REL_TOL = 1e-9

_SNAP_DENOMINATOR = 10**12
_SNAP_TOL = 1e-12


def snap(value: float) -> Fraction:
    """Nearest rational with denominator <= 1e12, if within 1e-12; else exact."""
    value = float(value)
    approx = Fraction(value).limit_denominator(_SNAP_DENOMINATOR)
    if abs(float(approx) - value) <= _SNAP_TOL * max(1.0, abs(value)):
        return approx
    return Fraction(value)


@dataclass(frozen=True)
class OutputMultiset:
    """The Q channel outputs one message can produce (with multiplicity)."""

    elements: tuple[float, ...]

    def __post_init__(self) -> None:
        elems = tuple(sorted(float(v) for v in self.elements))
        if not elems:
            raise ValueError("output multiset cannot be empty")
        object.__setattr__(self, "elements", elems)

    def values(self) -> frozenset[Fraction]:
        return frozenset(snap(v) for v in self.elements)


@dataclass(frozen=True, eq=False)
class ZeroErrorCode:
    """A precoder whose M output multisets are pairwise disjoint."""

    code: PrecoderCode
    multisets: tuple[OutputMultiset, ...]

    def __post_init__(self) -> None:
        if len(self.multisets) != self.code.m:
            raise ValueError("need one output multiset per message")
        if any(len(ms.elements) != self.code.q for ms in self.multisets):
            raise ValueError("each multiset must have exactly Q elements")


def is_arithmetic_progression(values) -> bool:
    """True iff consecutive differences of the sorted-ascending input are equal.

    Differences are compared with relative tolerance _AP_REL_TOL.
    """
    vals = [float(v) for v in values]
    if len(vals) < 3:
        return True
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    scale = max(abs(d) for d in diffs)
    return all(abs(d - diffs[0]) <= _AP_REL_TOL * scale for d in diffs)


def output_multisets(code: PrecoderCode, spec: ChannelSpec) -> tuple[OutputMultiset, ...]:
    """Noise-free output multiset of every message under `code`."""
    x = [snap(v) for v in spec.constellation]
    s = [snap(v) for v in spec.interference_levels]
    return tuple(
        OutputMultiset(tuple(float(x[i - 1] + s[q]) for q, i in enumerate(t)))
        for t in code.symbols
    )


def verify_zero_error(zcode: ZeroErrorCode) -> bool:
    """True iff the output multisets are pairwise disjoint.

    Multiplicity inside a single multiset is allowed; a value shared between
    two multisets is not. This is exactly the condition for an error-free
    decoder to exist.
    """
    value_sets = [ms.values() for ms in zcode.multisets]
    for a in range(len(value_sets)):
        for b in range(a + 1, len(value_sets)):
            if value_sets[a] & value_sets[b]:
                return False
    return True


def decode_noisefree(zcode: ZeroErrorCode, y: float) -> int | None:
    """Message whose multiset contains output y, or None if y is impossible."""
    target = snap(y)
    for message, ms in enumerate(zcode.multisets):
        if target in ms.values():
            return message
    return None


def build_zero_error_code(spec: ChannelSpec) -> ZeroErrorCode:
    """Zero-error code for an arithmetic-progression constellation.

    Induction over interference levels, lowest first, with one map from each
    output placed so far to the message that owns it. At each level an
    output x_i + s already placed stays with its owner, and the fresh
    outputs go, in ascending order, to the messages no output of this level
    claimed. Raises RuntimeError if one level claims a message twice. The
    result uses every constellation point exactly once per level, so a
    uniform distribution on the code induces uniform per-state marginals.
    """
    order = sorted(range(spec.m), key=lambda i: spec.constellation[i])
    xs = [snap(spec.constellation[i]) for i in order]  # ascending
    if not is_arithmetic_progression([float(v) for v in xs]):
        raise ValueError(
            "constellation is not an arithmetic progression; use exhaustive_search"
        )
    owner: dict[Fraction, int] = {}
    tuples: list[list[int]] = [[] for _ in range(spec.m)]  # sorted-constellation indices
    for s in map(snap, spec.interference_levels):  # ascending by construction
        outputs = [x + s for x in xs]  # ascending
        claimed = [owner[v] for v in outputs if v in owner]
        if len(set(claimed)) != len(claimed):
            raise RuntimeError("a message is claimed twice in one level")
        free = iter(sorted(set(range(spec.m)) - set(claimed)))
        for i, v in enumerate(outputs):
            if v not in owner:
                owner[v] = next(free)
            tuples[owner[v]].append(i)
    code = PrecoderCode(tuple(tuple(order[i] + 1 for i in t) for t in tuples))
    zcode = ZeroErrorCode(code=code, multisets=output_multisets(code, spec))
    if not verify_zero_error(zcode):
        raise RuntimeError("constructed multisets are not disjoint")
    return zcode


def exhaustive_search(spec: ChannelSpec) -> ZeroErrorCode | None:
    """First (lexicographic) family of M tuples with disjoint output multisets.

    Searches all families of M associated symbols, not only one-per-state
    permutation families, and returns None when no zero-error code of rate
    log2 M exists. Budget: M <= 5 and Q <= 3.
    """
    if spec.m > _MAX_M or spec.q > _MAX_Q:
        raise BudgetExceededError(
            f"instance too large for exhaustive search "
            f"(M={spec.m}, Q={spec.q}; budget M<=5, Q<=3)"
        )
    x = [snap(v) for v in spec.constellation]
    s = [snap(v) for v in spec.interference_levels]
    symbols: list[tuple[int, ...]] = []
    value_sets: list[frozenset[Fraction]] = []
    for t in itertools.product(range(1, spec.m + 1), repeat=spec.q):
        symbols.append(t)
        value_sets.append(frozenset(x[i - 1] + s[q] for q, i in enumerate(t)))
    n = len(symbols)
    chosen: list[int] = []

    def extend(start: int, used: frozenset[Fraction]) -> bool:
        if len(chosen) == spec.m:
            return True
        for t in range(start, n - (spec.m - len(chosen)) + 1):
            if value_sets[t] & used:
                continue
            chosen.append(t)
            if extend(t + 1, used | value_sets[t]):
                return True
            chosen.pop()
        return False

    if not extend(0, frozenset()):
        return None
    code = PrecoderCode(tuple(symbols[t] for t in chosen))
    return ZeroErrorCode(code=code, multisets=output_multisets(code, spec))
