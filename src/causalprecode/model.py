"""Problem instances, the associated-channel alphabet, and precoding maps.

The channel is Y = X + S + N: an M-point real constellation X, a Q-level
discrete interference S known causally at the transmitter, and AWGN N.
The transmitter strategy space is the set of all M^Q functions from
interference levels to constellation points ("associated symbols"); a
precoder is an ordered list of M such symbols, one per message.

Index conventions: messages are 0-based, constellation and interference
indices are 1-based.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

# Pmf entries below this are treated as structural zeros when counting
# support; solver outputs carry rounding noise well below it.
SUPPORT_THRESHOLD = 1e-9

# Dense M^Q storage cap; every solver here is dense.
_MAX_DENSE_SYMBOLS = 10**7

# One input letter of the associated channel: (i_1, ..., i_Q) with each
# i_q in 1..M, meaning "transmit x_{i_q} when the interference is s_q".
AssociatedSymbol = tuple[int, ...]


class BudgetExceededError(RuntimeError):
    """An exact solver was asked for an instance beyond its search budget."""


@dataclass(frozen=True)
class ChannelSpec:
    """A full problem instance.

    Parameters
    ----------
    constellation : ordered sequence of M distinct reals.
    interference_levels : Q distinct reals; stored sorted ascending (the
        probabilities are permuted along).
    interference_probs : Q positive reals summing to 1.
    noise_power : variance of the Gaussian noise, >= 0.
    """

    constellation: tuple[float, ...]
    interference_levels: tuple[float, ...]
    interference_probs: tuple[float, ...]
    noise_power: float

    def __post_init__(self) -> None:
        x = tuple(float(v) for v in self.constellation)
        s = tuple(float(v) for v in self.interference_levels)
        r = tuple(float(v) for v in self.interference_probs)
        for key, vals in (("constellation", x), ("interference_levels", s),
                          ("interference_probs", r)):
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{key}: values must be finite")
        if len(x) < 2:
            raise ValueError("constellation: need at least two signal levels")
        if len(set(x)) != len(x):
            raise ValueError("constellation: signal levels must be pairwise distinct")
        if len(s) < 1:
            raise ValueError("interference_levels: need at least one level")
        if len(set(s)) != len(s):
            raise ValueError("interference_levels: levels must be pairwise distinct")
        if len(r) != len(s):
            raise ValueError(
                "interference_probs: need exactly one probability per interference level"
            )
        if any(p <= 0.0 for p in r):
            raise ValueError("interference_probs: probabilities must be positive")
        if abs(math.fsum(r) - 1.0) > 1e-12:
            raise ValueError("interference_probs: probabilities must sum to 1")
        pn = float(self.noise_power)
        if not (math.isfinite(pn) and pn >= 0.0):
            raise ValueError("noise_power: must be a finite nonnegative real")
        if len(x) ** len(s) > _MAX_DENSE_SYMBOLS:
            raise ValueError(
                f"instance has {len(x)}^{len(s)} associated symbols, beyond the "
                f"dense-storage cap of {_MAX_DENSE_SYMBOLS}"
            )
        # Keep levels sorted ascending; the zero-error construction relies on it.
        order = sorted(range(len(s)), key=lambda j: s[j])
        object.__setattr__(self, "constellation", x)
        object.__setattr__(self, "interference_levels", tuple(s[j] for j in order))
        object.__setattr__(self, "interference_probs", tuple(r[j] for j in order))
        object.__setattr__(self, "noise_power", pn)

    @property
    def m(self) -> int:
        return len(self.constellation)

    @property
    def q(self) -> int:
        return len(self.interference_levels)

    @property
    def num_symbols(self) -> int:
        return self.m**self.q


def average_power(constellation) -> float:
    """Mean of x^2 under the uniform input distribution."""
    xs = [float(v) for v in constellation]
    return math.fsum(v * v for v in xs) / len(xs)


def snr_db_of(spec: ChannelSpec) -> float:
    """SNR in dB: average constellation power (uniform inputs) over noise power.

    Interference power is excluded; the interference is known at the
    transmitter and is not noise.
    """
    if spec.noise_power <= 0.0:
        raise ValueError("SNR is undefined for zero noise power")
    return 10.0 * math.log10(average_power(spec.constellation) / spec.noise_power)


def noise_power_for_snr_db(constellation, snr_db: float) -> float:
    """Noise power that puts the given constellation at `snr_db` dB."""
    return average_power(constellation) / (10.0 ** (snr_db / 10.0))


def enumerate_symbols(spec: ChannelSpec) -> list[AssociatedSymbol]:
    """All M^Q associated symbols in lexicographic order of (i_1, ..., i_Q)."""
    return list(itertools.product(range(1, spec.m + 1), repeat=spec.q))


def symbol_rank(symbol: AssociatedSymbol, m: int) -> int:
    """Flat rank of a symbol under lexicographic order, in 0..M^Q-1."""
    rank = 0
    for i in symbol:
        if not 1 <= i <= m:
            raise ValueError(f"symbol index {i} out of range 1..{m}")
        rank = rank * m + (i - 1)
    return rank


def symbol_from_rank(rank: int, m: int, q: int) -> AssociatedSymbol:
    """Inverse of symbol_rank."""
    if not 0 <= rank < m**q:
        raise ValueError(f"rank {rank} out of range 0..{m**q - 1}")
    digits = []
    for _ in range(q):
        digits.append(rank % m + 1)
        rank //= m
    return tuple(reversed(digits))


@dataclass(frozen=True, eq=False)
class JointPmf:
    """Dense pmf over all M^Q associated symbols, flat in lexicographic order."""

    m: int
    q: int
    probs: np.ndarray

    def __post_init__(self) -> None:
        p = np.array(self.probs, dtype=float).reshape(-1)
        if p.shape[0] != self.m**self.q:
            raise ValueError(f"pmf length {p.shape[0]} != {self.m}^{self.q}")
        if np.any(p < -1e-12):
            raise ValueError("pmf entries must be nonnegative")
        if abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValueError("pmf must sum to 1 within 1e-9")
        p = np.maximum(p, 0.0)
        p.flags.writeable = False
        object.__setattr__(self, "probs", p)

    @classmethod
    def uniform(cls, m: int, q: int) -> "JointPmf":
        n = m**q
        return cls(m, q, np.full(n, 1.0 / n))

    @classmethod
    def from_entries(cls, m: int, q: int, entries) -> "JointPmf":
        """Build from a mapping {symbol: probability}; unlisted symbols get 0."""
        p = np.zeros(m**q)
        for symbol, prob in dict(entries).items():
            p[symbol_rank(tuple(symbol), m)] = prob
        return cls(m, q, p)

    def prob(self, symbol: AssociatedSymbol) -> float:
        return float(self.probs[symbol_rank(tuple(symbol), self.m)])

    def tensor(self) -> np.ndarray:
        """The pmf reshaped to a (M,)*Q array."""
        return self.probs.reshape((self.m,) * self.q)

    def support(self) -> list[AssociatedSymbol]:
        """Symbols with probability above SUPPORT_THRESHOLD, in lexicographic order."""
        return [
            symbol_from_rank(int(r), self.m, self.q)
            for r in np.nonzero(self.probs > SUPPORT_THRESHOLD)[0]
        ]


@dataclass(frozen=True, eq=False)
class MarginalSet:
    """Q per-state marginals; row q is the distribution of X_q over the constellation."""

    per_state: np.ndarray

    def __post_init__(self) -> None:
        rows = np.array(self.per_state, dtype=float)
        if rows.ndim != 2:
            raise ValueError("per_state must be a Q x M array")
        if np.any(rows < -1e-12):
            raise ValueError("marginal entries must be nonnegative")
        sums = rows.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > 1e-9):
            raise ValueError("each marginal row must sum to 1 within 1e-9")
        rows = np.maximum(rows, 0.0)
        rows.flags.writeable = False
        object.__setattr__(self, "per_state", rows)

    @classmethod
    def uniform(cls, m: int, q: int) -> "MarginalSet":
        return cls(np.full((q, m), 1.0 / m))

    @property
    def q(self) -> int:
        return self.per_state.shape[0]

    @property
    def m(self) -> int:
        return self.per_state.shape[1]


def marginals_of(p: JointPmf) -> MarginalSet:
    """Per-state marginals of a joint pmf: row q, entry i = sum over {t : t_q = i}."""
    t = p.tensor()
    rows = np.empty((p.q, p.m))
    for q in range(p.q):
        axes = tuple(a for a in range(p.q) if a != q)
        rows[q] = t.sum(axis=axes) if axes else t
    return MarginalSet(rows)


@dataclass(frozen=True)
class PrecoderCode:
    """An ordered set of M associated symbols with implicit uniform 1/M weights.

    Message m is precoded with symbols[m]; construction rejects duplicate
    symbols.
    """

    symbols: tuple[AssociatedSymbol, ...]

    def __post_init__(self) -> None:
        syms = tuple(tuple(int(i) for i in t) for t in self.symbols)
        if not syms:
            raise ValueError("precoder needs at least one symbol")
        q = len(syms[0])
        if any(len(t) != q for t in syms):
            raise ValueError("all precoder symbols must have the same length")
        if any(i < 1 for t in syms for i in t):
            raise ValueError("symbol indices are 1-based and must be >= 1")
        if len(set(syms)) != len(syms):
            raise ValueError("precoder symbols must be pairwise distinct")
        object.__setattr__(self, "symbols", syms)

    @property
    def m(self) -> int:
        return len(self.symbols)

    @property
    def q(self) -> int:
        return len(self.symbols[0])


def code_pmf(code: PrecoderCode, m: int) -> JointPmf:
    """The joint pmf that puts weight 1/M on each symbol of the code."""
    weight = 1.0 / code.m
    return JointPmf.from_entries(m, code.q, {t: weight for t in code.symbols})


def precode(
    code: PrecoderCode, message: int, state_index: int, spec: ChannelSpec
) -> float:
    """Signal level sent for `message` when the interference is s_{state_index}."""
    if not 0 <= message < code.m:
        raise ValueError(f"message {message} out of range 0..{code.m - 1}")
    if not 1 <= state_index <= spec.q:
        raise ValueError(f"state index {state_index} out of range 1..{spec.q}")
    i = code.symbols[message][state_index - 1]
    if i > spec.m:
        raise ValueError(f"symbol index {i} exceeds constellation size {spec.m}")
    return spec.constellation[i - 1]


# ---------------------------------------------------------------------------
# Channel spec files: flat "key = values" text, one key per line.
# ---------------------------------------------------------------------------

_SPEC_KEYS = (
    "constellation",
    "interference_levels",
    "interference_probs",
    "noise_power",
)


def parse_spec_text(text: str) -> ChannelSpec:
    """Parse a channel spec document.

    Format: `key = v1 v2 ...` lines; `#` starts a comment; blank lines are
    ignored. Values are decimal floats (repr round-trips IEEE-754 doubles).
    """
    found: dict[str, list[float]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = values', got {raw!r}")
        key, _, rest = line.partition("=")
        key = key.strip()
        if key not in _SPEC_KEYS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        if key in found:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        try:
            values = [float(tok) for tok in rest.split()]
        except ValueError:
            raise ValueError(f"{key}: could not parse {rest.strip()!r} as reals") from None
        if not values:
            raise ValueError(f"{key}: no values given")
        found[key] = values
    for key in _SPEC_KEYS:
        if key not in found:
            raise ValueError(f"missing key {key!r}")
    if len(found["noise_power"]) != 1:
        raise ValueError("noise_power: expected a single real")
    return ChannelSpec(
        constellation=tuple(found["constellation"]),
        interference_levels=tuple(found["interference_levels"]),
        interference_probs=tuple(found["interference_probs"]),
        noise_power=found["noise_power"][0],
    )


def format_spec_text(spec: ChannelSpec) -> str:
    """Serialize a spec in the format accepted by parse_spec_text."""
    lines = [
        "constellation = " + " ".join(repr(v) for v in spec.constellation),
        "interference_levels = " + " ".join(repr(v) for v in spec.interference_levels),
        "interference_probs = " + " ".join(repr(v) for v in spec.interference_probs),
        f"noise_power = {spec.noise_power!r}",
    ]
    return "\n".join(lines) + "\n"


def load_spec(path) -> ChannelSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())
