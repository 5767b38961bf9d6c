"""Monte Carlo validation of a precoder over the actual channel Y = X + S + N.

Each trial draws a message and an interference symbol, transmits the
precoded signal level, adds Gaussian noise, and decodes by maximum mixture
likelihood over the code's symbols. Reported alongside the symbol error
rate is a plug-in mutual-information estimate: log2 M minus the mean
entropy of the exact decoder posterior.

Determinism: trial k consumes exactly one Philox counter block (four 64-bit
words), keyed by the seed, and trials are processed in fixed-size batches
whose partial sums are merged in batch order. Reports are therefore
identical for any worker count. The block's four uniform draws pick the
message and the interference state, and the last two make the noise by a
Box-Muller transform (Box & Muller 1958), so the module needs numpy alone.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import BudgetExceededError, ChannelSpec, PrecoderCode, snr_db_of

_DRAWS_PER_TRIAL = 4  # one Philox 4x64 block: message, state, two for the noise
_BATCH = 1 << 14  # an (M*Q, batch) exponent block stays in cache
# Most trials per run: a longer run fails before any work (exit 3). The
# batch plan at this size is 61k jobs, a few tens of MB.
_TRIALS_MAX = 10**9


@dataclass(frozen=True)
class SimReport:
    trials: int
    symbol_errors: int
    ser: float
    empirical_mi_bits: float
    seed: int


def _check_inputs(code: PrecoderCode, spec: ChannelSpec) -> np.ndarray:
    if spec.noise_power <= 0.0:
        raise ValueError("degenerate noise; use the noisefree module")
    if code.q != spec.q:
        raise ValueError(f"code has {code.q} components per symbol, spec has {spec.q}")
    if any(i > spec.m for t in code.symbols for i in t):
        raise ValueError("code indexes beyond the constellation")
    x = np.asarray(spec.constellation)
    s = np.asarray(spec.interference_levels)
    idx = np.array(code.symbols) - 1  # (M, Q)
    return x[idx] + s[None, :]  # per-symbol mixture means


def _decode_block(
    y: np.ndarray, means: np.ndarray, spec: ChannelSpec
) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood messages and posterior entropies (nats) for outputs y.

    Component (m, j) has exponent ln r_j - (y - mu)^2 / 2P_N. Its -y^2 / 2P_N
    part is the same for every component of a trial and cancels in both the
    decision and the posterior, leaving y (mu/P_N) + ln r_j - mu^2 / 2P_N.
    Each trial (a column, so reductions run over contiguous rows) is shifted
    by its largest exponent before the one exp; ties go to the smaller index.
    """
    slope = means / spec.noise_power
    offset = np.log(np.asarray(spec.interference_probs)) - 0.5 * means * slope
    e = np.multiply.outer(slope.reshape(-1), y)
    e += offset.reshape(-1, 1)
    e -= e.max(axis=0)
    lik = np.exp(e, out=e).reshape(means.shape + (len(y),)).sum(axis=1)
    total = lik.sum(axis=0)
    lik_ln_lik = np.log(lik, out=np.zeros_like(lik), where=lik > 0.0)
    lik_ln_lik *= lik
    return np.argmax(lik, axis=0), np.log(total) - lik_ln_lik.sum(axis=0) / total


def decode(y: float, code: PrecoderCode, spec: ChannelSpec) -> int:
    """Maximum-likelihood message for output y; ties go to the smaller index."""
    decisions, _ = _decode_block(np.asarray([float(y)]), _check_inputs(code, spec), spec)
    return int(decisions[0])


def _run_batch(
    seed: int,
    start: int,
    count: int,
    means: np.ndarray,
    spec: ChannelSpec,
) -> tuple[int, float]:
    """Simulate trials [start, start+count); returns (errors, summed posterior entropy in nats)."""
    bits = np.random.Philox(key=seed)
    bits.advance(start)  # one counter block per trial
    u = np.random.Generator(bits).random((count, _DRAWS_PER_TRIAL))
    m = means.shape[0]
    messages = np.minimum((u[:, 0] * m).astype(np.int64), m - 1)
    cum_r = np.cumsum(np.asarray(spec.interference_probs))
    states = np.minimum(np.searchsorted(cum_r, u[:, 1], side="right"), spec.q - 1)
    # Box-Muller: u in [0, 1), so ln(1 - u) is finite and the radius real. An
    # angle on [0, pi) gives cos the law it has on [0, 2 pi), as
    # cos(2 pi - a) = cos a, and float64 cos is faster on the shorter range.
    radius = np.sqrt(-2.0 * spec.noise_power * np.log1p(-u[:, 2]))
    noise = radius * np.cos(math.pi * u[:, 3])
    y = means[messages, states] + noise
    decoded, entropies = _decode_block(y, means, spec)
    return int(np.count_nonzero(decoded != messages)), float(entropies.sum())


def simulate(
    code: PrecoderCode,
    spec: ChannelSpec,
    trials: int,
    seed: int,
    workers: int = 1,
) -> SimReport:
    """Monte Carlo run of `trials` one-shot transmissions.

    Deterministic given (seed, trials, code, spec); `workers` only
    parallelizes fixed batches and never changes the result. Raises
    BudgetExceededError beyond _TRIALS_MAX trials.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    if trials > _TRIALS_MAX:
        raise BudgetExceededError(f"{trials} trials, beyond the budget of {_TRIALS_MAX}")
    means = _check_inputs(code, spec)
    starts = list(range(0, trials, _BATCH))
    jobs = [(s, min(_BATCH, trials - s)) for s in starts]
    if workers > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(
                pool.map(lambda job: _run_batch(seed, job[0], job[1], means, spec), jobs)
            )
    else:
        results = [_run_batch(seed, s, n, means, spec) for s, n in jobs]
    errors = sum(r[0] for r in results)
    mean_posterior_entropy = math.fsum(r[1] for r in results) / trials
    mi = math.log2(code.m) - mean_posterior_entropy / math.log(2.0)
    return SimReport(
        trials=trials,
        symbol_errors=errors,
        ser=errors / trials,
        empirical_mi_bits=mi,
        seed=seed,
    )


CSV_HEADER = "seed,trials,snr_db,ser,empirical_mi_bits"


def csv_row(report: SimReport, spec: ChannelSpec) -> str:
    """One CSV row: seed, trials, snr_db, ser, empirical_mi_bits."""
    return ",".join(
        [
            str(report.seed),
            str(report.trials),
            f"{snr_db_of(spec):.12g}",
            f"{report.ser:.12g}",
            f"{report.empirical_mi_bits:.12g}",
        ]
    )
