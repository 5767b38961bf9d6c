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

Memory: each worker allocates one workspace, sized to a batch, and every
batch it takes (batches k, k + W, k + 2W, ... for worker k of W) writes into
that workspace in place. A batch allocates no arrays, and since its results
go back in batch order, neither the worker count nor the order in which
workers finish can change a report.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .model import BudgetExceededError, ChannelSpec, PrecoderCode, snr_db_of

_DRAWS_PER_TRIAL = 4  # one Philox 4x64 block: message, state, two for the noise
# Trials per batch. A workspace holds the (M*Q, batch) exponent block, 128 kB
# per component (1.5 MB at M*Q = 12), the (M, batch) likelihoods and 1.7 MB
# of per-trial vectors: more than an L1 or L2 cache, but allocated once.
_BATCH = 1 << 14
_LEAST_SUBNORMAL = 5e-324  # the least positive float64
# Box-Muller bounds |noise| by sqrt(-2 ln 2^-53) = 8.57 sigmas (u < 1 - 2^-53).
_NOISE_SIGMAS_MAX = 8.6
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
    means = x[idx] + s[None, :]  # per-symbol mixture means
    # For |y| up to the largest reachable R, the decoder's exponents
    # y mu/P_N + ln r_j - mu^2/2P_N and their gaps to each trial's largest are
    # at most (R + max|mu|)^2 / 2P_N in size: where that or a slope mu/P_N is
    # not finite, a trial's likelihoods could be NaN.
    top = float(np.abs(means).max())
    reach = top + _NOISE_SIGMAS_MAX * math.sqrt(spec.noise_power)
    spread = (reach + top) * (reach + top) / 2.0 / spec.noise_power
    if not (math.isfinite(top / spec.noise_power) and math.isfinite(spread)):
        raise ValueError(f"noise power {spec.noise_power:g} is too small to simulate: "
                         "the decoder's exponents overflow")
    return means


class _Workspace:
    """Every array a batch of up to `size` trials writes, allocated once.

    A worker reuses one workspace for all of its batches, so no batch
    allocates (or page-faults in) its arrays afresh. The channel's
    per-component terms are computed here once.
    """

    def __init__(self, means: np.ndarray, spec: ChannelSpec, size: int) -> None:
        m, q = means.shape
        self.m, self.q = m, q
        self.noise_power = spec.noise_power
        self.means = means.reshape(-1)  # component (m, j) at m*Q + j
        slope = means / spec.noise_power
        offset = np.log(np.asarray(spec.interference_probs)) - 0.5 * means * slope
        self.slope = slope.reshape(-1, 1)
        self.offset = offset.reshape(-1, 1)
        # state j is the number of the first Q-1 cut points at or below u_1
        self.cuts = np.cumsum(np.asarray(spec.interference_probs))[: q - 1]
        self.u = np.empty((size, _DRAWS_PER_TRIAL))
        self.messages = np.empty(size, np.int64)
        self.components = np.empty(size, np.int64)
        self.decoded = np.empty(size, np.int64)
        self.moved = np.empty(size, np.int64)
        self.flags = np.empty(size, bool)
        self.y = np.empty(size)
        self.noise = np.empty(size)
        self.angle = np.empty(size)
        self.column = np.empty(size)  # column maxima, then the best L_m so far
        self.total = np.empty(size)  # S, then the posterior entropies
        self.exponents = np.empty(m * q * size)
        self.lik = np.empty(m * size)


def _decode_block(y: np.ndarray, ws: _Workspace) -> tuple[np.ndarray, np.ndarray]:
    """Maximum-likelihood messages and posterior entropies (nats) for outputs y.

    Component (m, j) has exponent ln r_j - (y - mu)^2 / 2P_N. Its -y^2 / 2P_N
    part is the same for every component of a trial and cancels in both the
    decision and the posterior, leaving y (mu/P_N) + ln r_j - mu^2 / 2P_N.
    Each trial (a column, so reductions run over contiguous rows) is shifted
    by its largest exponent before the one exp; ties go to the smaller index.
    Both results are views into `ws`, valid until its next batch.
    """
    n, m = len(y), ws.m
    e = ws.exponents[: m * ws.q * n].reshape(-1, n)
    column, total, flags = ws.column[:n], ws.total[:n], ws.flags[:n]
    np.multiply(ws.slope, y, out=e)
    e += ws.offset
    np.max(e, axis=0, out=column)
    e -= column
    np.exp(e, out=e)
    lik = ws.lik[: m * n].reshape(m, n)
    np.sum(e.reshape(m, ws.q, n), axis=1, out=lik)
    np.sum(lik, axis=0, out=total)
    # argmax over rows: the index moves only on a strict >, as in np.argmax.
    # Before row k every index is below k, so max(index, k [L_k > best]) moves it.
    decided, moved = ws.decoded[:n], ws.moved[:n]
    decided.fill(0)
    column[:] = lik[0]
    for k in range(1, m):
        np.greater(lik[k], column, out=flags)
        np.multiply(flags, k, out=moved)
        np.maximum(decided, moved, out=decided)
        np.maximum(column, lik[k], out=column)
    # L ln L, with 0 ln 0 = 0: no L_m is below the least subnormal but 0
    lik_ln_lik = e[:m]
    np.maximum(lik, _LEAST_SUBNORMAL, out=lik_ln_lik)
    np.log(lik_ln_lik, out=lik_ln_lik)
    lik_ln_lik *= lik
    np.sum(lik_ln_lik, axis=0, out=column)
    column /= total
    np.log(total, out=total)
    total -= column
    return decided, total


def decode(y: float, code: PrecoderCode, spec: ChannelSpec) -> int:
    """Maximum-likelihood message for output y; ties go to the smaller index."""
    ws = _Workspace(_check_inputs(code, spec), spec, 1)
    ws.y[0] = float(y)
    decisions, _ = _decode_block(ws.y, ws)
    return int(decisions[0])


def _run_batch(seed: int, start: int, count: int, ws: _Workspace) -> tuple[int, float]:
    """Simulate trials [start, start+count); returns (errors, summed posterior entropy in nats)."""
    bits = np.random.Philox(key=seed)
    bits.advance(start)  # one counter block per trial
    u = ws.u[:count]
    np.random.Generator(bits).random(out=u)
    messages, components = ws.messages[:count], ws.components[:count]
    y, noise, angle = ws.y[:count], ws.noise[:count], ws.angle[:count]
    flags = ws.flags[:count]
    np.multiply(u[:, 0], ws.m, out=y)  # y is scratch until the means are taken
    np.copyto(messages, y, casting="unsafe")  # truncation, as astype
    np.minimum(messages, ws.m - 1, out=messages)
    np.multiply(messages, ws.q, out=components)
    for cut in ws.cuts:
        np.greater_equal(u[:, 1], cut, out=flags)
        components += flags
    # Box-Muller: u in [0, 1), so ln(1 - u) is finite and the radius real. An
    # angle on [0, pi) gives cos the law it has on [0, 2 pi), as
    # cos(2 pi - a) = cos a, and float64 cos is faster on the shorter range.
    np.negative(u[:, 2], out=noise)
    np.log1p(noise, out=noise)
    noise *= -2.0 * ws.noise_power
    np.sqrt(noise, out=noise)
    np.multiply(u[:, 3], math.pi, out=angle)
    np.cos(angle, out=angle)
    noise *= angle
    np.take(ws.means, components, out=y, mode="clip")  # mode="raise" copies
    y += noise
    decoded, entropies = _decode_block(y, ws)
    np.not_equal(decoded, messages, out=flags)
    return int(np.count_nonzero(flags)), float(entropies.sum())


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
    jobs = [(s, min(_BATCH, trials - s)) for s in range(0, trials, _BATCH)]
    lanes = max(1, min(workers, len(jobs)))

    def lane(k: int) -> list[tuple[int, float]]:
        ws = _Workspace(means, spec, jobs[0][1])
        return [_run_batch(seed, s, n, ws) for s, n in jobs[k::lanes]]

    if lanes > 1:
        with ThreadPoolExecutor(max_workers=lanes) as pool:
            by_lane = list(pool.map(lane, range(lanes)))
    else:
        by_lane = [lane(0)]
    results = [by_lane[i % lanes][i // lanes] for i in range(len(jobs))]
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
