"""Precoding for M-ary transmission over AWGN channels with additive
discrete interference known causally at the transmitter.

The transmitter strategy space is the associated channel: inputs are
Q-tuples over the constellation ("send x_{i_q} when the interference is
s_q"). The package computes conditional-entropy cost tensors, solves the
marginal-constrained and uniform-transmission linear programs, solves the
integral assignment problems, constructs zero-error codes for the
noise-free channel, computes certified capacity, and validates
precoders end to end by Monte Carlo simulation.
"""

from .model import (
    AssociatedSymbol,
    BudgetExceededError,
    ChannelSpec,
    JointPmf,
    MarginalSet,
    PrecoderCode,
    SUPPORT_THRESHOLD,
    average_power,
    code_pmf,
    enumerate_symbols,
    format_spec_text,
    load_spec,
    marginals_of,
    noise_power_for_snr_db,
    parse_spec_text,
    precode,
    snr_db_of,
    symbol_from_rank,
    symbol_rank,
)
from .entropy import (
    CostTensor,
    QuadratureGrid,
    cost_tensor,
    differential_entropy,
    gaussian_entropy,
    mixture_pdf,
    mutual_information,
    output_pdf,
    quadrature_grid,
)
from .optimize import (
    CapacityResult,
    LpSolution,
    capacity,
    solve_marginal_lp,
    solve_uniform_lp,
    support_reduce,
)
from .assign import Assignment, assignment_rate, multidim_assignment
from .noisefree import (
    OutputMultiset,
    ZeroErrorCode,
    build_zero_error_code,
    decode_noisefree,
    exhaustive_search,
    is_arithmetic_progression,
    output_multisets,
    verify_zero_error,
)
from .sim import SimReport, decode, simulate

__all__ = [
    "AssociatedSymbol",
    "Assignment",
    "BudgetExceededError",
    "CapacityResult",
    "ChannelSpec",
    "CostTensor",
    "JointPmf",
    "LpSolution",
    "MarginalSet",
    "OutputMultiset",
    "PrecoderCode",
    "QuadratureGrid",
    "SUPPORT_THRESHOLD",
    "SimReport",
    "ZeroErrorCode",
    "assignment_rate",
    "average_power",
    "build_zero_error_code",
    "capacity",
    "code_pmf",
    "cost_tensor",
    "decode",
    "decode_noisefree",
    "differential_entropy",
    "enumerate_symbols",
    "exhaustive_search",
    "format_spec_text",
    "gaussian_entropy",
    "is_arithmetic_progression",
    "load_spec",
    "marginals_of",
    "mixture_pdf",
    "multidim_assignment",
    "mutual_information",
    "noise_power_for_snr_db",
    "output_multisets",
    "output_pdf",
    "parse_spec_text",
    "precode",
    "quadrature_grid",
    "simulate",
    "snr_db_of",
    "solve_marginal_lp",
    "solve_uniform_lp",
    "support_reduce",
    "symbol_from_rank",
    "symbol_rank",
    "verify_zero_error",
]
