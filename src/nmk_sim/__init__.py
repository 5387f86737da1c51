"""Classical simulation of non-Markovian open quantum systems via certified
Markovian dilations: mollifier regularization, frequency cutoff,
star-to-chain transformation, and truncated-Fock propagation, with every
step carrying a computable error bound."""

from .chain import (
    ChainCoefficients,
    QuadratureRule,
    chain_error_single,
    chain_propagate_single,
    gauss_quadrature,
    star_to_chain,
)
from .dynamics import (
    ErrorBudget,
    StateConstants,
    Trajectory,
    assemble_error_budget,
    chain_error_bound,
    cutoff_error_bound,
    evolve,
    measure_moments,
    regularization_error_bound,
    regularization_term,
    trace_distance,
    truncation_certificate,
)
from .fock import (
    InitialEnvState,
    SystemModel,
    TruncatedSpace,
    enumerate_basis,
)
from .kernels import (
    MemoryKernel,
    Mollifier,
    RegularizedCoupling,
    apply_mu_star,
    choose_grid,
    error_functions,
    eval_spectral_density,
    mollifier_fourier,
    regularize,
    total_variation,
)
from .oracle import StarDiscretization, lindblad_evolve, star_evolve

__all__ = [
    "ChainCoefficients", "QuadratureRule", "chain_error_single",
    "chain_propagate_single", "gauss_quadrature", "star_to_chain",
    "ErrorBudget", "StateConstants", "Trajectory",
    "assemble_error_budget", "chain_error_bound", "cutoff_error_bound",
    "evolve", "measure_moments",
    "regularization_error_bound", "regularization_term", "trace_distance",
    "truncation_certificate",
    "InitialEnvState", "SystemModel", "TruncatedSpace", "enumerate_basis",
    "MemoryKernel", "Mollifier", "RegularizedCoupling", "apply_mu_star",
    "choose_grid", "error_functions", "eval_spectral_density", "mollifier_fourier",
    "regularize", "total_variation",
    "StarDiscretization", "lindblad_evolve", "star_evolve",
]

__version__ = "0.1.0"
