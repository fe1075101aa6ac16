"""Numerical experiments on the fourth moment of Dirichlet L-functions.

Exact character groups via CRT decomposition, a smoothed approximate
functional equation for the central values, two independent pipelines
for the primitive-character fourth moment, and checks of the main-term
asymptotics and supporting lemma-scale bounds.
"""

from .arith import (coprime_mask, divisors, euler_phi, factorize, mobius,
                    omega, omega_sieve, phi_star, prime_sieve, two_pow_omega)
from .chargroup import (CharacterGroup, CharacterLabel, build_group,
                        exact_primitive_char_sum, exact_root_of_unity_sum,
                        gauss_sum, primitive_sum_lemma1, root_of_unity,
                        signed_sum_eq21)
from .kernel import KernelAccuracyError, KernelConfig, w_eval_batch
from .lfunc import (CentralValue, KernelWeights, abc_values, kernel_weights,
                    l_half_oracle, truncation_bound)
from .spectra import (CharacterSpectrum, MomentReport, compute_spectrum,
                      fourth_moment, group_transform)
from .asymptotics import (ErrorSumResult, Lemma3Result, Lemma4Result,
                          Lemma5Result, error_sum_E, lemma3_count,
                          lemma4_check, lemma5_sums, m_direct,
                          m_reparametrized, theorem_main_term)
from .numerics import EULER_GAMMA, ZETA2, fmt_float

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # arith
    "factorize", "mobius", "euler_phi", "omega",
    "two_pow_omega", "phi_star", "divisors",
    "prime_sieve", "coprime_mask", "omega_sieve",
    # chargroup
    "CharacterGroup", "CharacterLabel", "build_group",
    "root_of_unity", "gauss_sum", "primitive_sum_lemma1",
    "signed_sum_eq21", "exact_root_of_unity_sum",
    "exact_primitive_char_sum",
    # kernel
    "KernelConfig", "KernelAccuracyError", "w_eval_batch",
    # lfunc
    "l_half_oracle", "KernelWeights", "kernel_weights",
    "truncation_bound", "CentralValue", "abc_values",
    # spectra
    "group_transform", "CharacterSpectrum", "compute_spectrum",
    "MomentReport", "fourth_moment",
    # asymptotics
    "theorem_main_term", "m_direct", "m_reparametrized", "Lemma3Result",
    "lemma3_count", "Lemma4Result", "lemma4_check", "Lemma5Result",
    "lemma5_sums", "ErrorSumResult", "error_sum_E",
    # numerics
    "EULER_GAMMA", "ZETA2", "fmt_float",
]
