"""Entanglement swapping from partially entangled pairs.

Simulates the Bell-basis measurement that swaps entanglement between two
independently prepared two-qubit pairs and quantifies the result with
coherence, predictability, and entanglement measures that obey exact
complementarity sums.
"""

from .experiment import EnsembleResult, RunConfig, run_ensemble
from .linalg import DensityMatrix, NonHermitianError, hermitian_eigenvalues, partial_trace
from .measures import MeasureReport, report, svn
from .states import BELL_LABELS, PureState, haar_states, schmidt_pair
from .swap import (
    BBMOutcome,
    SwapSpectrum,
    UndefinedBranchError,
    bbm_outcomes,
    outcome_probabilities,
    post_entropies,
    predictability_probability,
    special_case_probs,
    swap_spectrum,
)

__all__ = [
    "BBMOutcome", "BELL_LABELS", "DensityMatrix", "EnsembleResult", "MeasureReport",
    "NonHermitianError", "PureState", "RunConfig", "SwapSpectrum", "UndefinedBranchError",
    "bbm_outcomes", "haar_states", "hermitian_eigenvalues", "outcome_probabilities",
    "partial_trace", "post_entropies", "predictability_probability", "report", "run_ensemble",
    "schmidt_pair", "special_case_probs", "svn", "swap_spectrum",
]

__version__ = "0.1.0"
