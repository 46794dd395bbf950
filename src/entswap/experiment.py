"""Seeded Monte Carlo ensembles of the swapping protocol."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rng, swap
from .states import BELL_LABELS, require_weight

SHOT_CHUNK = 1 << 16  # draws per batch in `run_ensemble`: bounds memory for any shot count


@dataclass(frozen=True)
class RunConfig:
    """One ensemble: source weights, number of shots, stream seed."""

    p: float
    q: float
    shots: int
    seed: int

    def __post_init__(self) -> None:
        require_weight(self.p, "p")
        require_weight(self.q, "q")
        if int(self.shots) < 1:
            raise ValueError(f"shots must be >= 1, got {self.shots}")
        object.__setattr__(self, "shots", int(self.shots))
        object.__setattr__(self, "seed", int(self.seed) & rng.MASK64)


@dataclass(frozen=True)
class EnsembleResult:
    """Counts and frequencies per label next to the analytic expectations."""

    counts: dict[str, int]
    empirical_freq: dict[str, float]
    analytic_prob: dict[str, float]

    def freq_error(self) -> dict[str, float]:
        """Per-label |empirical - analytic|."""
        return {k: abs(self.empirical_freq[k] - self.analytic_prob[k]) for k in self.counts}


def run_ensemble(cfg: RunConfig) -> EnsembleResult:
    """cfg.shots draws from counter 0 of the seed's stream, tallied per Bell label.

    Draw i picks its label by categorical inversion of uniform i alone. The
    draws stream in chunks of SHOT_CHUNK, and each chunk is counted under
    the cumulative boundaries, checked once per run, rather than labelled
    draw by draw (`rng._tally`, the counting form of `rng.categorical`).
    Memory stays bounded and identical configs give identical results bit
    for bit.
    """
    probs = swap.outcome_probabilities(cfg.p, cfg.q)
    boundaries = rng._boundaries([probs[label] for label in BELL_LABELS])
    tally = np.zeros(len(BELL_LABELS), dtype=np.int64)
    for start in range(0, cfg.shots, SHOT_CHUNK):
        draws = rng.uniforms(cfg.seed, start, min(SHOT_CHUNK, cfg.shots - start))
        tally += rng._tally(draws, boundaries)
    counts = {label: int(c) for label, c in zip(BELL_LABELS, tally)}
    empirical = {label: counts[label] / cfg.shots for label in BELL_LABELS}
    return EnsembleResult(counts=counts, empirical_freq=empirical, analytic_prob=probs)
