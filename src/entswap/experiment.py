"""Seeded Monte Carlo ensembles of the swapping protocol."""

from __future__ import annotations

from dataclasses import dataclass

from . import rng, swap
from .linalg import require_integer
from .states import BELL_LABELS, _one_weight


@dataclass(frozen=True)
class RunConfig:
    """One ensemble: source weights, number of shots, stream seed."""

    p: float
    q: float
    shots: int
    seed: int

    def __post_init__(self) -> None:
        for name in ("p", "q"):  # stored checked, so `run_ensemble` reads them unchecked
            object.__setattr__(self, name, float(_one_weight(getattr(self, name), name)))
        shots, seed = (require_integer(getattr(self, name), name) for name in ("shots", "seed"))
        if shots < 1:
            raise ValueError(f"shots must be >= 1, got {shots}")
        object.__setattr__(self, "shots", shots)
        object.__setattr__(self, "seed", seed & rng.MASK64)


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

    Draw i takes the label that `rng.categorical` gives uniform i under the
    `swap._branches` probabilities; `rng._label_counts` counts them in
    chunks of bounded memory, so identical configs give identical counts
    bit for bit.
    """
    probs = swap._branches(cfg.p, cfg.q)[0]  # `RunConfig` has checked both weights
    counts = dict(zip(BELL_LABELS, rng._label_counts(cfg.seed, cfg.shots, probs).tolist()))
    empirical = {label: counts[label] / cfg.shots for label in BELL_LABELS}
    return EnsembleResult(counts, empirical, analytic_prob=dict(zip(BELL_LABELS, probs)))
