"""Bootstrap statistics for budgeted sampled sweeps.

A budgeted sweep (:mod:`repro.sim.sampling`) simulates a stratified
subset of the full cell grid; what it reports per stratum is therefore
an *estimate* of the full-grid mean, and every estimate carries a
percentile-bootstrap confidence interval so the report can never be
mistaken for an exact number.  Resampling is vectorized and seeded:
the same sample and seed always produce the same interval.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

import numpy as np

#: Bootstrap resamples per interval unless a caller passes ``resamples``.
DEFAULT_RESAMPLES = 1000


@dataclass(frozen=True)
class CIEstimate:
    """A sample mean with its bootstrap confidence interval."""

    mean: float
    lo: float
    hi: float
    confidence: float
    n: int

    @property
    def width(self) -> float:
        return self.hi - self.lo

    def brackets(self, value: float) -> bool:
        """True when ``value`` falls inside the interval."""
        return self.lo <= value <= self.hi

    def as_dict(self) -> dict:
        return {
            "mean": self.mean,
            "lo": self.lo,
            "hi": self.hi,
            "confidence": self.confidence,
            "n": self.n,
        }

    def render(self) -> str:
        return f"{self.mean:.3f} [{self.lo:.3f}, {self.hi:.3f}]"


def bootstrap_ci(
    values: Sequence[float],
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> CIEstimate:
    """Percentile-bootstrap CI of the mean of ``values`` (seeded).

    A single-value sample yields a degenerate (zero-width) interval —
    honest about what one cell can and cannot bound.  The interval is
    widened to include the sample mean itself, so ``brackets(mean)``
    always holds.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1): {confidence}")
    data = np.asarray(list(values), dtype=np.float64)
    if data.size == 0:
        raise ValueError("bootstrap_ci needs at least one value")
    mean = float(data.mean())
    if data.size == 1:
        return CIEstimate(
            mean=mean, lo=mean, hi=mean, confidence=confidence, n=1
        )
    rng = np.random.default_rng(seed)
    picks = rng.integers(0, data.size, size=(resamples, data.size))
    means = data[picks].mean(axis=1)
    alpha = (1.0 - confidence) / 2.0
    lo = float(np.quantile(means, alpha))
    hi = float(np.quantile(means, 1.0 - alpha))
    return CIEstimate(
        mean=mean,
        lo=min(lo, mean),
        hi=max(hi, mean),
        confidence=confidence,
        n=int(data.size),
    )


def stratified_estimates(
    values_by_stratum: "dict[object, Sequence[float]]",
    confidence: float = 0.95,
    resamples: int = DEFAULT_RESAMPLES,
    seed: int = 0,
) -> "dict[object, CIEstimate]":
    """One :func:`bootstrap_ci` per stratum, deterministically seeded.

    Each stratum's resampling seed is derived from ``seed`` and the
    stratum's *content* (not its position), so an interval does not
    change when unrelated strata are added or removed.
    """
    estimates: "dict[object, CIEstimate]" = {}
    for stratum, values in values_by_stratum.items():
        digest = hashlib.blake2b(
            f"{seed}:{stratum!r}".encode(), digest_size=8
        ).digest()
        estimates[stratum] = bootstrap_ci(
            values,
            confidence=confidence,
            resamples=resamples,
            seed=int.from_bytes(digest, "big"),
        )
    return estimates
