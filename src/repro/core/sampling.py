"""Probabilistic index-update sampling (paper Section 4.4).

"For every potential index table update, a coin flip, biased to a
predetermined sampling probability, determines whether the update will or
will not be performed."  Update bandwidth is directly proportional to the
sampling probability, while coverage decays only logarithmically — long
streams get an entry *somewhere* near their head, and frequent streams
get one within a few recurrences.

The coin flips come from a dedicated seeded generator so a sweep over
sampling probabilities (Fig. 8) changes nothing else about a run.
"""

from __future__ import annotations

import numpy as np


class ProbabilisticSampler:
    """A biased coin with batched pre-drawn randomness.

    Draws are generated in blocks to keep the per-call cost trivial; the
    sequence is a pure function of the seed, making every simulation
    reproducible.
    """

    _BATCH = 4096

    __slots__ = ('probability', '_rng', '_draws', '_cursor', 'flips', 'accepted')

    def __init__(self, probability: float, seed: int = 42) -> None:
        if not 0.0 <= probability <= 1.0:
            raise ValueError(
                f"probability must be within [0, 1], got {probability}"
            )
        self.probability = probability
        self._rng = np.random.default_rng(seed)
        self._draws = np.empty(0, dtype=bool)
        self._cursor = 0
        self.flips = 0
        self.accepted = 0

    def should_update(self) -> bool:
        """Flip the biased coin: True when the update must be applied."""
        self.flips += 1
        # Degenerate probabilities skip the generator entirely so p=1.0
        # (the paper's un-optimized comparison point) has zero overhead.
        if self.probability >= 1.0:
            self.accepted += 1
            return True
        if self.probability <= 0.0:
            return False
        if self._cursor >= len(self._draws):
            # Native bools: indexing a list returns a ready-made bool,
            # unlike NumPy scalar extraction on the hot path.
            self._draws = self.draw().tolist()
            self._cursor = 0
        outcome = self._draws[self._cursor]
        self._cursor += 1
        if outcome:
            self.accepted += 1
        return outcome

    def draw(self) -> np.ndarray:
        """The generator's next batch of ``_BATCH`` coin flips (bools).

        :meth:`should_update` flips them one at a time; the compiled
        kernel flips the same stream, one double per flip, from a PCG64
        of its own seeded as this generator.
        """
        return self._rng.random(self._BATCH) < self.probability

    @property
    def acceptance_rate(self) -> float:
        """Observed fraction of accepted flips (tests sanity-check it)."""
        if self.flips == 0:
            return 0.0
        return self.accepted / self.flips
