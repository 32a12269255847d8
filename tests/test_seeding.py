"""NumPy's seeding in pure Python (:mod:`repro.seeding`) against NumPy.

The compiled library seeds its PCG64s from these words, and mix traces
seed their cores and time slices from them, so a word off here moves
every trace and every sampled cell.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import seeding
from repro.sim.library import Pcg64
from repro.workloads.mix import core_seed, slice_seed

ENTROPY = [
    0, 7, 13, 2**32 - 1, 2**32, 2**64 - 1, (1 << 99) + 12345,
    [7, 0], [7, 3], [2**40, 5], [7, 3, 2], [0, 0, 1], [1, 2, 3, 4, 5, 6],
]


@pytest.mark.parametrize("entropy", ENTROPY, ids=repr)
def test_generate_state_is_seed_sequences(entropy):
    sequence = np.random.SeedSequence(entropy)
    assert seeding.generate_state64(entropy, 4) == (
        sequence.generate_state(4, np.uint64).tolist()
    )
    assert seeding.generate_state(entropy, 7) == (
        sequence.generate_state(7).tolist()
    )


@pytest.mark.parametrize(
    "seed", [0, 1, 7, 42, 2**32, 2**63, 2**64 - 1, (1 << 99) + 1]
)
def test_pcg64_state_is_numpys(seed):
    state = np.random.PCG64(seed).state
    assert seeding.pcg64_state(seed) == (
        state["state"]["state"], state["state"]["inc"]
    )
    rng = Pcg64.seeded(seed)
    assert (rng.state_hi << 64 | rng.state_lo) == state["state"]["state"]
    assert (rng.inc_hi << 64 | rng.inc_lo) == state["state"]["inc"]
    assert (rng.has_half, rng.half) == (0, 0)


@pytest.mark.parametrize("seed", [0, 7, 13, 2**40])
@pytest.mark.parametrize("core", [0, 1, 3])
def test_mix_seeds_are_seed_sequences(seed, core):
    state = np.random.SeedSequence([seed, core]).generate_state(2)
    assert core_seed(seed, core) == int(state[0]) << 32 | int(state[1])
    state = np.random.SeedSequence([seed, core, 2]).generate_state(2)
    assert slice_seed(seed, core, 2) == int(state[0]) << 32 | int(state[1])


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError):
        seeding.generate_state(-1, 4)
