"""Pinned trace fingerprints for every workload family and mix recipe.

The generators pre-draw each motif's RNG block as one vectorized
``rng.random(k)`` call sized to exactly the draws the record consumes.
NumPy's Generator produces the same stream whether ``k`` values come
from one ``random(k)`` call or ``k`` scalar calls, so these traces are
the ones the original one-call-per-draw loops emitted.  The literal pins
below were captured while both emitters still existed and agreed; any
change to the RNG draw order (an over-draw, a reordered field, a merged
block) changes a fingerprint and fails here — and would silently move
every cached recipe key and golden figure.

Covered here: every workload family in the paper's figure order, plus
mix recipes with each asymmetric decoration (``w*S`` slices, ``w@R``
rate scaling, ``w!low`` priority) and their combination.
"""

from __future__ import annotations

import pytest

from repro.sim.session import trace_fingerprint
from repro.workloads.suite import FIGURE_ORDER, generate

#: ``trace_fingerprint`` of each family at ``scale="test"``, 2 cores,
#: seed 13.
FAMILY_PINS = {
    "web-apache": "44c724a1b1c2af5b726b034c66003066",
    "web-zeus": "7ef63308b04d5ccbc2c94feab2779484",
    "oltp-db2": "697fdd3a4dff5e1ed620ae47636930ce",
    "oltp-oracle": "2485dd1ac2522b17fa077b5f1a4bb3f4",
    "dss-db2": "6bbad29d737e5f5dcdbe0a30726c8894",
    "sci-em3d": "9ec5d174d52042da8238c61b764d37ed",
    "sci-moldyn": "cfa70262dea5e620884fe650e6dc9819",
    "sci-ocean": "fcad68ae096f02f1a3b1a74411f1a6cd",
}

#: ``trace_fingerprint`` of mix recipes exercising every asymmetric
#: decoration the grammar offers (slices, rate, priority) and the
#: fully-decorated combination, at ``scale="test"``, 4 cores, seed 13.
MIX_PINS = {
    "mix:oltp-db2+dss-db2": "6c34abb8bff9790bd786b38db87bf6c8",
    "mix:oltp-db2*2+dss-db2": "cff75698e47f4819aa79315ffc5800af",
    "mix:oltp-db2+dss-db2@0.5": "4aa44ff9d260c9e6c1700424d1575071",
    "mix:oltp-db2+dss-db2!low": "ce554b34400738021ef5b5f48c94d2aa",
    "mix:oltp-db2*2+dss-db2@0.5!low": "a2b97fb731d8b0c1924b2744874349a4",
}


@pytest.mark.parametrize("name", FIGURE_ORDER)
def test_family_fingerprint_is_pinned(name):
    trace = generate(name, scale="test", cores=2, seed=13)
    assert trace_fingerprint(trace) == FAMILY_PINS[name]


@pytest.mark.parametrize("spec", tuple(MIX_PINS))
def test_mix_fingerprint_is_pinned(spec):
    trace = generate(spec, scale="test", cores=4, seed=13)
    assert trace.name == spec
    assert trace_fingerprint(trace) == MIX_PINS[spec]
