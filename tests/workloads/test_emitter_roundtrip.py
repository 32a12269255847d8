"""Pinned trace fingerprints for every workload family and mix recipe.

The generators read their per-record draws from a window over one
pre-drawn raw PCG64 stream (``GeneratorContext.peek``/``consume``/
``below``) and their bulk draws from the settled generator.  The window
serves exactly the values per-call ``rng.random()`` and
``rng.integers(0, n)`` draws would (see ``test_rng_stream.py``), so
these traces are the ones emitters calling numpy per draw emit; every
literal pin below was captured from such emitters.  Any change to the
draw order (an over-draw, a reordered field, a merged block) changes a
fingerprint and fails here — and would silently move every cached
recipe key and golden figure.

Covered here: every workload family in the paper's figure order, plus
mix recipes with each asymmetric decoration (``w*S`` slices, ``w@R``
rate scaling, ``w!low`` priority) and their combination, the traces
the benchmark simulates (fig7's families and the default contention
mixes), and demo-scale traces long enough to span many refills of the
window.
"""

from __future__ import annotations

import pytest

from repro.experiments.mix_contention import DEFAULT_MIXES
from repro.workloads.suite import FIGURE_ORDER, generate

#: ``Trace.fingerprint`` of each family at ``scale="test"``, 2 cores,
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

#: ``Trace.fingerprint`` of mix recipes exercising every asymmetric
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
    assert trace.fingerprint() == FAMILY_PINS[name]


@pytest.mark.parametrize("spec", tuple(MIX_PINS))
def test_mix_fingerprint_is_pinned(spec):
    trace = generate(spec, scale="test", cores=4, seed=13)
    assert trace.name == spec
    assert trace.fingerprint() == MIX_PINS[spec]


#: ``Trace.fingerprint`` of each family at ``scale="test"``, 4 cores,
#: seed 7: the traces the benchmark's fig7 workloads simulate.
BENCH_FAMILY_PINS = {
    "web-apache": "ab24b258bdbdfa5358623d856e1a75cd",
    "web-zeus": "376db7248608b999760a73c3024781fc",
    "oltp-db2": "cf14514db6a4be291e65bc569f78680c",
    "oltp-oracle": "c7baa7397ebadab62eb1e1180c9f93e6",
    "dss-db2": "5e79c8de5ddb0230d9e5fdfc5f1f0fbb",
    "sci-em3d": "41a39d3b0f0557032b04d45ed3948152",
    "sci-moldyn": "bd0cebf47b6e9c4f80cf00468198be28",
    "sci-ocean": "10cbe009d2749cff8169a23655cab366",
}

#: ``Trace.fingerprint`` of the default contention mixes at
#: ``scale="test"``, 4 cores, seed 7.
CONTENTION_PINS = {
    "mix:oltp-db2+dss-db2": "df93e65d2a528abc504ff9b48c1edc8c",
    "mix:web-apache+sci-em3d": "c8cff8100aa6506324b0de446059e629",
    "mix:oltp-db2+web-zeus": "a3b6a4f98beab2a9c148d1c7fd7f3f7f",
    "mix:oltp-db2*2+dss-db2@0.5!low": "dcc6691bf6ca50db12b421e9e25d6082",
}

#: ``Trace.fingerprint`` of one family per generator kind (commercial,
#: DSS, scientific) at ``scale="demo"``, 2 cores, seed 7: long traces,
#: and em3d's per-core iteration structure spans 7,680 blocks.
DEMO_PINS = {
    "web-apache": "2ffdfb1c31e4e1957dfd2c7c26fadc50",
    "dss-db2": "f915b254241fd7901debc4dc03860945",
    "sci-em3d": "41c9aec65b4bb0a171b34242f17a527f",
}


@pytest.mark.parametrize("name", FIGURE_ORDER)
def test_bench_family_fingerprint_is_pinned(name):
    trace = generate(name, scale="test", cores=4, seed=7)
    assert trace.fingerprint() == BENCH_FAMILY_PINS[name]


def test_contention_pins_cover_the_default_mixes():
    assert tuple(CONTENTION_PINS) == DEFAULT_MIXES


@pytest.mark.parametrize("spec", DEFAULT_MIXES)
def test_contention_mix_fingerprint_is_pinned(spec):
    trace = generate(spec, scale="test", cores=4, seed=7)
    assert trace.fingerprint() == CONTENTION_PINS[spec]


@pytest.mark.parametrize("name", tuple(DEMO_PINS))
def test_demo_family_fingerprint_is_pinned(name):
    trace = generate(name, scale="demo", cores=2, seed=7)
    assert trace.fingerprint() == DEMO_PINS[name]
