"""Golden-figure regression gate: pinned outputs of every figure.

Tiny test-scale runs of each figure's sweep, with their full numeric
payloads committed as JSON fixtures.  The pinned cells cover both
engines the default configuration uses: baseline and STMS cells run in
the compiled kernel, ideal-TMS, fixed-depth and Markov cells (and every
cell on a machine without a C compiler) in the Python batch engine.  Any numeric drift — an
engine change that is no longer bit-identical, a trace-generator change
that alters RNG consumption, a timing-model tweak — fails here as a
figure diff, not just as a unit-test failure.

Regenerating (only when a drift is *intended*, e.g. a deliberate model
change; mention it in the commit message)::

    PYTHONPATH=src python tests/test_golden_figures.py --regenerate [FIGURE ...]

Naming figures regenerates only their fixtures; with no names, all.

The comparison is exact (``==`` after a JSON round-trip on both sides):
simulations are deterministic functions of (trace recipe, machine
config, prefetcher config), so there is nothing to tolerate.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import EXPERIMENTS
from repro.sim.session import SimSession

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_WORKLOADS = ("web-apache", "sci-ocean")
#: The mix sweep pins its own workload argument: mix specs, not names.
#: The third mix is asymmetric (time-sliced instances, a rate weight,
#: and a low demand-priority class) so the rate/priority scheduling
#: path and the per-workload traffic attribution sit inside the drift
#: gate alongside the symmetric mixes.
GOLDEN_MIXES = (
    "mix:oltp-db2+dss-db2",
    "mix:web-apache+sci-ocean",
    "mix:oltp-db2*2+sci-ocean@0.5!low",
)
GOLDEN_FIGURES = (
    "fig1-left", "fig1-right", "fig4", "fig5-left", "fig5-right",
    "fig6-left", "fig6-right", "fig7", "fig8", "fig9", "mix-contention",
    "table2",
)


def _compute(name: str) -> dict:
    # A private, store-less session: golden runs must actually simulate.
    session = SimSession(enabled=True, store=None)
    workloads = GOLDEN_MIXES if name == "mix-contention" else GOLDEN_WORKLOADS
    result = EXPERIMENTS[name](
        scale="test",
        cores=2,
        seed=7,
        workloads=workloads,
        session=session,
    )
    # Round-trip through JSON so both sides use identical key/float
    # representations (JSON object keys are strings).
    return json.loads(json.dumps(result.data, sort_keys=True))


def _fixture_path(name: str) -> str:
    return os.path.join(GOLDEN_DIR, f"{name}_test_scale.json")


@pytest.mark.parametrize("name", GOLDEN_FIGURES)
def test_figure_matches_golden(name):
    with open(_fixture_path(name)) as handle:
        pinned = json.load(handle)
    computed = _compute(name)
    assert computed == pinned, (
        f"{name} drifted from the pinned golden output; if the change "
        "is intentional, regenerate via "
        "`PYTHONPATH=src python tests/test_golden_figures.py --regenerate`"
    )


def _regenerate(names: "list[str]") -> None:
    unknown = sorted(set(names) - set(GOLDEN_FIGURES))
    if unknown:
        raise SystemExit(f"not golden figures: {', '.join(unknown)}")
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    for name in names or GOLDEN_FIGURES:
        payload = _compute(name)
        with open(_fixture_path(name), "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"regenerated {_fixture_path(name)}")


if __name__ == "__main__":
    import sys

    if sys.argv[1:2] == ["--regenerate"]:
        _regenerate(sys.argv[2:])
    else:
        print(__doc__)
