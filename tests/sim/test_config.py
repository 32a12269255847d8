"""The engine choice's inputs (``repro.sim.config``): the engine name,
read from ``REPRO_SIM_ENGINE`` for ``"auto"``, and which cells the
compiled kernel models."""

import pytest

from repro.sim.config import kernel_cell, resolve_engine
from repro.sim.runner import PrefetcherKind, make_factory


@pytest.mark.parametrize("engine", ["batch", "scalar"])
def test_named_engine_ignores_the_knob(monkeypatch, engine):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "warp-drive")
    assert resolve_engine(engine) == engine


@pytest.mark.parametrize("value", [None, "", "auto", "batch"])
def test_auto_defaults_to_batch(monkeypatch, value):
    """An unset, empty (``REPRO_SIM_ENGINE=`` clears the knob) or
    ``auto`` knob gives the default engine."""
    if value is None:
        monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    else:
        monkeypatch.setenv("REPRO_SIM_ENGINE", value)
    assert resolve_engine("auto") == "batch"


def test_auto_reads_the_knob(monkeypatch):
    monkeypatch.setenv("REPRO_SIM_ENGINE", "scalar")
    assert resolve_engine("auto") == "scalar"


def test_sim_engine_invalid_value_names_the_knob(monkeypatch):
    """A bad engine from the environment still raises, naming the knob
    it came from."""
    monkeypatch.setenv("REPRO_SIM_ENGINE", "warp-drive")
    with pytest.raises(
        ValueError, match="'warp-drive' from REPRO_SIM_ENGINE"
    ):
        resolve_engine("auto")


def test_invalid_named_engine_does_not_blame_the_knob(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_ENGINE", raising=False)
    with pytest.raises(ValueError, match=r"^unknown engine 'vector' \("):
        resolve_engine("vector")


@pytest.mark.parametrize(
    "kind, modelled",
    [
        (PrefetcherKind.BASELINE, True),
        (PrefetcherKind.STMS, True),
        (PrefetcherKind.IDEAL_TMS, False),
        (PrefetcherKind.FIXED_DEPTH, False),
        (PrefetcherKind.MARKOV, False),
    ],
)
def test_kernel_models_baseline_and_stms_cells(kind, modelled):
    assert kernel_cell(make_factory(kind)) is modelled
