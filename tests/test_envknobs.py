"""Warn-once parsing of numeric REPRO_* environment knobs.

``REPRO_STORE_MAX_MB`` used to swallow malformed values silently, and
to accept values that parse but break the store (``nan``/``inf``
crashed store open, a non-positive cap evicted every artifact).  It,
``REPRO_JOBS``, ``REPRO_SIM_CACHE`` and ``REPRO_SHM`` now share one warn-once
RuntimeWarning behaviour via ``repro.envknobs``, where an empty value
means unset — as it does for ``REPRO_SIM_ENGINE``.
"""

import os
import re
import warnings
from pathlib import Path

import pytest

from repro import envknobs
from repro.envknobs import (
    env_float,
    env_positive_int,
    shm_plane_enabled,
    sim_cache_enabled,
)
from repro.sim.engine import resolve_engine
from repro.sim.runner import _default_workers
from repro.sim.session import SimSession
from repro.sim.store import ArtifactStore


@pytest.fixture(autouse=True)
def _reset_warn_once(monkeypatch):
    """Fresh warn-once state per test (it is per-process by design)."""
    monkeypatch.setattr(envknobs, "_WARNED_ENV_KEYS", set())


class TestEnvFloat:
    def test_unset_and_empty_are_silent_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5
            monkeypatch.setenv("REPRO_TEST_KNOB", "")
            assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5

    def test_valid_value_never_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_float("REPRO_TEST_KNOB", 1.0) == 2.5

    @pytest.mark.parametrize(
        "value", ["banana", "1.2.3", "0x10", "nan", "inf", "-inf", "-1"]
    )
    def test_invalid_value_warns_once(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_TEST_KNOB", value)
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB"):
            assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5
        # Once per knob per process, not once per read.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5

    def test_zero_is_valid_unless_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_float("REPRO_TEST_KNOB", 1.5) == 0.0
        with pytest.warns(RuntimeWarning, match="REPRO_TEST_KNOB"):
            assert env_float("REPRO_TEST_KNOB", 1.5, positive=True) == 1.5

    def test_distinct_knobs_each_warn(self, monkeypatch):
        monkeypatch.setenv("REPRO_KNOB_A", "x")
        monkeypatch.setenv("REPRO_KNOB_B", "y")
        with pytest.warns(RuntimeWarning, match="REPRO_KNOB_A"):
            env_float("REPRO_KNOB_A", 1.0)
        with pytest.warns(RuntimeWarning, match="REPRO_KNOB_B"):
            env_float("REPRO_KNOB_B", 1.0)


class TestEnvPositiveInt:
    def test_unset_and_empty_are_silent_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_positive_int("REPRO_TEST_KNOB", 6, invalid=1) == 6
            monkeypatch.setenv("REPRO_TEST_KNOB", "")
            assert env_positive_int("REPRO_TEST_KNOB", 6, invalid=1) == 6

    def test_valid_value_never_warns(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "12")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_positive_int("REPRO_TEST_KNOB", 6, invalid=1) == 12

    @pytest.mark.parametrize("value", ["0", "-2", "1.5", "x", "0x4"])
    def test_invalid_value_warns_once_and_gives_invalid(
        self, monkeypatch, value
    ):
        """A bad value gives ``invalid``, not ``default``, and the
        warning names the value used instead."""
        monkeypatch.setenv("REPRO_TEST_KNOB", value)
        with pytest.warns(RuntimeWarning, match=r"using 1$"):
            assert env_positive_int("REPRO_TEST_KNOB", 6, invalid=1) == 1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert env_positive_int("REPRO_TEST_KNOB", 6, invalid=1) == 1


class TestStoreKnobs:
    @pytest.mark.parametrize(
        "value", ["lots", "10MB", "nan", "inf", "-1", "0"]
    )
    def test_store_max_mb_misparse_warns(self, monkeypatch, tmp_path, value):
        """Store open survives the value and keeps what it writes."""
        monkeypatch.setenv("REPRO_STORE_MAX_MB", value)
        with pytest.warns(RuntimeWarning, match="REPRO_STORE_MAX_MB"):
            store = ArtifactStore(str(tmp_path / "store"))
        assert store.max_bytes is None
        assert store.save_estimate("e" * 32, {"total": 1})
        assert len(store.entries()) == 1

    def test_store_max_mb_valid(self, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_MAX_MB", "2")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (
                ArtifactStore._max_bytes_from_env() == 2 * 1024 * 1024
            )


def test_repro_jobs_valid_value(monkeypatch):
    monkeypatch.setenv("REPRO_JOBS", "4")
    assert _default_workers() == (4, True)
    monkeypatch.setenv("REPRO_JOBS", "1")
    assert _default_workers() == (1, False)


@pytest.mark.parametrize("value", ["0", "-3", "two"])
def test_repro_jobs_invalid_value_warns_once(monkeypatch, value):
    monkeypatch.setenv("REPRO_JOBS", value)
    with pytest.warns(RuntimeWarning, match="REPRO_JOBS"):
        assert _default_workers() == (1, False)
    # Warned once per process, not once per runner construction.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _default_workers() == (1, False)


def test_repro_jobs_empty_means_cpu_count(monkeypatch):
    """``REPRO_JOBS=`` clears the knob: the CPU count, no warning."""
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.setenv("REPRO_JOBS", "")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _default_workers() == (3, True)


def test_sim_engine_empty_means_unset(monkeypatch):
    """``REPRO_SIM_ENGINE=`` clears the knob: the default engine."""
    monkeypatch.setenv("REPRO_SIM_ENGINE", "")
    assert resolve_engine("auto") == "batch"


def test_sim_engine_invalid_value_names_the_knob(monkeypatch):
    """A bad engine from the environment still raises, naming the knob
    it came from."""
    monkeypatch.setenv("REPRO_SIM_ENGINE", "warp-drive")
    with pytest.raises(
        ValueError, match="'warp-drive' from REPRO_SIM_ENGINE"
    ):
        resolve_engine("auto")


class TestSimCacheKnob:
    @pytest.mark.parametrize("value", [None, "", "1"])
    def test_unset_empty_and_one_keep_the_cache(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_SIM_CACHE", raising=False)
        else:
            monkeypatch.setenv("REPRO_SIM_CACHE", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sim_cache_enabled()
            assert SimSession(store=None).enabled

    def test_zero_disables_both_tiers(self, monkeypatch):
        monkeypatch.setenv("REPRO_SIM_CACHE", "0")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not sim_cache_enabled()
            session = SimSession()
        assert not session.enabled
        assert session.store is None

    @pytest.mark.parametrize("value", ["off", "false", "no", " 0", "2"])
    def test_other_values_warn_once_and_keep_the_cache(
        self, monkeypatch, value
    ):
        """A value that reads as "off" to a person is not ``0``: the
        cache stays on, and the run says so once."""
        monkeypatch.setenv("REPRO_SIM_CACHE", value)
        with pytest.warns(RuntimeWarning, match="REPRO_SIM_CACHE"):
            assert sim_cache_enabled()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert SimSession(store=None).enabled


class TestShmKnob:
    @pytest.mark.parametrize("value", [None, "", "on", "1"])
    def test_unset_empty_on_and_one_keep_the_plane(self, monkeypatch, value):
        if value is None:
            monkeypatch.delenv("REPRO_SHM", raising=False)
        else:
            monkeypatch.setenv("REPRO_SHM", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shm_plane_enabled()

    @pytest.mark.parametrize("value", ["off", "0"])
    def test_off_and_zero_disable_the_plane(self, monkeypatch, value):
        from repro.sim.shm import shm_enabled

        monkeypatch.setenv("REPRO_SHM", value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not shm_plane_enabled()
            assert not shm_enabled()

    @pytest.mark.parametrize("value", ["false", "no", "OFF", " 0", "2"])
    def test_other_values_warn_once_and_keep_the_plane(
        self, monkeypatch, value
    ):
        """``false`` and ``no`` used to leave the plane on without a
        word; now the run says so, once."""
        monkeypatch.setenv("REPRO_SHM", value)
        with pytest.warns(RuntimeWarning, match="REPRO_SHM"):
            assert shm_plane_enabled()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert shm_plane_enabled()


REPO_ROOT = Path(__file__).resolve().parents[1]


def test_readme_knob_table_matches_code():
    """Every ``REPRO_*`` knob the code reads has exactly one README row.

    A knob added without a row, or a row left behind after its knob is
    deleted, fails here instead of drifting silently.
    """
    in_code = {
        name
        for path in (REPO_ROOT / "src").rglob("*.py")
        for name in re.findall(
            r"""["'](REPRO_[A-Z0-9_]+)["']""", path.read_text()
        )
    }
    in_readme = set(
        re.findall(
            r"^\| `(REPRO_[A-Z0-9_]+)",
            (REPO_ROOT / "README.md").read_text(),
            re.MULTILINE,
        )
    )
    assert in_code == in_readme
