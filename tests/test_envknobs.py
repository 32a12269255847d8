"""Warn-once parsing of numeric REPRO_* environment knobs.

``REPRO_STORE_MAX_MB`` and ``REPRO_STORE_TMP_MAX_AGE_S`` used to
swallow malformed values silently, and to accept values that parse but
break the store (``nan``/``inf`` crashed store open, a non-positive cap
evicted every artifact, a negative age gate swept live temps).  They
now share the warn-once RuntimeWarning behaviour of ``REPRO_JOBS`` via
``repro.envknobs``.
"""

import re
import warnings
from pathlib import Path

import pytest

from repro import envknobs
from repro.envknobs import env_float
from repro.sim import store as store_module
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

    @pytest.mark.parametrize("value", ["soon", "1h", "nan", "inf", "-5"])
    def test_tmp_max_age_misparse_warns(self, monkeypatch, value):
        monkeypatch.setenv("REPRO_STORE_TMP_MAX_AGE_S", value)
        with pytest.warns(
            RuntimeWarning, match="REPRO_STORE_TMP_MAX_AGE_S"
        ):
            age = ArtifactStore._stale_temp_age_from_env()
        assert age == store_module._STALE_TEMP_SECONDS


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
