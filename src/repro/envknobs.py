"""Warn-once parsing of numeric ``REPRO_*`` environment knobs.

A malformed store knob (``REPRO_STORE_MAX_MB``,
``REPRO_STORE_TMP_MAX_AGE_S``) emits one :class:`RuntimeWarning` per
knob per process and then falls back to its documented default, the
same way a misparsed ``REPRO_JOBS`` does, so a typo'd environment
cannot silently un-cap a store.

Float knobs are sizes and durations, so a value that parses but cannot
be one (``nan``, ``inf``, a negative number, or zero where the knob is
``positive``) is malformed too: a ``-1`` size cap would otherwise evict
every artifact right after it is written, and a negative age gate would
let the stale-temp sweep unlink live writers' in-flight files.

An *empty* value is treated as unset (no warning): ``REPRO_X= cmd`` is
a common way to explicitly clear a knob in shell scripts.
"""

from __future__ import annotations

import math
import os
import warnings

#: Knob names that have already warned this process (warn-once state;
#: tests reset it between cases).
_WARNED_ENV_KEYS: "set[str]" = set()


def _warn_once(name: str, raw: str, expected: str) -> None:
    if name in _WARNED_ENV_KEYS:
        return
    _WARNED_ENV_KEYS.add(name)
    warnings.warn(
        f"invalid {name}={raw!r} (expected {expected}); "
        "using the default",
        RuntimeWarning,
        stacklevel=3,
    )


def env_float(name: str, default, *, positive: bool = False):
    """``float(os.environ[name])``, or ``default`` when the knob is
    unset/empty.  A value that is not a finite number ``>= 0`` (``> 0``
    when ``positive``) warns once and falls back."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = float(raw)
    except ValueError:
        value = math.nan
    if math.isfinite(value) and (value > 0 if positive else value >= 0):
        return value
    _warn_once(
        name,
        raw,
        "a finite positive number" if positive
        else "a finite non-negative number",
    )
    return default

