"""Warn-once parsing of numeric ``REPRO_*`` environment knobs.

A malformed knob (``REPRO_STORE_MAX_MB``, ``REPRO_JOBS``) emits one
:class:`RuntimeWarning` per knob per process and then falls back to a
safe value, so a typo'd environment can neither silently un-cap a store
nor quietly serialize a run.

Float knobs are sizes, so a value that parses but cannot be one
(``nan``, ``inf``, a negative number, or zero where the knob is
``positive``) is malformed too: a ``-1`` size cap would otherwise evict
every artifact right after it is written.

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


def _warn_once(
    name: str, raw: str, expected: str, fallback: str = "the default"
) -> None:
    if name in _WARNED_ENV_KEYS:
        return
    _WARNED_ENV_KEYS.add(name)
    warnings.warn(
        f"invalid {name}={raw!r} (expected {expected}); "
        f"using {fallback}",
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


def env_positive_int(name: str, default: int, *, invalid: int) -> int:
    """``int(os.environ[name])``, or ``default`` when the knob is
    unset/empty.  A value that is not a positive integer warns once
    and gives ``invalid``."""
    raw = os.environ.get(name)
    if not raw:
        return default
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value > 0:
        return value
    _warn_once(name, raw, "a positive integer", str(invalid))
    return invalid
