"""Multiprogrammed workload mixes: heterogeneous per-core co-schedules.

The paper evaluates STMS on a CMP whose meta-data traffic competes with
demand traffic in a *shared* memory system.  Homogeneous runs replicate
one workload across every core; a :class:`MixRecipe` instead assigns a
(possibly different) suite workload to each core — 2x OLTP next to 2x
DSS, a web server beside a scientific code — so shared-L2 capacity and
DRAM bandwidth contention between *unlike* miss streams can be measured.

Semantics follow multiprogramming, not parallel execution:

* every core runs an **independent program instance** with its own
  deterministic RNG stream (derived from the mix seed and the core
  index as ``numpy.random.SeedSequence`` derives it,
  :func:`core_seed`), so two cores running the same workload share no
  structures and no addresses;
* per-core address spaces are **disjoint** — each core's blocks are
  offset past every previous core's footprint — so co-runners contend
  for cache capacity and bandwidth without ever aliasing data;
* per-core trace lengths and warm-up fractions follow each component
  workload (iterative codes keep their longer traces), recorded on the
  trace as ``core_workloads`` / ``core_warmup``.

Mixes are addressed by a canonical spec string, ``mix:<w>+<w>+...``
(with an ``NxW`` repeat shorthand), that doubles as the workload name
everywhere a homogeneous name is accepted: :func:`repro.workloads.suite
.generate` dispatches on it, so session/trace recipe keys, the
content-addressed artifact store, and :class:`repro.sim.runner.SimJob`
grids cache mix traces exactly like homogeneous ones.

Asymmetric scheduling
=====================

Each component may carry scheduling decorations beyond its workload:

``w*S`` (slices)
    ``S`` independent, time-sliced instances of ``w`` share the core:
    their records interleave round-robin, so each instance observes the
    other's interference on the core's clock — two half-speed OLTP
    programs on one core next to a full-speed DSS core.
``w@R`` (rate)
    The core runs at rate weight ``R``: its compute cycles are
    stretched by ``1/R`` at generation time (``@0.5`` = half-speed
    core), modeling duty-cycled or frequency-scaled co-runners.
``w!low`` (priority class)
    The core's demand fetches issue at *low* DRAM priority, queueing
    behind every other core's demand traffic — the bandwidth-
    arbitration half of asymmetric scheduling
    (:func:`repro.sim.timing.demand_priority`).

Decorations compose (``mix:oltp-db2*2+web-apache@0.5!low``) and
canonicalize — ``@1``, ``*1``, and ``!high`` are the defaults and are
dropped, rates print in shortest ``%g`` form — so every spelling of a
recipe addresses one store entry.  ``+`` is reserved as the component
separator, so rates must be spelled without a plus sign (``@5e-1`` is
fine, ``@5e+1`` is two broken components).

>>> from repro.workloads.mix import MixRecipe
>>> MixRecipe.parse("mix:2xoltp-db2+2xdss-db2").assign(4)
('oltp-db2', 'oltp-db2', 'dss-db2', 'dss-db2')
>>> MixRecipe.parse("mix:oltp-db2*2+web-apache@0.50!low").name
'mix:oltp-db2*2+web-apache@0.5!low'
"""

from __future__ import annotations

import re
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.seeding import generate_state
from repro.workloads.scales import (
    MIX_PREFIX,
    MIX_PRESETS,
    check_workload,
    get_scale,
)

if TYPE_CHECKING:
    from repro.workloads.trace import Trace

#: Decoration markers recognized after a component's workload name.
_DECORATION = re.compile(r"([*@!])([^*@!]*)")

#: Accepted priority-class spellings -> canonical class.
_PRIORITY_ALIASES = {
    "high": "high",
    "hi": "high",
    "low": "low",
    "lo": "low",
}

#: Sanity bounds on the asymmetric decorations; outside them the spec
#: is rejected at parse time (a rate of 1e-9 would overflow the float32
#: work column, thousands of slices would be a trace-size bomb).
MAX_SLICES = 8
MIN_RATE = 1.0 / 64.0
MAX_RATE = 64.0


@dataclass(frozen=True)
class MixComponent:
    """One core slot's schedule: workload + asymmetric decorations."""

    workload: str
    #: Time-sliced independent instances sharing the core.
    slices: int = 1
    #: Rate weight; compute cycles are stretched by ``1/rate``.
    rate: float = 1.0
    #: DRAM demand-priority class ("high" | "low").
    priority: str = "high"

    def __post_init__(self) -> None:
        if self.slices < 1 or self.slices > MAX_SLICES:
            raise ValueError(
                f"slices must be in [1, {MAX_SLICES}], got {self.slices}"
            )
        if not (MIN_RATE <= self.rate <= MAX_RATE):
            raise ValueError(
                f"rate must be in [{MIN_RATE:g}, {MAX_RATE:g}], "
                f"got {self.rate!r}"
            )
        if self.priority not in ("high", "low"):
            raise ValueError(
                f"priority must be 'high' or 'low', got {self.priority!r}"
            )

    @classmethod
    def parse(cls, text: str) -> "MixComponent":
        """Parse one component spec: ``workload[*S][@rate][!priority]``.

        Decorations may appear in any order, each at most once; defaults
        (``*1``, ``@1``, ``!high``) are legal spellings that canonicalize
        away.  Malformed decorations raise :class:`ValueError` naming
        the offending token.
        """
        head = re.match(r"[^*@!]+", text)
        if head is None:
            raise ValueError(f"mix component {text!r} has no workload name")
        workload = head.group(0)
        rest = text[head.end():]
        consumed = 0
        slices, rate, priority = 1, 1.0, "high"
        seen: "set[str]" = set()
        for marker, value in _DECORATION.findall(rest):
            consumed += len(marker) + len(value)
            if marker in seen:
                raise ValueError(
                    f"duplicate {marker!r} decoration in mix component "
                    f"{text!r}"
                )
            seen.add(marker)
            if marker == "*":
                if not value.isdigit():
                    raise ValueError(
                        f"bad slice count {value!r} in mix component "
                        f"{text!r} (want an integer, e.g. 'oltp-db2*2')"
                    )
                slices = int(value)
            elif marker == "@":
                try:
                    rate = float(value)
                except ValueError:
                    raise ValueError(
                        f"bad rate {value!r} in mix component {text!r} "
                        "(want a number, e.g. 'web-apache@0.5')"
                    ) from None
                # Snap to the canonical ``%g`` spelling so the
                # canonical string and the stored float agree —
                # otherwise two rates that print identically could
                # share a recipe name yet generate different traces.
                # (nan/inf round-trip unchanged and are rejected by the
                # range check below.)
                rate = float(f"{rate:g}")
            else:
                priority = _PRIORITY_ALIASES.get(value.lower())
                if priority is None:
                    raise ValueError(
                        f"bad priority class {value!r} in mix component "
                        f"{text!r} (want 'high' or 'low')"
                    )
        if consumed != len(rest):
            raise ValueError(
                f"malformed decorations {rest!r} in mix component {text!r}"
            )
        return cls(
            workload=workload, slices=slices, rate=rate, priority=priority
        )

    @property
    def canonical(self) -> str:
        """Shortest spelling: defaults dropped, rate in ``%g`` form."""
        text = self.workload
        if self.slices != 1:
            text += f"*{self.slices}"
        if self.rate != 1.0:
            text += f"@{self.rate:g}"
        if self.priority != "high":
            text += f"!{self.priority}"
        return text

    @property
    def is_symmetric(self) -> bool:
        """True when every decoration is at its default."""
        return (
            self.slices == 1
            and self.rate == 1.0
            and self.priority == "high"
        )


@dataclass(frozen=True)
class MixRecipe:
    """An ordered tuple of component specs, one per core slot.

    Fewer components than cores cycle round-robin; the canonical spec
    (:attr:`name`) is what cache keys, trace names, and CLI output use,
    so ``mix:2xa+2xb`` and ``mix:a+a+b+b`` address the same artifacts —
    and so do ``mix:a@0.50`` and ``mix:a@.5``.  Components are stored
    as canonical spec strings (plain workload names for symmetric
    slots); :attr:`parsed` yields the structured view.
    """

    components: "tuple[str, ...]"

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("a mix needs at least one component workload")
        canonical = []
        for component in self.components:
            parsed = MixComponent.parse(component)
            check_workload(parsed.workload)
            canonical.append(parsed.canonical)
        object.__setattr__(self, "components", tuple(canonical))

    @classmethod
    def parse(cls, spec: str) -> "MixRecipe":
        """Build a recipe from a spec string or preset name.

        Accepted forms: ``mix:a+b+c``, ``mix:2xa+2xb`` (repeat
        shorthand), asymmetric decorations per component
        (``mix:a*2+b@0.5!low``), or any :data:`MIX_PRESETS` key.
        """
        spec = MIX_PRESETS.get(spec, spec)
        if not spec.startswith(MIX_PREFIX):
            raise ValueError(
                f"not a mix spec {spec!r}; expected '{MIX_PREFIX}...' or "
                f"one of {sorted(MIX_PRESETS)}"
            )
        body = spec[len(MIX_PREFIX):]
        components: "list[str]" = []
        for part in body.split("+"):
            part = part.strip()
            count = 1
            head, sep, tail = part.partition("x")
            if sep and head.isdigit():
                count, part = int(head), tail
            if count <= 0 or not part:
                raise ValueError(f"bad mix component {part!r} in {spec!r}")
            components.extend([part] * count)
        return cls(components=tuple(components))

    @property
    def name(self) -> str:
        """Canonical spec string (run-length form, stable across parses)."""
        parts: "list[list]" = []
        for component in self.components:
            if parts and parts[-1][1] == component:
                parts[-1][0] += 1
            else:
                parts.append([1, component])
        return MIX_PREFIX + "+".join(
            f"{count}x{name}" if count > 1 else name
            for count, name in parts
        )

    @property
    def parsed(self) -> "tuple[MixComponent, ...]":
        """Structured view of the (already canonical) components."""
        return tuple(
            MixComponent.parse(component) for component in self.components
        )

    def assign(self, cores: int) -> "tuple[str, ...]":
        """Per-core component-spec assignment (cycling round-robin)."""
        if cores <= 0:
            raise ValueError("cores must be positive")
        return tuple(
            self.components[core % len(self.components)]
            for core in range(cores)
        )

    def assign_components(self, cores: int) -> "tuple[MixComponent, ...]":
        """Per-core structured assignment (cycling round-robin)."""
        parsed = self.parsed
        if cores <= 0:
            raise ValueError("cores must be positive")
        return tuple(
            parsed[core % len(parsed)] for core in range(cores)
        )


def core_seed(seed: int, core: int) -> int:
    """Deterministic per-core RNG seed, stable across processes.

    ``SeedSequence`` mixing keeps the per-core streams statistically
    independent even for adjacent mix seeds, and two cores running the
    same workload get different instances (different seeds).
    """
    high, low = generate_state([seed, core], 2)
    return high << 32 | low


def slice_seed(seed: int, core: int, slot: int) -> int:
    """Seed of time-sliced instance ``slot`` on ``core``.

    Slot 0 reuses :func:`core_seed` so a single-instance core generates
    the exact trace it did before slicing existed (fingerprint-stable);
    further slots mix the slot index into the seed sequence.
    """
    if slot == 0:
        return core_seed(seed, core)
    high, low = generate_state([seed, core, slot], 2)
    return high << 32 | low


def _interleave_round_robin(instances: "list[list]") -> list:
    """Merge per-instance trace columns record-by-record, round-robin.

    Models time-slicing at record granularity: the core runs one record
    of each live instance in turn, so every instance's compute and
    stalls dilate the others' wall-clock.  Instances that run out simply
    drop from the rotation (unequal lengths are legal).  While each of
    the ``n`` live instances has ``run`` more records, instance ``j``
    fills every ``n``-th of the next ``run * n`` records from ``j``.
    """
    if len(instances) == 1:
        return instances[0]
    from repro.workloads.trace import column_dtype, new_column

    total = sum(len(blocks) for blocks, *_ in instances)
    merged = [
        new_column(column_dtype(column)[1], total) for column in instances[0]
    ]
    live = [columns for columns in instances if len(columns[0])]
    done = at = 0
    while live:
        run = min(len(blocks) for blocks, *_ in live) - done
        stride = len(live)
        for j, columns in enumerate(live):
            for out, column in zip(merged, columns):
                out[at + j:at + run * stride:stride] = column[done:done + run]
        at += run * stride
        done += run
        live = [columns for columns in live if len(columns[0]) > done]
    return merged


def _stretch(work: array, rate: float) -> array:
    """A float32 ``work`` column at rate ``rate`` (1/rate slower): NumPy's
    ``work / np.float32(rate)``, as a double quotient of float32 values
    rounds to the float32 one correctly (53 >= 2 * 24 + 2 bits)."""
    rate = array("f", [rate])[0]
    return array("f", [cycles / rate for cycles in work])


def generate_mix(
    recipe: "MixRecipe | str",
    scale: object = "bench",
    cores: int = 4,
    seed: int = 7,
    records_per_core: "int | None" = None,
) -> Trace:
    """Generate a multiprogrammed mix trace.

    Each core's component is generated as ``slices`` independent
    single-core instances (own seeds, own structures), each relocated
    into a disjoint slice of the physical address space, interleaved
    round-robin onto the core, rate-scaled, and assembled into one
    multi-core :class:`~repro.workloads.trace.Trace` whose name is the
    recipe's canonical spec.  Symmetric recipes produce bit-identical
    traces to the pre-asymmetric generator (fingerprint-stable).
    """
    from repro.workloads.suite import generate as generate_homogeneous
    from repro.workloads.trace import Trace

    if isinstance(recipe, str):
        recipe = MixRecipe.parse(recipe)
    preset = get_scale(scale)
    component_assignment = recipe.assign_components(cores)
    assignment = tuple(
        component.canonical for component in component_assignment
    )

    columns: list = []
    core_warmup: "list[float]" = []
    base = 0
    for core, component in enumerate(component_assignment):
        instances = []
        warmups = []
        for slot in range(component.slices):
            instance = generate_homogeneous(
                component.workload,
                scale=preset,
                cores=1,
                seed=slice_seed(seed, core, slot),
                records_per_core=records_per_core,
            )
            blocks, *rest = instance.columns()
            if base:
                blocks = array("q", [block + base for block in blocks])
            instances.append([blocks, *rest])
            warmups.append(instance.warmup_fraction)
            # Generators emit blocks in [0, working_set_blocks);
            # advancing the base by that span keeps every instance's
            # address space disjoint (across cores *and* slices).
            base += instance.working_set_blocks
        core_columns = _interleave_round_robin(instances)
        if component.rate != 1.0:
            # /1.0 would be exact, but the branch keeps symmetric traces
            # byte-identical.
            core_columns[1] = _stretch(core_columns[1], component.rate)
        columns += core_columns
        core_warmup.append(max(warmups))

    symmetric = all(
        component.is_symmetric for component in component_assignment
    )
    return Trace.from_columns(
        {
            "name": recipe.name,
            "working_set_blocks": base,
            "warmup_fraction": max(core_warmup) if core_warmup else 0.25,
            "core_workloads": list(assignment),
            "core_warmup": core_warmup,
            # Default-rate/-priority recipes omit the metadata entirely
            # so pre-existing symmetric traces keep their fingerprints.
            "core_rates": None if symmetric else [
                component.rate for component in component_assignment
            ],
            "core_priorities": None if symmetric else [
                component.priority for component in component_assignment
            ],
        },
        columns,
    )
