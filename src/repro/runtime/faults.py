"""Deterministic, seed-keyed fault injection for the runtime.

A fault-tolerance claim that is only exercised by real outages is not a
claim, it is a hope.  This module lets a test — or the ``segugio chaos``
subcommand — *schedule* the outages: a day's fit that hits a flaky mount,
a checkpoint write torn halfway.  The day retry
(:mod:`repro.runtime.supervisor`) and the atomic writers then have to
absorb them, and the chaos harness asserts the run's outputs are
bit-identical to a fault-free run.

Faults are described by a :class:`FaultPlan` — a list of :class:`FaultSpec`
entries loaded from JSON (``segugio chaos --plan`` or ``--inject-faults``)
and activated with :func:`use_fault_plan`.  Matching is deterministic
and seed-keyed: a spec either pins an exact ``(site, task)`` or fires
probabilistically via a ``rate``, where "probabilistically" means a SHA-256
hash of ``(plan seed, spec index, site, task)`` — the same plan and seed
always fire the same faults, so a failing chaos run replays exactly.

Fault taxonomy (``kind``):

* ``io_error`` — the site raises a transient :class:`OSError`;
* ``corrupt_intermediate`` — the site scribbles garbage over its staging
  file *and* raises, modeling a torn write the atomic-rename layer must
  contain;
* ``memory_pressure`` — the site raises :class:`MemoryError`, which no
  retry absorbs.

Sites call :func:`maybe_fault`; a spec is consumed when it fires, so a
retried day runs clean, which is exactly the transient-failure semantics
being modeled.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

FAULT_KINDS = (
    "io_error",
    "corrupt_intermediate",
    "memory_pressure",
)

#: sites instrumented with fault hooks; every spec must name one
KNOWN_SITES = (
    "pipeline_fit",      # start of Segugio.fit for a day
    "pipeline_classify", # start of Segugio.classify for a day
    "checkpoint_save",   # inside the atomic checkpoint write
)

#: policy override keys a plan file may carry (forwarded to SupervisorPolicy)
POLICY_KEYS = ("max_retries", "base_delay", "multiplier")


class FaultPlanError(ValueError):
    """A fault-plan spec that cannot be parsed or validated."""


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


@dataclass(frozen=True)
class FaultDirective:
    """One fired fault: what to raise, and where it fired."""

    kind: str
    detail: str = ""


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: what kind, where, and when it fires.

    Either pin an exact task index (``task``), fire on every matching call
    up to ``count`` (``task=None, rate=None``), or fire seed-keyed at a
    given ``rate``.  A spec that names an unknown kind or site, or carries
    an out-of-range task, count or rate, raises :class:`FaultPlanError`.
    """

    kind: str
    site: str
    task: Optional[int] = None
    count: int = 1
    rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultPlanError(
                f"unknown kind {self.kind!r} (known: {', '.join(FAULT_KINDS)})"
            )
        if self.site not in KNOWN_SITES:
            raise FaultPlanError(
                f"unknown site {self.site!r} (known: {', '.join(KNOWN_SITES)})"
            )
        if self.task is not None and not (_is_int(self.task) and self.task >= 0):
            raise FaultPlanError(f"task must be a non-negative integer, got {self.task!r}")
        if not (_is_int(self.count) and self.count >= 1):
            raise FaultPlanError(f"count must be a positive integer, got {self.count!r}")
        if self.rate is not None:
            if not (_is_number(self.rate) and 0 < self.rate <= 1):
                raise FaultPlanError(f"rate must be in (0, 1], got {self.rate!r}")
            object.__setattr__(self, "rate", float(self.rate))


class FaultPlan:
    """An ordered set of fault specs with deterministic firing state."""

    def __init__(
        self,
        specs: Sequence[FaultSpec],
        seed: int = 0,
        policy: Optional[Mapping[str, float]] = None,
    ) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(specs)
        self.seed = int(seed)
        self.policy: Dict[str, float] = dict(policy or {})
        self._remaining: List[int] = [spec.count for spec in self.specs]
        self.fired: List[Dict[str, object]] = []

    @property
    def n_fired(self) -> int:
        return len(self.fired)

    def fired_kinds(self) -> List[str]:
        return sorted({str(entry["kind"]) for entry in self.fired})

    def _rate_fires(self, index: int, spec: FaultSpec, site: str, task: Optional[int]) -> bool:
        key = f"{self.seed}:{index}:{site}:{task}".encode("utf-8")
        digest = hashlib.sha256(key).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2**64
        return fraction < float(spec.rate or 0.0)

    def take(self, site: str, task: Optional[int] = None) -> Optional[FaultDirective]:
        """Consume and return the first matching spec's directive, if any."""
        for index, spec in enumerate(self.specs):
            if self._remaining[index] <= 0 or spec.site != site:
                continue
            if spec.task is not None and task != spec.task:
                continue
            if spec.rate is not None and not self._rate_fires(index, spec, site, task):
                continue
            self._remaining[index] -= 1
            detail = f"{site}[{task}]" if task is not None else site
            self.fired.append(
                {"kind": spec.kind, "site": site, "task": task, "spec": index}
            )
            return FaultDirective(kind=spec.kind, detail=detail)
        return None


def _located(source: str, index: Optional[int], message: str) -> FaultPlanError:
    where = source if index is None else f"{source}: faults[{index}]"
    return FaultPlanError(f"{where}: {message}")


def _spec_from_dict(
    payload: Mapping[str, object], source: str, index: int
) -> FaultSpec:
    if not isinstance(payload, Mapping):
        raise _located(source, index, f"expected an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"kind", "site", "task", "count", "rate"})
    if unknown:
        raise _located(source, index, f"unknown keys {unknown}")
    try:
        return FaultSpec(
            kind=payload.get("kind"),
            site=payload.get("site"),
            task=payload.get("task"),
            count=payload.get("count", 1),
            rate=payload.get("rate"),
        )
    except FaultPlanError as error:
        raise _located(source, index, str(error)) from None


def plan_from_dict(payload: Mapping[str, object], source: str = "<plan>") -> FaultPlan:
    """Build a :class:`FaultPlan`, raising a located error on any bad spec."""
    if not isinstance(payload, Mapping):
        raise _located(source, None, f"plan must be an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"seed", "policy", "faults"})
    if unknown:
        raise _located(source, None, f"unknown top-level keys {unknown}")
    seed = payload.get("seed", 0)
    if not _is_int(seed):
        raise _located(source, None, f"seed must be an integer, got {seed!r}")
    policy = payload.get("policy", {})
    if not isinstance(policy, Mapping):
        raise _located(source, None, "policy must be an object")
    bad_policy = sorted(set(policy) - set(POLICY_KEYS))
    if bad_policy:
        raise _located(
            source, None, f"unknown policy keys {bad_policy} (known: {', '.join(POLICY_KEYS)})"
        )
    for key, value in policy.items():
        if not _is_number(value):
            raise _located(source, None, f"policy.{key} must be a number, got {value!r}")
    faults = payload.get("faults", [])
    if not isinstance(faults, Sequence) or isinstance(faults, (str, bytes)):
        raise _located(source, None, "faults must be a list of fault specs")
    specs = [
        _spec_from_dict(entry, source, index) for index, entry in enumerate(faults)
    ]
    return FaultPlan(specs, seed=seed, policy={k: float(v) for k, v in policy.items()})


def load_fault_plan(path: str) -> FaultPlan:
    """Load a plan from a JSON file; errors name the file and the bad spec."""
    try:
        with open(path, "r", encoding="utf-8") as stream:
            payload = json.load(stream)
    except OSError as error:
        raise FaultPlanError(f"{path}: cannot read fault plan: {error}") from error
    except json.JSONDecodeError as error:
        raise FaultPlanError(f"{path}: invalid JSON: {error}") from error
    return plan_from_dict(payload, source=path)


# ---------------------------------------------------------------------- #
# activation: one ambient plan, scoped by use_fault_plan
# ---------------------------------------------------------------------- #

_ACTIVE_PLAN: Optional[FaultPlan] = None


def current_fault_plan() -> Optional[FaultPlan]:
    """The plan :func:`use_fault_plan` activated, if any."""
    return _ACTIVE_PLAN


@contextmanager
def use_fault_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Activate *plan* for the block (``None`` runs it fault-free); the
    prior plan is restored on exit."""
    global _ACTIVE_PLAN
    saved_plan, _ACTIVE_PLAN = _ACTIVE_PLAN, plan
    try:
        yield plan
    finally:
        _ACTIVE_PLAN = saved_plan


# ---------------------------------------------------------------------- #
# delivery
# ---------------------------------------------------------------------- #


def apply_directive(directive: FaultDirective, path: Optional[str] = None) -> None:
    """Execute one directive at its site."""
    if directive.kind == "io_error":
        raise OSError(f"injected transient I/O error at {directive.detail}")
    if directive.kind == "corrupt_intermediate":
        if path is not None:
            with open(path, "wb") as stream:
                stream.write(b"\x00corrupted-by-fault-injection\x00")
        raise OSError(f"injected torn write at {directive.detail}")
    if directive.kind == "memory_pressure":
        raise MemoryError(f"injected RSS pressure at {directive.detail}")
    raise FaultPlanError(f"unknown fault kind {directive.kind!r}")


def maybe_fault(
    site: str, task: Optional[int] = None, path: Optional[str] = None
) -> None:
    """Fault hook: cheap no-op unless an active plan matches."""
    plan = current_fault_plan()
    if plan is None:
        return
    directive = plan.take(site, task)
    if directive is None:
        return
    apply_directive(directive, path=path)
