"""Deterministic, seed-keyed fault injection for the runtime.

A fault-tolerance claim that is only exercised by real outages is not a
claim, it is a hope.  This module lets a test — or the ``segugio chaos``
subcommand — *schedule* the outages: a day's fit that hits a flaky mount,
a checkpoint write torn halfway.  The day retry
(:mod:`repro.runtime.supervisor`) and the atomic writers then have to
absorb them, and the chaos harness asserts the run's outputs are
bit-identical to a fault-free run.

Faults are described by a :class:`FaultPlan` — a list of :class:`FaultSpec`
entries loaded from JSON (``segugio chaos --plan``, ``--inject-faults``, or
the ``SEGUGIO_FAULTS`` environment variable).  Matching is deterministic
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
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

#: environment variable naming a fault-plan JSON file to activate
FAULTS_ENV_VAR = "SEGUGIO_FAULTS"

FAULT_KINDS = (
    "io_error",
    "corrupt_intermediate",
    "memory_pressure",
)

#: sites instrumented with fault hooks; plans loaded from JSON must name one
KNOWN_SITES = (
    "pipeline_fit",      # start of Segugio.fit for a day
    "pipeline_classify", # start of Segugio.classify for a day
    "checkpoint_save",   # inside the atomic checkpoint write
)

#: policy override keys a plan file may carry (forwarded to SupervisorPolicy)
POLICY_KEYS = ("max_retries", "base_delay", "multiplier")


class FaultPlanError(ValueError):
    """A fault-plan spec that cannot be parsed or validated."""


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
    given ``rate``.
    """

    kind: str
    site: str
    task: Optional[int] = None
    count: int = 1
    rate: Optional[float] = None


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
    kind = payload.get("kind")
    if kind not in FAULT_KINDS:
        raise _located(
            source, index, f"unknown kind {kind!r} (known: {', '.join(FAULT_KINDS)})"
        )
    site = payload.get("site")
    if site not in KNOWN_SITES:
        raise _located(
            source, index, f"unknown site {site!r} (known: {', '.join(KNOWN_SITES)})"
        )
    task = payload.get("task")
    if task is not None and (not isinstance(task, int) or isinstance(task, bool) or task < 0):
        raise _located(source, index, f"task must be a non-negative integer, got {task!r}")
    count = payload.get("count", 1)
    if not isinstance(count, int) or isinstance(count, bool) or count < 1:
        raise _located(source, index, f"count must be a positive integer, got {count!r}")
    rate = payload.get("rate")
    if rate is not None and (
        not isinstance(rate, (int, float)) or isinstance(rate, bool) or not 0 < rate <= 1
    ):
        raise _located(source, index, f"rate must be in (0, 1], got {rate!r}")
    return FaultSpec(
        kind=str(kind),
        site=str(site),
        task=task,
        count=int(count),
        rate=None if rate is None else float(rate),
    )


def plan_from_dict(payload: Mapping[str, object], source: str = "<plan>") -> FaultPlan:
    """Build a :class:`FaultPlan`, raising a located error on any bad spec."""
    if not isinstance(payload, Mapping):
        raise _located(source, None, f"plan must be an object, got {type(payload).__name__}")
    unknown = sorted(set(payload) - {"seed", "policy", "faults"})
    if unknown:
        raise _located(source, None, f"unknown top-level keys {unknown}")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
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
        if not isinstance(value, (int, float)) or isinstance(value, bool):
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
# activation: one ambient plan, installed explicitly or via the env var
# ---------------------------------------------------------------------- #

_ACTIVE_PLAN: Optional[FaultPlan] = None
_ENV_CHECKED = False


def install_fault_plan(plan: Optional[FaultPlan]) -> Optional[FaultPlan]:
    """Install *plan* process-wide (``None`` clears; overrides the env var)."""
    global _ACTIVE_PLAN, _ENV_CHECKED
    _ACTIVE_PLAN = plan
    _ENV_CHECKED = True
    return plan


def current_fault_plan() -> Optional[FaultPlan]:
    """The active plan, lazily loading ``SEGUGIO_FAULTS`` on first call."""
    global _ACTIVE_PLAN, _ENV_CHECKED
    if not _ENV_CHECKED:
        _ENV_CHECKED = True
        spec_path = os.environ.get(FAULTS_ENV_VAR)
        if spec_path:
            _ACTIVE_PLAN = load_fault_plan(spec_path)
    return _ACTIVE_PLAN


@contextmanager
def use_fault_plan(plan: Optional[FaultPlan]) -> Iterator[Optional[FaultPlan]]:
    """Scoped :func:`install_fault_plan`; restores the prior state on exit."""
    global _ACTIVE_PLAN, _ENV_CHECKED
    saved_plan, saved_checked = _ACTIVE_PLAN, _ENV_CHECKED
    _ACTIVE_PLAN, _ENV_CHECKED = plan, True
    try:
        yield plan
    finally:
        _ACTIVE_PLAN, _ENV_CHECKED = saved_plan, saved_checked


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
