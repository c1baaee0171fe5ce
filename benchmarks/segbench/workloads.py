"""The four workloads: how big each is, and its generator.

Why each workload exists is stated once, in ``BENCHMARK.json``.

The generator is the only code that sees the seed.  It writes a
workload's inputs into a directory — observation directories, edge
stores, pickled in-memory contexts, ``plan.json`` — and the measured
child receives that directory and nothing else.  ``truth.json`` (the
synthetic world's ground truth) is written beside them for the checker;
the child never opens it.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.core.pipeline import ObservationContext
from repro.datasets.store import save_observation
from repro.synth.bigday import BigDay, BigDayConfig
from repro.synth.config import (
    ScenarioConfig,
    benchmark_scenario_config,
    small_scenario_config,
)
from repro.synth.scenario import Scenario

N_SHARDS = 2


@dataclass(frozen=True)
class Sizes:
    """Input sizes of the four workloads."""

    world_factor: float
    """Share of ``benchmark_scenario_config`` sizes for the disk-day /
    track-mem world (isp1 only)."""
    disk_days: int
    mem_days: int
    bigday_edges: int
    bigday_days: int
    fleet_worlds: int
    fleet_days: int
    """small-fleet tracks ``fleet_worlds`` small worlds of two networks
    each for ``fleet_days`` days."""


#: What every run measures and what the bounds in BENCHMARK.json are
#: stated for: the largest inputs whose 92 driver runs fit the 3420 s cap
#: with a third of it to spare.  Only the benchmark's own smoke test
#: passes anything else.
SIZES = Sizes(
    world_factor=0.5, disk_days=2, mem_days=3,
    bigday_edges=1_000_000, bigday_days=2,
    fleet_worlds=6, fleet_days=5,
)


def world_config(seed: int, factor: float, n_days: int) -> ScenarioConfig:
    """``benchmark_scenario_config`` with every population scaled by *factor*.

    Only isp1 is generated and the horizon is cut to the days the
    workload tracks: neither changes isp1's traffic (streams are keyed by
    name), both shorten set-up.
    """
    base = benchmark_scenario_config(seed)

    def scaled(value: int, floor: int = 1) -> int:
        return max(floor, int(round(value * factor)))

    isp1 = base.isp("isp1")
    return dataclasses.replace(
        base,
        horizon_days=n_days,
        hosting=dataclasses.replace(
            base.hosting,
            n_clean_blocks=scaled(base.hosting.n_clean_blocks, 50),
            n_dirty_blocks=scaled(base.hosting.n_dirty_blocks, 10),
            n_bulletproof_blocks=scaled(base.hosting.n_bulletproof_blocks, 8),
            n_fresh_blocks=scaled(base.hosting.n_fresh_blocks, 200),
        ),
        universe=dataclasses.replace(
            base.universe,
            n_core_e2lds=scaled(base.universe.n_core_e2lds, 100),
            n_tail_e2lds=scaled(base.universe.n_tail_e2lds, 300),
            n_adult_e2lds=scaled(base.universe.n_adult_e2lds, 20),
            free_hosting_sites=scaled(base.universe.free_hosting_sites, 20),
        ),
        malware=dataclasses.replace(
            base.malware, n_families=scaled(base.malware.n_families, 8)
        ),
        isps=(
            dataclasses.replace(isp1, n_machines=scaled(isp1.n_machines, 400)),
        ),
    )


# ---------------------------------------------------------------------- #
# generators
# ---------------------------------------------------------------------- #


def _targets(context: ObservationContext, truth: Iterable[str]) -> List[str]:
    """Ground-truth C&C names queried on the day and not yet blacklisted."""
    present = np.intersect1d(
        context.domain_ids(truth), context.trace.unique_domain_ids()
    )
    known = context.blacklist.domains(as_of_day=context.day)
    names = (context.trace.domains.name(int(i)) for i in present)
    return sorted(name for name in names if name not in known)


class _Inputs:
    """Accumulates one workload's items, then writes the three files."""

    def __init__(self, directory: str, **plan) -> None:
        self.directory = directory
        self.plan = dict(plan, items=[])
        self.malware: Dict[str, List[str]] = {}
        self.targets: Dict[str, List[str]] = {}
        self.contexts: List[Optional[ObservationContext]] = []

    def add(
        self,
        network: str,
        context: ObservationContext,
        truth: Iterable[str],
        obs_dir: Optional[str] = None,
        store_dir: Optional[str] = None,
    ) -> None:
        self.plan["items"].append(
            {
                "network": network,
                "day": int(context.day),
                "edges": int(context.trace.n_edges),
                "obs_dir": obs_dir,
                "store_dir": store_dir,
            }
        )
        self.malware.setdefault(network, sorted(truth))
        self.targets[f"{network}/{context.day}"] = _targets(context, truth)
        if obs_dir is not None:
            self.contexts.append(None)  # the child ingests it, timed
        elif store_dir is not None:
            self.contexts.append(dataclasses.replace(context, trace=None))
        else:
            self.contexts.append(context)

    def write(self, interners=None) -> None:
        with open(os.path.join(self.directory, "inputs.pkl"), "wb") as stream:
            pickle.dump(
                {"contexts": self.contexts, "interners": interners},
                stream,
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        with open(os.path.join(self.directory, "plan.json"), "w") as stream:
            json.dump(self.plan, stream)
        with open(os.path.join(self.directory, "truth.json"), "w") as stream:
            json.dump({"malware": self.malware, "targets": self.targets}, stream)


def _gen_disk_day(seed: int, sizes: Sizes, directory: str) -> None:
    scenario = Scenario(world_config(seed, sizes.world_factor, sizes.disk_days))
    truth = scenario.true_malware_names()
    inputs = _Inputs(directory, n_jobs=1, ledger=True)
    for offset in range(sizes.disk_days):
        context = scenario.context("isp1", scenario.eval_day(offset))
        obs_dir = f"obs-{offset}"
        save_observation(
            os.path.join(directory, obs_dir),
            context,
            private_suffixes=scenario.universe.identified_services,
        )
        inputs.add("isp1", context, truth, obs_dir=obs_dir)
    inputs.write()


def _gen_track_mem(seed: int, sizes: Sizes, directory: str) -> None:
    scenario = Scenario(world_config(seed, sizes.world_factor, sizes.mem_days))
    truth = scenario.true_malware_names()
    inputs = _Inputs(directory, n_jobs=1, ledger=False)
    for offset in range(sizes.mem_days):
        inputs.add("isp1", scenario.context("isp1", scenario.eval_day(offset)), truth)
    inputs.write()


def _gen_bigday_sharded(seed: int, sizes: Sizes, directory: str) -> None:
    world = BigDay(
        BigDayConfig.for_edges(sizes.bigday_edges, seed, n_days=sizes.bigday_days)
    )
    # every C&C name is in the feed, half of them dated after the window
    truth = world.blacklist.domains()
    inputs = _Inputs(directory, n_jobs=N_SHARDS, ledger=False)
    for offset in range(sizes.bigday_days):
        day = world.eval_day(offset)
        context = world.context(
            day, store_dir=os.path.join(directory, "stores"), shards=N_SHARDS
        )
        inputs.add(
            "bigday",
            context,
            truth,
            store_dir=os.path.relpath(context.trace.directory, directory),
        )
    inputs.write(interners=(world.machines, world.domains))


def _gen_small_fleet(seed: int, sizes: Sizes, directory: str) -> None:
    # A small world's forest varies by a factor of two in node count from
    # seed to seed, and with it the day's cost; several worlds per run
    # keep the run's median from being one world's accident.
    worlds = [
        Scenario(
            dataclasses.replace(
                small_scenario_config(seed + 7919 * index),
                horizon_days=sizes.fleet_days,
            )
        )
        for index in range(sizes.fleet_worlds)
    ]
    truths = [world.true_malware_names() for world in worlds]
    inputs = _Inputs(directory, n_jobs=1, ledger=False)
    for offset in range(sizes.fleet_days):
        for index, world in enumerate(worlds):
            for isp in world.config.isps:
                inputs.add(
                    f"w{index}-{isp.name}",
                    world.context(isp.name, world.eval_day(offset)),
                    truths[index],
                )
    inputs.write()


_GENERATORS = {
    "disk-day": _gen_disk_day,
    "track-mem": _gen_track_mem,
    "bigday-sharded": _gen_bigday_sharded,
    "small-fleet": _gen_small_fleet,
}


def generate(workload: str, seed: int, sizes: Sizes, directory: str) -> None:
    """Write *workload*'s inputs for *seed* into the empty *directory*."""
    os.makedirs(directory)
    _GENERATORS[workload](seed, sizes, directory)
