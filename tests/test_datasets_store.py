"""Tests for observation-day persistence (save/load round trip)."""

import json
import os

import numpy as np
import pytest

from repro.core.pipeline import Segugio, SegugioConfig
from repro.datasets.store import save_observation
from repro.runtime.ingest import load_observation_checked


@pytest.fixture(scope="module")
def saved_dir(tmp_path_factory):
    from repro.synth.scenario import Scenario

    scenario = Scenario.small(seed=7)
    context = scenario.context("isp1", scenario.eval_day(2))
    directory = str(tmp_path_factory.mktemp("obs") / "day162")
    save_observation(
        directory,
        context,
        private_suffixes=scenario.universe.identified_services,
    )
    return directory, scenario, context


class TestLayout:
    def test_files_present(self, saved_dir):
        directory, _, _ = saved_dir
        for name in (
            "meta.json",
            "domains.txt",
            "machines.txt",
            "trace.tsv",
            "blacklist.tsv",
            "whitelist.txt",
            "pdns.npz",
            "activity.npz",
        ):
            assert os.path.exists(os.path.join(directory, name)), name

    def test_meta_contents(self, saved_dir):
        directory, scenario, context = saved_dir
        with open(os.path.join(directory, "meta.json")) as stream:
            meta = json.load(stream)
        assert meta["day"] == context.day
        assert meta["n_edges"] == context.trace.n_edges
        assert meta["private_suffixes"] == sorted(
            scenario.universe.identified_services
        )


class TestRoundTrip:
    def test_ids_preserved(self, saved_dir):
        directory, _, context = saved_dir
        loaded = load_observation_checked(directory)[0]
        assert len(loaded.trace.domains) == len(context.trace.domains)
        some = context.trace.domains.name(42)
        assert loaded.trace.domains.lookup(some) == 42

    def test_edges_preserved(self, saved_dir):
        directory, _, context = saved_dir
        loaded = load_observation_checked(directory)[0]
        assert loaded.trace.n_edges == context.trace.n_edges

    def test_blacklist_and_whitelist_preserved(self, saved_dir):
        directory, _, context = saved_dir
        loaded = load_observation_checked(directory)[0]
        assert loaded.blacklist.domains() == context.blacklist.domains()
        assert set(loaded.whitelist) == set(context.whitelist)

    def test_activity_window_preserved(self, saved_dir):
        directory, _, context = saved_dir
        loaded = load_observation_checked(directory)[0]
        day = context.day
        for domain_id in range(0, 200, 17):
            assert loaded.fqd_activity.days_active(
                domain_id, day, 14
            ) == context.fqd_activity.days_active(domain_id, day, 14)
            assert loaded.fqd_activity.consecutive_days(
                domain_id, day, 14
            ) == context.fqd_activity.consecutive_days(domain_id, day, 14)

    def test_psl_augmentation_preserved(self, saved_dir):
        directory, scenario, _ = saved_dir
        loaded = load_observation_checked(directory)[0]
        service = scenario.universe.identified_services[0]
        site = f"someuser.{service}"
        assert loaded.e2ld_index.psl.e2ld(site) == site

    def test_classification_identical(self, saved_dir):
        """The load-bearing property: a model scores the loaded context
        exactly as it scores the original."""
        directory, _, context = saved_dir
        loaded = load_observation_checked(directory)[0]
        config = SegugioConfig(n_estimators=8)
        original = Segugio(config).fit(context).classify(context)
        reloaded = Segugio(config).fit(loaded).classify(loaded)
        assert (original.domain_ids == reloaded.domain_ids).all()
        assert np.allclose(original.scores, reloaded.scores)


class TestValidation:
    def test_bad_version_rejected(self, saved_dir, tmp_path):
        directory, _, _ = saved_dir
        import shutil

        copy = str(tmp_path / "copy")
        shutil.copytree(directory, copy)
        meta_path = os.path.join(copy, "meta.json")
        with open(meta_path) as stream:
            meta = json.load(stream)
        meta["format_version"] = 99
        with open(meta_path, "w") as stream:
            json.dump(meta, stream)
        with pytest.raises(ValueError, match="version"):
            load_observation_checked(copy)

    def test_tampered_domains_rejected(self, saved_dir, tmp_path):
        directory, _, _ = saved_dir
        import shutil

        copy = str(tmp_path / "copy2")
        shutil.copytree(directory, copy)
        with open(os.path.join(copy, "domains.txt"), "a") as stream:
            stream.write("extra.example\n")
        with pytest.raises(ValueError, match="domains.txt"):
            load_observation_checked(copy)
