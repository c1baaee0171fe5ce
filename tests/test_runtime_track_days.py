"""The campaign runner, its day sources and the resharding adaptor."""

import dataclasses
import hashlib
import json
import os

import pytest

from repro.cli import main
from repro.core.pipeline import SegugioConfig
from repro.core.tracker import DomainTracker
from repro.datasets.edgestore import resharded, staged_day_stores
from repro.datasets.store import save_observation
from repro.obs.run import RunTelemetry
from repro.runtime.faults import FaultPlan, FaultSpec, use_fault_plan
from repro.runtime.ingest import observation_days
from repro.runtime.supervisor import SupervisorPolicy, track_days, world_days
from repro.utils.errors import IngestError

FAST_POLICY = SupervisorPolicy(base_delay=0.0, sleep=lambda _: None)
CONFIG = SegugioConfig(n_estimators=8)


@pytest.fixture(scope="module")
def three_days(scenario):
    return list(world_days(scenario, 3, isp="isp1"))


@pytest.fixture(scope="module")
def exported(scenario, three_days, tmp_path_factory):
    """The first two days as observation directories, in day order."""
    root = tmp_path_factory.mktemp("exported")
    directories = []
    for context in three_days[:2]:
        directories.append(str(root / f"day{context.day}"))
        save_observation(
            directories[-1],
            context,
            private_suffixes=scenario.universe.identified_services,
        )
    return directories


def _tree_digest(directory):
    """Every path under *directory* and every file's bytes, as one hash."""
    digest = hashlib.sha256()
    for root, dirs, files in sorted(os.walk(directory)):
        for name in sorted(dirs + files):
            digest.update(os.path.join(root, name).encode())
        for name in sorted(files):
            with open(os.path.join(root, name), "rb") as stream:
                digest.update(stream.read())
    return digest.hexdigest()


class TestWorldDays:
    def test_is_lazy_and_skips_what_a_ledger_covers(self, scenario, three_days):
        built = []

        class Spy:
            eval_day = staticmethod(scenario.eval_day)

            def context(self, day, isp):
                built.append(day)
                return scenario.context(isp, day)

        days = world_days(Spy(), 3, after=three_days[0].day, isp="isp1")
        assert built == []
        assert next(days).day == three_days[1].day
        assert built == [three_days[1].day]
        assert [c.day for c in days] == [three_days[2].day]


class TestTrackDays:
    def test_one_report_and_one_checkpoint_per_day(self, three_days, tmp_path):
        checkpoint = str(tmp_path / "run.ckpt")
        tracker = DomainTracker(CONFIG)
        for done, report in enumerate(
            track_days(tracker, three_days, checkpoint=checkpoint), start=1
        ):
            on_disk = DomainTracker.resume(checkpoint)
            assert on_disk.days_processed == [c.day for c in three_days[:done]]
            assert on_disk.days_processed[-1] == report.day
        assert done == 3

    def test_days_the_ledger_covers_are_skipped(self, three_days, tmp_path):
        checkpoint = str(tmp_path / "run.ckpt")
        whole = DomainTracker(CONFIG)
        list(track_days(whole, three_days))
        first = DomainTracker(CONFIG)
        list(track_days(first, three_days[:2], checkpoint=checkpoint))
        resumed = DomainTracker.resume(checkpoint)
        # the same source from the top: the two covered days are passed over
        reports = list(track_days(resumed, three_days, checkpoint=checkpoint))
        assert [r.day for r in reports] == [three_days[2].day]
        assert resumed.state_dict() == whole.state_dict()

    def test_no_checkpoint_unless_asked(self, three_days, monkeypatch):
        tracker = DomainTracker(CONFIG)
        monkeypatch.setattr(
            tracker, "save_checkpoint", lambda path: pytest.fail("checkpointed")
        )
        assert len(list(track_days(tracker, three_days[:1]))) == 1

    def test_day_and_checkpoint_retries_land_in_the_run_event_log(
        self, three_days, tmp_path
    ):
        clean = DomainTracker(CONFIG)
        list(track_days(clean, three_days[:1]))
        plan = FaultPlan(
            [
                FaultSpec(kind="io_error", site="pipeline_fit"),
                FaultSpec(kind="corrupt_intermediate", site="checkpoint_save"),
            ]
        )
        telemetry = RunTelemetry(command="test")
        tracker = DomainTracker(CONFIG, telemetry=telemetry)
        with use_fault_plan(plan):
            [report] = track_days(
                tracker,
                three_days[:1],
                policy=FAST_POLICY,
                checkpoint=str(tmp_path / "run.ckpt"),
            )
        # both retries happened inside the run's activate(): they are in
        # *its* event log, and so in its manifest
        kinds = sorted(event["kind"] for event in telemetry.events.to_list())
        assert kinds == ["day_retry", "io_retry"]
        manifest_kinds = {
            event["kind"] for event in telemetry.build_manifest()["runtime_events"]
        }
        assert manifest_kinds == {"day_retry", "io_retry"}
        assert report.day == three_days[0].day
        assert tracker.state_dict() == clean.state_dict()

    def test_the_source_is_pulled_inside_the_run(self, three_days):
        from repro.obs.tracing import current_tracer

        telemetry = RunTelemetry(command="test")
        tracker = DomainTracker(CONFIG, telemetry=telemetry)

        def source():
            with current_tracer().span("segugio_ingest_load_observation"):
                yield three_days[0]

        list(track_days(tracker, source()))
        names = {row["name"] for row in telemetry.tracer.span_tree()}
        assert "segugio_ingest_load_observation" in names


class TestReshardingAdaptor:
    def test_at_most_one_day_store_on_disk(self, three_days):
        roots = []

        def days_under(root):
            roots.append(root)
            return resharded(three_days, root, n_shards=2)

        for context, original in zip(staged_day_stores(days_under), three_days):
            assert context.trace.is_sharded
            assert context.trace.n_edges == original.trace.n_edges
            assert os.listdir(roots[0]) == [os.path.basename(context.trace.directory)]
        assert len(roots) == 1 and not os.path.exists(roots[0])

    def test_sharded_days_track_to_the_same_ledger(self, three_days):
        plain, sharded = DomainTracker(CONFIG), DomainTracker(CONFIG)
        list(track_days(plain, three_days[:2]))
        list(
            track_days(
                sharded,
                staged_day_stores(
                    lambda root: resharded(three_days[:2], root, n_shards=3)
                ),
            )
        )
        assert sharded.state_dict() == plain.state_dict()


class TestObservationDays:
    def test_yields_each_day_with_its_ingest_report(self, exported, three_days):
        loaded = list(observation_days(exported, mode="strict"))
        assert [context.day for context, _ in loaded] == [
            c.day for c in three_days[:2]
        ]
        assert all(ingest.source == d for (_, ingest), d in zip(loaded, exported))

    def test_a_covered_directory_is_skipped_without_parsing(
        self, exported, three_days, tmp_path
    ):
        import shutil

        torn = str(tmp_path / "torn")
        shutil.copytree(exported[0], torn)
        with open(os.path.join(torn, "trace.tsv"), "w") as stream:
            stream.write("not a trace\n")
        [(context, _)] = observation_days(
            [torn, exported[1]], after=three_days[0].day
        )
        assert context.day == three_days[1].day
        with pytest.raises(ValueError, match="trace.tsv:1"):
            list(observation_days([torn, exported[1]]))

    @pytest.mark.parametrize("order", [(1, 0), (0, 0)], ids=["out-of-order", "duplicate"])
    def test_misordered_days_are_rejected_naming_both_paths(self, exported, order):
        directories = [exported[i] for i in order]
        if order == (0, 0):
            directories[1] = os.path.join(exported[0], ".")  # same day, other path
        with pytest.raises(IngestError, match="increasing day order") as excinfo:
            next(observation_days(directories))
        assert directories[0] in str(excinfo.value)
        assert directories[1] in str(excinfo.value)

    def test_a_sharded_day_is_staged_outside_the_directory(
        self, exported, tmp_path
    ):
        before = _tree_digest(exported[0])
        store_root = str(tmp_path / "stores")
        [(context, _)] = observation_days(
            exported[:1], store_root=store_root, shards=2
        )
        assert context.trace.directory.startswith(store_root)
        assert _tree_digest(exported[0]) == before


class TestTrackDirectories:
    """`segugio track DIR…`: what `classify-dir` did, through the one loop."""

    @pytest.fixture(scope="class")
    def run(self, exported, tmp_path_factory):
        out = tmp_path_factory.mktemp("track-dir")
        telemetry_dir = str(out / "tel")
        assert main(
            ["track", exported[0], "--fp-target", "0.005", "--telemetry-dir", telemetry_dir]
        ) == 0
        with open(os.path.join(telemetry_dir, "manifest.json")) as stream:
            manifest = json.load(stream)
        with open(os.path.join(telemetry_dir, "decisions.jsonl")) as stream:
            decisions = [json.loads(line) for line in stream]
        return telemetry_dir, manifest, decisions

    def test_the_decision_ledger_is_finalised(self, run):
        _, manifest, decisions = run
        scored = [r for r in decisions if r["verdict"] == "scored"]
        assert scored
        assert all(isinstance(r["threshold"], float) for r in scored)
        assert all(isinstance(r["detected"], bool) for r in scored)
        [day] = manifest["days"]
        assert day["n_scored"] == len(scored)
        n_detected = sum(r["detected"] for r in scored)
        assert n_detected == day["n_new_detections"] > 0

    def test_explain_replays_the_top_detection(self, run, capsys):
        telemetry_dir, _, _ = run
        assert main(["explain", "--telemetry-dir", telemetry_dir]) == 0
        assert "verdict" in capsys.readouterr().out

    def test_health_view_has_a_status_and_detections(self, run, capsys):
        telemetry_dir, manifest, _ = run
        assert manifest["health"]["status"] == "ok"
        assert main(["inspect", telemetry_dir, "--view", "health"]) == 0
        out = capsys.readouterr().out
        assert "[?] unknown" not in out
        [day] = manifest["days"]
        verdicts = out[out.index("decision verdicts per day") :]
        assert verdicts.split()[-1] == str(day["n_new_detections"])

    def test_ingest_counters_and_span_are_recorded(self, run, exported):
        telemetry_dir, manifest, _ = run
        [entry] = manifest["ingest"]
        assert entry["source"] == exported[0]
        assert entry["mode"] == "strict" and entry["n_ok"] > 0
        with open(os.path.join(telemetry_dir, "trace.jsonl")) as stream:
            names = {json.loads(line)["name"] for line in stream}
        assert "segugio_ingest_load_observation" in names
        assert "segugio_tracker_health_check" in names

    def test_inputs_are_read_only_under_shards(self, exported):
        before = [_tree_digest(d) for d in exported]
        assert main(["track", *exported, "--shards", "2"]) == 0
        assert [_tree_digest(d) for d in exported] == before

    def test_a_synthetic_world_flag_next_to_a_directory_is_rejected(self, exported):
        with pytest.raises(SystemExit) as excinfo:
            main(["track", exported[0], "--days", "2", "--seed", "3"])
        assert "--seed, --days" in str(excinfo.value)

    def test_malformed_line_fails_strict_and_is_quarantined_lenient(
        self, exported, tmp_path, capsys
    ):
        import shutil

        damaged = str(tmp_path / "damaged")
        shutil.copytree(exported[0], damaged)
        with open(os.path.join(damaged, "trace.tsv")) as stream:
            n_lines = sum(1 for _ in stream)
        with open(os.path.join(damaged, "trace.tsv"), "a") as stream:
            stream.write("mX\tbroken.example\t10.0.0.999\n")
        with pytest.raises(SystemExit, match=rf"trace\.tsv:{n_lines + 1}"):
            main(["track", damaged])
        capsys.readouterr()
        assert main(["track", damaged, "--lenient"]) == 0
        out = capsys.readouterr().out
        assert "trace:bad_ipv4" in out
        assert "scored" in out


class TestSourceEquivalence:
    """Two exported days tracked as directories are the synthetic campaign."""

    @pytest.fixture(scope="class")
    def campaign(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("equivalence")
        days = [str(out / f"d{offset}") for offset in (0, 1)]
        for offset, directory in enumerate(days):
            assert main(["export-day", directory, "--day-offset", str(offset)]) == 0
        reference = self._track(out, "synthetic", ["--days", "2"])
        return out, days, reference

    @staticmethod
    def _track(out, tag, argv, resume=None):
        checkpoint = str(out / f"{tag}.ckpt")
        telemetry_dir = str(out / f"{tag}-tel")
        flags = ["--checkpoint", checkpoint, "--telemetry-dir", telemetry_dir]
        if resume is not None:
            flags += ["--resume", resume]
        assert main(["track", *argv, *flags]) == 0
        with open(checkpoint, "rb") as stream:
            checkpoint_bytes = stream.read()
        with open(os.path.join(telemetry_dir, "decisions.jsonl"), "rb") as stream:
            return checkpoint, checkpoint_bytes, stream.read()

    def test_in_memory(self, campaign):
        out, days, (_, checkpoint, decisions) = campaign
        _, dir_checkpoint, dir_decisions = self._track(out, "dirs", days)
        assert dir_checkpoint == checkpoint
        assert dir_decisions == decisions

    def test_sharded_and_pooled(self, campaign):
        out, days, (reference, _, decisions) = campaign
        path, _, dir_decisions = self._track(
            out, "dirs-sharded", [*days, "--shards", "2", "--jobs", "2"]
        )
        assert dir_decisions == decisions
        # the checkpoint embeds n_jobs, an execution knob; the ledger is equal
        resumed, expected = DomainTracker.resume(path), DomainTracker.resume(reference)
        assert resumed.state_dict() == expected.state_dict()
        assert dataclasses.replace(resumed.config, n_jobs=1) == expected.config

    def test_killed_and_resumed_between_directories(self, campaign):
        out, days, (_, checkpoint, decisions) = campaign
        killed, _, first = self._track(out, "dirs-killed", days[:1])
        _, resumed_checkpoint, rest = self._track(
            out, "dirs-resumed", days, resume=killed
        )
        assert resumed_checkpoint == checkpoint
        assert first + rest == decisions
