"""Tests for the command-line interface."""

import os
import sys

import pytest

from repro.cli import build_parser, main
from repro.eval import experiments as E
from repro.eval.fullreport import SECTIONS

#: the subcommands that were folded into others, or deleted outright
REMOVED_COMMANDS = {"demo", "experiment", "diagnose", "graph-stats", "lint"}


def _measured(name, scenario):
    """What the experiment *name* measures, as the report must print it."""
    if name == "table1":
        rows = E.table1_dataset_summary(scenario, days_per_isp=2)
        return list(rows[0]) + [str(v) for row in rows for v in row.values()]
    if name == "fig3":
        result = E.fig3_infection_behavior(scenario, "isp1", scenario.eval_day(0))
        return [
            f"{count:3d} domains: {n}" for count, n in result["counts"].items()
        ] + [f"{result['frac_query_more_than_one']:.0%} of infected machines"]
    stats = E.pruning_statistics(scenario, days_per_isp=1)
    return [
        f"{stats[f'avg_{side}_removed_pct']:.1f}% of {side}"
        for side in ("domains", "machines", "edges")
    ]


@pytest.fixture(scope="module")
def scenario_seed5():
    from repro.synth.scenario import Scenario

    return Scenario.at_scale("small", 5)


class TestParser:
    def test_report_defaults(self):
        args = build_parser().parse_args(["report"])
        assert args.scale == "small"
        assert args.seed == 7
        assert args.out is None

    def test_experiment_args(self):
        args = build_parser().parse_args(
            ["report", "--sections", "fig6", "--scale", "small", "--seed", "3"]
        )
        assert args.sections == "fig6"
        assert args.seed == 3

    def test_bad_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["report", "--scale", "huge"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self):
        # an unknown name is answered with every name there is
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--sections", "fig99"])
        for name in SECTIONS:
            assert name in str(excinfo.value)

    def test_unknown_experiment(self):
        with pytest.raises(SystemExit):
            main(["report", "--sections", "nonsense"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--sections", "table1,nosuch", "--scale", "benchmark"],
            ["report", "--sections", "nosuch", "--scale", "benchmark"],
        ],
    )
    def test_a_name_is_checked_before_a_world_is_built(self, argv, monkeypatch):
        from repro.synth.scenario import Scenario

        def entered(self, config):
            raise AssertionError("built a world for a name that does not exist")

        monkeypatch.setattr(Scenario, "__init__", entered)
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code not in (0, None)

    def test_help_lists_nine_subcommands_and_no_removed_one(self, capsys):
        import re

        with pytest.raises(SystemExit):
            main(["--help"])
        commands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
        assert len(commands) == 9
        assert not (REMOVED_COMMANDS | {"classify-dir", "list"}) & set(commands)

    def test_pruning_experiment_runs(self, capsys):
        # The cheapest end-to-end command: builds a small world and prints.
        assert main(["report", "--sections", "pruning", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "graph pruning" in out
        assert "of domains" in out

    def test_table1_runs(self, capsys):
        assert main(["report", "--sections", "table1", "--seed", "5"]) == 0
        assert "Table I" in capsys.readouterr().out

    @pytest.mark.parametrize("name", ["table1", "fig3", "pruning"])
    def test_a_section_prints_what_its_experiment_measures(
        self, name, scenario_seed5, capsys
    ):
        # `report --sections NAME` without --out prints the section, and the
        # section carries every quantity the experiment's driver measures
        assert main(["report", "--sections", name, "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("# Segugio reproduction report")
        for quantity in _measured(name, scenario_seed5):
            assert quantity in out, quantity

    def test_track_runs(self, capsys):
        assert main(["track", "--days", "1", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "tracked" in out

    def test_diagnose_runs(self, capsys):
        assert main(["report", "--sections", "diagnostics", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "intuition 1" in out

    def test_unhealthy_world_writes_the_report_then_fails(
        self, tmp_path, monkeypatch, capsys
    ):
        from repro.synth.diagnostics import WorldDiagnostics

        monkeypatch.setattr(WorldDiagnostics, "healthy", lambda self: False)
        path = tmp_path / "r.md"
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "report",
                    "--sections",
                    "diagnostics",
                    "--seed",
                    "5",
                    "--out",
                    str(path),
                ]
            )
        assert str(excinfo.value) == "world diagnostics failed"
        assert "intuition 1" in path.read_text()
        assert "wrote report to" in capsys.readouterr().out

    def test_graph_stats_runs(self, capsys):
        assert main(["report", "--sections", "graph", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "after pruning" in out
        assert "components" in out

    def test_explain_runs(self, capsys):
        assert main(["explain", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "malware score" in out
        assert "contribution" in out

    def test_explain_unknown_domain_rejected(self):
        with pytest.raises(SystemExit):
            main(["explain", "--seed", "5", "--domain", "not-in-world.test"])

    def test_export_and_classify_round_trip(self, tmp_path, capsys):
        directory = str(tmp_path / "obs")
        assert main(["export-day", directory, "--seed", "5"]) == 0
        assert main(["track", directory]) == 0
        out = capsys.readouterr().out
        assert "unknown domains" in out


class TestOperatorErrors:
    """Errors that name their file or record exit with one line.

    A malformed trace line under --strict is the same case through ingest:
    test_runtime_track_days pins its ``trace.tsv:N`` exit message.
    """

    def test_resume_from_a_missing_checkpoint(self, tmp_path):
        missing = str(tmp_path / "missing.ckpt")
        with pytest.raises(SystemExit) as excinfo:
            main(["track", "--days", "1", "--resume", missing])
        assert str(excinfo.value) == (
            f"{missing}: checkpoint file does not exist"
        )

    def test_resume_from_an_unbuildable_checkpoint(self, tmp_path):
        import hashlib
        import json

        from repro.core.pipeline import SegugioConfig
        from repro.runtime.checkpoint import CHECKPOINT_VERSION, config_to_dict

        bad = str(tmp_path / "bad.ckpt")
        body = json.dumps(
            {
                "checkpoint_version": CHECKPOINT_VERSION,
                "config": config_to_dict(SegugioConfig()),
                "state": {},
            },
            sort_keys=True,
        )
        digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
        with open(bad, "w") as stream:
            stream.write(
                f"segugio-checkpoint v{CHECKPOINT_VERSION} sha256={digest}\n"
                f"{body}\n"
            )
        with pytest.raises(SystemExit) as excinfo:
            main(["track", "--days", "1", "--resume", bad])
        message = str(excinfo.value)
        assert message.startswith(f"{bad}: ")
        assert "\n" not in message

    def test_a_bare_value_error_is_not_swallowed(self, monkeypatch):
        import repro.cli as cli

        def broken(args):
            raise ValueError("a bug, not an operator error")

        monkeypatch.setattr(cli, "_run_health", broken)
        with pytest.raises(ValueError, match="a bug"):
            main(["health", "anywhere"])

    def test_a_closed_pipe_ends_the_command_quietly(self, tmp_path, monkeypatch):
        # `segugio inspect DIR --view profile | head -20`: the reader
        # closes stdout mid-output, and the command ends without a
        # traceback, with status 1 since it stopped short
        v2_dir = os.path.join(os.path.dirname(__file__), "data", "telemetry_v2")
        with open(tmp_path / "stdout", "w") as sink:

            class ClosedPipe:
                def write(self, text):
                    raise BrokenPipeError(32, "Broken pipe")

                def flush(self):
                    pass

                def fileno(self):
                    return sink.fileno()

            monkeypatch.setattr(sys, "stdout", ClosedPipe())
            assert main(["inspect", v2_dir, "--view", "profile"]) == 1


class TestFaultToleranceFlags:
    """`track` fault/supervision flags and the `chaos` subcommand."""

    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.days == 3
        assert args.estimators == 24
        assert args.plan is None

    def test_track_accepts_supervision_flags(self, tmp_path):
        import json

        plan = tmp_path / "plan.json"
        plan.write_text(
            json.dumps(
                {"faults": [{"kind": "io_error", "site": "pipeline_fit"}]}
            )
        )
        args = build_parser().parse_args(
            [
                "track",
                "--inject-faults",
                str(plan),
            ]
        )
        assert args.inject_faults == str(plan)

    def test_track_bad_fault_plan_exits_with_located_error(self, tmp_path):
        plan = tmp_path / "plan.json"
        plan.write_text('{"faults": [{"kind": "nope", "site": "forest_fit"}]}')
        with pytest.raises(SystemExit) as excinfo:
            main(["track", "--days", "1", "--inject-faults", str(plan)])
        assert "unknown kind" in str(excinfo.value)
        assert str(plan) in str(excinfo.value)

    def test_track_bad_alert_rules_exit_with_located_error(self, tmp_path):
        rules = tmp_path / "rules.json"
        rules.write_text('[{"name": "x"}]')
        with pytest.raises(SystemExit) as excinfo:
            main(["track", "--days", "1", "--alert-rules", str(rules)])
        assert str(rules) in str(excinfo.value)

    def test_monitor_bad_reference_exits_with_located_error(self, tmp_path):
        # the bad spec is rejected up front, before any manifest is loaded
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", str(tmp_path), "--reference", "sometimes"])
        assert "sometimes" in str(excinfo.value)

    def test_chaos_small_run_exits_zero_and_prints_verdict(
        self, tmp_path, capsys
    ):
        assert (
            main(
                [
                    "chaos",
                    "--days",
                    "1",
                    "--estimators",
                    "5",
                    "--out",
                    str(tmp_path / "chaos"),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "PASS" in out
        assert "invariants:" in out


class TestProfilingFlags:
    """`track --profile/--budgets`, `inspect --view profile`, `bench`."""

    def test_profile_requires_telemetry_dir(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["track", "--days", "1", "--profile"])
        assert "--telemetry-dir" in str(excinfo.value)

    def test_budgets_require_profile(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "track",
                    "--days",
                    "1",
                    "--telemetry-dir",
                    str(tmp_path),
                    "--budgets",
                    "examples/budgets.json",
                ]
            )
        assert "--profile" in str(excinfo.value)

    def test_bad_budgets_exit_with_located_error(self, tmp_path):
        budgets = tmp_path / "budgets.json"
        budgets.write_text("[]")
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "track",
                    "--days",
                    "1",
                    "--telemetry-dir",
                    str(tmp_path / "t"),
                    "--profile",
                    "--budgets",
                    str(budgets),
                ]
            )
        assert str(budgets) in str(excinfo.value)

    def test_tracked_profiled_run_then_profile_view(self, tmp_path, capsys):
        telemetry_dir = str(tmp_path / "telemetry")
        assert (
            main(
                [
                    "track",
                    "--days",
                    "1",
                    "--telemetry-dir",
                    telemetry_dir,
                    "--profile",
                    "--budgets",
                    "examples/budgets.json",
                ]
            )
            == 0
        )
        capsys.readouterr()
        html_path = str(tmp_path / "profile.html")
        assert (
            main(["inspect", telemetry_dir, "--view", "profile", "--html", html_path])
            == 0
        )
        out = capsys.readouterr().out
        assert "segugio inspect: profile" in out
        assert "phase tree" in out
        with open(html_path) as stream:
            assert "<!doctype html>" in stream.read()
        # a version-2 manifest still carries the child-process columns;
        # they pass unread
        v2_dir = os.path.join(os.path.dirname(__file__), "data", "telemetry_v2")
        assert main(["inspect", v2_dir, "--view", "profile"]) == 0
        captured = capsys.readouterr()
        assert "peak rss" in captured.out and "child" not in captured.out
        assert "Traceback" not in captured.out + captured.err

    def test_profile_view_on_unprofiled_run(self, tmp_path, capsys):
        telemetry_dir = str(tmp_path / "telemetry")
        assert (
            main(
                ["track", "--days", "1", "--telemetry-dir", telemetry_dir]
            )
            == 0
        )
        capsys.readouterr()
        assert main(["inspect", telemetry_dir, "--view", "profile"]) == 0
        assert "resources: n/a" in capsys.readouterr().out

    def test_profile_missing_dir_exits_with_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["inspect", str(tmp_path / "nowhere")])

    def test_bench_e2e_writes_schema_versioned_payload(
        self, tmp_path, capsys, monkeypatch
    ):
        import json

        monkeypatch.chdir(tmp_path)
        try:
            main(["bench", "--days", "1", "--quick"])
        except SystemExit as error:
            # the wall-clock gate may trip on a noisy box; bit-identity
            # must not be the reason
            assert "perturbed" not in str(error)
        out = capsys.readouterr().out
        assert "end-to-end benchmark" in out
        payload = json.load(open("BENCH_e2e.json"))
        assert payload["schema_version"] == 3
        assert payload["profiling"]["outputs_bit_identical"] is True
        assert payload["throughput"]["trace_rows_per_s"] is not None
        assert payload["sharded"]["outputs_bit_identical"] is True
        assert payload["sharded"]["n_shards"] >= 1
