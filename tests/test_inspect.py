"""``segugio inspect``: the one reader's fault handling, the two backends
carrying the same content, and a fuzz of every on-disk artifact.

The fault cases below each reproduced at the parent commit through one of
the five hand-written readers this reader replaced (a raw traceback, a
silently short trace, a rejected path form, stale decision records, an
ignored ``trace_file``); the fuzz is the first slice of "fuzz every
on-disk reader": whatever is done to a telemetry directory, the outcome is
a located :class:`TelemetryError` or a document both backends render.
"""

import html
import json
import os
import re
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import main
from repro.eval.document import Table, render_html, render_text
from repro.eval.views import VIEW_NAMES, inspect_runs
from repro.obs import TelemetryError, TelemetryRun


def track(directory, *flags):
    assert (
        main(["track", "--scale", "small", "--days", "2", "--telemetry-dir", directory, *flags])
        == 0
    )
    return directory


@pytest.fixture(scope="module")
def profiled_dir(tmp_path_factory):
    """A profiled two-day run with pool workers (every section has content)."""
    return track(
        str(tmp_path_factory.mktemp("inspect") / "profiled"), "--profile", "--jobs", "2"
    )


@pytest.fixture(scope="module")
def plain_dir(tmp_path_factory):
    return track(str(tmp_path_factory.mktemp("inspect") / "plain"))


@pytest.fixture
def run_copy(profiled_dir, tmp_path):
    return shutil.copytree(profiled_dir, str(tmp_path / "run"))


def edit_manifest(directory, **changes):
    path = os.path.join(directory, "manifest.json")
    with open(path) as stream:
        manifest = json.load(stream)
    manifest.update(changes)
    with open(path, "w") as stream:
        json.dump(manifest, stream)


def inspect_text(capsys, *argv):
    capsys.readouterr()
    assert main(["inspect", *argv]) == 0
    return capsys.readouterr().out


# ---------------------------------------------------------------------- #
# reader faults, one regression test each
# ---------------------------------------------------------------------- #


class TestReaderFaults:
    def test_torn_decisions_line_is_a_located_one_line_error(self, run_copy):
        path = os.path.join(run_copy, "decisions.jsonl")
        with open(path) as stream:
            data = stream.read()
        with open(path, "w") as stream:
            stream.write(data[:-40])
        with pytest.raises(SystemExit) as excinfo:
            main(["inspect", run_copy, "--view", "health"])
        message = str(excinfo.value)
        n_lines = data.count("\n")
        assert message.startswith(f"{path}:{n_lines}: ")
        assert "\n" not in message

    def test_truncated_trace_renders_with_a_note_and_an_honest_count(
        self, run_copy, capsys
    ):
        path = os.path.join(run_copy, "trace.jsonl")
        with open(path) as stream:
            lines = stream.readlines()
        with open(path, "w") as stream:
            stream.writelines(lines[:20])
            stream.write(lines[20][: len(lines[20]) // 2])
        text = inspect_text(capsys, run_copy, "--view", "timeline")
        assert "20 span(s)" in text.splitlines()[0]
        assert f"skipped 1 malformed line(s) in {path}" in text

    @pytest.mark.parametrize("artifact", ["", "manifest.json", "trace.jsonl"])
    def test_directory_manifest_or_trace_path_all_open_every_view(
        self, profiled_dir, artifact, capsys
    ):
        text = inspect_text(capsys, os.path.join(profiled_dir, artifact))
        for view in VIEW_NAMES:
            assert f"segugio inspect: {view} — " in text

    def test_null_decisions_file_means_no_decisions_even_beside_a_stale_file(
        self, run_copy, capsys
    ):
        edit_manifest(run_copy, decisions_file=None)
        assert os.path.exists(os.path.join(run_copy, "decisions.jsonl"))
        text = inspect_text(capsys, run_copy, "--view", "health")
        assert "0 decision record(s)" in text
        assert "decision verdicts per day" not in text

    def test_manifest_named_trace_and_decisions_files_are_followed(
        self, run_copy, capsys
    ):
        want = inspect_text(capsys, run_copy)
        os.rename(
            os.path.join(run_copy, "trace.jsonl"), os.path.join(run_copy, "spans.jsonl")
        )
        os.rename(
            os.path.join(run_copy, "decisions.jsonl"),
            os.path.join(run_copy, "verdicts.jsonl"),
        )
        edit_manifest(run_copy, trace_file="spans.jsonl", decisions_file="verdicts.jsonl")
        got = inspect_text(capsys, run_copy)
        assert "decision verdicts per day" in got and "segugio_worker_task" in got
        assert got == want.replace("trace.jsonl", "spans.jsonl").replace(
            "decisions decisions.jsonl", "decisions verdicts.jsonl"
        )

    def test_missing_trace_file_is_a_located_error(self, run_copy):
        os.remove(os.path.join(run_copy, "trace.jsonl"))
        with pytest.raises(SystemExit, match="no trace file") as excinfo:
            main(["inspect", run_copy, "--view", "timeline"])
        assert str(excinfo.value).startswith(os.path.join(run_copy, "trace.jsonl"))


# ---------------------------------------------------------------------- #
# one definition per view, two backends
# ---------------------------------------------------------------------- #


def assert_same_content(documents):
    text = render_text(*documents)
    page = html.unescape(re.sub(r"<[^>]+>", "", render_html(*documents)))
    lowered = page.lower()
    for document in documents:
        assert document.title in page
        for line in document.lines:
            assert line in page
        for section in document.sections:
            assert section.title in text
            assert section.title.rstrip(":").lower() in lowered
            for block in section.body:
                if isinstance(block, str):
                    assert block in text and block in page
                elif isinstance(block, Table):
                    for row in block.rows:
                        for cell in row:
                            assert cell.strip() in text and cell in page
    return text, page


class TestSameContent:
    def test_profiled_run_html_carries_every_text_section(self, profiled_dir):
        documents = inspect_runs([TelemetryRun.open(profiled_dir)])
        assert [d.title.split(" — ")[0] for d in documents] == [
            f"segugio inspect: {view}" for view in VIEW_NAMES
        ]
        _text, page = assert_same_content(documents)
        # what the per-view HTML renderers this replaced had drifted out of
        for section in (
            "Decision verdicts per day",
            "Per-feature drift",
            "Trend sparklines",
            "memory: peak rss",
            "io: read",
            "queue wait mean",
            "p95 <=",
            "task(s), busy",
            "peak rss",
        ):
            assert section in page, section
        assert "new detections   " in page and "threshold        " in page

    def test_unprofiled_run(self, plain_dir):
        _text, page = assert_same_content(inspect_runs([TelemetryRun.open(plain_dir)]))
        assert "resources: n/a" in page and "Resource cost: n/a" in page

    def test_two_runs_against_a_rolling_reference(self, plain_dir, profiled_dir):
        runs = TelemetryRun.open_all([plain_dir, profiled_dir])
        documents = inspect_runs(runs, reference="rolling:1")
        assert len(documents) == 1 + 3 * 2  # one health view, the rest per run
        text, _page = assert_same_content(documents)
        assert "reference drift vs rolling mean of previous 1 day(s):" in text
        assert "4 tracked day(s)" in text

    def test_html_flag_writes_one_page_with_all_views(
        self, profiled_dir, tmp_path, capsys
    ):
        out = str(tmp_path / "report.html")
        inspect_text(capsys, profiled_dir, "--html", out)
        with open(out) as stream:
            page = stream.read()
        assert page.count("<!doctype html>") == 1
        assert page.count("<h1>") == len(VIEW_NAMES)
        assert 'class="lane-block"' in page and 'class="badge ok"' in page


#: a profiled two-day run of a tiny world, written by the version-2 writer:
#: its manifest still carries the metrics-registry snapshot (run level)
#: and deltas (per day) that version 3 dropped
V2_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data", "telemetry_v2")


class TestVersion2Directory:
    def test_fixture_carries_metrics_at_run_and_day_level(self):
        with open(os.path.join(V2_DIR, "manifest.json")) as stream:
            manifest = json.load(stream)
        assert manifest["manifest_version"] == 2
        assert manifest["metrics"]
        assert all(day["metrics"] for day in manifest["days"])

    def test_opens_and_renders_all_four_views(self, capsys):
        documents = inspect_runs([TelemetryRun.open(V2_DIR)])
        assert [d.title.split(" — ")[0] for d in documents] == [
            f"segugio inspect: {view}" for view in VIEW_NAMES
        ]
        text, _page = assert_same_content(documents)
        assert "234 decision record(s)" in text
        assert "peak rss" in text and "resources: n/a" not in text
        assert "metric series" not in text
        assert inspect_text(capsys, V2_DIR) == text + "\n"


def test_help_lists_inspect_and_none_of_the_four_it_replaced(capsys):
    with pytest.raises(SystemExit):
        main(["--help"])
    commands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
    assert "inspect" in commands
    assert not {"telemetry", "monitor", "profile", "trace"} & set(commands)


# ---------------------------------------------------------------------- #
# fuzz: truncate any artifact anywhere, swap any value's type
# ---------------------------------------------------------------------- #

ARTIFACTS = ("manifest.json", "trace.jsonl", "decisions.jsonl")

#: what a swapped-in value may be: every JSON type, plus the numbers that
#: break naive code (bools that pass for ints, ids that close a parent
#: cycle, the largest double)
REPLACEMENTS = (None, True, 0, 1, 2, -1, 2.5, 1e308, "", "x", [], {}, [1], {"a": 1})

_BASE = {}


def base_artifacts(profiled_dir):
    """The profiled run's three artifacts as text, decisions trimmed to the
    first records of each day so an example stays a few milliseconds."""
    if not _BASE:
        for name in ARTIFACTS:
            with open(os.path.join(profiled_dir, name)) as stream:
                _BASE[name] = stream.read()
        records = _BASE["decisions.jsonl"].splitlines(keepends=True)
        _BASE["decisions.jsonl"] = "".join(records[:40] + records[-40:])
    return _BASE


def swap_somewhere(draw, node):
    """Replace one value, at a path drawn one container level at a time."""
    while True:
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        key = draw(st.sampled_from(keys))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child) or draw(st.booleans()):
            node[key] = draw(st.sampled_from(REPLACEMENTS))
            return
        node = child


def assert_located_error_or_rendered(directory):
    try:
        documents = inspect_runs([TelemetryRun.open(directory)], reference="rolling:1")
        text, page = render_text(*documents), render_html(*documents)
    except TelemetryError as error:
        assert str(error).startswith(directory + os.sep), str(error)
        return
    assert text.count("segugio inspect: ") == len(VIEW_NAMES)
    assert page.startswith("<!doctype html>") and page.endswith("</body></html>")


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_reader_survives_truncation_and_type_swaps(profiled_dir, data):
    base = base_artifacts(profiled_dir)
    name = data.draw(st.sampled_from(ARTIFACTS))
    text = base[name]
    if data.draw(st.booleans()):
        text = text[: data.draw(st.integers(0, len(text)))]
    elif name == "manifest.json":
        manifest = json.loads(text)
        swap_somewhere(data.draw, manifest)
        text = json.dumps(manifest)
    else:
        lines = text.splitlines()
        index = data.draw(st.integers(0, len(lines) - 1))
        record = json.loads(lines[index])
        swap_somewhere(data.draw, record)
        lines[index] = json.dumps(record)
        text = "\n".join(lines) + "\n"
    with tempfile.TemporaryDirectory() as directory:
        for other in ARTIFACTS:
            with open(os.path.join(directory, other), "w") as stream:
                stream.write(text if other == name else base[other])
        assert_located_error_or_rendered(directory)


def test_a_parent_id_cycle_in_the_trace_does_not_recurse(run_copy):
    # found by the fuzz: a hand-edited parent_id that points back at the
    # row sent build_timeline's lane lookup into unbounded recursion
    path = os.path.join(run_copy, "trace.jsonl")
    with open(path) as stream:
        rows = [json.loads(line) for line in stream]
    rows[0]["parent_id"] = rows[1]["id"]
    rows[1]["parent_id"] = rows[0]["id"]
    with open(path, "w") as stream:
        stream.writelines(json.dumps(row) + "\n" for row in rows)
    assert_located_error_or_rendered(run_copy)
