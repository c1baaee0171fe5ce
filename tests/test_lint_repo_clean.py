"""Meta-tests: the live tree is clean, and the guards catch regressions.

The regression tests are the acceptance proof for SEG002/SEG003: they
plant a realistic future bug (a wall-clock read in the tracker; a
layering inversion in core) in a scratch copy of a real module and
assert the lint pass refuses it.
"""

import os
import shutil

from tools.lint.engine import Engine
from tools.lint.rules import build_rules

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")


def lint_src():
    engine = Engine(build_rules())
    findings, count = engine.lint_tree(SRC, relative_to=REPO_ROOT)
    return findings, count


class TestLiveTree:
    def test_src_is_clean(self):
        findings, count = lint_src()
        assert count > 80  # the whole library was actually walked
        assert findings == [], "\n".join(
            f"{f.path}:{f.line}: {f.rule} {f.message}" for f in findings
        )


def _copy_module(tmp_path, rel):
    """Copy a real module into a scratch src tree, preserving its package."""
    dest = tmp_path / "src" / os.path.dirname(rel)
    dest.mkdir(parents=True, exist_ok=True)
    target = tmp_path / "src" / rel
    shutil.copy(os.path.join(SRC, rel), target)
    return target


class TestSeededRegressions:
    def test_seg002_catches_wallclock_read_in_tracker(self, tmp_path):
        target = _copy_module(tmp_path, os.path.join("repro", "core", "tracker.py"))
        source = target.read_text()
        assert "time.time()" not in source
        target.write_text(
            source + "\nimport time\n\n_STARTED_AT = time.time()  # regression\n"
        )
        engine = Engine(build_rules())
        findings, _ = engine.lint_tree(str(tmp_path / "src"), relative_to=str(tmp_path))
        seg002 = [f for f in findings if f.rule == "SEG002"]
        assert seg002, "planted wall-clock read was not caught"
        assert all("tracker.py" in f.path for f in seg002)

    def test_seg002_catches_unseeded_rng_in_ml(self, tmp_path):
        target = _copy_module(tmp_path, os.path.join("repro", "ml", "tree.py"))
        source = target.read_text().replace(
            "np.random.default_rng(0)", "np.random.default_rng()", 1
        )
        target.write_text(source)
        engine = Engine(build_rules())
        findings, _ = engine.lint_tree(str(tmp_path / "src"), relative_to=str(tmp_path))
        assert any(
            f.rule == "SEG002" and "without a seed" in f.message for f in findings
        ), "reverting the seeded default_rng was not caught"

    def test_seg003_catches_layering_inversion_in_core(self, tmp_path):
        target = _copy_module(tmp_path, os.path.join("repro", "core", "graph.py"))
        source = target.read_text()
        assert "repro.eval" not in source
        target.write_text(
            source + "\nfrom repro.eval.harness import score_split  # regression\n"
        )
        engine = Engine(build_rules())
        findings, _ = engine.lint_tree(str(tmp_path / "src"), relative_to=str(tmp_path))
        seg003 = [f for f in findings if f.rule == "SEG003"]
        assert seg003, "planted core -> eval import was not caught"
        assert "repro.eval" in seg003[0].message

    def test_seg003_catches_obs_growing_dependencies(self, tmp_path):
        target = _copy_module(tmp_path, os.path.join("repro", "obs", "events.py"))
        target.write_text(
            target.read_text() + "\nfrom repro.core.graph import BehaviorGraph\n"
        )
        engine = Engine(build_rules())
        findings, _ = engine.lint_tree(str(tmp_path / "src"), relative_to=str(tmp_path))
        assert any(
            f.rule == "SEG003" and "zero-dep" in f.message for f in findings
        ), "planted obs -> core import was not caught"

    def test_seg010_catches_bare_perf_timing_in_eval(self, tmp_path):
        target = _copy_module(
            tmp_path, os.path.join("repro", "eval", "fullreport.py")
        )
        source = target.read_text()
        assert "perf_counter" not in source
        target.write_text(
            source + "\nimport time\n\n_T0 = time.perf_counter()  # regression\n"
        )
        engine = Engine(build_rules())
        findings, _ = engine.lint_tree(str(tmp_path / "src"), relative_to=str(tmp_path))
        seg010 = [f for f in findings if f.rule == "SEG010"]
        assert seg010, "planted bare perf clock in repro.eval was not caught"
        assert "span" in seg010[0].message

    def test_seg010_exempts_the_benchmark_harness(self):
        # repro.eval.bench's best-of-N lap timing is the documented
        # exemption — the live module uses perf_counter and stays clean
        engine = Engine(build_rules())
        findings = engine.lint_file(
            os.path.join(SRC, "repro", "eval", "bench.py"),
            package_root=SRC,
            report_path="src/repro/eval/bench.py",
        )
        assert [f for f in findings if f.rule == "SEG010"] == []

    def test_clean_copies_stay_clean(self, tmp_path):
        # control: the same copied modules produce no findings
        for rel in (
            os.path.join("repro", "core", "graph.py"),
            os.path.join("repro", "ml", "tree.py"),
        ):
            _copy_module(tmp_path, rel)
        engine = Engine(build_rules())
        findings, _ = engine.lint_tree(str(tmp_path / "src"), relative_to=str(tmp_path))
        assert findings == []
