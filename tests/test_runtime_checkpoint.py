"""Checkpoint format: round trips, and refusal of every corruption mode."""

import hashlib
import json
import os

import pytest

from repro.core.pipeline import SegugioConfig
from repro.core.pruning import PruneConfig
from repro.core.tracker import DomainTracker, TrackedDomain
from repro.runtime.checkpoint import (
    CHECKPOINT_VERSION,
    config_from_dict,
    config_to_dict,
    load_checkpoint,
    resume_tracker,
    save_checkpoint,
)
from repro.utils.errors import CheckpointError


def make_tracker() -> DomainTracker:
    tracker = DomainTracker(
        config=SegugioConfig(n_estimators=7, seed=13), fp_target=0.01
    )
    tracker.days_processed = [160, 161]
    tracker.day_thresholds = {160: 0.625, 161: 0.5875}
    for name, first in (("c2.evil.example", 160), ("drop.bad.example", 161)):
        tracker.tracked[name] = TrackedDomain(
            name=name,
            first_detected_day=first,
            last_detected_day=161,
            sightings=161 - first + 1,
            best_score=0.9375,
        )
    return tracker


def rewrite_payload(path: str, edit) -> None:
    """Apply *edit* to the checkpoint's JSON payload and re-checksum it,
    so only the payload's meaning is wrong, never its integrity."""
    with open(path) as stream:
        header, body = stream.read().split("\n", 1)
    payload = json.loads(body)
    edit(payload)
    body = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()
    prefix = header.rsplit("sha256=", 1)[0]
    with open(path, "w") as stream:
        stream.write(f"{prefix}sha256={digest}\n{body}\n")


@pytest.fixture
def ckpt(tmp_path):
    path = str(tmp_path / "run.ckpt")
    save_checkpoint(make_tracker(), path)
    return path


class TestRoundTrip:
    def test_state_survives_save_and_resume(self, ckpt):
        original = make_tracker()
        resumed = DomainTracker.resume(ckpt)
        assert resumed.state_dict() == original.state_dict()
        assert resumed.config == original.config
        assert resumed.fp_target == original.fp_target
        assert resumed.day_thresholds == original.day_thresholds

    def test_saving_twice_is_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.ckpt"), str(tmp_path / "b.ckpt")
        save_checkpoint(make_tracker(), a)
        save_checkpoint(make_tracker(), b)
        with open(a, "rb") as fa, open(b, "rb") as fb:
            assert fa.read() == fb.read()

    def test_save_leaves_no_staging_file(self, ckpt):
        assert not os.path.exists(ckpt + ".tmp")

    def test_save_overwrites_previous_checkpoint(self, ckpt):
        tracker = DomainTracker.resume(ckpt)
        tracker.days_processed.append(162)
        tracker.day_thresholds[162] = 0.55
        tracker.save_checkpoint(ckpt)
        assert DomainTracker.resume(ckpt).days_processed == [160, 161, 162]

    def test_config_round_trip_including_prune(self):
        config = SegugioConfig(
            n_estimators=11,
            seed=3,
            prune=PruneConfig(r1_min_domains=2),
            feature_columns=(0, 3, 7),
        )
        rebuilt = config_from_dict(config_to_dict(config))
        assert rebuilt == config
        assert isinstance(rebuilt.prune, PruneConfig)
        assert rebuilt.feature_columns == (0, 3, 7)

    def test_foreign_config_field_refused(self):
        payload = config_to_dict(SegugioConfig())
        payload["quantum_mode"] = True
        with pytest.raises(CheckpointError, match="incompatible"):
            config_from_dict(payload)


class TestCorruptionRefusal:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="does not exist"):
            load_checkpoint(str(tmp_path / "never-written.ckpt"))

    def test_foreign_file_rejected(self, tmp_path):
        path = str(tmp_path / "model.pkl")
        with open(path, "w") as stream:
            stream.write('{"just": "json, no header"}\n')
        with pytest.raises(CheckpointError, match="not a segugio checkpoint"):
            load_checkpoint(path)

    def test_unsupported_version_names_both(self, ckpt):
        with open(ckpt) as stream:
            header, body = stream.read().split("\n", 1)
        header = header.replace(f"v{CHECKPOINT_VERSION}", "v99")
        with open(ckpt, "w") as stream:
            stream.write(header + "\n" + body)
        with pytest.raises(CheckpointError, match="99") as excinfo:
            load_checkpoint(ckpt)
        assert str(CHECKPOINT_VERSION) in str(excinfo.value)

    def test_flipped_byte_fails_checksum(self, ckpt):
        with open(ckpt, "rb") as stream:
            blob = bytearray(stream.read())
        target = blob.rindex(b"0.9375")
        blob[target : target + 6] = b"0.1375"  # quietly inflate a score
        with open(ckpt, "wb") as stream:
            stream.write(bytes(blob))
        with pytest.raises(CheckpointError, match="checksum mismatch"):
            load_checkpoint(ckpt)

    def test_truncation_fails_checksum(self, ckpt):
        with open(ckpt, "rb") as stream:
            blob = stream.read()
        with open(ckpt, "wb") as stream:
            stream.write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="truncated or corrupted"):
            load_checkpoint(ckpt)

    def test_checksum_refusal_happens_before_json_parse(self, ckpt):
        # A half-written body is invalid JSON *and* fails the checksum; the
        # checksum message (with its restore advice) must win.
        with open(ckpt) as stream:
            content = stream.read()
        with open(ckpt, "w") as stream:
            stream.write(content[:-20])
        with pytest.raises(CheckpointError, match="restore"):
            load_checkpoint(ckpt)

    def test_resume_raises_checkpoint_error(self, ckpt):
        with open(ckpt, "w") as stream:
            stream.write("garbage\n")
        with pytest.raises(CheckpointError):
            DomainTracker.resume(ckpt)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda p: p.update(config=5),
            lambda p: p["config"].update(feature_columns=3),
            lambda p: p.update(state={}),
            lambda p: p["config"]["prune"].update(r9_magic=True),
        ],
        ids=["config-int", "feature-columns-int", "state-empty", "prune-key"],
    )
    def test_unbuildable_payload_names_the_file(self, ckpt, edit):
        rewrite_payload(ckpt, edit)
        load_checkpoint(ckpt)  # checksum-valid: only the contents are wrong
        with pytest.raises(CheckpointError) as excinfo:
            resume_tracker(ckpt)
        assert str(excinfo.value).startswith(f"{ckpt}: ")
