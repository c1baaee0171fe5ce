"""Pipeline-config persistence: the config payload a checkpoint carries."""

import io
import json

import pytest

from repro.core.pipeline import SegugioConfig
from repro.core.pruning import PruneConfig
from repro.core.tracker import DomainTracker
from repro.runtime.checkpoint import config_from_dict, config_to_dict
from repro.utils.errors import CheckpointError


class TestRoundTrip:
    def test_defaults(self):
        config = SegugioConfig()
        assert config_from_dict(config_to_dict(config)) == config

    def test_customized(self):
        config = SegugioConfig(
            activity_window=7,
            pdns_window_days=60,
            prune=PruneConfig(r1_min_domains=3, apply_r4=False),
            classifier="logistic",
            n_estimators=12,
            feature_columns=(0, 3, 7),
            filter_probes=True,
            seed=9,
        )
        clone = config_from_dict(config_to_dict(config))
        assert clone == config
        assert clone.prune.apply_r4 is False
        assert clone.feature_columns == (0, 3, 7)

    def test_stream_round_trip(self):
        config = SegugioConfig(n_estimators=5)
        buffer = io.StringIO()
        json.dump(config_to_dict(config), buffer)
        buffer.seek(0)
        assert config_from_dict(json.load(buffer)) == config

    def test_file_round_trip(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        config = SegugioConfig(max_bins=16)
        DomainTracker(config=config).save_checkpoint(path)
        assert DomainTracker.resume(path).config == config

    def test_json_is_plain(self):
        text = json.dumps(config_to_dict(SegugioConfig()))
        assert "prune" in text


class TestValidation:
    def test_unknown_key_rejected(self):
        payload = config_to_dict(SegugioConfig())
        payload["banana"] = 1
        with pytest.raises(CheckpointError, match="banana"):
            config_from_dict(payload)

    def test_unknown_prune_key_rejected(self):
        payload = config_to_dict(SegugioConfig())
        payload["prune"]["r9_magic"] = True
        with pytest.raises(CheckpointError, match="r9_magic"):
            config_from_dict(payload)

    def test_bad_prune_value_rejected(self):
        payload = config_to_dict(SegugioConfig())
        payload["prune"]["r2_percentile"] = 250.0
        with pytest.raises(CheckpointError, match="r2_percentile"):
            config_from_dict(payload)

    def test_missing_prune_defaults(self):
        payload = config_to_dict(SegugioConfig())
        del payload["prune"]
        config = config_from_dict(payload)
        assert config.prune == PruneConfig()
