"""Columnar sharded edge store: roundtrip, dedupe ordering, manifest."""

import json
import os

import numpy as np
import pytest

from repro.datasets.edgestore import (
    EDGESTORE_FORMAT_VERSION,
    EdgeStore,
    EdgeStoreWriter,
    ShardedDayTrace,
)
from repro.dns.trace import DayTrace, _dedupe_edges
from repro.utils.errors import FormatVersionError
from repro.utils.ids import Interner


def _tiny_trace(seed=3, n_machines=37, n_domains=53, n_rows=400, day=7):
    rng = np.random.default_rng(seed)
    machines = Interner(f"h{i}" for i in range(n_machines))
    domains = Interner(f"d{i}.example" for i in range(n_domains))
    em = rng.integers(0, n_machines, size=n_rows)
    ed = rng.integers(0, n_domains, size=n_rows)
    resolutions = {
        int(d): np.sort(
            rng.choice(2**20, size=int(rng.integers(1, 4)), replace=False)
        ).astype(np.uint32)
        for d in rng.choice(n_domains, size=9, replace=False)
    }
    return DayTrace.build(day, machines, domains, em, ed, resolutions)


class TestWriterRoundtrip:
    @pytest.mark.parametrize("n_shards", [1, 2, 7])
    def test_concatenated_shards_rebuild_dedupe_order(self, tmp_path, n_shards):
        trace = _tiny_trace()
        sharded = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=n_shards, batch_size=64
        )
        parts = [sharded.store.shard_edges(s) for s in range(n_shards)]
        em = np.concatenate([p[0] for p in parts])
        ed = np.concatenate([p[1] for p in parts])
        order = np.lexsort((ed, em))
        np.testing.assert_array_equal(em[order], trace.edge_machines)
        np.testing.assert_array_equal(ed[order], trace.edge_domains)
        assert sharded.n_edges == trace.n_edges
        assert sharded.day == trace.day

    def test_machine_partition_is_modular(self, tmp_path):
        trace = _tiny_trace()
        sharded = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=5, batch_size=64
        )
        for shard in range(5):
            em, _ = sharded.store.shard_edges(shard)
            assert (np.asarray(em) % 5 == shard).all()

    def test_per_shard_dedupe_matches_global(self, tmp_path):
        trace = _tiny_trace()
        sharded = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=3, batch_size=32
        )
        ref_m, ref_d = _dedupe_edges(
            trace.edge_machines, trace.edge_domains
        )
        for shard in range(3):
            em, ed = sharded.store.shard_edges(shard)
            mask = ref_m % 3 == shard
            np.testing.assert_array_equal(np.asarray(em), ref_m[mask])
            np.testing.assert_array_equal(np.asarray(ed), ref_d[mask])

    def test_batch_size_does_not_change_bytes(self, tmp_path):
        trace = _tiny_trace()
        stores = []
        for batch_size in (17, 4096):
            sharded = ShardedDayTrace.from_day_trace(
                trace,
                str(tmp_path / f"store-{batch_size}"),
                n_shards=4,
                batch_size=batch_size,
            )
            stores.append(sharded)
        for shard in range(4):
            a_m, a_d = stores[0].store.shard_edges(shard)
            b_m, b_d = stores[1].store.shard_edges(shard)
            np.testing.assert_array_equal(np.asarray(a_m), np.asarray(b_m))
            np.testing.assert_array_equal(np.asarray(a_d), np.asarray(b_d))

    def test_unique_ids_match_trace(self, tmp_path):
        trace = _tiny_trace()
        sharded = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=2, batch_size=64
        )
        np.testing.assert_array_equal(
            sharded.unique_machine_ids(), trace.unique_machine_ids()
        )
        np.testing.assert_array_equal(
            sharded.unique_domain_ids(), trace.unique_domain_ids()
        )

    def test_resolutions_survive_sharding(self, tmp_path):
        trace = _tiny_trace()
        sharded = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=2, batch_size=64
        )
        for did in range(len(trace.domains)):
            np.testing.assert_array_equal(
                sharded.resolved_ips(did), trace.resolved_ips(did)
            )
        ids = trace.unique_domain_ids()
        got = sharded.resolutions_for(ids)
        want = {
            int(d): trace.resolved_ips(int(d))
            for d in ids
            if trace.resolved_ips(int(d)).size
        }
        assert got.keys() == want.keys()
        for did in want:
            np.testing.assert_array_equal(got[did], want[did])

    def test_resolutions_for_equals_the_in_memory_lookup(self, tmp_path):
        """One vectorised search: same dict as asking the in-memory trace
        id by id, in the order asked, ids past either end or without
        resolutions left out."""
        trace = _tiny_trace()
        store = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=2, batch_size=64
        ).store
        rng = np.random.default_rng(11)
        ids = rng.permutation(np.arange(-2, len(trace.domains) + 40))
        got = store.resolutions_for(ids)
        want = {
            int(d): trace.resolved_ips(int(d))
            for d in ids
            if trace.resolved_ips(int(d)).size
        }
        assert list(got) == list(want) and len(want) == 9
        for did, ips in want.items():
            np.testing.assert_array_equal(got[did], ips)
            assert got[did].dtype == np.uint32
        assert all(type(did) is int for did in got)
        assert store.resolutions_for(np.empty(0, dtype=np.int64)) == {}

    def test_resolutions_for_on_a_store_without_resolutions(self, tmp_path):
        bare = DayTrace.build(
            7, Interner(["h0"]), Interner(["d0.example"]), [0], [0]
        )
        store = ShardedDayTrace.from_day_trace(
            bare, str(tmp_path / "store"), n_shards=1
        ).store
        assert store.resolutions_for(np.array([0, 1])) == {}

    def test_shard_arrays_are_memory_mapped(self, tmp_path):
        trace = _tiny_trace()
        sharded = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=2, batch_size=64
        )
        em, ed = sharded.store.shard_edges(0)
        assert isinstance(em, np.memmap)
        assert isinstance(ed, np.memmap)


class TestWriterValidation:
    def test_bad_shard_count_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="n_shards"):
            EdgeStoreWriter(str(tmp_path / "s"), n_shards=0)

    def test_negative_ids_rejected(self, tmp_path):
        writer = EdgeStoreWriter(str(tmp_path / "s"), n_shards=2)
        with pytest.raises(ValueError, match="non-negative"):
            writer.add_batch(
                np.array([1, -2], dtype=np.int64),
                np.array([0, 1], dtype=np.int64),
            )

    def test_mismatched_batch_arrays_rejected(self, tmp_path):
        writer = EdgeStoreWriter(str(tmp_path / "s"), n_shards=1)
        with pytest.raises(ValueError, match="parallel"):
            writer.add_batch(
                np.arange(3, dtype=np.int64), np.arange(4, dtype=np.int64)
            )

    def test_finalized_writer_is_sealed(self, tmp_path):
        writer = EdgeStoreWriter(str(tmp_path / "s"), n_shards=1)
        writer.add_batch(
            np.array([0], dtype=np.int64), np.array([0], dtype=np.int64)
        )
        writer.finalize(n_machines=1, n_domains=1)
        with pytest.raises(RuntimeError, match="finalized"):
            writer.add_batch(
                np.array([0], dtype=np.int64), np.array([0], dtype=np.int64)
            )

    def test_spills_removed_after_finalize(self, tmp_path):
        directory = str(tmp_path / "s")
        writer = EdgeStoreWriter(directory, n_shards=3)
        writer.add_batch(
            np.arange(10, dtype=np.int64), np.arange(10, dtype=np.int64)
        )
        writer.finalize(n_machines=10, n_domains=10)
        assert not [f for f in os.listdir(directory) if f.endswith(".spill")]


class TestManifest:
    def test_unfinalized_directory_refused(self, tmp_path):
        directory = str(tmp_path / "s")
        EdgeStoreWriter(directory, n_shards=2)  # never finalized
        with pytest.raises(FileNotFoundError, match="never +finalized"):
            EdgeStore.open(directory)

    def test_future_format_version_names_both(self, tmp_path):
        trace = _tiny_trace()
        directory = str(tmp_path / "store")
        ShardedDayTrace.from_day_trace(trace, directory, n_shards=1)
        path = os.path.join(directory, "manifest.json")
        with open(path) as stream:
            manifest = json.load(stream)
        manifest["format_version"] = EDGESTORE_FORMAT_VERSION + 1
        with open(path, "w") as stream:
            json.dump(manifest, stream)
        with pytest.raises(FormatVersionError):
            EdgeStore.open(directory)

    def test_counts_recorded(self, tmp_path):
        trace = _tiny_trace()
        sharded = ShardedDayTrace.from_day_trace(
            trace, str(tmp_path / "store"), n_shards=3, batch_size=50
        )
        store = sharded.store
        assert store.n_edges == trace.n_edges
        # from_day_trace re-flows the already-deduped edge arrays
        assert store.n_raw_rows == trace.n_edges
        assert store.n_batches == -(-trace.n_edges // 50)
        assert store.n_machines == len(trace.machines)
        assert store.n_domains == len(trace.domains)
        assert sum(store.shard_edge_counts) == store.n_edges
