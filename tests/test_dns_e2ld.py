"""Tests for the incremental FQD-id -> e2LD-id index."""

import numpy as np

from repro.dns.e2ld import E2ldIndex
from repro.dns.publicsuffix import PublicSuffixList
from repro.utils.ids import Interner


class TestMapping:
    def test_basic_mapping(self):
        domains = Interner(["www.example.com", "mail.example.com", "other.org"])
        index = E2ldIndex(domains)
        mapping = index.map_array()
        assert mapping.shape == (3,)
        # Both example.com subdomains share one e2LD id.
        assert mapping[0] == mapping[1]
        assert mapping[0] != mapping[2]

    def test_e2ld_of(self):
        domains = Interner(["www.bbc.co.uk"])
        index = E2ldIndex(domains)
        assert index.e2ld_of(0) == "bbc.co.uk"

    def test_grows_with_interner(self):
        domains = Interner(["a.com"])
        index = E2ldIndex(domains)
        assert index.map_array().shape == (1,)
        domains.intern("b.com")
        mapping = index.map_array()
        assert mapping.shape == (2,)
        assert mapping[0] != mapping[1]

    def test_mapping_stable_across_growth(self):
        domains = Interner(["x.a.com", "y.a.com"])
        index = E2ldIndex(domains)
        before = index.map_array().copy()
        domains.intern("z.b.com")
        after = index.map_array()
        assert (after[:2] == before).all()

    def test_respects_private_suffixes(self):
        psl = PublicSuffixList()
        psl.add_private_suffixes(["freehost.com"])
        domains = Interner(["alice.freehost.com", "bob.freehost.com"])
        index = E2ldIndex(domains, psl)
        mapping = index.map_array()
        assert mapping[0] != mapping[1]
        assert index.e2ld_of(0) == "alice.freehost.com"

    def test_suffix_itself_maps_to_self(self):
        domains = Interner(["com"])
        index = E2ldIndex(domains)
        assert index.e2ld_of(0) == "com"

    def test_len_counts_distinct_e2lds(self):
        domains = Interner(["a.x.com", "b.x.com", "c.y.com"])
        index = E2ldIndex(domains)
        assert len(index) == 2


class TestStorage:
    def test_map_array_is_a_read_only_view(self):
        domains = Interner(["a.x.com", "b.y.com"])
        index = E2ldIndex(domains)
        mapping = index.map_array()
        assert mapping.dtype == np.int64
        assert not mapping.flags.writeable
        assert np.shares_memory(mapping, index.map_array())  # no copy per call

    def test_earlier_views_survive_growth(self):
        domains = Interner(["a.x.com"])
        index = E2ldIndex(domains)
        first = index.map_array()
        for i in range(50):  # past any spare capacity
            domains.intern(f"h{i}.z{i}.com")
        grown = index.map_array()
        assert first.tolist() == [0] and grown.shape == (51,)
        assert grown.tolist() == list(range(51))

    def test_one_id_at_a_time_equals_all_at_once(self):
        names = [f"h{i}.z{i % 7}.co.uk" for i in range(40)]
        stepwise = E2ldIndex(Interner(names))
        ids = [stepwise.e2ld_id_of(i) for i in range(len(names))]
        assert ids == E2ldIndex(Interner(names)).map_array().tolist()
        assert all(type(i) is int for i in ids)

    def test_pickle_round_trip_keeps_growing(self):
        import pickle

        domains = Interner(["a.x.com", "B.X.com"])
        index = E2ldIndex(domains)
        assert len(index) == 1
        clone = pickle.loads(pickle.dumps(index))
        clone._domains.intern("c.y.com")
        assert clone.map_array().tolist() == [0, 0, 1]
        assert clone.noncanonical == {"b.x.com": [1]}


class TestNoncanonical:
    def test_canonical_names_leave_it_empty(self):
        index = E2ldIndex(Interner(["www.example.com", "other.org"]))
        index.map_array()
        assert index.noncanonical == {}

    def test_other_spellings_are_remembered_under_the_canonical_name(self):
        domains = Interner(["Evil.COM.", "evil.com", " evil.com", "ok.org"])
        index = E2ldIndex(domains)
        # every spelling shares the canonical name's e2LD
        assert index.map_array().tolist() == [0, 0, 0, 1]
        assert index.noncanonical == {"evil.com": [0, 2]}
        domains.intern("OK.org")
        assert len(index) == 2
        assert index.noncanonical == {"evil.com": [0, 2], "ok.org": [4]}
