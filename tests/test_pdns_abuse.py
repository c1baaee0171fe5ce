"""Tests for the IP-abuse oracle (F3 features)."""

import numpy as np
import pytest

from repro.dns.records import parse_ipv4
from repro.pdns.abuse import AbuseOracle, _in_sorted, _value_owners
from repro.pdns.database import PassiveDNSDatabase

MAL = 1  # domain ids
BEN = 2
UNK = 3

IP_MAL = parse_ipv4("12.0.0.5")
IP_MAL2 = parse_ipv4("12.0.0.200")  # same /24 as IP_MAL
IP_BEN = parse_ipv4("10.0.0.5")
IP_UNK = parse_ipv4("13.0.0.5")


@pytest.fixture()
def oracle():
    db = PassiveDNSDatabase()
    db.observe_day(10, [MAL, BEN, UNK], [IP_MAL, IP_BEN, IP_UNK])
    return AbuseOracle(
        db, end_day=20, window_days=30,
        malware_domain_ids=[MAL], benign_domain_ids=[BEN],
    )


class TestAbuseFeatures:
    def test_exact_malware_ip(self, oracle):
        frac_ip, frac_p24, n_unk_ip, n_unk_p24 = oracle.abuse_features(
            np.array([IP_MAL], dtype=np.uint32)
        )
        assert frac_ip == 1.0
        assert frac_p24 == 1.0
        assert n_unk_ip == 0.0

    def test_same_prefix_different_ip(self, oracle):
        frac_ip, frac_p24, _, _ = oracle.abuse_features(
            np.array([IP_MAL2], dtype=np.uint32)
        )
        assert frac_ip == 0.0  # exact IP never seen with malware
        assert frac_p24 == 1.0  # but its /24 was

    def test_unknown_ip_counts(self, oracle):
        _, _, n_unk_ip, n_unk_p24 = oracle.abuse_features(
            np.array([IP_UNK, IP_BEN], dtype=np.uint32)
        )
        assert n_unk_ip == 1.0
        assert n_unk_p24 == 1.0

    def test_benign_ip_all_zero(self, oracle):
        features = oracle.abuse_features(np.array([IP_BEN], dtype=np.uint32))
        assert features == (0.0, 0.0, 0.0, 0.0)

    def test_mixed_fraction(self, oracle):
        frac_ip, _, _, _ = oracle.abuse_features(
            np.array([IP_MAL, IP_BEN], dtype=np.uint32)
        )
        assert frac_ip == 0.5

    def test_empty_ip_set(self, oracle):
        assert oracle.abuse_features(np.empty(0, dtype=np.uint32)) == (
            0.0, 0.0, 0.0, 0.0,
        )

    def test_duplicate_ips_deduplicated(self, oracle):
        frac_ip, _, _, _ = oracle.abuse_features(
            np.array([IP_MAL, IP_MAL], dtype=np.uint32)
        )
        assert frac_ip == 1.0


class TestWindowing:
    def test_records_outside_window_ignored(self):
        db = PassiveDNSDatabase()
        db.observe_day(1, [MAL], [IP_MAL])  # far in the past
        oracle = AbuseOracle(db, end_day=100, window_days=10, malware_domain_ids=[MAL])
        frac_ip, _, _, _ = oracle.abuse_features(np.array([IP_MAL], dtype=np.uint32))
        assert frac_ip == 0.0

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            AbuseOracle(PassiveDNSDatabase(), end_day=5, window_days=0, malware_domain_ids=[])

    def test_point_queries(self, oracle):
        assert oracle.ip_was_malware_pointed(IP_MAL)
        assert not oracle.ip_was_malware_pointed(IP_BEN)
        assert oracle.prefix_was_malware_pointed(IP_MAL2)

    def test_counts_properties(self, oracle):
        assert oracle.n_malware_ips == 1
        assert oracle.n_malware_prefixes == 1


class TestHidingExclusion:
    """Fig. 5 semantics: a hidden malware domain's own history must not
    count as abuse evidence against itself."""

    def _dual_oracle(self):
        db = PassiveDNSDatabase()
        # MAL is the sole user of IP_MAL; MAL and a second malware domain
        # (id 9) share IP_MAL2's /24 via another address in the same block.
        shared = parse_ipv4("12.0.0.210")
        db.observe_day(10, [MAL, MAL, 9], [IP_MAL, IP_MAL2, shared])
        return AbuseOracle(
            db, end_day=20, window_days=30, malware_domain_ids=[MAL, 9]
        )

    def test_sole_owner_excluded(self):
        oracle = self._dual_oracle()
        with_self = oracle.abuse_features(np.array([IP_MAL], dtype=np.uint32))
        without_self = oracle.abuse_features(
            np.array([IP_MAL], dtype=np.uint32), exclude_domain=MAL
        )
        assert with_self[0] == 1.0
        assert without_self[0] == 0.0

    def test_shared_infrastructure_still_counts(self):
        oracle = self._dual_oracle()
        # IP_MAL2's /24 is also used by domain 9, so prefix evidence
        # survives the exclusion even though the exact IP was MAL's alone.
        features = oracle.abuse_features(
            np.array([IP_MAL2], dtype=np.uint32), exclude_domain=MAL
        )
        assert features[0] == 0.0  # exact IP solely MAL's
        assert features[1] == 1.0  # /24 shared with domain 9

    def test_exclusion_of_other_domain_is_noop(self):
        oracle = self._dual_oracle()
        features = oracle.abuse_features(
            np.array([IP_MAL], dtype=np.uint32), exclude_domain=12345
        )
        assert features[0] == 1.0


class TestValueOwners:
    """The packed-key pass against distinct (value, owner) rows taken
    literally."""

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_the_row_wise_reading(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 300))
        # few distinct values so that owners collide, top of uint32 included
        pool = np.array([0, 1, 7, 2**31, 2**32 - 2, 2**32 - 1], dtype=np.uint32)
        values = rng.choice(pool, size=n)
        owners = rng.integers(0, int(rng.integers(1, 6)), size=n)
        got_values, got_owner = _value_owners(values, owners)

        owners_of = {}
        for value, owner in zip(values.tolist(), owners.tolist()):
            owners_of.setdefault(value, set()).add(owner)
        assert got_values.tolist() == sorted(owners_of)
        assert got_values.dtype == np.uint32 and got_owner.dtype == np.int64
        assert got_owner.tolist() == [
            min(owners_of[v]) if len(owners_of[v]) == 1 else -1
            for v in sorted(owners_of)
        ]

    def test_empty(self):
        values, owner = _value_owners(
            np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.int64)
        )
        assert values.size == 0 and values.dtype == np.uint32
        assert owner.size == 0 and owner.dtype == np.int64


class TestInSorted:
    def test_membership(self):
        sorted_set = np.array([2, 5, 9], dtype=np.int64)
        values = np.array([1, 2, 5, 6, 9, 10], dtype=np.int64)
        assert _in_sorted(values, sorted_set).tolist() == [
            False, True, True, False, True, False,
        ]

    def test_empty_set(self):
        assert not _in_sorted(np.array([1, 2]), np.empty(0, dtype=np.int64)).any()


class TestBatchedFeatures:
    """abuse_features_many must equal the scalar path element-for-element,
    including Fig. 5 exclusion semantics and empty candidate sets."""

    def _batch_vs_scalar(self, oracle, ip_sets, exclude=None):
        batched = oracle.abuse_features_many(ip_sets, exclude_domains=exclude)
        for row, ips in enumerate(ip_sets):
            exclude_domain = None
            if exclude is not None and exclude[row] >= 0:
                exclude_domain = int(exclude[row])
            scalar = oracle.abuse_features(ips, exclude_domain=exclude_domain)
            assert batched[row].tolist() == list(scalar)
        return batched

    def test_matches_scalar_without_exclusion(self, oracle):
        ip_sets = [
            np.array([IP_MAL], dtype=np.uint32),
            np.array([IP_MAL2, IP_BEN], dtype=np.uint32),
            np.empty(0, dtype=np.uint32),
            np.array([IP_UNK, IP_BEN, IP_MAL], dtype=np.uint32),
            np.array([IP_MAL, IP_MAL], dtype=np.uint32),  # duplicates
        ]
        batched = self._batch_vs_scalar(oracle, ip_sets)
        assert batched.shape == (5, 4)

    def test_matches_scalar_with_exclusion(self):
        db = PassiveDNSDatabase()
        shared = parse_ipv4("12.0.0.210")
        db.observe_day(10, [MAL, MAL, 9], [IP_MAL, IP_MAL2, shared])
        oracle = AbuseOracle(
            db, end_day=20, window_days=30, malware_domain_ids=[MAL, 9]
        )
        ip_sets = [
            np.array([IP_MAL], dtype=np.uint32),   # exclude sole owner
            np.array([IP_MAL2], dtype=np.uint32),  # /24 shared with domain 9
            np.array([IP_MAL], dtype=np.uint32),   # no exclusion (-1)
            np.array([IP_MAL], dtype=np.uint32),   # exclude unrelated domain
        ]
        exclude = np.array([MAL, MAL, -1, 12345], dtype=np.int64)
        batched = self._batch_vs_scalar(oracle, ip_sets, exclude)
        assert batched[0, 0] == 0.0  # own evidence hidden
        assert batched[1, 1] == 1.0  # shared prefix evidence survives
        assert batched[2, 0] == 1.0  # -1 sentinel means no exclusion

    def test_empty_batch(self, oracle):
        result = oracle.abuse_features_many([])
        assert result.shape == (0, 4)

    def test_all_empty_ip_sets(self, oracle):
        result = oracle.abuse_features_many(
            [np.empty(0, dtype=np.uint32), np.empty(0, dtype=np.uint32)]
        )
        assert result.shape == (2, 4)
        assert not result.any()

    def test_exclude_shape_validated(self, oracle):
        with pytest.raises(ValueError):
            oracle.abuse_features_many(
                [np.array([IP_MAL], dtype=np.uint32)],
                exclude_domains=np.array([1, 2], dtype=np.int64),
            )
