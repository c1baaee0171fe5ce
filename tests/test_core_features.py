"""Tests for the 11-feature extractor, including hiding semantics (Fig. 5)."""

import numpy as np
import pytest

from repro.core.features import (
    FEATURE_GROUPS,
    FEATURE_NAMES,
    N_FEATURES,
    FeatureExtractor,
)
from repro.core.graph import BehaviorGraph
from repro.core.labeling import MALWARE, label_graph
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.records import parse_ipv4
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.pdns.abuse import AbuseOracle
from repro.pdns.database import PassiveDNSDatabase
from repro.utils.ids import Interner

DAY = 20
ABUSED_IP = parse_ipv4("12.0.0.5")
CLEAN_IP = parse_ipv4("10.0.0.5")


def build_extractor():
    """A Fig. 5-style world.

    Machines:
      bot1: cc.old.com (known C&C), target.evil.net (candidate)
      bot2: cc.old.com, cc.other.com, target.evil.net
      user: www.good.com, target.evil.net  <- one clean querier of the target
      clean: www.good.com
    """
    machines, domains = Interner(), Interner()
    edges = [
        ("bot1", "cc.old.com"),
        ("bot1", "target.evil.net"),
        ("bot2", "cc.old.com"),
        ("bot2", "cc.other.com"),
        ("bot2", "target.evil.net"),
        ("user", "www.good.com"),
        ("user", "target.evil.net"),
        ("clean", "www.good.com"),
    ]
    em = [machines.intern(m) for m, _ in edges]
    ed = [domains.intern(d) for _, d in edges]
    resolutions = {
        domains.lookup("target.evil.net"): np.array(
            [ABUSED_IP, CLEAN_IP], dtype=np.uint32
        ),
        domains.lookup("www.good.com"): np.array([CLEAN_IP], dtype=np.uint32),
    }
    graph = BehaviorGraph.from_trace(
        DayTrace.build(DAY, machines, domains, em, ed, resolutions)
    )

    blacklist = CncBlacklist()
    blacklist.add("cc.old.com", 0)
    blacklist.add("cc.other.com", 0)
    whitelist = DomainWhitelist(["good.com"])
    e2ld_index = E2ldIndex(domains)
    labels = label_graph(graph, blacklist, whitelist, e2ld_index)

    fqd_activity = ActivityIndex()
    e2ld_activity = ActivityIndex()
    e2ld_map = e2ld_index.map_array()
    target = domains.lookup("target.evil.net")
    good = domains.lookup("www.good.com")
    # target active the last 2 days; good active for the whole window.
    for day in (DAY - 1, DAY):
        fqd_activity.record(day, [target])
        e2ld_activity.record(day, [e2ld_map[target]])
    for day in range(DAY - 13, DAY + 1):
        fqd_activity.record(day, [good])
        e2ld_activity.record(day, [e2ld_map[good]])

    pdns = PassiveDNSDatabase()
    # Historic resolution: cc.old.com sat on the abused IP last month.
    pdns.observe_day(DAY - 10, [domains.lookup("cc.old.com")], [ABUSED_IP])
    oracle = AbuseOracle(
        pdns,
        end_day=DAY - 1,
        window_days=150,
        malware_domain_ids=[domains.lookup("cc.old.com"), domains.lookup("cc.other.com")],
        benign_domain_ids=[good],
    )
    extractor = FeatureExtractor(
        graph, labels, fqd_activity, e2ld_activity, e2ld_index, oracle
    )
    return extractor, graph, domains, machines


class TestMachineBehavior:
    def test_unknown_candidate_f1(self):
        extractor, graph, domains, _ = build_extractor()
        target = domains.lookup("target.evil.net")
        row = extractor.features_for(target)
        # S = {bot1, bot2, user}; I = {bot1, bot2}; U = {user}.
        assert row[0] == pytest.approx(2 / 3)  # frac infected
        assert row[1] == pytest.approx(1 / 3)  # frac unknown
        assert row[2] == 3  # total machines

    def test_hidden_malware_discounts_itself(self):
        """Hiding a known C&C domain: a machine that queried ONLY it is no
        longer counted as infected (paper Fig. 5, machine M1)."""
        extractor, graph, domains, machines = build_extractor()
        cc_other = domains.lookup("cc.other.com")
        row = extractor.features_for(cc_other, hide_labels=True)
        # Only bot2 queries cc.other.com; bot2 also queries cc.old.com, so
        # it stays infected even with cc.other.com hidden.
        assert row[0] == 1.0
        assert row[1] == 0.0
        assert row[2] == 1

    def test_hidden_malware_sole_evidence(self):
        extractor, graph, domains, machines = build_extractor()
        cc_old = domains.lookup("cc.old.com")
        row = extractor.features_for(cc_old, hide_labels=True)
        # bot1's only OTHER malware domain is none -> becomes unknown;
        # bot2 still queries cc.other.com -> stays infected.
        assert row[0] == pytest.approx(1 / 2)
        assert row[1] == pytest.approx(1 / 2)

    def test_hidden_benign_keeps_infection_counts(self):
        extractor, graph, domains, machines = build_extractor()
        good = domains.lookup("www.good.com")
        row = extractor.features_for(good, hide_labels=True)
        # S = {user, clean}: neither queries malware -> I empty, all unknown.
        assert row[0] == 0.0
        assert row[1] == 1.0
        assert row[2] == 2

    def test_classify_matches_paper_invariant(self):
        """For a genuinely unknown domain, m + u == 1 (no benign querier can
        exist: querying an unknown domain disqualifies a machine from being
        benign)."""
        extractor, graph, domains, _ = build_extractor()
        target = domains.lookup("target.evil.net")
        row = extractor.features_for(target)
        assert row[0] + row[1] == pytest.approx(1.0)


class TestDomainActivity:
    def test_fresh_candidate(self):
        extractor, _, domains, _ = build_extractor()
        row = extractor.features_for(domains.lookup("target.evil.net"))
        assert row[3] == 2  # fqd days active
        assert row[4] == 2  # fqd consecutive
        assert row[5] == 2  # e2ld days active
        assert row[6] == 2

    def test_longstanding_domain(self):
        extractor, _, domains, _ = build_extractor()
        row = extractor.features_for(domains.lookup("www.good.com"), hide_labels=True)
        assert row[3] == 14
        assert row[4] == 14

    def test_never_active_domain(self):
        extractor, _, domains, _ = build_extractor()
        row = extractor.features_for(domains.lookup("cc.old.com"), hide_labels=True)
        assert row[3] == 0
        assert row[4] == 0


class TestIpAbuse:
    def test_candidate_on_abused_ip(self):
        extractor, _, domains, _ = build_extractor()
        row = extractor.features_for(domains.lookup("target.evil.net"))
        assert row[7] == pytest.approx(0.5)  # 1 of 2 IPs abused
        assert row[8] == pytest.approx(0.5)  # 1 of 2 /24s abused

    def test_domain_without_resolutions(self):
        extractor, _, domains, _ = build_extractor()
        row = extractor.features_for(domains.lookup("cc.old.com"), hide_labels=True)
        assert (row[7:11] == 0).all()


class TestMatrixApi:
    def test_shape_and_order(self):
        extractor, graph, domains, _ = build_extractor()
        ids = [domains.lookup("target.evil.net"), domains.lookup("www.good.com")]
        X = extractor.feature_matrix(ids)
        assert X.shape == (2, N_FEATURES)
        single = extractor.features_for(ids[0])
        assert (X[0] == single).all()

    def test_empty_input(self):
        extractor, _, _, _ = build_extractor()
        assert extractor.feature_matrix([]).shape == (0, N_FEATURES)

    def test_feature_names_consistent(self):
        assert len(FEATURE_NAMES) == N_FEATURES
        all_group_columns = sorted(
            i for cols in FEATURE_GROUPS.values() for i in cols
        )
        assert all_group_columns == list(range(N_FEATURES))

    def test_columns_without_group(self):
        cols = FeatureExtractor.columns_without_group("machine")
        assert 0 not in cols and 1 not in cols and 2 not in cols
        assert len(cols) == N_FEATURES - 3
        assert FeatureExtractor.columns_without_group(None) == list(range(N_FEATURES))
        with pytest.raises(KeyError):
            FeatureExtractor.columns_without_group("bogus")

    def test_invalid_window_rejected(self):
        extractor, graph, domains, _ = build_extractor()
        with pytest.raises(ValueError):
            FeatureExtractor(
                extractor.graph,
                extractor.labels,
                extractor.fqd_activity,
                extractor.e2ld_activity,
                extractor.e2ld_index,
                extractor.abuse_oracle,
                activity_window=0,
            )


# ---------------------------------------------------------------------- #
# differential oracle: the per-row F2/F3 loops the bulk kernels replaced
# (tests/test_parallel_equivalence.py runs them over whole synthetic days)
# ---------------------------------------------------------------------- #


def domain_activity_reference(self, ids: np.ndarray, out: np.ndarray) -> None:
    """Per-row loop the bulk path must match bit-for-bit."""
    day = self.graph.day
    window = self.activity_window
    fqd, e2ld_act = self.fqd_activity, self.e2ld_activity
    e2ld_map = self.e2ld_index.map_array()
    for row, domain_id in enumerate(ids):
        did = int(domain_id)
        eid = int(e2ld_map[did])
        out[row, 0] = fqd.days_active(did, day, window)
        out[row, 1] = fqd.consecutive_days(did, day, window)
        out[row, 2] = e2ld_act.days_active(eid, day, window)
        out[row, 3] = e2ld_act.consecutive_days(eid, day, window)


def ip_abuse_reference(
    self, ids: np.ndarray, hide_labels: bool, out: np.ndarray
) -> None:
    """Per-row loop the bulk path must match bit-for-bit."""
    graph, oracle, labels = self.graph, self.abuse_oracle, self.labels
    for row, domain_id in enumerate(ids):
        did = int(domain_id)
        ips = graph.resolved_ips(did)
        exclude = (
            did
            if hide_labels and labels.domain_labels[did] == MALWARE
            else None
        )
        out[row, :] = oracle.abuse_features(ips, exclude_domain=exclude)


class TestBulkKernelsMatchPerRowLoops:
    """F2/F3 bulk kernels against the loops above on the hand-built world
    (every domain, known and unknown) and at the empty edge."""

    @pytest.mark.parametrize("n_ids", [None, 0])
    def test_f2_activity(self, n_ids):
        extractor, _, domains, _ = build_extractor()
        ids = np.arange(len(domains), dtype=np.int64)[:n_ids]
        bulk = np.zeros((ids.size, 4))
        loop = np.zeros((ids.size, 4))
        extractor._domain_activity(ids, bulk)
        domain_activity_reference(extractor, ids, loop)
        np.testing.assert_array_equal(bulk, loop)
        assert bulk.any() == bool(ids.size)  # not vacuous

    @pytest.mark.parametrize("n_ids", [None, 0])
    @pytest.mark.parametrize("hide_labels", [False, True])
    def test_f3_ip_abuse(self, hide_labels, n_ids):
        extractor, _, domains, _ = build_extractor()
        ids = np.arange(len(domains), dtype=np.int64)[:n_ids]
        bulk = np.zeros((ids.size, 4))
        loop = np.zeros((ids.size, 4))
        extractor._ip_abuse(ids, hide_labels, bulk)
        ip_abuse_reference(extractor, ids, hide_labels, loop)
        np.testing.assert_array_equal(bulk, loop)
        assert bulk.any() == bool(ids.size)

    def test_hiding_reaches_the_f3_evidence_base(self, train_context):
        """The Fig. 5 exclusion is really taken: over a day's known C&C
        domains, hidden and unhidden F3 differ in some row — in the loop,
        and identically in the bulk kernel."""
        from repro.core.pipeline import Segugio

        prepared = Segugio().prepare_day(train_context)
        extractor, ids = prepared.extractor, prepared.graph.domain_ids()
        hidden = np.zeros((ids.size, 4))
        plain = np.zeros((ids.size, 4))
        bulk = np.zeros((ids.size, 4))
        ip_abuse_reference(extractor, ids, True, hidden)
        ip_abuse_reference(extractor, ids, False, plain)
        extractor._ip_abuse(ids, True, bulk)
        assert not np.array_equal(hidden, plain)
        np.testing.assert_array_equal(bulk, hidden)
