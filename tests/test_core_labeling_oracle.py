"""Differential tests: id-space domain labeling against the per-name loop.

``oracle_label_domain_ids`` below is the label pass as it stood before it
moved to id space: walk every present FQDN, normalise it, ask the
blacklist for the whole string and the whitelist (through *its* public
suffix list) for the e2LD.  Production resolves the two lists to ids
instead and never parses a name of the day; Hypothesis generates tiny
worlds built from the spellings and PSL rules where the two readings could
part — mixed-case, trailing-dot and padded interned names, public suffixes
queried as names, wildcard and exception rules, private suffixes, a
blacklisted FQDN under a whitelisted e2LD, feed dates around ``as_of_day``,
absent ids, an index that grows between two days — and the labels must be
array-equal.  Both day-preparation paths are then held to the oracle on
one world with non-canonical names.
"""

import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.labeling import BENIGN, MALWARE, UNKNOWN, label_domain_ids
from repro.core.pipeline import ObservationContext, Segugio, SegugioConfig
from repro.datasets.edgestore import ShardedDayTrace
from repro.dns.activity import ActivityIndex
from repro.dns.e2ld import E2ldIndex
from repro.dns.publicsuffix import PublicSuffixList
from repro.dns.trace import DayTrace
from repro.intel.blacklist import CncBlacklist
from repro.intel.whitelist import DomainWhitelist
from repro.pdns.database import PassiveDNSDatabase
from repro.utils.ids import Interner

AS_OF_DAY = 10

# ---------------------------------------------------------------------- #
# the per-name reading
# ---------------------------------------------------------------------- #


def oracle_label_domain_ids(
    domain_ids, domains, n_domain_ids, blacklist, whitelist, as_of_day
):
    labels = np.zeros(n_domain_ids, dtype=np.int8)
    for domain_id in domain_ids:
        name = domains.name(int(domain_id))
        if blacklist.contains(name, as_of_day=as_of_day):
            labels[domain_id] = MALWARE
        elif whitelist.is_whitelisted(name):
            labels[domain_id] = BENIGN
    return labels


# ---------------------------------------------------------------------- #
# generated worlds
# ---------------------------------------------------------------------- #

#: canonical names over every kind of rule in the embedded PSL snapshot:
#: plain and multi-label suffixes, the suffixes themselves, ``*.ck`` with
#: its ``!www.ck`` exception, and two zones that may become private suffixes
CANONICAL_NAMES = (
    "good.com", "www.good.com", "cdn.img.good.com", "evil.com", "cc.evil.com",
    "bbc.co.uk", "www.bbc.co.uk", "co.uk", "uk", "com",
    "ck", "a.ck", "b.a.ck", "c.b.a.ck", "www.ck", "x.www.ck",
    "freehost.com", "alice.freehost.com", "www.alice.freehost.com",
    "dyn.co.uk", "bob.dyn.co.uk", "odd.xyz", "xyz", "localhost",
)
PRIVATE_SUFFIXES = ("freehost.com", "dyn.co.uk")
SPELLINGS = (
    str,
    str.upper,
    str.title,
    "{}.".format,
    " {} ".format,
    "\t{}.\n".format,
    lambda name: name.swapcase() + ".",
)

spelled_names = st.builds(
    lambda name, spell: spell(name),
    st.sampled_from(CANONICAL_NAMES),
    st.sampled_from(SPELLINGS),
)


@st.composite
def worlds(draw):
    names = draw(st.lists(spelled_names, min_size=1, max_size=24, unique=True))
    n_first_day = draw(st.integers(0, len(names)))
    private = draw(st.lists(st.sampled_from(PRIVATE_SUFFIXES), unique=True))
    # list entries are drawn from the same pool, so most runs hold a
    # blacklisted FQDN under a whitelisted e2LD; both lists may be empty
    whitelisted = draw(st.lists(st.sampled_from(CANONICAL_NAMES), max_size=6))
    blacklisted = draw(
        st.lists(
            st.tuples(
                spelled_names,
                st.sampled_from([AS_OF_DAY - 1, AS_OF_DAY, AS_OF_DAY + 1]),
            ),
            max_size=8,
        )
    )
    present = [draw(st.booleans()) for _ in names]
    return names, n_first_day, private, whitelisted, blacklisted, present


@settings(max_examples=300, deadline=None)
@given(worlds())
def test_labels_equal_the_per_name_loop(world):
    names, n_first_day, private, whitelisted, blacklisted, present = world
    psl = PublicSuffixList()
    psl.add_private_suffixes(private)  # before the index reads a name
    whitelist = DomainWhitelist(whitelisted, psl=psl)
    blacklist = CncBlacklist()
    for name, added_day in blacklisted:
        blacklist.add(name, added_day)
    domains = Interner()
    e2ld_index = E2ldIndex(domains, psl)

    # day N, then day N+1 on the shared interner: the index grows between
    for n_interned in (n_first_day, len(names)):
        for name in names[len(domains):n_interned]:
            domains.intern(name)
        ids = np.flatnonzero(present[:n_interned])
        got = label_domain_ids(
            ids, domains, n_interned, blacklist, whitelist, e2ld_index, AS_OF_DAY
        )
        expected = oracle_label_domain_ids(
            ids, domains, n_interned, blacklist, whitelist, AS_OF_DAY
        )
        np.testing.assert_array_equal(got, expected)
        assert got.dtype == expected.dtype
        absent = np.setdiff1d(np.arange(n_interned), ids)
        assert (got[absent] == UNKNOWN).all()


# ---------------------------------------------------------------------- #
# explicit cases
# ---------------------------------------------------------------------- #


def _label_all(names, blacklist, whitelist, e2ld_index_psl=None):
    domains = Interner(names)
    e2ld_index = E2ldIndex(domains, e2ld_index_psl)
    ids = np.arange(len(domains))
    got = label_domain_ids(
        ids, domains, len(domains), blacklist, whitelist, e2ld_index, AS_OF_DAY
    )
    expected = oracle_label_domain_ids(
        ids, domains, len(domains), blacklist, whitelist, AS_OF_DAY
    )
    return got, expected


def test_noncanonical_spellings_are_matched_like_the_loop_matched_them():
    blacklist = CncBlacklist()
    blacklist.add("evil.com", AS_OF_DAY)
    names = ["Evil.COM.", "evil.com", " EVIL.com", "WWW.Good.Com.", "evil.com.x"]
    got, expected = _label_all(names, blacklist, DomainWhitelist(["good.com"]))
    assert got.tolist() == [MALWARE, MALWARE, MALWARE, BENIGN, UNKNOWN]
    np.testing.assert_array_equal(got, expected)


def test_blacklist_entry_dated_after_the_day_is_not_yet_known():
    blacklist = CncBlacklist()
    blacklist.add("cc.good.com", AS_OF_DAY + 1)
    blacklist.add("CC2.good.com", AS_OF_DAY)
    names = ["cc.good.com", "cc2.good.com", "Cc2.Good.Com"]
    got, expected = _label_all(names, blacklist, DomainWhitelist(["good.com"]))
    # the later entry falls back to its whitelisted e2LD
    assert got.tolist() == [BENIGN, MALWARE, MALWARE]
    np.testing.assert_array_equal(got, expected)


def test_ids_interned_after_the_graph_was_sized_are_ignored():
    """A blacklisted name whose id lies beyond *n_domain_ids* (interned by
    a later day on the shared interner) labels nothing."""
    domains = Interner(["a.com", "evil.com"])
    e2ld_index = E2ldIndex(domains)
    blacklist = CncBlacklist()
    blacklist.add("evil.com", 0)
    labels = label_domain_ids(
        np.array([0]), domains, 1, blacklist, DomainWhitelist([]), e2ld_index, 5
    )
    assert labels.tolist() == [UNKNOWN]


def test_the_contexts_index_decides_the_e2ld():
    """The one place the id-space pass and the per-name loop differ, by
    definition: a whitelist built on another PSL than the context's index.

    Under the index's PSL ``freehost.com`` is a private suffix, so
    ``alice.freehost.com`` is its own e2LD — the registrant R4 and F2 see —
    and the whitelisted ``freehost.com`` does not cover it, although the
    whitelist's own (unaugmented) PSL says it does.
    """
    index_psl = PublicSuffixList()
    index_psl.add_private_suffixes(["freehost.com"])
    whitelist = DomainWhitelist(["freehost.com"])  # default PSL
    assert whitelist.is_whitelisted("alice.freehost.com")
    got, per_name = _label_all(
        ["alice.freehost.com", "freehost.com"],
        CncBlacklist(),
        whitelist,
        e2ld_index_psl=index_psl,
    )
    assert per_name.tolist() == [BENIGN, BENIGN]
    assert got.tolist() == [UNKNOWN, BENIGN]


def test_both_day_paths_label_noncanonical_names_like_the_loop():
    """`prepare_day` in memory and over a 2-shard store, on a day whose
    interner holds names as a feed wrote them."""
    machines, domains = Interner(), Interner()
    edges = [
        ("m1", "Evil.COM."),
        ("m1", "www.good.com"),
        ("m2", "evil.com"),
        ("m2", "WWW.GOOD.COM"),
        ("m2", "odd.xyz"),
        ("m3", "cdn.Good.com."),
        ("m3", "odd.xyz"),
    ]
    trace = DayTrace.build(
        AS_OF_DAY,
        machines,
        domains,
        [machines.intern(m) for m, _ in edges],
        [domains.intern(d) for _, d in edges],
    )
    blacklist = CncBlacklist()
    blacklist.add("evil.com", AS_OF_DAY - 3)
    whitelist = DomainWhitelist(["good.com"])
    context = ObservationContext(
        day=AS_OF_DAY,
        trace=trace,
        fqd_activity=ActivityIndex(),
        e2ld_activity=ActivityIndex(),
        e2ld_index=E2ldIndex(domains),
        pdns=PassiveDNSDatabase(),
        blacklist=blacklist,
        whitelist=whitelist,
    )
    expected = oracle_label_domain_ids(
        range(len(domains)), domains, len(domains), blacklist, whitelist, AS_OF_DAY
    )
    assert sorted(expected.tolist()) == [UNKNOWN] + [BENIGN] * 3 + [MALWARE] * 2
    model = Segugio(SegugioConfig())
    in_memory = model.prepare_day(context)
    np.testing.assert_array_equal(in_memory.labels.domain_labels, expected)
    with tempfile.TemporaryDirectory() as directory:
        context.trace = ShardedDayTrace.from_day_trace(
            trace, directory, n_shards=2, batch_size=4
        )
        sharded = model.prepare_day(context)
    np.testing.assert_array_equal(sharded.labels.domain_labels, expected)
