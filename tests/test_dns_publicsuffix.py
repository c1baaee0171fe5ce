"""Tests for the public-suffix list and e2LD computation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dns.publicsuffix import PublicSuffixList


@pytest.fixture()
def psl():
    return PublicSuffixList()


class TestPublicSuffix:
    @pytest.mark.parametrize(
        "domain,suffix",
        [
            ("www.example.com", "com"),
            ("example.com", "com"),
            ("www.bbc.co.uk", "co.uk"),
            ("bbc.co.uk", "co.uk"),
            ("a.b.example.com.br", "com.br"),
            ("example.dk", "dk"),
        ],
    )
    def test_standard_rules(self, psl, domain, suffix):
        assert psl.public_suffix(domain) == suffix

    def test_unknown_tld_defaults_to_last_label(self, psl):
        assert psl.public_suffix("foo.bar.unknowntld") == "unknowntld"

    def test_wildcard_rule(self, psl):
        # *.ck: anything.ck is itself a public suffix.
        assert psl.public_suffix("foo.whatever.ck") == "whatever.ck"

    def test_wildcard_exception(self, psl):
        # !www.ck beats *.ck: www.ck is NOT a public suffix.
        assert psl.public_suffix("www.ck") == "ck"
        assert psl.e2ld("www.ck") == "www.ck"

    def test_is_public_suffix(self, psl):
        assert psl.is_public_suffix("co.uk")
        assert not psl.is_public_suffix("bbc.co.uk")


class TestE2ld:
    @pytest.mark.parametrize(
        "domain,e2ld",
        [
            ("www.bbc.co.uk", "bbc.co.uk"),
            ("bbc.co.uk", "bbc.co.uk"),
            ("a.b.c.example.com", "example.com"),
            ("example.com", "example.com"),
        ],
    )
    def test_e2ld(self, psl, domain, e2ld):
        assert psl.e2ld(domain) == e2ld

    def test_e2ld_of_suffix_is_none(self, psl):
        assert psl.e2ld("co.uk") is None
        assert psl.e2ld("com") is None

    def test_e2ld_or_self(self, psl):
        assert psl.e2ld_or_self("com") == "com"
        assert psl.e2ld_or_self("x.example.com") == "example.com"

    def test_case_insensitive(self, psl):
        assert psl.e2ld("WWW.BBC.CO.UK") == "bbc.co.uk"


class TestAugmentation:
    def test_private_suffix_splits_subdomains(self, psl):
        # Before augmentation: one registrant.
        assert psl.e2ld("alice.dyndns.example.com") == "example.com"
        psl.add_private_suffixes(["dyndns.example.com"])
        # After: each customer is its own registrant (paper footnote 2).
        assert psl.e2ld("alice.dyndns.example.com") == "alice.dyndns.example.com"
        assert psl.e2ld("deep.alice.dyndns.example.com") == "alice.dyndns.example.com"

    def test_add_rule_forms(self):
        psl = PublicSuffixList(rules=["com", "*.magic", "!keep.magic"])
        assert psl.public_suffix("x.y.magic") == "y.magic"
        assert psl.public_suffix("keep.magic") == "magic"

    def test_comment_and_blank_lines_ignored(self):
        psl = PublicSuffixList(rules=["// comment", "", "com"])
        assert len(psl) == 1


@given(
    st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6),
        min_size=1,
        max_size=4,
    )
)
def test_property_suffix_is_suffix(labels):
    """The public suffix is always a dot-suffix of the domain."""
    psl = PublicSuffixList()
    domain = ".".join(labels) + ".com"
    suffix = psl.public_suffix(domain)
    assert domain == suffix or domain.endswith("." + suffix)


@given(
    st.lists(
        st.text(alphabet="abcdefghijklmnopqrstuvwxyz", min_size=1, max_size=6),
        min_size=2,
        max_size=4,
    )
)
def test_property_e2ld_one_label_longer(labels):
    """The e2LD extends the public suffix by exactly one label."""
    psl = PublicSuffixList()
    domain = ".".join(labels) + ".co.uk"
    suffix = psl.public_suffix(domain)
    e2ld = psl.e2ld(domain)
    assert e2ld is not None
    assert e2ld.endswith("." + suffix)
    assert len(e2ld.split(".")) == len(suffix.split(".")) + 1


# ---------------------------------------------------------------------- #
# the matcher against publicsuffix.org's algorithm read rule by rule
# ---------------------------------------------------------------------- #


def reference_public_suffix(rules, domain):
    """Every suffix of *domain* tried against *rules* (``{suffix: kind}``),
    longest first: the longest normal/wildcard match wins, an exception
    rule overrides it, no match means the top label."""
    labels = domain.split(".")
    n = len(labels)
    best_len = 0
    exception_len = None
    for i in range(n):
        kind = rules.get(".".join(labels[i:]))
        if kind is None:
            continue
        if kind == "exception":
            exception_len = n - i - 1
        elif kind == "wildcard" and i > 0:
            best_len = max(best_len, n - i + 1)
        else:
            best_len = max(best_len, n - i)
    if exception_len is not None:
        best_len = exception_len
    return ".".join(labels[n - min(max(best_len, 1), n):])


_LABELS = st.sampled_from(["a", "b", "www", "ck", "co", "uk", "com", "x"])
_NAMES = st.lists(_LABELS, min_size=1, max_size=6).map(".".join)
_RULES = st.lists(
    st.tuples(
        st.sampled_from(["", "*.", "!"]),
        st.lists(_LABELS, min_size=1, max_size=4).map(".".join),
    ),
    max_size=6,
)


@settings(max_examples=400, deadline=None)
@given(_NAMES, _RULES, st.sampled_from([str, str.upper, "{}.".format, " {}".format]))
def test_matcher_equals_the_rule_by_rule_reading(name, extra_rules, spell):
    psl = PublicSuffixList()
    for marker, suffix in extra_rules:  # rules longer than any built in
        psl.add_rule(marker + suffix)
    suffix = reference_public_suffix(psl._rules, name)
    is_suffix = suffix == name
    registered = ".".join(name.split(".")[-(suffix.count(".") + 2):])
    written = spell(name)
    assert psl.public_suffix(written) == suffix
    assert psl.is_public_suffix(written) == is_suffix
    assert psl.e2ld(written) == (None if is_suffix else registered)
    assert psl.e2ld_or_self(written) == (name if is_suffix else registered)
