"""Public-suffix list matching and effective second-level domains.

The paper computes each domain's *effective second-level domain* (e2LD) with
the Mozilla Public Suffix List, "augmented with a large custom list of DNS
zones owned by dynamic DNS providers" (§II-A, footnote 2).  This module
implements the standard PSL matching algorithm (longest-rule wins, ``*.``
wildcard rules, ``!`` exception rules) over an embedded representative
snapshot, and supports augmenting the rule set at run time — which is how the
dynamic-DNS zones are added.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.dns.names import domain_labels, normalize_domain

# A representative snapshot of the Mozilla PSL.  The full list has thousands
# of entries; this subset covers the TLD structure used by the synthetic
# domain universe plus the classic tricky cases (multi-label suffixes,
# wildcards, exceptions) so that the matching algorithm is fully exercised.
_DEFAULT_RULES = """
com
net
org
edu
gov
mil
int
info
biz
name
io
co
me
tv
cc
us
uk
co.uk
org.uk
ac.uk
gov.uk
net.uk
de
fr
it
nl
es
pl
ru
com.ru
net.ru
org.ru
cn
com.cn
net.cn
org.cn
jp
co.jp
ne.jp
or.jp
ac.jp
br
com.br
net.br
org.br
gov.br
kr
co.kr
or.kr
in
co.in
net.in
org.in
au
com.au
net.au
org.au
ca
mx
com.mx
ch
se
no
fi
dk
be
at
cz
gr
hu
pt
ro
tr
com.tr
ua
com.ua
za
co.za
// wildcard + exception rules (as in the real PSL)
*.ck
!www.ck
*.bd
*.er
"""


class PublicSuffixList:
    """PSL matcher with support for run-time augmentation.

    Matching follows publicsuffix.org's algorithm: among all rules matching a
    domain, the longest (most labels) wins; exception rules beat wildcard
    rules; if no rule matches, the top label is the public suffix.
    """

    def __init__(self, rules: Optional[Iterable[str]] = None) -> None:
        # rule (without markers) -> kind: "normal" | "wildcard" | "exception"
        self._rules: Dict[str, str] = {}
        # labels in the longest rule: no longer suffix of a name can match
        self._max_rule_labels = 0
        lines = rules if rules is not None else _DEFAULT_RULES.splitlines()
        for line in lines:
            line = line.strip()
            if not line or line.startswith("//"):
                continue
            self.add_rule(line)

    def add_rule(self, rule: str) -> None:
        """Add one PSL rule (``suffix``, ``*.suffix``, or ``!exception``)."""
        rule = rule.strip().lower()
        if rule.startswith("!"):
            rule, kind = rule[1:], "exception"
        elif rule.startswith("*."):
            rule, kind = rule[2:], "wildcard"
        else:
            kind = "normal"
        self._rules[rule] = kind
        self._max_rule_labels = max(self._max_rule_labels, rule.count(".") + 1)

    def add_private_suffixes(self, suffixes: Iterable[str]) -> None:
        """Augment the list, e.g. with dynamic-DNS provider zones.

        After ``psl.add_private_suffixes(["dyndns.com"])``, the e2LD of
        ``evil.dyndns.com`` is ``evil.dyndns.com`` itself, so each customer
        of the provider is tracked as a separate registrant — exactly the
        augmentation the paper applies.
        """
        for suffix in suffixes:
            self.add_rule(normalize_domain(suffix))

    def is_public_suffix(self, domain: str) -> bool:
        """True if *domain* itself is a public suffix."""
        labels = domain_labels(normalize_domain(domain))
        return self._suffix_length(labels) == len(labels)

    def _suffix_length(self, labels: List[str]) -> int:
        """How many trailing *labels* of a normalized name form its public
        suffix — the one copy of the matching algorithm."""
        n = len(labels)
        rules = self._rules
        best_len = 0  # number of labels in the winning rule's suffix
        exception_len: Optional[int] = None
        candidate = labels[-1]
        # Suffixes from the top label down, so the longest match is the
        # last one seen and each candidate extends the previous string.
        for suffix_labels in range(1, min(n, self._max_rule_labels) + 1):
            if suffix_labels > 1:
                candidate = f"{labels[n - suffix_labels]}.{candidate}"
            kind = rules.get(candidate)
            if kind is None:
                continue
            if kind == "exception":
                # Exception rule: the public suffix is one label shorter.
                # (Of several matching exceptions the shortest decides.)
                if exception_len is None:
                    exception_len = suffix_labels - 1
            elif kind == "wildcard" and suffix_labels < n:
                # "*.foo" matches "<anything>.foo": suffix is one label
                # longer — unless the domain *is* "foo", which the wildcard
                # does not extend.
                best_len = suffix_labels + 1
            else:
                best_len = suffix_labels
        if exception_len is not None:
            best_len = exception_len
        if best_len == 0:
            best_len = 1  # default rule: "*"
        return min(best_len, n)

    def public_suffix(self, domain: str) -> str:
        """Return the public suffix of *domain* per the PSL algorithm."""
        labels = domain_labels(normalize_domain(domain))
        return ".".join(labels[len(labels) - self._suffix_length(labels):])

    def e2ld(self, domain: str) -> Optional[str]:
        """Effective 2LD (a.k.a. registered domain): suffix plus one label.

        Returns ``None`` when *domain* is itself a public suffix (it has no
        registrant-level name).
        """
        labels = domain_labels(normalize_domain(domain))
        suffix_length = self._suffix_length(labels)
        if suffix_length == len(labels):
            return None
        return ".".join(labels[-(suffix_length + 1):])

    def e2ld_or_self(self, domain: str) -> str:
        """Like :meth:`e2ld` but falls back to the domain itself."""
        domain = normalize_domain(domain)
        labels = domain_labels(domain)
        suffix_length = self._suffix_length(labels)
        if suffix_length == len(labels):
            return domain
        return ".".join(labels[-(suffix_length + 1):])

    def __len__(self) -> int:
        return len(self._rules)

    def __repr__(self) -> str:
        return f"PublicSuffixList(rules={len(self._rules)})"


def default_psl() -> PublicSuffixList:
    """A fresh PSL with the embedded snapshot (no private augmentation)."""
    return PublicSuffixList()
