"""Domain-name normalization and validation.

:func:`normalize_domain` defines the canonical form (lowercase, no trailing
dot, no surrounding whitespace) on which blacklist entries, whitelist
entries and e2LDs agree.  Who applies it:

* the ground-truth lists canonicalise every entry when it is added and
  every name they are asked about (:mod:`repro.intel`), and the public
  suffix list every name it parses;
* the trace and interner loaders do **not**: ``TraceReader`` and
  ``load_interner`` intern a queried name exactly as the feed wrote it, so
  a graph node's name may be non-canonical (``Evil.COM.``), and two
  spellings of one name are two nodes;
* :class:`repro.dns.e2ld.E2ldIndex`, the one reader of every interned
  name, canonicalises it for the PSL — all spellings share an e2LD id —
  and records the ids whose interned spelling is not canonical, which is
  how the id-space label pass (:mod:`repro.core.labeling`) still matches
  them against the blacklist.
"""

from __future__ import annotations

import re
from typing import List

_LABEL_RE = re.compile(r"^[a-z0-9_]([a-z0-9_-]{0,61}[a-z0-9_])?$")

MAX_DOMAIN_LENGTH = 253
MAX_LABEL_LENGTH = 63


def normalize_domain(domain: str) -> str:
    """Return the canonical form of *domain*.

    Lowercases and strips surrounding whitespace and a single trailing dot
    (the DNS root).  Raises ``ValueError`` for empty input.
    """
    if not isinstance(domain, str):
        raise TypeError(f"domain must be a string, got {type(domain).__name__}")
    cleaned = domain.strip().lower().rstrip(".")
    if not cleaned:
        raise ValueError(f"empty domain name: {domain!r}")
    return cleaned


def domain_labels(domain: str) -> List[str]:
    """Split a (normalized) domain into its dot-separated labels."""
    return domain.split(".")


def is_valid_domain(domain: str) -> bool:
    """Check RFC-style syntactic validity of a normalized domain name."""
    if not domain or len(domain) > MAX_DOMAIN_LENGTH:
        return False
    labels = domain.split(".")
    if any(len(label) > MAX_LABEL_LENGTH for label in labels):
        return False
    return all(_LABEL_RE.match(label) for label in labels)


def parent_domains(domain: str) -> List[str]:
    """All proper parents, shortest last: ``a.b.c`` -> ``['b.c', 'c']``."""
    labels = domain_labels(domain)
    return [".".join(labels[i:]) for i in range(1, len(labels))]


def subdomain_of(domain: str, ancestor: str) -> bool:
    """True if *domain* equals *ancestor* or lies underneath it."""
    return domain == ancestor or domain.endswith("." + ancestor)
