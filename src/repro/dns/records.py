"""DNS record primitives: IPv4 helpers and A-record responses.

IPs are carried as unsigned 32-bit integers throughout the library; the
string forms exist only at the presentation boundary.  The /24 prefix of an
IP — used heavily by the F3 "IP abuse" features and by the Notos baseline —
is simply the integer shifted right by 8 bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Union

import numpy as np

IntArray = np.ndarray


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer.

    Each octet is one to three ASCII digits — ``int()`` alone would also
    take signs, underscores, inner whitespace and non-ASCII digits.
    """
    parts = text.strip().split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not (0 < len(part) <= 3 and part.isascii() and part.isdigit()):
            raise ValueError(f"invalid IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def format_ipv4(ip: int) -> str:
    """Format a 32-bit integer as dotted-quad notation."""
    if not 0 <= ip <= 0xFFFFFFFF:
        raise ValueError(f"IPv4 integer out of range: {ip}")
    return ".".join(str((ip >> shift) & 0xFF) for shift in (24, 16, 8, 0))


def prefix24(ip: Union[int, IntArray]) -> Union[int, IntArray]:
    """The /24 network prefix of an IP (scalar or array), as ``ip >> 8``."""
    if isinstance(ip, np.ndarray):
        return ip >> np.uint32(8)
    return int(ip) >> 8


def prefix16(ip: Union[int, IntArray]) -> Union[int, IntArray]:
    """The /16 network prefix of an IP (scalar or array), as ``ip >> 16``."""
    if isinstance(ip, np.ndarray):
        return ip >> np.uint32(16)
    return int(ip) >> 16


@dataclass(frozen=True)
class AResponse:
    """One authoritative A-record response observed on the wire.

    Attributes:
        day: Observation day (absolute simulation day ordinal).
        machine: Identifier of the querying machine.
        domain: The queried fully-qualified domain name.
        ips: The valid IPv4 addresses the domain resolved to, as integers.
    """

    day: int
    machine: str
    domain: str
    ips: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.ips:
            raise ValueError("an A response must carry at least one IP")
        for ip in self.ips:
            if not 0 <= ip <= 0xFFFFFFFF:
                raise ValueError(f"IPv4 integer out of range: {ip}")

    def formatted_ips(self) -> Tuple[str, ...]:
        return tuple(format_ipv4(ip) for ip in self.ips)
