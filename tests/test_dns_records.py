"""Tests for IPv4 helpers and A-record responses."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dns.records import (
    AResponse,
    format_ipv4,
    parse_ipv4,
    prefix16,
    prefix24,
)


class TestIpv4Conversion:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("0.0.0.0", 0),
            ("255.255.255.255", 0xFFFFFFFF),
            ("10.0.0.1", 0x0A000001),
            ("192.168.1.10", 0xC0A8010A),
        ],
    )
    def test_parse(self, text, value):
        assert parse_ipv4(text) == value

    @pytest.mark.parametrize(
        "bad",
        # the last is SUPERSCRIPT ONE: isdigit() takes it, int() does not
        ["1.2.3", "1.2.3.4.5", "256.0.0.1", "a.b.c.d", "1..3.4", "\u00b9.2.3.4"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_ipv4(bad)

    @pytest.mark.parametrize(
        "bad",
        [
            "1_0.0.0.1",  # int() reads 1_0 as 10
            "+1.2.3.4",
            "1. 2.3.4",
            "1.2.3.-0",
            "\u0661.2.3.4",  # ARABIC-INDIC DIGIT ONE
            "0001.2.3.4",
        ],
    )
    def test_parse_rejects_what_int_alone_would_take(self, bad):
        """Regression: octets went through bare ``int()``, so these loaded
        as addresses (``1_0.0.0.1`` as 10.0.0.1)."""
        with pytest.raises(ValueError, match="invalid IPv4"):
            parse_ipv4(bad)

    def test_parse_strips_outer_whitespace_and_keeps_leading_zeros(self):
        assert parse_ipv4(" 10.0.0.1\r\n") == 0x0A000001
        assert parse_ipv4("010.001.000.01") == 0x0A010001

    def test_format_out_of_range(self):
        with pytest.raises(ValueError):
            format_ipv4(-1)
        with pytest.raises(ValueError):
            format_ipv4(2**32)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_property_round_trip(self, ip):
        assert parse_ipv4(format_ipv4(ip)) == ip


class TestPrefixes:
    def test_prefix24_scalar(self):
        assert prefix24(parse_ipv4("10.1.2.3")) == parse_ipv4("10.1.2.0") >> 8

    def test_prefix24_groups_same_slash24(self):
        a = parse_ipv4("10.1.2.3")
        b = parse_ipv4("10.1.2.250")
        c = parse_ipv4("10.1.3.3")
        assert prefix24(a) == prefix24(b)
        assert prefix24(a) != prefix24(c)

    def test_prefix24_array(self):
        ips = np.array([parse_ipv4("10.1.2.3"), parse_ipv4("10.1.2.9")], dtype=np.uint32)
        prefixes = prefix24(ips)
        assert prefixes[0] == prefixes[1]

    def test_prefix16(self):
        a = parse_ipv4("10.1.2.3")
        b = parse_ipv4("10.1.200.3")
        assert prefix16(a) == prefix16(b)


class TestAResponse:
    def test_requires_ips(self):
        with pytest.raises(ValueError):
            AResponse(day=0, machine="m", domain="d.com", ips=())

    def test_rejects_out_of_range_ip(self):
        with pytest.raises(ValueError):
            AResponse(day=0, machine="m", domain="d.com", ips=(2**33,))

    def test_formatted_ips(self):
        response = AResponse(
            day=1, machine="m", domain="d.com", ips=(parse_ipv4("10.0.0.1"),)
        )
        assert response.formatted_ips() == ("10.0.0.1",)

    def test_frozen(self):
        response = AResponse(day=1, machine="m", domain="d.com", ips=(1,))
        with pytest.raises(AttributeError):
            response.day = 2
