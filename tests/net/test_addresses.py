"""Unit and property tests for address value types."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import BROADCAST_MAC, Ipv4Address, MacAddress


def test_mac_parse_and_format_roundtrip():
    mac = MacAddress("02:00:00:00:00:2a")
    assert str(mac) == "02:00:00:00:00:2a"
    assert mac.value == 0x0200_0000_002A


def test_mac_equality_and_hash():
    assert MacAddress(5) == MacAddress(5)
    assert hash(MacAddress(5)) == hash(MacAddress(5))
    assert MacAddress(5) != MacAddress(6)


def test_mac_broadcast():
    assert BROADCAST_MAC.is_broadcast
    assert not MacAddress(1).is_broadcast


def test_mac_immutable():
    mac = MacAddress(1)
    with pytest.raises(AttributeError):
        mac.value = 2


def test_mac_rejects_bad_strings():
    with pytest.raises(ValueError):
        MacAddress("00:11:22:33:44")
    with pytest.raises(ValueError):
        MacAddress(1 << 48)


def test_ipv4_parse_and_format_roundtrip():
    ip = Ipv4Address("10.0.0.1")
    assert str(ip) == "10.0.0.1"
    assert ip.value == (10 << 24) | 1


def test_ipv4_rejects_bad_strings():
    for bad in ("10.0.0", "10.0.0.256", "a.b.c.d"):
        with pytest.raises(ValueError):
            Ipv4Address(bad)


def test_ipv4_subnet_matching():
    a = Ipv4Address("10.0.0.1")
    b = Ipv4Address("10.0.0.200")
    c = Ipv4Address("10.0.1.1")
    assert a.same_subnet(b, 24)
    assert not a.same_subnet(c, 24)
    assert a.same_subnet(c, 16)


def test_ipv4_network_id_prefix_zero():
    assert Ipv4Address("1.2.3.4").network_id(0) == 0


def test_ipv4_ordering_and_hash():
    assert Ipv4Address("10.0.0.1") < Ipv4Address("10.0.0.2")
    assert hash(Ipv4Address("10.0.0.1")) == hash(Ipv4Address("10.0.0.1"))


def test_copy_constructor():
    ip = Ipv4Address("10.0.0.9")
    assert Ipv4Address(ip) == ip
    mac = MacAddress(77)
    assert MacAddress(mac) == mac


@given(st.integers(min_value=0, max_value=(1 << 32) - 1))
def test_ipv4_string_roundtrip_property(value):
    ip = Ipv4Address(value)
    assert Ipv4Address(str(ip)).value == value
    # Reference formatting, octet by octet: the text must match exactly.
    assert str(ip) == ".".join(str(b) for b in value.to_bytes(4, "big"))


@given(st.integers(min_value=0, max_value=(1 << 48) - 1))
def test_mac_string_matches_reference_property(value):
    mac = MacAddress(value)
    assert str(mac) == ":".join(f"{b:02x}" for b in value.to_bytes(6, "big"))
    assert MacAddress(str(mac)) == mac


@given(
    st.integers(min_value=0, max_value=(1 << 32) - 1),
    st.integers(min_value=0, max_value=32),
)
def test_subnet_reflexive_property(value, prefix):
    ip = Ipv4Address(value)
    assert ip.same_subnet(ip, prefix)
