"""Unit and property tests for segments and the Internet checksum.

The key property: the bridge's *incremental* checksum rewrite must agree
exactly with a from-scratch recomputation for every field combination —
this is the §3.1 technique the whole diversion scheme rests on.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.net.addresses import Ipv4Address
from repro.tcp.segment import (
    FLAG_ACK,
    FLAG_FIN,
    FLAG_PSH,
    FLAG_SYN,
    TcpSegment,
    incremental_rewrite,
    payload_sum,
)

IP_A = Ipv4Address("10.0.0.1")
IP_B = Ipv4Address("10.0.0.2")
IP_C = Ipv4Address("10.0.0.3")


def make(payload=b"hello", flags=FLAG_ACK, **kwargs):
    defaults = dict(
        src_port=1234, dst_port=80, seq=1000, ack=2000, flags=flags,
        window=8192, payload=payload,
    )
    defaults.update(kwargs)
    return TcpSegment(**defaults)


def test_flag_properties():
    seg = make(flags=FLAG_SYN | FLAG_ACK)
    assert seg.syn and seg.has_ack and not seg.fin and not seg.rst


def test_seq_length_counts_syn_and_fin():
    assert make(payload=b"abc", flags=FLAG_ACK).seq_length == 3
    assert make(payload=b"", flags=FLAG_SYN).seq_length == 1
    assert make(payload=b"ab", flags=FLAG_FIN | FLAG_ACK).seq_length == 3


def test_wire_size_includes_options():
    assert make(payload=b"").wire_size == 20
    assert make(payload=b"", mss_option=1460).wire_size == 24
    assert make(payload=b"", orig_dst_option=IP_C).wire_size == 28
    assert make(payload=b"", mss_option=1460, orig_dst_option=IP_C).wire_size == 32


def test_checksum_roundtrip():
    seg = make().sealed(IP_A, IP_B)
    assert seg.checksum_ok(IP_A, IP_B)


def test_checksum_detects_wrong_pseudo_header():
    seg = make().sealed(IP_A, IP_B)
    assert not seg.checksum_ok(IP_A, IP_C)


def test_checksum_detects_payload_corruption():
    seg = make(payload=b"hello").sealed(IP_A, IP_B)
    import dataclasses

    corrupted = dataclasses.replace(seg, payload=b"hellp")
    assert not corrupted.checksum_ok(IP_A, IP_B)


def test_payload_sum_odd_length_padding():
    assert payload_sum(b"\x01") == payload_sum(b"\x01\x00")


def test_window_and_seq_validation():
    with pytest.raises(ValueError):
        make(window=70000)
    with pytest.raises(ValueError):
        make(seq=1 << 32)


def test_incremental_rewrite_dst_matches_full():
    seg = make().sealed(IP_A, IP_B)
    rewritten = incremental_rewrite(seg, old_src=IP_A, old_dst=IP_B, new_dst=IP_C)
    assert rewritten.checksum_ok(IP_A, IP_C)


def test_incremental_rewrite_ack_matches_full():
    seg = make().sealed(IP_A, IP_B)
    rewritten = incremental_rewrite(seg, old_src=IP_A, old_dst=IP_B, ack=999999)
    assert rewritten.ack == 999999
    assert rewritten.checksum_ok(IP_A, IP_B)


def test_incremental_add_orig_dst_option():
    seg = make().sealed(IP_A, IP_B)
    rewritten = incremental_rewrite(
        seg, old_src=IP_A, old_dst=IP_B, new_dst=IP_C, orig_dst=IP_B
    )
    assert rewritten.orig_dst_option == IP_B
    assert rewritten.checksum_ok(IP_A, IP_C)


def test_incremental_remove_orig_dst_option():
    seg = make(orig_dst_option=IP_B).sealed(IP_A, IP_C)
    rewritten = incremental_rewrite(seg, old_src=IP_A, old_dst=IP_C, orig_dst=None)
    assert rewritten.orig_dst_option is None
    assert rewritten.checksum_ok(IP_A, IP_C)


ips = st.integers(min_value=0, max_value=(1 << 32) - 1).map(Ipv4Address)
ports = st.integers(min_value=1, max_value=65535)
seqs = st.integers(min_value=0, max_value=(1 << 32) - 1)
windows = st.integers(min_value=0, max_value=65535)
payloads = st.binary(max_size=200)
flag_bits = st.integers(min_value=0, max_value=0x1F)


@given(ips, ips, ports, ports, seqs, seqs, windows, payloads, flag_bits)
def test_checksum_roundtrip_property(src, dst, sp, dp, seq, ack, win, payload, flags):
    seg = TcpSegment(
        src_port=sp, dst_port=dp, seq=seq, ack=ack, flags=flags,
        window=win, payload=payload,
    ).sealed(src, dst)
    assert seg.checksum_ok(src, dst)


@given(
    ips, ips, ips, ips, seqs, seqs, windows, payloads,
    st.one_of(st.none(), ips),
    st.one_of(st.none(), ips),
    st.one_of(st.none(), st.integers(min_value=536, max_value=1460)),
    st.one_of(st.none(), flag_bits),
)
def test_incremental_rewrite_equals_full_recompute(
    src, dst, new_src, new_dst, new_seq, new_ack, new_win, payload, orig_dst,
    start_orig, mss, new_flags,
):
    seg = TcpSegment(
        src_port=1, dst_port=2, seq=7, ack=9, flags=FLAG_ACK | FLAG_PSH,
        window=100, payload=payload, mss_option=mss, orig_dst_option=start_orig,
    ).sealed(src, dst)
    rewritten = incremental_rewrite(
        seg,
        old_src=src,
        old_dst=dst,
        new_src=new_src,
        new_dst=new_dst,
        seq=new_seq,
        ack=new_ack,
        window=new_win,
        flags=new_flags,
        orig_dst=orig_dst,
    )
    assert (rewritten.seq, rewritten.ack, rewritten.window) == (new_seq, new_ack, new_win)
    assert rewritten.flags == (seg.flags if new_flags is None else new_flags)
    assert rewritten.orig_dst_option == orig_dst
    assert (rewritten.payload, rewritten.mss_option) == (payload, mss)
    full = rewritten.compute_checksum(new_src, new_dst)
    # One's-complement checksums have two encodings of zero; our pipeline
    # normalises consistently, so exact equality must hold.
    assert rewritten.checksum == full


@given(ips, ips, payloads)
def test_double_rewrite_roundtrips(src, dst, payload):
    """Rewriting dst away and back restores a valid checksum."""
    seg = TcpSegment(
        src_port=5, dst_port=6, seq=1, ack=2, flags=FLAG_ACK,
        window=10, payload=payload,
    ).sealed(src, dst)
    away = incremental_rewrite(seg, old_src=src, old_dst=dst, new_dst=IP_C,
                               orig_dst=dst)
    back = incremental_rewrite(away, old_src=src, old_dst=IP_C, new_dst=dst,
                               orig_dst=None)
    assert back.checksum_ok(src, dst)
