"""TCP segments, header options and the Internet checksum.

Checksums are modelled exactly because the paper's bridge rewrites
addressed fields on the fly and explicitly uses *incremental* checksum
update ("we subtract the original bytes from the checksum, and add the new
bytes", §3.1 — the RFC 1624 technique).  We keep sums in the mod-65535
domain where one's-complement addition is plain modular addition, and the
payload contribution is ``int.from_bytes(payload) % 65535`` (valid because
2^16 ≡ 1 mod 65535), which is O(n) in C and fast enough for 100 MB streams.

Two header options are modelled:

* ``MSS`` (kind 2) — negotiated at connection establishment; the bridge
  advertises the *minimum* of the two replicas' MSS values (§2, §7.1);
* ``ORIG_DST`` (kind 253, experimental) — carries the original client
  destination when the secondary's segments are diverted to the primary
  (§3.1: "The original destination address of the segment is included in
  the segment as a TCP header option").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, cast

from repro.net.addresses import Ipv4Address
from repro.tcp.seqnum import seq_add, seq_valid

FLAG_FIN = 0x01
FLAG_SYN = 0x02
FLAG_RST = 0x04
FLAG_PSH = 0x08
FLAG_ACK = 0x10

TCP_BASE_HEADER = 20
MSS_OPTION_SIZE = 4
ORIG_DST_OPTION_SIZE = 8

_CSUM_MOD = 0xFFFF  # one's-complement sums live in Z/65535


def csum_fold(value: int) -> int:
    """Reduce any non-negative integer into the one's-complement sum domain."""
    return value % _CSUM_MOD


def csum_finalize(total: int) -> int:
    """Turn a folded sum into the on-wire checksum field."""
    return (~(total % _CSUM_MOD)) & 0xFFFF


def csum_unfinalize(checksum: int) -> int:
    """Recover the folded sum from a checksum field value."""
    return ((~checksum) & 0xFFFF) % _CSUM_MOD


def payload_sum(payload: bytes) -> int:
    """Folded one's-complement sum of a byte string (padded to 16 bits)."""
    if not payload:
        return 0
    if len(payload) % 2:
        payload = payload + b"\x00"
    return int.from_bytes(payload, "big") % _CSUM_MOD


@dataclass(frozen=True)
class TcpSegment:
    """One TCP segment.  Immutable: rewrites produce new instances."""

    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload: bytes = b""
    mss_option: Optional[int] = None
    orig_dst_option: Optional[Ipv4Address] = None
    checksum: int = 0

    def __post_init__(self) -> None:
        if not seq_valid(self.seq) or not seq_valid(self.ack):
            raise ValueError("sequence/ack number out of 32-bit range")
        if not 0 <= self.window <= 0xFFFF:
            raise ValueError("window out of 16-bit range")

    # -- flag helpers --------------------------------------------------------

    @property
    def syn(self) -> bool:
        return bool(self.flags & FLAG_SYN)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FLAG_FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & FLAG_RST)

    @property
    def has_ack(self) -> bool:
        return bool(self.flags & FLAG_ACK)

    @property
    def psh(self) -> bool:
        return bool(self.flags & FLAG_PSH)

    # -- sizes ---------------------------------------------------------------

    @property
    def options_size(self) -> int:
        size = 0
        if self.mss_option is not None:
            size += MSS_OPTION_SIZE
        if self.orig_dst_option is not None:
            size += ORIG_DST_OPTION_SIZE
        return size

    @property
    def header_size(self) -> int:
        return TCP_BASE_HEADER + self.options_size

    @property
    def wire_size(self) -> int:
        return self.header_size + len(self.payload)

    @property
    def seq_length(self) -> int:
        """Sequence space consumed: payload plus SYN/FIN virtual bytes."""
        return len(self.payload) + (1 if self.syn else 0) + (1 if self.fin else 0)

    @property
    def seq_end(self) -> int:
        return seq_add(self.seq, self.seq_length)

    # -- checksum ------------------------------------------------------------

    def _offset_flags_word(self) -> int:
        data_offset = self.header_size // 4
        return (data_offset << 12) | self.flags

    def header_sum(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> int:
        """Folded sum of pseudo-header, header and options (not payload)."""
        total = (
            src_ip.value  # replint: allow(seq) -- one's-complement folding: seq/ack enter the mod-65535 checksum domain as 32-bit words, not sequence points
            + dst_ip.value
            + 6  # protocol
            + self.wire_size  # TCP length in pseudo-header
            + self.src_port
            + self.dst_port
            + self.seq
            + self.ack
            + self._offset_flags_word()
            + self.window
        )
        if self.mss_option is not None:
            total += 0x0204 + self.mss_option
        if self.orig_dst_option is not None:
            total += 0xFD08 + self.orig_dst_option.value
        return csum_fold(total)

    def compute_checksum(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> int:
        return csum_finalize(self.header_sum(src_ip, dst_ip) + payload_sum(self.payload))

    def sealed(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> "TcpSegment":
        """Copy of this segment with a freshly computed checksum."""
        return TcpSegment(
            self.src_port, self.dst_port, self.seq, self.ack, self.flags,
            self.window, self.payload, self.mss_option, self.orig_dst_option,
            self.compute_checksum(src_ip, dst_ip),
        )

    def checksum_ok(self, src_ip: Ipv4Address, dst_ip: Ipv4Address) -> bool:
        return self.checksum == self.compute_checksum(src_ip, dst_ip)

    def flag_names(self) -> str:
        names = []
        for bit, name in (
            (FLAG_SYN, "SYN"),
            (FLAG_ACK, "ACK"),
            (FLAG_FIN, "FIN"),
            (FLAG_RST, "RST"),
            (FLAG_PSH, "PSH"),
        ):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "none"

    def __repr__(self) -> str:
        return (
            f"TcpSegment({self.src_port}->{self.dst_port} {self.flag_names()}"
            f" seq={self.seq} ack={self.ack} win={self.window}"
            f" len={len(self.payload)})"
        )


_UNSET = object()


def incremental_rewrite(
    segment: TcpSegment,
    old_src: Ipv4Address,
    old_dst: Ipv4Address,
    new_src: Optional[Ipv4Address] = None,
    new_dst: Optional[Ipv4Address] = None,
    seq: Optional[int] = None,
    ack: Optional[int] = None,
    window: Optional[int] = None,
    flags: Optional[int] = None,
    orig_dst: object = _UNSET,
) -> TcpSegment:
    """Rewrite header fields, updating the checksum *incrementally*.

    This is the bridge's RFC 1624-style update: the payload is never
    touched, only the delta between old and new header/pseudo-header words
    is applied to the folded sum.  ``orig_dst`` may be an
    :class:`Ipv4Address` (add/replace the ORIG_DST option), ``None``
    (remove it) or left unset (keep as is).
    """
    total = csum_unfinalize(segment.checksum)
    new_seq, new_ack, new_window = segment.seq, segment.ack, segment.window

    def swap(old_value: int, new_value: int) -> None:
        nonlocal total
        # replint: allow(seq-taint) -- RFC 1624 ones-complement update: header words are 16-bit sum terms, not sequence-space points
        total = csum_fold(total + _CSUM_MOD - (old_value % _CSUM_MOD) + new_value)

    if new_src is not None and new_src != old_src:
        swap(old_src.value, new_src.value)
    if new_dst is not None and new_dst != old_dst:
        swap(old_dst.value, new_dst.value)
    if seq is not None and seq != new_seq:
        swap(new_seq, seq)
        new_seq = seq
    if ack is not None and ack != new_ack:
        swap(new_ack, ack)
        new_ack = ack
    if window is not None and window != new_window:
        swap(new_window, window)
        new_window = window
    new_flags = segment.flags if flags is None else flags
    old_orig = segment.orig_dst_option
    new_orig = old_orig if orig_dst is _UNSET else cast(Optional[Ipv4Address], orig_dst)

    if new_orig is not old_orig or new_flags != segment.flags:
        # Option / flag changes move the data offset and the TCP length.
        grown = ORIG_DST_OPTION_SIZE * ((new_orig is not None) - (old_orig is not None))
        new_header = segment.header_size + grown
        old_len = segment.wire_size
        swap(segment._offset_flags_word(), ((new_header // 4) << 12) | new_flags)
        swap(old_len, old_len + grown)
        swap(
            0xFD08 + old_orig.value if old_orig is not None else 0,
            0xFD08 + new_orig.value if new_orig is not None else 0,
        )

    # One constructor call: ``__post_init__`` validates the new fields.
    return TcpSegment(
        segment.src_port, segment.dst_port, new_seq, new_ack, new_flags,
        new_window, segment.payload, segment.mss_option, new_orig,
        csum_finalize(total),
    )
