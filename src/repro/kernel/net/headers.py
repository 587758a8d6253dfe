"""Ethernet, IPv4, TCP and UDP header packing/parsing.

Real wire formats (struct-packed, checksummed) so that header corruption,
truncation, and checksum failures are detectable in tests, and payload
sizes seen by the cost model equal what real frames would carry.
"""

from __future__ import annotations

import functools
import struct

from repro.errors import NetworkError

ETH_HEADER_LEN = 14
IP_HEADER_LEN = 20
TCP_HEADER_LEN = 20
UDP_HEADER_LEN = 8

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806

PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17

#: Ethernet broadcast address.
MAC_BROADCAST = "ff:ff:ff:ff:ff:ff"

# TCP flags
FIN = 0x01
SYN = 0x02
RST = 0x04
PSH = 0x08
ACK = 0x10


# The four address converters run on every frame in and out, always on
# the same handful of addresses, so each is memoised.  The caches are
# bounded so a stream of distinct (hostile) addresses cannot grow memory,
# and ``lru_cache`` never caches an exception: bad input raises every time.
@functools.lru_cache(maxsize=256)
def mac_bytes(mac):
    """Convert ``aa:bb:cc:dd:ee:ff`` to 6 raw bytes."""
    parts = mac.split(":")
    if len(parts) != 6:
        raise NetworkError("bad MAC address %r" % mac)
    try:
        return bytes(int(p, 16) for p in parts)
    except ValueError:
        raise NetworkError("bad MAC address %r" % mac) from None


@functools.lru_cache(maxsize=256)
def mac_str(raw):
    return ":".join("%02x" % b for b in raw)


@functools.lru_cache(maxsize=256)
def ip_bytes(ip):
    parts = ip.split(".")
    if len(parts) != 4:
        raise NetworkError("bad IPv4 address %r" % ip)
    try:
        return bytes(int(p) for p in parts)
    except ValueError:
        raise NetworkError("bad IPv4 address %r" % ip) from None


@functools.lru_cache(maxsize=256)
def ip_str(raw):
    return ".".join(str(b) for b in raw)


def fold_checksum(total):
    """Fold the carries of a 16-bit word sum and complement it (RFC 1071).

    The ones-complement sum is associative, so a header's checksum can be
    built from partial sums of its words in any grouping.
    """
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


def checksum16(data):
    """RFC 1071 ones-complement sum over 16-bit words."""
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    return fold_checksum(sum(struct.unpack("!%dH" % (len(data) // 2), data)))


# Wire layouts.  Each header's field order is written down once; the
# stack's one-call layouts for the Ethernet + IPv4 header concatenate them.
_ETH_FIELDS = "6s6sH"            # dst, src, ethertype
_IPV4_FIELDS = "BBHHHBBH4s4s"    # ver/ihl, tos, total_len, ident, frag,
#                                  ttl, proto, checksum, src, dst
_TCP_FIELDS = "HHIIBBHHH"        # ports, seq, ack, data offset, flags,
#                                  window, checksum, urgent pointer
ETH_LAYOUT = struct.Struct("!" + _ETH_FIELDS)
IPV4_LAYOUT = struct.Struct("!" + _IPV4_FIELDS)
TCP_LAYOUT = struct.Struct("!" + _TCP_FIELDS)
#: Ethernet + IPv4 header (34 bytes), packed in one call.
ETH_IPV4_LAYOUT = struct.Struct("!" + _ETH_FIELDS + _IPV4_FIELDS)
#: The 34-byte Ethernet + IPv4 header read as Ethernet plus the ten IPv4
#: header words, so the receive path sums the words it has unpacked.
ETH_IPV4_WORDS = struct.Struct("!" + _ETH_FIELDS + "10H")
ETH_IPV4_LEN = ETH_IPV4_LAYOUT.size


class EthernetHeader:
    """dst(6) src(6) ethertype(2)."""

    def __init__(self, dst, src, ethertype=ETHERTYPE_IPV4):
        self.dst = dst
        self.src = src
        self.ethertype = ethertype

    def pack(self):
        return ETH_LAYOUT.pack(mac_bytes(self.dst), mac_bytes(self.src),
                               self.ethertype)

    @classmethod
    def unpack(cls, frame):
        if len(frame) < ETH_HEADER_LEN:
            raise NetworkError("runt ethernet frame (%d bytes)" % len(frame),
                               reason="runt")
        dst, src, ethertype = ETH_LAYOUT.unpack_from(frame)
        return cls(mac_str(dst), mac_str(src), ethertype), \
            frame[ETH_HEADER_LEN:]


class Ipv4Header:
    """Standard 20-byte IPv4 header (no options)."""

    def __init__(self, src, dst, proto, total_len, ident=0, ttl=64):
        self.src = src
        self.dst = dst
        self.proto = proto
        self.total_len = total_len
        self.ident = ident
        self.ttl = ttl

    def pack(self):
        # ``checksum16`` over the packed bytes, not the stack's word
        # arithmetic, so this class stays an independent reference for it.
        header = IPV4_LAYOUT.pack(0x45, 0, self.total_len, self.ident, 0,
                                  self.ttl, self.proto, 0,
                                  ip_bytes(self.src), ip_bytes(self.dst))
        return (header[:10] + checksum16(header).to_bytes(2, "big")
                + header[12:])

    @classmethod
    def unpack(cls, packet):
        if len(packet) < IP_HEADER_LEN:
            raise NetworkError("truncated IPv4 header", reason="truncated")
        (vihl, _tos, total_len, ident, _frag, ttl, proto, _csum,
         src, dst) = IPV4_LAYOUT.unpack_from(packet)
        if vihl >> 4 != 4:
            raise NetworkError("not an IPv4 packet (version %d)" % (vihl >> 4),
                               reason="version")
        if checksum16(packet[:IP_HEADER_LEN]) != 0:
            raise NetworkError("IPv4 header checksum mismatch",
                               reason="checksum")
        header = cls(ip_str(src), ip_str(dst), proto, total_len,
                     ident=ident, ttl=ttl)
        return header, packet[IP_HEADER_LEN:total_len]


class TcpHeader:
    """Standard 20-byte TCP header (no options)."""

    def __init__(self, src_port, dst_port, seq, ack, flags, window=65535):
        self.src_port = src_port
        self.dst_port = dst_port
        self.seq = seq
        self.ack = ack
        self.flags = flags
        self.window = window

    def pack(self):
        return TCP_LAYOUT.pack(
            self.src_port, self.dst_port,
            self.seq & 0xFFFFFFFF, self.ack & 0xFFFFFFFF,
            5 << 4, self.flags, self.window, 0, 0,
        )

    @classmethod
    def unpack(cls, segment):
        if len(segment) < TCP_HEADER_LEN:
            raise NetworkError("truncated TCP header", reason="truncated")
        (src_port, dst_port, seq, ack, offset, flags, window,
         _csum, _urg) = TCP_LAYOUT.unpack_from(segment)
        data_off = (offset >> 4) * 4
        header = cls(src_port, dst_port, seq, ack, flags, window=window)
        return header, segment[data_off:]

    def flag_names(self):
        names = []
        for bit, name in ((SYN, "SYN"), (ACK, "ACK"), (FIN, "FIN"),
                          (RST, "RST"), (PSH, "PSH")):
            if self.flags & bit:
                names.append(name)
        return "|".join(names) or "none"


ARP_REQUEST = 1
ARP_REPLY = 2


class ArpHeader:
    """RFC 826 ARP for Ethernet/IPv4 (28 bytes)."""

    def __init__(self, oper, sender_mac, sender_ip, target_mac, target_ip):
        self.oper = oper
        self.sender_mac = sender_mac
        self.sender_ip = sender_ip
        self.target_mac = target_mac
        self.target_ip = target_ip

    def pack(self):
        return (
            struct.pack("!HHBBH", 1, ETHERTYPE_IPV4, 6, 4, self.oper)
            + mac_bytes(self.sender_mac) + ip_bytes(self.sender_ip)
            + mac_bytes(self.target_mac) + ip_bytes(self.target_ip)
        )

    @classmethod
    def unpack(cls, packet):
        if len(packet) < 28:
            raise NetworkError("truncated ARP packet", reason="truncated")
        htype, ptype, hlen, plen, oper = struct.unpack("!HHBBH", packet[:8])
        if htype != 1 or ptype != ETHERTYPE_IPV4:
            raise NetworkError("unsupported ARP hardware/protocol type",
                               reason="arp")
        return cls(
            oper,
            mac_str(packet[8:14]), ip_str(packet[14:18]),
            mac_str(packet[18:24]), ip_str(packet[24:28]),
        )


ICMP_ECHO_REQUEST = 8
ICMP_ECHO_REPLY = 0


class IcmpHeader:
    """ICMP echo request/reply (8-byte header)."""

    def __init__(self, icmp_type, ident, seq):
        self.icmp_type = icmp_type
        self.ident = ident
        self.seq = seq

    def pack(self, payload=b""):
        header = struct.pack("!BBHHH", self.icmp_type, 0, 0,
                             self.ident, self.seq)
        csum = checksum16(header + payload)
        return header[:2] + struct.pack("!H", csum) + header[4:] + payload

    @classmethod
    def unpack(cls, packet):
        if len(packet) < 8:
            raise NetworkError("truncated ICMP packet", reason="truncated")
        if checksum16(packet) != 0:
            raise NetworkError("ICMP checksum mismatch", reason="checksum")
        icmp_type, _code, _csum, ident, seq = struct.unpack(
            "!BBHHH", packet[:8],
        )
        return cls(icmp_type, ident, seq), packet[8:]


class UdpHeader:
    """8-byte UDP header."""

    def __init__(self, src_port, dst_port, length):
        self.src_port = src_port
        self.dst_port = dst_port
        self.length = length

    def pack(self):
        return struct.pack("!HHHH", self.src_port, self.dst_port,
                           self.length, 0)

    @classmethod
    def unpack(cls, datagram):
        if len(datagram) < UDP_HEADER_LEN:
            raise NetworkError("truncated UDP header", reason="truncated")
        src_port, dst_port, length, _csum = struct.unpack(
            "!HHHH", datagram[:UDP_HEADER_LEN]
        )
        return cls(src_port, dst_port, length), datagram[UDP_HEADER_LEN:]
