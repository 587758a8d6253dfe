"""One-pass frame codec: the stack's Ethernet/IPv4/TCP fast path against
the header classes, and prefix ACK retirement against the list filter.

The stack packs and parses whole frame headers in single ``struct`` calls.
These differential tests pin that it builds byte-identical frames, that
every malformed or foreign frame is dropped (with the same reason) or
ignored exactly as the class-by-class parse does, and that hostile frames
mixed into a live exchange are counted without disturbing it.
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.host import HostEndpoint
from repro.apps.redis import RedisApp
from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import NetworkError
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.kernel.net import stack as stack_module
from repro.kernel.net.device import LinkedDevices
from repro.kernel.net.headers import (
    ACK,
    ARP_REPLY,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ICMP_ECHO_REQUEST,
    MAC_BROADCAST,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    ArpHeader,
    EthernetHeader,
    IcmpHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
    checksum16,
)
from repro.kernel.net.stack import NetworkStack
from repro.kernel.net.tcp import RTO_NS, TcpConnection, TcpState
from tests.conftest import make_config

COSTS = CostModel.xeon_4114()
OUR_MAC = "02:00:00:00:00:0a"
OUR_IP = "10.0.0.2"
PEER_MAC = "02:00:00:00:00:0b"
PEER_IP = "10.0.0.1"

addresses_ip = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda parts: ".".join(str(p) for p in parts))
addresses_mac = st.binary(min_size=6, max_size=6).map(
    lambda raw: ":".join("%02x" % b for b in raw))


class CaptureDevice:
    """A NIC stand-in that keeps what the stack transmits."""

    def __init__(self, mac):
        self.mac = mac
        self.sent = []

    def transmit(self, frame):
        self.sent.append(bytes(frame))


class Peer:
    """Addressing of the far end of a connection, as ``tcp_output`` sees it."""

    def __init__(self, local_port, remote_port, remote_ip):
        self.local_port = local_port
        self.remote_port = remote_port
        self.remote_ip = remote_ip


class RecordingSocket:
    """Receives demultiplexed segments in place of a connection."""

    def __init__(self, stack):
        self.stack = stack
        self.segments = []

    def on_segment(self, header, payload):
        self.segments.append((
            self.stack.last_src_ip, header.src_port, header.dst_port,
            header.seq, header.ack, header.flags, header.window,
            bytes(payload),
        ))


def reference_frame(dst_mac, src_mac, src_ip, dst_ip, ident, src_port,
                    dst_port, seq, ack, flags, window, payload):
    """A TCP frame built header by header with the header classes."""
    segment = TcpHeader(src_port, dst_port, seq, ack, flags,
                        window=window).pack() + payload
    return (EthernetHeader(dst_mac, src_mac).pack()
            + Ipv4Header(src_ip, dst_ip, PROTO_TCP, 20 + len(segment),
                         ident=ident).pack()
            + segment)


def reference_input(stack, frame, charge):
    """The class-by-class receive path the one-pass parse replaced."""
    stack.frames_in += 1
    eth, packet = EthernetHeader.unpack(frame)
    if eth.dst not in (stack.device.mac, MAC_BROADCAST):
        return
    if eth.ethertype == ETHERTYPE_ARP:
        stack._arp_input(packet)
        return
    if eth.ethertype != ETHERTYPE_IPV4:
        raise NetworkError("unknown ethertype 0x%04x" % eth.ethertype,
                           reason="ethertype")
    ip_header, body = Ipv4Header.unpack(packet)
    if ip_header.dst != stack.ip:
        return
    charge(stack.costs.ip_route)
    stack.last_src_ip = ip_header.src
    stack.arp_table.setdefault(ip_header.src, eth.src)
    if ip_header.proto == PROTO_TCP:
        charge(stack.costs.tcp_segment)
        header, payload = TcpHeader.unpack(body)
        key = (stack.ip, header.dst_port, ip_header.src, header.src_port)
        conn = stack._conns.get(key)
        if conn is None:
            conn = stack._listeners.get(header.dst_port)
        if conn is not None:
            conn.on_segment(header, payload)
    elif ip_header.proto == PROTO_UDP:
        stack._udp_input(ip_header.src, body)
    elif ip_header.proto == PROTO_ICMP:
        stack._icmp_input(ip_header.src, body)
    else:
        raise NetworkError("unknown IP proto %d" % ip_header.proto,
                           reason="proto")


def receiving_stack():
    """A stack with a listener on port 80 and one established 4-tuple."""
    stack = NetworkStack(CaptureDevice(OUR_MAC), OUR_IP, COSTS, Clock())
    listener = RecordingSocket(stack)
    conn = RecordingSocket(stack)
    stack._listeners[80] = listener
    stack._conns[(OUR_IP, 80, PEER_IP, 4444)] = conn
    return stack, listener, conn


def outcome(parse, frame):
    """Everything one frame changes in a fresh receiving stack."""
    stack, listener, conn = receiving_stack()
    charges = []
    with mock.patch.object(stack_module, "work", charges.append):
        try:
            parse(stack, frame)
            dropped = None
        except NetworkError as err:
            dropped = err.reason
    return {
        "dropped": dropped,
        "charges": charges,
        "listener": listener.segments,
        "conn": conn.segments,
        "udp": {port: list(queue)
                for port, queue in stack._udp_queues.items()},
        "pings": stack.ping_replies,
        "sent": stack.device.sent,
        "arp": stack.arp_table,
        "parked": stack._arp_pending,
        "last_src_ip": stack.last_src_ip,
        "frames_in": stack.frames_in,
    }


def assert_same_outcome(frame):
    fast = outcome(lambda stack, f: stack._input(f), frame)
    reference = outcome(
        lambda stack, f: reference_input(stack, f,
                                         stack_module.work), frame)
    assert fast == reference
    return fast


def fix_ipv4_checksum(frame):
    """Recompute the IPv4 header checksum in place (if there is one)."""
    if len(frame) >= 34:
        frame[24:26] = b"\x00\x00"
        frame[24:26] = checksum16(bytes(frame[14:34])).to_bytes(2, "big")


@st.composite
def valid_frames(draw):
    """A well-formed frame to (or past) the receiving stack."""
    dst_mac = draw(st.sampled_from([OUR_MAC, MAC_BROADCAST]) | addresses_mac)
    src_mac = draw(addresses_mac)
    src_ip = draw(st.sampled_from([PEER_IP]) | addresses_ip)
    dst_ip = draw(st.sampled_from([OUR_IP, OUR_IP]) | addresses_ip)
    src_port = draw(st.sampled_from([4444]) | st.integers(0, 0xFFFF))
    dst_port = draw(st.sampled_from([80]) | st.integers(0, 0xFFFF))
    payload = draw(st.binary(max_size=96))
    proto = draw(st.sampled_from([PROTO_TCP, PROTO_TCP, PROTO_UDP,
                                  PROTO_ICMP]))
    if proto == PROTO_TCP:
        body = TcpHeader(
            src_port, dst_port, draw(st.integers(0, 2**32 - 1)),
            draw(st.integers(0, 2**32 - 1)), draw(st.integers(0, 255)),
            window=draw(st.integers(0, 0xFFFF)),
        ).pack() + payload
    elif proto == PROTO_UDP:
        body = UdpHeader(src_port, dst_port, 8 + len(payload)).pack() \
            + payload
    else:
        body = IcmpHeader(ICMP_ECHO_REQUEST, src_port,
                          dst_port).pack(payload)
    ip = Ipv4Header(src_ip, dst_ip, proto, 20 + len(body),
                    ident=draw(st.integers(0, 0xFFFF)))
    return EthernetHeader(dst_mac, src_mac).pack() + ip.pack() + body


@st.composite
def mutated_frames(draw):
    frame = bytearray(draw(valid_frames()))
    kind = draw(st.sampled_from([
        "none", "truncate", "bitflip", "ethertype", "version", "proto",
        "total_len", "data_offset", "trailer",
    ]))
    if kind == "truncate":
        del frame[draw(st.integers(0, len(frame))):]
    elif kind == "bitflip":
        bit = draw(st.integers(0, len(frame) * 8 - 1))
        frame[bit // 8] ^= 1 << (bit % 8)
    elif kind == "ethertype":
        frame[12:14] = draw(st.sampled_from(
            [ETHERTYPE_ARP, 0x86DD, 0x0000]) | st.integers(0, 0xFFFF)
        ).to_bytes(2, "big")
    elif kind == "version":
        frame[14] = draw(st.integers(0, 15)) << 4 | 5
        fix_ipv4_checksum(frame)
    elif kind == "proto":
        frame[23] = draw(st.sampled_from([PROTO_TCP, PROTO_UDP, PROTO_ICMP])
                         | st.integers(0, 255))
        fix_ipv4_checksum(frame)
    elif kind == "total_len":
        # Anything from shorter than the IPv4 header to past the frame.
        frame[16:18] = draw(st.integers(0, 64) | st.integers(0, 0xFFFF)
                            ).to_bytes(2, "big")
        fix_ipv4_checksum(frame)
    elif kind == "data_offset" and len(frame) > 46:
        frame[46] = draw(st.integers(0, 255))
    elif kind == "trailer":
        frame += draw(st.binary(min_size=1, max_size=32))
    return bytes(frame)


class TestTransmit:
    @settings(deadline=None)
    @given(addresses_mac, addresses_mac, addresses_ip, addresses_ip,
           st.integers(0, 0xFFFF), st.integers(0, 0xFFFF),
           st.integers(0, 2**40), st.integers(0, 2**40),
           st.integers(0, 255), st.integers(0, 0xFFFF),
           st.integers(0, 0xFFFF), st.binary(max_size=1460))
    def test_frame_equals_header_classes(self, dst_mac, src_mac, src_ip,
                                         dst_ip, src_port, dst_port, seq,
                                         ack, flags, window, ident,
                                         payload):
        stack = NetworkStack(CaptureDevice(src_mac), src_ip, COSTS, Clock())
        stack.arp_table[dst_ip] = dst_mac
        stack._next_ident = ident
        stack.tcp_output(Peer(src_port, dst_port, dst_ip), seq, ack, flags,
                         window, payload)
        assert stack.device.sent == [reference_frame(
            dst_mac, src_mac, src_ip, dst_ip, ident, src_port, dst_port,
            seq, ack, flags, window, payload)]
        # The stack's word-arithmetic checksum, checked over the bytes.
        assert checksum16(stack.device.sent[0][14:34]) == 0
        assert stack._next_ident == (ident + 1) & 0xFFFF

    def test_charges_keep_order_and_values(self):
        stack = NetworkStack(CaptureDevice(OUR_MAC), OUR_IP, COSTS, Clock())
        stack.arp_table[PEER_IP] = PEER_MAC
        charges = []
        with mock.patch.object(stack_module, "work", charges.append):
            stack.tcp_output(Peer(80, 4444, PEER_IP), 1, 2, ACK, 100, b"x")
        assert charges == [COSTS.tcp_segment, COSTS.ip_route]


class TestArpMiss:
    """A segment sent before ARP resolves is parked, then flushed through
    ``_ip_output`` as the same bytes the direct path would send."""

    def test_parked_segment_flushes_byte_identical(self):
        stack = NetworkStack(CaptureDevice(OUR_MAC), OUR_IP, COSTS, Clock())
        stack._next_ident = 0xFFFF
        charges = []
        with mock.patch.object(stack_module, "work", charges.append):
            stack.tcp_output(Peer(80, 4444, PEER_IP), 2**32 + 7, 9,
                             ACK, 512, b"parked")
            assert charges == [COSTS.tcp_segment, COSTS.ip_route]
            (request,) = stack.device.sent
            assert EthernetHeader.unpack(request)[0].ethertype == \
                ETHERTYPE_ARP
            reply = ArpHeader(ARP_REPLY, PEER_MAC, PEER_IP, OUR_MAC, OUR_IP)
            stack._input(EthernetHeader(OUR_MAC, PEER_MAC,
                                        ethertype=ETHERTYPE_ARP).pack()
                         + reply.pack())
        assert charges == [COSTS.tcp_segment, COSTS.ip_route,
                           COSTS.ip_route]
        assert stack.device.sent[1:] == [reference_frame(
            PEER_MAC, OUR_MAC, OUR_IP, PEER_IP, 0xFFFF, 80, 4444,
            2**32 + 7, 9, ACK, 512, b"parked")]
        assert stack._next_ident == 0
        assert stack._arp_pending == {}

        # Once resolved, the direct path sends the same frame layout.
        stack.tcp_output(Peer(80, 4444, PEER_IP), 2**32 + 7, 9,
                         ACK, 512, b"parked")
        assert stack.device.sent[2] == reference_frame(
            PEER_MAC, OUR_MAC, OUR_IP, PEER_IP, 0, 80, 4444,
            2**32 + 7, 9, ACK, 512, b"parked")


def sample_frame(payload=b"GET /index.html"):
    return reference_frame(OUR_MAC, PEER_MAC, PEER_IP, OUR_IP, 7, 4444, 80,
                           1000, 2000, ACK, 4096, payload)


class TestReceive:
    """``_input`` against the class-by-class parse: the same drop reason,
    the same silent ignore, or the same delivered segment and side
    effects (work charges, ARP learning, queues, replies)."""

    def test_valid_segment_delivered(self):
        result = assert_same_outcome(sample_frame())
        assert result["dropped"] is None
        assert result["conn"] == [(PEER_IP, 4444, 80, 1000, 2000, ACK, 4096,
                                   b"GET /index.html")]

    def test_every_truncation_length(self):
        frame = sample_frame()
        reasons = Counter(assert_same_outcome(frame[:n])["dropped"]
                          for n in range(len(frame) + 1))
        assert reasons == {"runt": 14, "truncated": 40, None: 16}

    @pytest.mark.parametrize("ethertype", [b"\x86\xdd", b"\x00\x00"],
                             ids=["ipv6", "zero"])
    def test_foreign_ethertype_is_dropped(self, ethertype):
        frame = sample_frame()
        result = assert_same_outcome(frame[:12] + ethertype + frame[14:])
        assert result["dropped"] == "ethertype"
        assert result["conn"] == result["listener"] == []
        assert result["charges"] == [] and result["arp"] == {}

    def test_every_single_bit_flip(self):
        frame = sample_frame()
        for bit in range(len(frame) * 8):
            mutated = bytearray(frame)
            mutated[bit // 8] ^= 1 << (bit % 8)
            assert_same_outcome(bytes(mutated))

    def test_frames_not_addressed_to_us_are_ignored(self):
        other_mac = reference_frame("02:00:00:00:00:99", PEER_MAC, PEER_IP,
                                    OUR_IP, 7, 4444, 80, 1, 2, ACK, 1, b"x")
        other_ip = reference_frame(OUR_MAC, PEER_MAC, PEER_IP, "10.0.0.3",
                                   7, 4444, 80, 1, 2, ACK, 1, b"x")
        for frame in (other_mac, other_ip):
            result = assert_same_outcome(frame)
            assert result["dropped"] is None and result["charges"] == []
            assert result["conn"] == result["listener"] == []

    @settings(deadline=None)
    @given(mutated_frames())
    def test_mutated_frames_match_reference(self, frame):
        assert_same_outcome(frame)


class TestAckRetirement:
    """``_take_ack`` retires the acknowledged prefix of ``_inflight`` in
    place; the result must equal the old whole-list filter."""

    class QuietStack:
        def __init__(self):
            self.ns = 0

        def now_ns(self):
            return self.ns

        def tcp_output(self, *args):
            pass

    ops = st.lists(st.one_of(
        st.tuples(st.just("send"), st.integers(1, 6000)),
        st.tuples(st.just("ack"), st.sampled_from(
            ["next", "all", "mid", "dup", "old", "beyond"])),
        st.tuples(st.just("rto"), st.integers(0, 2 * RTO_NS)),
    ), max_size=40)

    @settings(deadline=None)
    @given(ops)
    def test_prefix_delete_equals_filter(self, ops):
        stack = self.QuietStack()
        conn = TcpConnection(stack, OUR_IP, 80, PEER_IP, 4444)
        conn.state = TcpState.ESTABLISHED
        for op, arg in ops:
            if op == "send":
                if conn._bytes_in_flight() + arg <= conn.snd_wnd:
                    conn.send(b"d" * arg)
                continue
            if op == "rto":
                stack.ns += arg
                conn.poll_retransmit()
                continue
            inflight = list(conn._inflight)
            ends = [seq + len(chunk) for seq, chunk, _ in inflight]
            ack = {
                "next": ends[0] if ends else conn.snd_una,
                "all": conn.snd_nxt,
                "mid": (inflight[0][0] + 1) if inflight else conn.snd_una,
                "dup": conn.snd_una,
                "old": conn.snd_una - 1,
                "beyond": conn.snd_nxt + 5,
            }[arg]
            expected = inflight
            if ack > conn.snd_una:
                expected = [(seq, chunk, at) for seq, chunk, at in inflight
                            if seq + len(chunk) > ack]
            assert not conn._send_backlog
            conn._take_ack(TcpHeader(4444, 80, 0, ack, ACK, window=65535))
            assert conn._inflight == expected
            assert type(conn._inflight) is list


def run_redis_exchange(mutate=None):
    """A SET/GET exchange over TCP on the serial scheduler.

    ``mutate(frame)`` (if given) is called on every IPv4 frame either side
    transmits and returns a hostile frame to queue ahead of it at the
    receiver, or None.
    """
    costs = CostModel.xeon_4114()
    machine = Machine(costs)
    link = LinkedDevices(costs)
    instance = FlexOSInstance(build_image(make_config()), machine=machine,
                              net_device=link.a).boot()
    host = HostEndpoint(link.b, PEER_IP, costs, machine.clock)
    if mutate is not None:
        for device in (link.a, link.b):
            device.transmit = injecting(device, mutate)
    commands = []
    for i in range(12):
        commands.append(b"SET key%d %s\r\n" % (i, b"v" * (i * 37 % 300 + 1)))
        commands.append(b"GET key%d\r\n" % (i // 2))
    commands.append(b"GET missing\r\n")
    replies = []

    def client():
        sock = host.socket()
        yield from host.connect_blocking(sock, OUR_IP, 6379)
        for command in commands:
            host.send(sock, command)
            replies.append((yield from host.recv_until(sock)))
        host.close(sock)

    with instance.run():
        server = RedisApp.make_server(instance)
        sock = instance.libc.socket(instance.net).bind(6379).listen()
        instance.sched.create_thread(
            "redis", lambda: server.serve(sock, instance.libc, len(commands)))
        instance.sched.create_thread("bench", client)
        instance.sched.run()
        # Frames still queued when the client finished (final ACKs, and
        # hostile frames ahead of them) are processed too.
        while link.a.has_rx or link.b.has_rx:
            instance.net.pump()
            host.pump()
    return replies, instance.net, host.stack


def injecting(device, mutate):
    transmit = device.transmit

    def transmit_after_hostile(frame):
        if frame[12:14] == ETHERTYPE_IPV4.to_bytes(2, "big"):
            bad = mutate(frame)
            if bad is not None:
                device.peer.rx_queue.append(bad)
        transmit(frame)

    return transmit_after_hostile


def _rechecksummed(frame, offset, value):
    mutated = bytearray(frame)
    mutated[offset] = value
    fix_ipv4_checksum(mutated)
    return bytes(mutated)


#: Mutations of a recorded valid frame, with the drop reason each must
#: produce (None: ignored as not addressed to the receiver).
HOSTILE = [
    ("runt", lambda f: f[:9]),
    ("truncated", lambda f: f[:20]),
    ("checksum", lambda f: f[:22] + bytes([f[22] ^ 0x01]) + f[23:]),
    ("version", lambda f: _rechecksummed(f, 14, 0x65)),
    ("proto", lambda f: _rechecksummed(f, 23, 99)),
    ("ethertype", lambda f: f[:12] + b"\x86\xdd" + f[14:]),  # IPv6
    ("truncated", lambda f: _rechecksummed(f, 17, 30)),  # total_len 30
    (None, lambda f: b"\x02\x00\x00\x00\x00\x99" + f[6:]),  # other MAC
    (None, lambda f: _rechecksummed(f, 33, f[33] ^ 0x40)),  # other IP
]


class TestHostileFramesInLiveExchange:
    def test_replies_identical_and_drops_add_up(self):
        clean_replies, clean_server, clean_client = run_redis_exchange()
        assert clean_server.drops == clean_client.drops == {}
        injected = {}
        cursor = {}

        def mutate(frame):
            # Each direction walks the mutation list in turn.
            src = frame[6:12]
            index = cursor.get(src, 0)
            cursor[src] = index + 1
            reason, build = HOSTILE[index % len(HOSTILE)]
            if reason is not None:
                counts = injected.setdefault(src, Counter())
                counts[reason] += 1
            return build(frame)

        replies, server, client = run_redis_exchange(mutate)
        assert replies == clean_replies
        assert len(replies) == 25
        server_counts = injected[bytes.fromhex("02000000000b")]
        client_counts = injected[bytes.fromhex("02000000000a")]
        assert sum(server_counts.values()) > len(HOSTILE)
        assert server.drops == dict(server_counts)
        assert client.drops == dict(client_counts)


class TestIdentWrap:
    def test_ident_wraps_at_16_bits(self):
        clock = Clock()
        link = LinkedDevices(COSTS)
        server = NetworkStack(link.a, OUR_IP, COSTS, clock)
        client = NetworkStack(link.b, PEER_IP, COSTS, clock)
        client.arp_table[OUR_IP] = link.a.mac
        client._next_ident = 0xFFFF
        for i in range(3):
            client.udp_send(5000, OUR_IP, 53, b"q%d" % i)
        idents = [Ipv4Header.unpack(frame[14:])[0].ident
                  for frame in link.a.rx_queue]
        assert idents == [0xFFFF, 0, 1]
        server.pump()
        assert [server.udp_recv(53) for _ in range(3)] == [
            (PEER_IP, 5000, b"q%d" % i) for i in range(3)]
        assert server.drops == {}


@pytest.mark.parametrize("proto", [PROTO_UDP, PROTO_ICMP, 99])
def test_non_tcp_protocols_match_reference(proto):
    body = UdpHeader(5000, 53, 13).pack() + b"query" if proto == PROTO_UDP \
        else IcmpHeader(ICMP_ECHO_REQUEST, 1, 2).pack(b"ping")
    frame = (EthernetHeader(OUR_MAC, PEER_MAC).pack()
             + Ipv4Header(PEER_IP, OUR_IP, proto, 20 + len(body)).pack()
             + body)
    result = assert_same_outcome(frame)
    assert result["dropped"] == ("proto" if proto == 99 else None)
