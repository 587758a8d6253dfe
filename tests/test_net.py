"""Network stack tests: headers, TCP state machine, sockets, loss."""

import pytest

from repro.errors import NetworkError
from repro.hw.clock import Clock
from repro.hw.costs import CostModel
from repro.kernel.net import LinkedDevices, NetworkStack, Socket
from repro.kernel.net.headers import (
    ACK,
    FIN,
    SYN,
    EthernetHeader,
    Ipv4Header,
    TcpHeader,
    UdpHeader,
    checksum16,
    ip_bytes,
    mac_bytes,
)
from repro.kernel.net.tcp import MSS, TcpState
from repro.obs import Tracer, tracing


@pytest.fixture
def pair():
    """Two linked stacks: (server, client)."""
    costs = CostModel.xeon_4114()
    clock = Clock()
    link = LinkedDevices(costs)
    server = NetworkStack(link.a, "10.0.0.2", costs, clock)
    client = NetworkStack(link.b, "10.0.0.1", costs, clock)
    return server, client


def settle(*stacks, rounds=10):
    for _ in range(rounds):
        for stack in stacks:
            stack.pump()


class TestHeaders:
    def test_mac_roundtrip(self):
        assert mac_bytes("02:00:00:00:00:0a") == b"\x02\x00\x00\x00\x00\x0a"

    def test_bad_mac(self):
        with pytest.raises(NetworkError):
            mac_bytes("not-a-mac")

    def test_ip_roundtrip(self):
        assert ip_bytes("10.0.0.1") == b"\x0a\x00\x00\x01"

    def test_ethernet_roundtrip(self):
        eth = EthernetHeader("02:00:00:00:00:01", "02:00:00:00:00:02")
        header, rest = EthernetHeader.unpack(eth.pack() + b"payload")
        assert header.dst == "02:00:00:00:00:01"
        assert header.src == "02:00:00:00:00:02"
        assert rest == b"payload"

    def test_runt_frame_rejected(self):
        with pytest.raises(NetworkError):
            EthernetHeader.unpack(b"\x00" * 5)

    def test_ipv4_checksum_valid(self):
        ip = Ipv4Header("10.0.0.1", "10.0.0.2", 6, 40)
        packed = ip.pack()
        assert checksum16(packed) == 0  # checksum over header is zero

    def test_ipv4_corruption_detected(self):
        packed = bytearray(Ipv4Header("10.0.0.1", "10.0.0.2", 6, 40).pack())
        packed[8] ^= 0xFF  # clobber the TTL
        with pytest.raises(NetworkError, match="checksum"):
            Ipv4Header.unpack(bytes(packed) + b"\x00" * 20)

    def test_ipv4_roundtrip(self):
        ip = Ipv4Header("192.168.1.7", "10.0.0.2", 17, 28, ident=99)
        header, _ = Ipv4Header.unpack(ip.pack() + b"\x00" * 8)
        assert header.src == "192.168.1.7"
        assert header.proto == 17
        assert header.ident == 99

    def test_tcp_roundtrip(self):
        tcp = TcpHeader(1234, 80, seq=7, ack=9, flags=SYN | ACK)
        header, payload = TcpHeader.unpack(tcp.pack() + b"data")
        assert (header.src_port, header.dst_port) == (1234, 80)
        assert header.seq == 7 and header.ack == 9
        assert header.flags == SYN | ACK
        assert payload == b"data"

    def test_tcp_flag_names(self):
        assert TcpHeader(1, 2, 0, 0, SYN | ACK).flag_names() == "SYN|ACK"
        assert TcpHeader(1, 2, 0, 0, 0).flag_names() == "none"

    def test_udp_roundtrip(self):
        udp = UdpHeader(53, 5353, 12)
        header, _ = UdpHeader.unpack(udp.pack() + b"quad")
        assert (header.src_port, header.dst_port) == (53, 5353)


class TestHandshake:
    def test_three_way_handshake(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        assert conn.state is TcpState.ESTABLISHED
        accepted = server.tcp_accept(listener)
        assert accepted is not None
        assert accepted.state is TcpState.ESTABLISHED

    def test_double_listen_rejected(self, pair):
        server, _ = pair
        server.tcp_listen(80)
        with pytest.raises(NetworkError):
            server.tcp_listen(80)

    def test_accept_before_handshake_returns_none(self, pair):
        server, _ = pair
        listener = server.tcp_listen(80)
        assert server.tcp_accept(listener) is None

    def test_syn_to_closed_port_dropped(self, pair):
        server, client = pair
        client.tcp_connect("10.0.0.2", 81)  # nothing listens
        settle(server, client)
        # No crash; the client stays in SYN_SENT (no RST in this model).


class TestDataTransfer:
    def _established(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        return server.tcp_accept(listener), conn, server, client

    def test_client_to_server_bytes(self, pair):
        accepted, conn, server, client = self._established(pair)
        client.tcp_send(conn, b"hello server")
        settle(server, client)
        assert server.tcp_recv(accepted, 100) == b"hello server"

    def test_bidirectional(self, pair):
        accepted, conn, server, client = self._established(pair)
        client.tcp_send(conn, b"ping")
        settle(server, client)
        server.tcp_recv(accepted, 10)
        server.tcp_send(accepted, b"pong")
        settle(server, client)
        assert client.tcp_recv(conn, 10) == b"pong"

    def test_segmentation_at_mss(self, pair):
        accepted, conn, server, client = self._established(pair)
        payload = bytes(range(256)) * 20  # 5120 B > 3 segments
        before = conn.segments_out
        client.tcp_send(conn, payload)
        assert conn.segments_out - before == 4  # ceil(5120/1460)
        settle(server, client)
        received = b""
        while len(received) < len(payload):
            chunk = server.tcp_recv(accepted, 4096)
            if not chunk:
                settle(server, client)
                continue
            received += chunk
        assert received == payload

    def test_partial_reads_preserve_order(self, pair):
        accepted, conn, server, client = self._established(pair)
        client.tcp_send(conn, b"abcdefghij")
        settle(server, client)
        assert server.tcp_recv(accepted, 4) == b"abcd"
        assert server.tcp_recv(accepted, 4) == b"efgh"
        assert server.tcp_recv(accepted, 4) == b"ij"

    def test_sequence_numbers_advance(self, pair):
        accepted, conn, server, client = self._established(pair)
        start = conn.snd_nxt
        client.tcp_send(conn, b"12345")
        assert conn.snd_nxt == start + 5
        settle(server, client)
        assert conn.snd_una == conn.snd_nxt  # fully acknowledged


def hostile_frames(target, src_ip):
    """One malformed frame of each kind, addressed to ``target``."""
    eth = EthernetHeader(target.device.mac, "02:00:00:00:00:66").pack()
    tcp = TcpHeader(4444, 80, seq=1, ack=0, flags=ACK).pack()

    def ip(proto, body):
        return Ipv4Header(src_ip, target.ip, proto, 20 + len(body)).pack()

    bad_csum = bytearray(ip(6, tcp))
    bad_csum[8] ^= 0x01  # TTL changed, checksum not
    bad_version = bytearray(ip(6, tcp))
    bad_version[0] = 0x65
    return {
        "runt": eth[:9],
        "truncated": eth + ip(6, tcp)[:12],
        "checksum": eth + bytes(bad_csum) + tcp,
        "version": eth + bytes(bad_version) + tcp,
        "proto": eth + ip(99, b"junk") + b"junk",
    }


class TestHostileFrames:
    """Malformed frames are dropped and counted; live traffic goes on."""

    def test_bad_frames_among_live_tcp_traffic(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)
        to_server = hostile_frames(server, client.ip)
        to_client = hostile_frames(client, server.ip)
        requests = [b"GET /%d" % i for i in range(len(to_server))]
        received = b""
        for request, server_bad, client_bad in zip(
                requests, to_server.values(), to_client.values()):
            # The bad frame sits ahead of the good segment in one queue.
            server.device.rx_queue.append(server_bad)
            client.tcp_send(conn, request)
            settle(server, client)
            received += server.tcp_recv(accepted, 4096)
            client.device.rx_queue.append(client_bad)
            server.tcp_send(accepted, b"OK " + request)
            settle(server, client)
            assert client.tcp_recv(conn, 4096) == b"OK " + request
        assert received == b"".join(requests)
        expected = {kind: 1 for kind in to_server}
        assert server.drops == expected
        assert client.drops == expected

    def test_drained_queue_in_one_pump(self, pair):
        server, client = pair
        bad = hostile_frames(server, client.ip)
        frames = list(bad.values()) * 2
        server.device.rx_queue.extend(frames)
        assert server.pump() == len(frames)
        assert not server.device.has_rx
        assert server.drops == {kind: 2 for kind in bad}
        assert server.frames_in == len(frames)


class TestDropMetrics:
    """Dropped frames reach the metrics snapshot as ``net_drops``."""

    def test_snapshot_counts_equal_stack_drops(self, pair):
        server, client = pair
        tracer = Tracer(clock=server.clock)
        bad = hostile_frames(server, client.ip)
        with tracing(tracer):
            listener = server.tcp_listen(80)
            conn = client.tcp_connect("10.0.0.2", 80)
            settle(server, client)
            accepted = server.tcp_accept(listener)
            for kind in ("runt", "checksum", "proto"):
                server.device.rx_queue.append(bad[kind])
                client.tcp_send(conn, b"GET /" + kind.encode())
                settle(server, client)
                assert server.tcp_recv(accepted, 4096) == \
                    b"GET /" + kind.encode()
        expected = {"checksum": 1, "proto": 1, "runt": 1}
        assert server.drops == expected
        counters = tracer.metrics.snapshot()["counters"]
        assert counters["net_drops"] == server.drops
        assert len(tracer.events_in("net")) == \
            sum(counters["tcp_segments"].values()) + 3

    def test_section_absent_without_drops(self, pair):
        server, client = pair
        tracer = Tracer(clock=server.clock)
        with tracing(tracer):
            server.tcp_listen(80)
            client.tcp_connect("10.0.0.2", 80)
            settle(server, client)
        assert server.drops == {}
        assert "net_drops" not in tracer.metrics.snapshot()["counters"]


class TestLossRecovery:
    def test_retransmission_after_drop(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)

        # Drop the next data frame the server would receive.
        drops = {"left": 1}

        def drop_one(_index):
            if drops["left"] > 0:
                drops["left"] -= 1
                return True
            return False

        server.device.drop_fn = drop_one
        client.tcp_send(conn, b"important")
        settle(server, client)
        assert server.tcp_recv(accepted, 100) == b""  # lost

        # Fire the retransmission timer (RTO is 200 ms of virtual time).
        client.clock.charge(client.clock.ns_to_cycles(250_000_000))
        conn.poll_retransmit()
        settle(server, client)
        assert server.tcp_recv(accepted, 100) == b"important"
        assert conn.retransmits == 1

    def test_duplicate_segments_ignored(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)
        client.tcp_send(conn, b"once")
        settle(server, client)
        server.tcp_recv(accepted, 10)
        # Force a spurious retransmission: the receiver must not deliver
        # the data twice.
        conn._inflight = [(conn.snd_nxt - 4, b"once", 0)]
        conn.poll_retransmit()
        settle(server, client)
        assert server.tcp_recv(accepted, 10) == b""


class TestTeardown:
    def test_fin_handshake(self, pair):
        server, client = pair
        listener = server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        accepted = server.tcp_accept(listener)
        client.tcp_close(conn)
        settle(server, client)
        assert accepted.fin_received
        assert accepted.state is TcpState.CLOSE_WAIT
        server.tcp_close(accepted)
        settle(server, client)
        assert accepted.state is TcpState.CLOSED
        assert conn.state is TcpState.TIME_WAIT

    def test_send_after_close_rejected(self, pair):
        server, client = pair
        server.tcp_listen(80)
        conn = client.tcp_connect("10.0.0.2", 80)
        settle(server, client)
        client.tcp_close(conn)
        with pytest.raises(NetworkError):
            client.tcp_send(conn, b"late")


class TestSocketsAndUdp:
    def test_socket_facade(self, pair):
        server, client = pair
        listening = Socket(server).bind(8080).listen()
        connecting = Socket(client).connect_start("10.0.0.2", 8080)
        settle(server, client)
        client.pump()
        accepted = listening.try_accept()
        assert accepted is not None
        connecting.send(b"req")
        settle(server, client)
        assert accepted.try_recv(10) == b"req"

    def test_bind_twice_rejected(self, pair):
        server, _ = pair
        sock = Socket(server).bind(1)
        with pytest.raises(NetworkError):
            sock.bind(2)

    def test_udp_roundtrip(self, pair):
        server, client = pair
        client.udp_send(5000, "10.0.0.2", 53, b"query")
        settle(server, client)
        src_ip, src_port, payload = server.udp_recv(53)
        assert (src_ip, src_port) == ("10.0.0.1", 5000)
        assert payload == b"query"

    def test_udp_empty_queue(self, pair):
        server, _ = pair
        assert server.udp_recv(9999) is None

    def test_device_counters(self, pair):
        server, client = pair
        client.udp_send(1, "10.0.0.2", 2, b"x")
        # The first packet to an unknown host triggers ARP resolution:
        # the datagram is parked behind the ARP request.
        assert client.device.tx_frames == 1
        settle(server, client)
        # request -> reply -> flushed datagram.
        assert client.device.tx_frames == 2
        assert server.device.rx_frames == 2
