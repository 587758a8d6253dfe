"""The lwIP-style stack facade: demux, IP layer, device pump.

All public operations are ``lwip`` entry points, so a compartment boundary
around the network stack turns every socket-buffer poll, send, and device
pump into a gated cross-call.
"""

from __future__ import annotations

from collections import deque

from repro.errors import NetworkError
from repro.kernel.lib import entrypoint, work
from repro.kernel.net.headers import (
    ARP_REPLY,
    ARP_REQUEST,
    ETH_HEADER_LEN,
    ETH_IPV4_LAYOUT,
    ETH_IPV4_LEN,
    ETH_IPV4_WORDS,
    ETHERTYPE_ARP,
    ETHERTYPE_IPV4,
    ICMP_ECHO_REPLY,
    ICMP_ECHO_REQUEST,
    MAC_BROADCAST,
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    TCP_HEADER_LEN,
    TCP_LAYOUT,
    ArpHeader,
    EthernetHeader,
    IcmpHeader,
    TcpHeader,
    UdpHeader,
    fold_checksum,
    ip_bytes,
    ip_str,
    mac_bytes,
    mac_str,
)
from repro.kernel.net.tcp import TcpConnection, TcpState
from repro.obs import tracer as obs

_MAC_BROADCAST_RAW = mac_bytes(MAC_BROADCAST)
_ETHERTYPE_ARP_RAW = ETHERTYPE_ARP.to_bytes(2, "big")
_ETHERTYPE_IPV4_RAW = ETHERTYPE_IPV4.to_bytes(2, "big")
#: The shortest frame, and IPv4 datagram end, that holds a whole TCP header.
_TCP_FRAME_MIN = ETH_IPV4_LEN + TCP_HEADER_LEN


class NetworkStack:
    """One host's network stack bound to one device."""

    def __init__(self, device, ip, costs, clock):
        self.device = device
        self.ip = ip
        self.costs = costs
        self.clock = clock
        self._conns = {}       # 4-tuple -> TcpConnection
        self._listeners = {}   # port -> TcpConnection in LISTEN
        self._udp_queues = {}  # port -> deque of (src_ip, src_port, payload)
        self._next_ident = 1
        # Raw forms of our own addresses: the receive path compares header
        # fields with them and the send path packs them.
        self._mac_raw = mac_bytes(device.mac)
        self._ip_raw = ip_bytes(ip)
        ip_word = int.from_bytes(self._ip_raw, "big")
        self._ip_words = (ip_word >> 16, ip_word & 0xFFFF)
        # Word sum of the IPv4 header fields every frame we send shares:
        # version/IHL and TOS, TTL, and our address (RFC 1071 sums may be
        # built in any grouping).
        self._ip_sum = 0x4500 + (64 << 8) + sum(self._ip_words)
        self._next_port = 49152
        #: src IP of the frame currently being demuxed (handshake helper).
        self.last_src_ip = None
        self.frames_in = 0
        self.frames_out = 0
        #: Received frames dropped as malformed: reason -> count.
        self.drops = {}
        #: ARP cache: ip -> mac; packets parked while resolution runs.
        self.arp_table = {}
        self._arp_pending = {}  # ip -> [(proto, body), ...]
        #: ICMP echo replies received: [(src_ip, ident, seq)].
        self.ping_replies = []
        self._ping_ident = 0x4242

    def now_ns(self):
        return self.clock.ns

    # -- connection registry ----------------------------------------------------
    def register_connection(self, conn):
        self._conns[conn.four_tuple()] = conn

    def ephemeral_port(self):
        port = self._next_port
        self._next_port += 1
        return port

    # -- outbound path -----------------------------------------------------------
    def tcp_output(self, conn, seq, ack, flags, window, payload):
        """Wrap a TCP segment in IP + Ethernet and transmit it."""
        work(self.costs.tcp_segment)
        self._ip_output(conn.remote_ip, PROTO_TCP, TCP_LAYOUT.pack(
            conn.local_port, conn.remote_port, seq & 0xFFFFFFFF,
            ack & 0xFFFFFFFF, 5 << 4, flags, window, 0, 0) + payload)

    @entrypoint("lwip")
    def udp_send(self, src_port, dst_ip, dst_port, payload):
        work(self.costs.tcp_segment / 2.0)
        header = UdpHeader(src_port, dst_port, len(payload) + 8)
        self._ip_output(dst_ip, PROTO_UDP, header.pack() + payload)

    def _ip_output(self, dst_ip, proto, body):
        work(self.costs.ip_route)
        dst_mac = self.arp_table.get(dst_ip)
        if dst_mac is None:
            # Park the packet and ask the link who owns dst_ip.
            self._arp_pending.setdefault(dst_ip, []).append((proto, body))
            self._send_arp(ARP_REQUEST, MAC_BROADCAST, dst_ip)
            return
        dst_raw = ip_bytes(dst_ip)
        dst_word = int.from_bytes(dst_raw, "big")
        total_len = 20 + len(body)
        ident = self._next_ident
        self._next_ident = (ident + 1) & 0xFFFF
        # The IPv4 checksum by word arithmetic: the same integer
        # checksum16 gives over the packed header.
        csum = fold_checksum(self._ip_sum + proto + (dst_word >> 16)
                             + (dst_word & 0xFFFF) + total_len + ident)
        frame = ETH_IPV4_LAYOUT.pack(
            mac_bytes(dst_mac), self._mac_raw, ETHERTYPE_IPV4,
            0x45, 0, total_len, ident, 0, 64, proto, csum,
            self._ip_raw, dst_raw,
        ) + body
        self.frames_out += 1
        self.device.transmit(frame)

    # -- ARP -----------------------------------------------------------------
    def _send_arp(self, oper, target_mac, target_ip):
        arp = ArpHeader(oper, self.device.mac, self.ip, target_mac,
                        target_ip)
        eth = EthernetHeader(
            MAC_BROADCAST if oper == ARP_REQUEST else target_mac,
            self.device.mac, ethertype=ETHERTYPE_ARP,
        )
        self.frames_out += 1
        self.device.transmit(eth.pack() + arp.pack())

    def _arp_input(self, packet):
        arp = ArpHeader.unpack(packet)
        # Gratuitous learning: remember the sender either way.
        self.arp_table[arp.sender_ip] = arp.sender_mac
        if arp.oper == ARP_REQUEST and arp.target_ip == self.ip:
            self._send_arp(ARP_REPLY, arp.sender_mac, arp.sender_ip)
        # Flush packets parked on this resolution.
        parked = self._arp_pending.pop(arp.sender_ip, [])
        for proto, body in parked:
            self._ip_output(arp.sender_ip, proto, body)

    # -- ICMP ---------------------------------------------------------------
    @entrypoint("lwip")
    def ping(self, dst_ip, seq=1, payload=b"flexos-ping"):
        """Send one ICMP echo request; replies land in ping_replies."""
        header = IcmpHeader(ICMP_ECHO_REQUEST, self._ping_ident, seq)
        self._ip_output(dst_ip, PROTO_ICMP, header.pack(payload))
        return self._ping_ident

    def _icmp_input(self, src_ip, body):
        work(self.costs.tcp_segment / 3.0)
        icmp, payload = IcmpHeader.unpack(body)
        if icmp.icmp_type == ICMP_ECHO_REQUEST:
            reply = IcmpHeader(ICMP_ECHO_REPLY, icmp.ident, icmp.seq)
            self._ip_output(src_ip, PROTO_ICMP, reply.pack(payload))
        elif icmp.icmp_type == ICMP_ECHO_REPLY:
            self.ping_replies.append((src_ip, icmp.ident, icmp.seq))

    # -- inbound path ---------------------------------------------------------
    @entrypoint("lwip")
    def pump(self, budget=64):
        """Process up to ``budget`` received frames; returns count."""
        processed = 0
        while processed < budget:
            frame = self.device.poll()
            if frame is None:
                break
            try:
                self._input(frame)
            except NetworkError as err:
                # A malformed frame is dropped and counted, as lwIP
                # does; it must not abandon the rest of the queue.
                self.drops[err.reason] = self.drops.get(err.reason, 0) + 1
                tracer = obs.ACTIVE
                if tracer.enabled:
                    tracer.net_drop(err.reason)
            processed += 1
        return processed

    def _input(self, frame):
        """Demultiplex one received frame in a single pass over its headers.

        Malformed frames raise :class:`NetworkError` with the drop reason;
        frames for another host are ignored.  The checks run in header
        order: Ethernet length, destination MAC, ethertype (ARP, IPv4 or
        dropped), IPv4 length, version, checksum, destination IP, then the
        transport header.
        """
        self.frames_in += 1
        size = len(frame)
        if size < ETH_HEADER_LEN:
            raise NetworkError("runt ethernet frame (%d bytes)" % size,
                               reason="runt")
        dst_mac = frame[:6]
        if dst_mac != self._mac_raw and dst_mac != _MAC_BROADCAST_RAW:
            return  # not addressed to us
        ethertype = frame[12:14]
        if ethertype == _ETHERTYPE_ARP_RAW:
            self._arp_input(frame[ETH_HEADER_LEN:])
            return
        if ethertype != _ETHERTYPE_IPV4_RAW:
            raise NetworkError("unknown ethertype 0x%s" % ethertype.hex(),
                               reason="ethertype")
        if size < ETH_IPV4_LEN:
            raise NetworkError("truncated IPv4 header", reason="truncated")
        (_, src_mac, _, w0, total_len, ident, frag, ttl_proto, csum,
         src_hi, src_lo, dst_hi, dst_lo) = ETH_IPV4_WORDS.unpack_from(frame)
        if w0 >> 12 != 4:
            raise NetworkError("not an IPv4 packet (version %d)" % (w0 >> 12),
                               reason="version")
        if fold_checksum(w0 + total_len + ident + frag + ttl_proto + csum
                         + src_hi + src_lo + dst_hi + dst_lo):
            raise NetworkError("IPv4 header checksum mismatch",
                               reason="checksum")
        if (dst_hi, dst_lo) != self._ip_words:
            return  # promiscuous frames are dropped
        work(self.costs.ip_route)
        src_ip = ip_str(frame[26:30])
        self.last_src_ip = src_ip
        # Opportunistic ARP learning from traffic we accept.
        if src_ip not in self.arp_table:
            self.arp_table[src_ip] = mac_str(src_mac)
        proto = ttl_proto & 0xFF
        end = ETH_HEADER_LEN + total_len  # the IPv4 datagram ends here
        if proto == PROTO_TCP:
            work(self.costs.tcp_segment)
            if end < _TCP_FRAME_MIN or size < _TCP_FRAME_MIN:
                raise NetworkError("truncated TCP header", reason="truncated")
            (src_port, dst_port, seq, ack, offset, flags, window, _,
             _) = TCP_LAYOUT.unpack_from(frame, ETH_IPV4_LEN)
            conn = self._conns.get((self.ip, dst_port, src_ip, src_port))
            if conn is None:
                conn = self._listeners.get(dst_port)
            if conn is None:
                return  # no socket: real stacks send RST; we drop.
            conn.on_segment(
                TcpHeader(src_port, dst_port, seq, ack, flags, window),
                frame[ETH_IPV4_LEN + (offset >> 4) * 4:end],
            )
        elif proto == PROTO_UDP:
            self._udp_input(src_ip, frame[ETH_IPV4_LEN:end])
        elif proto == PROTO_ICMP:
            self._icmp_input(src_ip, frame[ETH_IPV4_LEN:end])
        else:
            raise NetworkError("unknown IP proto %d" % proto,
                               reason="proto")

    def _udp_input(self, src_ip, body):
        work(self.costs.tcp_segment / 2.0)
        header, payload = UdpHeader.unpack(body)
        queue = self._udp_queues.setdefault(header.dst_port, deque())
        queue.append((src_ip, header.src_port, payload))

    # -- TCP control entry points ----------------------------------------------
    @entrypoint("lwip")
    def tcp_listen(self, port):
        """Create a listening connection on ``port``."""
        if port in self._listeners:
            raise NetworkError("port %d already listening" % port)
        conn = TcpConnection(self, self.ip, port)
        conn.open_passive()
        self._listeners[port] = conn
        return conn

    @entrypoint("lwip")
    def tcp_connect(self, dst_ip, dst_port):
        """Active open; returns the connection (handshake in flight)."""
        conn = TcpConnection(self, self.ip, self.ephemeral_port())
        conn.remote_ip = dst_ip
        conn.remote_port = dst_port
        self.register_connection(conn)
        conn.open_active(dst_ip, dst_port)
        return conn

    @entrypoint("lwip")
    def tcp_accept(self, listener):
        """Pop one established embryonic connection, or None."""
        while listener.accept_backlog:
            conn = listener.accept_backlog[0]
            if conn.state is TcpState.ESTABLISHED:
                listener.accept_backlog.popleft()
                return conn
            break
        return None

    @entrypoint("lwip")
    def tcp_send(self, conn, payload):
        return conn.send(payload)

    @entrypoint("lwip")
    def tcp_sendv(self, conn, chunks):
        """Gather-send a chunk list in one stack crossing (``writev``)."""
        return conn.send_segments(chunks)

    @entrypoint("lwip")
    def tcp_recv(self, conn, max_bytes):
        """Non-blocking read from the connection's receive buffer."""
        work(self.costs.function_call)
        return conn.read(max_bytes)

    @entrypoint("lwip")
    def tcp_readable(self, conn):
        return conn.readable_bytes

    @entrypoint("lwip")
    def tcp_close(self, conn):
        conn.close()

    @entrypoint("lwip")
    def udp_recv(self, port):
        queue = self._udp_queues.get(port)
        if not queue:
            return None
        return queue.popleft()
