"""Host fast path: word-sum checksum, bounded address caches, and the
inline ``current_library`` save/restore on every routed-call path.

These pieces only make the simulator cheaper on the host; the tests pin
that they compute exactly what the straightforward versions computed and
unwind exactly as safely.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.toolchain.build import build_image
from repro.core.vm import FlexOSInstance, Machine
from repro.errors import NetworkError
from repro.hw.cpu import use_context
from repro.kernel.lib import entrypoint
from repro.kernel.net.headers import (
    IP_HEADER_LEN,
    Ipv4Header,
    checksum16,
    ip_bytes,
    ip_str,
    mac_bytes,
    mac_str,
)
from tests.conftest import make_config


def reference_checksum16(data):
    """RFC 1071 section 4.1, one 16-bit word at a time."""
    if len(data) % 2:
        data = bytes(data) + b"\x00"
    total = 0
    for i in range(0, len(data), 2):
        total += (data[i] << 8) | data[i + 1]
    while total >> 16:
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


class TestChecksum:
    @settings(max_examples=300, deadline=None)
    @given(st.binary(max_size=2048))
    def test_matches_reference_on_random_bytes(self, data):
        assert checksum16(data) == reference_checksum16(data)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=1024).map(lambda n: 2 * n + 1),
           st.integers(min_value=0, max_value=255))
    def test_matches_reference_on_odd_lengths(self, length, fill):
        data = bytes((fill + i) & 0xFF for i in range(length))
        assert checksum16(data) == reference_checksum16(data)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=4096),
           st.binary(max_size=16))
    def test_matches_reference_on_ff_runs(self, run, tail):
        # All-ones words are where the end-around carry folds most.
        data = b"\xff" * run + tail
        assert checksum16(data) == reference_checksum16(data)

    def test_empty_input(self):
        assert checksum16(b"") == reference_checksum16(b"") == 0xFFFF

    def test_odd_pad_leaves_caller_buffer_alone(self):
        data = bytearray(b"\x12\x34\x56")
        assert checksum16(data) == reference_checksum16(b"\x12\x34\x56")
        assert data == bytearray(b"\x12\x34\x56")


addresses_ip = st.tuples(*[st.integers(0, 255)] * 4).map(
    lambda parts: ".".join(str(p) for p in parts))
addresses_mac = st.binary(min_size=6, max_size=6).map(
    lambda raw: ":".join("%02x" % b for b in raw))


class TestIpv4Header:
    @settings(max_examples=100, deadline=None)
    @given(addresses_ip, addresses_ip, st.integers(0, 255),
           st.integers(IP_HEADER_LEN, 0xFFFF), st.integers(0, 0xFFFF),
           st.integers(0, 255))
    def test_pack_unpack_round_trip(self, src, dst, proto, total_len,
                                    ident, ttl):
        packed = Ipv4Header(src, dst, proto, total_len, ident=ident,
                            ttl=ttl).pack()
        assert checksum16(packed) == 0
        header, _ = Ipv4Header.unpack(packed)
        assert (header.src, header.dst, header.proto, header.total_len,
                header.ident, header.ttl) == (src, dst, proto, total_len,
                                              ident, ttl)

    @pytest.mark.parametrize("bit", range(IP_HEADER_LEN * 8))
    def test_any_single_bit_flip_rejected(self, bit):
        packed = bytearray(
            Ipv4Header("10.0.0.1", "10.0.0.2", 6, 40, ident=7).pack())
        packed[bit // 8] ^= 1 << (bit % 8)
        with pytest.raises(NetworkError):
            Ipv4Header.unpack(bytes(packed) + b"\x00" * 20)


CONVERTERS = (mac_bytes, mac_str, ip_bytes, ip_str)


class TestAddressCaches:
    @pytest.mark.parametrize("bad", [
        "not-a-mac", "02:00:00:00:00", "zz:00:00:00:00:01",
        "02:00:00:00:00:100",
    ])
    def test_bad_mac_raises_every_call(self, bad):
        for _ in range(2):
            with pytest.raises(NetworkError):
                mac_bytes(bad)

    @pytest.mark.parametrize("bad", [
        "10.0.0", "10.0.0.1.5", "10.0.x.1", "10.0.0.256",
    ])
    def test_bad_ip_raises_every_call(self, bad):
        for _ in range(2):
            with pytest.raises(NetworkError):
                ip_bytes(bad)

    @settings(max_examples=100, deadline=None)
    @given(addresses_mac)
    def test_mac_round_trip(self, mac):
        assert mac_str(mac_bytes(mac)) == mac

    @settings(max_examples=100, deadline=None)
    @given(addresses_ip)
    def test_ip_round_trip(self, ip):
        assert ip_str(ip_bytes(ip)) == ip

    @pytest.mark.parametrize("converter", CONVERTERS,
                             ids=lambda f: f.__name__)
    def test_caches_are_bounded(self, converter):
        assert converter.cache_info().maxsize == 256

    def test_address_stream_cannot_grow_cache(self):
        for i in range(1000):
            ip_str(ip_bytes("10.%d.%d.1" % (i >> 8, i & 0xFF)))
        assert ip_bytes.cache_info().currsize <= 256
        assert ip_str.cache_info().currsize <= 256


class Boom(Exception):
    pass


@entrypoint("lwip")
def _raising_lwip_entry():
    raise Boom("callee failed")


def _boot(mechanism, mpk_gate="full", isolate=("lwip",)):
    config = make_config(mechanism=mechanism, mpk_gate=mpk_gate,
                         isolate=isolate)
    return FlexOSInstance(build_image(config), machine=Machine()).boot()


def _snapshot(ctx):
    return ctx.current_library, ctx.compartment, ctx.gate_depth


class TestExceptionSafety:
    """A raising callee leaves library, compartment and depth untouched."""

    def test_direct_path(self):
        instance = _boot("intel-mpk", isolate=())
        with instance.run():
            ctx = instance.ctx
            before = _snapshot(ctx)
            calls = instance.router.direct_calls
            with pytest.raises(Boom):
                _raising_lwip_entry()
            assert instance.router.direct_calls == calls + 1
            assert _snapshot(ctx) == before

    @pytest.mark.parametrize("mechanism, mpk_gate", [
        ("intel-mpk", "light"),
        ("vm-ept", "full"),
    ])
    def test_gated_path(self, mechanism, mpk_gate):
        instance = _boot(mechanism, mpk_gate=mpk_gate)
        with instance.run():
            ctx = instance.ctx
            before = _snapshot(ctx)
            calls = instance.router.gated_calls
            with pytest.raises(Boom):
                _raising_lwip_entry()
            assert instance.router.gated_calls == calls + 1
            assert _snapshot(ctx) == before

    def test_no_router_wrapper_path(self):
        instance = _boot("intel-mpk")
        ctx = instance.ctx
        router, ctx.router = ctx.router, None
        try:
            with use_context(ctx):
                ctx.current_library = "uksched"
                before = _snapshot(ctx)
                with pytest.raises(Boom):
                    _raising_lwip_entry()
                assert _snapshot(ctx) == before
        finally:
            ctx.router = router
