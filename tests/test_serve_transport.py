"""Tests for the URL-addressed transport layer (:mod:`repro.serve.transport`)."""

import io
import os
import socket
import threading
import time

import pytest

from repro.serve import wire
from repro.serve.transport import (
    FrameTooLarge,
    PeerGone,
    PipeTransport,
    ShmRing,
    SocketTransport,
    TransportError,
    TransportListener,
    TransportTimeout,
    connect,
    parse_url,
)


def _pipe_pair():
    """Two connected PipeTransports over real OS pipes."""
    a2b_r, a2b_w = os.pipe()
    b2a_r, b2a_w = os.pipe()
    a = PipeTransport(os.fdopen(a2b_w, "wb"), os.fdopen(b2a_r, "rb"), peer="a")
    b = PipeTransport(os.fdopen(b2a_w, "wb"), os.fdopen(a2b_r, "rb"), peer="b")
    return a, b


def _tcp_pair():
    """A connected (client, server) SocketTransport pair."""
    listener = TransportListener("tcp://127.0.0.1:0")
    client = connect(str(listener.url), timeout_s=5.0)
    server = listener.accept(timeout_s=5.0)
    listener.close()
    return client, server


# ----------------------------------------------------------------------
class TestParseURL:
    def test_tcp(self):
        url = parse_url("tcp://127.0.0.1:7355")
        assert (url.scheme, url.host, url.port) == ("tcp", "127.0.0.1", 7355)
        assert str(url) == "tcp://127.0.0.1:7355"

    def test_unix(self):
        url = parse_url("unix:///run/soc.sock")
        assert (url.scheme, url.path) == ("unix", "/run/soc.sock")

    def test_pipe(self):
        assert parse_url("pipe://").scheme == "pipe"

    def test_shm(self):
        url = parse_url("shm://")
        assert url.scheme == "shm"
        assert str(url) == "shm://"

    @pytest.mark.parametrize(
        "bad",
        [
            "http://x:1",  # unknown scheme
            "tcp://127.0.0.1",  # missing port
            "tcp://127.0.0.1:notaport",
            "tcp://127.0.0.1:70000",  # out of range
            "unix://relative/path",  # must be absolute
            "pipe://somewhere",  # pipes take no address
            "shm://somewhere",  # so do shm rings
            "127.0.0.1:7355",  # no scheme at all
        ],
    )
    def test_rejects_bad_urls(self, bad):
        with pytest.raises(ValueError):
            parse_url(bad)

    def test_parsed_urls_pass_through(self):
        url = parse_url("tcp://h:1")
        assert parse_url(url) is url


# ----------------------------------------------------------------------
class TestFraming:
    @pytest.fixture(params=["pipe", "tcp"])
    def pair(self, request):
        a, b = _pipe_pair() if request.param == "pipe" else _tcp_pair()
        yield a, b
        a.close()
        b.close()

    def test_control_frame_round_trip(self, pair):
        a, b = pair
        a.send_v2("estimate", wire.call_meta(("cell1", 3.7), {"temp_c": 25.0}), [])
        request = b.recv_frame()
        assert (request.kind, wire.call_args(request)) == ("estimate", (["cell1", 3.7], {"temp_c": 25.0}))
        b.reply(lambda: [1.0, 2.0])
        assert a.recv_frame() == wire.V2Frame("ok", {"value": [1.0, 2.0]}, [])

    def test_clean_close_reads_as_none(self, pair):
        a, b = pair
        a.close()
        assert b.recv_frame() is None

    def test_partial_frame_at_peer_disconnect_raises_peer_gone(self, pair):
        """EOF *inside* a frame is a death, not a close: the header
        promised bytes the peer never delivered."""
        a, b = pair
        body = b"".join(wire.encode_v2("op", wire.call_meta(), []))[wire.LENGTH_PREFIX_SIZE :]
        a.send_chunks([wire.frame_header(len(body)), body[: len(body) // 2]])
        a.close()
        with pytest.raises(PeerGone, match="mid-frame|gone"):
            b.recv_frame()

    def test_recv_deadline_raises_transport_timeout(self, pair):
        a, b = pair
        t0 = time.monotonic()
        with pytest.raises(TransportTimeout):
            b.recv_frame(timeout_s=0.15)
        assert time.monotonic() - t0 < 5.0

    def test_request_promotes_silent_close_to_peer_gone(self, pair):
        a, b = pair

        def server():
            b.recv_frame()
            b.close()  # hang up instead of replying

        thread = threading.Thread(target=server)
        thread.start()
        with pytest.raises(PeerGone, match="closed instead of replying"):
            a.request("ping", wire.call_meta(), timeout_s=5.0)
        thread.join()

    def test_wait_readable_idle_does_not_poison(self, pair):
        """The server-loop idle wait: a False return consumes nothing,
        and the very next frame still parses."""
        a, b = pair
        assert b.wait_readable(timeout_s=0.05) is False
        a.send_v2("hello", {}, [])
        assert b.wait_readable(timeout_s=5.0) is True
        assert b.recv_frame().kind == "hello"

    def test_wait_readable_sees_buffered_readahead(self, pair):
        """Two frames sent back-to-back may both sit in the reader's
        userspace buffer; wait_readable must not block on the empty fd."""
        a, b = pair
        a.send_v2("one", {}, [])
        a.send_v2("two", {}, [])
        assert b.recv_frame().kind == "one"
        assert b.wait_readable(timeout_s=0.05) is True
        assert b.recv_frame().kind == "two"

    def test_v2_frames_travel_unchanged(self, pair):
        import numpy as np

        a, b = pair
        chunks = wire.encode_v2("estimate", {"n": 2}, [np.arange(4.0), np.ones(2)])
        a.send_chunks(chunks)
        frame = b.recv_frame()
        assert isinstance(frame, wire.V2Frame)
        assert frame.kind == "estimate"
        np.testing.assert_array_equal(frame.arrays[0], np.arange(4.0))


# ----------------------------------------------------------------------
class TestShmRing:
    def test_place_returns_aligned_offsets(self, tmp_path):
        import numpy as np

        ring = ShmRing(str(tmp_path / "r"), slots=4, slab_bytes=1024, create=True)
        offsets = ring.place([np.arange(3.0), np.arange(5.0)])
        assert offsets is not None
        assert all(offset % 64 == 0 for offset in offsets)
        got = np.frombuffer(ring.buf, dtype=np.float64, count=3, offset=offsets[0])
        np.testing.assert_array_equal(got, np.arange(3.0))
        ring.close(unlink=True)

    def test_cursor_wraps_and_rewrites_from_the_front(self, tmp_path):
        import numpy as np

        ring = ShmRing(str(tmp_path / "r"), slots=3, slab_bytes=256, create=True)
        seen = set()
        for k in range(20):
            block = np.full(16, float(k))
            (offset,) = ring.place([block])
            seen.add(offset)
            got = np.frombuffer(ring.buf, dtype=np.float64, count=16, offset=offset)
            np.testing.assert_array_equal(got, block)
        assert seen == {0, 256, 512}  # every slot reused, never past the end
        ring.close(unlink=True)

    def test_message_larger_than_ring_returns_none(self, tmp_path):
        import numpy as np

        ring = ShmRing(str(tmp_path / "r"), slots=2, slab_bytes=256, create=True)
        assert ring.place([np.zeros(1024)]) is None
        ring.close(unlink=True)

    def test_attach_reuses_existing_file(self, tmp_path):
        import numpy as np

        path = str(tmp_path / "r")
        writer = ShmRing(path, slots=2, slab_bytes=256, create=True)
        reader = ShmRing(path, slots=2, slab_bytes=256)
        (offset,) = writer.place([np.arange(4.0)])
        got = np.frombuffer(reader.buf, dtype=np.float64, count=4, offset=offset)
        np.testing.assert_array_equal(got, np.arange(4.0))
        reader.close()
        writer.close(unlink=True)

    def test_send_v2_rides_the_ring_when_attached(self, tmp_path):
        import numpy as np

        a, b = _pipe_pair()
        ring_path = str(tmp_path / "ab")
        tx = ShmRing(ring_path, slots=4, slab_bytes=4096, create=True)
        rx = ShmRing(ring_path, slots=4, slab_bytes=4096)
        a.attach_shm(tx=tx)
        b.attach_shm(rx=rx)
        payload = np.random.default_rng(0).standard_normal(200)
        a.send_v2("estimate", {"n": 200}, [payload, payload.astype(np.float32)])
        frame = b.recv_frame()
        assert isinstance(frame, wire.V2Frame)
        np.testing.assert_array_equal(frame.arrays[0], payload)
        assert frame.arrays[1].dtype == np.float32
        # the frame body itself stayed tiny: payload bytes lived in the ring
        a.close()
        b.close()
        rx.close()
        tx.close(unlink=True)

    def test_send_v2_falls_back_inline_when_oversized(self, tmp_path):
        import numpy as np

        a, b = _pipe_pair()
        tx = ShmRing(str(tmp_path / "t"), slots=1, slab_bytes=256, create=True)
        a.attach_shm(tx=tx)
        payload = np.arange(4096.0)
        a.send_v2("estimate", {"n": 4096}, [payload])
        frame = b.recv_frame()  # no rx ring attached: the frame must be self-contained
        np.testing.assert_array_equal(frame.arrays[0], payload)
        a.close()
        b.close()
        tx.close(unlink=True)


# ----------------------------------------------------------------------
class TestSocketLifecycle:
    def test_ephemeral_port_is_resolved(self):
        with TransportListener("tcp://127.0.0.1:0") as listener:
            assert listener.url.port not in (0, None)

    def test_connect_retries_until_listener_binds(self):
        """The restart-by-reconnect race: the dialer arrives before the
        listener exists and still connects within the window."""
        probe = TransportListener("tcp://127.0.0.1:0")
        url = str(probe.url)
        probe.close()  # free the port; rebind it shortly
        results = {}

        def dial():
            results["transport"] = connect(url, timeout_s=5.0)

        thread = threading.Thread(target=dial)
        thread.start()
        time.sleep(0.3)
        listener = TransportListener(url)
        server = listener.accept(timeout_s=5.0)
        thread.join(timeout=5.0)
        client = results["transport"]
        client.send_v2("hi", {}, [])
        assert server.recv_frame().kind == "hi"
        for closable in (client, server, listener):
            closable.close()

    def test_connect_gives_up_after_deadline(self):
        probe = TransportListener("tcp://127.0.0.1:0")
        url = str(probe.url)
        probe.close()
        with pytest.raises(TransportError, match="could not connect"):
            connect(url, timeout_s=0.3)

    def test_stale_unix_socket_file_is_replaced(self, tmp_path):
        path = tmp_path / "soc.sock"
        dead = TransportListener(f"unix://{path}")
        dead._sock.close()  # owner died without unlinking: stale file stays
        assert path.exists()
        listener = TransportListener(f"unix://{path}")
        client = connect(f"unix://{path}", timeout_s=5.0)
        server = listener.accept(timeout_s=5.0)
        client.send_v2("after-steal", {}, [])
        assert server.recv_frame().kind == "after-steal"
        for closable in (client, server, listener):
            closable.close()
        assert not path.exists()  # close() removes the socket file

    def test_live_unix_socket_is_not_stolen(self, tmp_path):
        path = tmp_path / "soc.sock"
        with TransportListener(f"unix://{path}"):
            with pytest.raises(TransportError, match="live process"):
                TransportListener(f"unix://{path}")

    def test_listener_close_unblocks_accept(self):
        listener = TransportListener("tcp://127.0.0.1:0")
        with pytest.raises(TransportTimeout):
            listener.accept(timeout_s=0.05)
        listener.close()
        with pytest.raises(TransportError):
            listener.accept(timeout_s=0.05)


# ----------------------------------------------------------------------
class TestPipeDeadlines:
    def test_deadline_spares_buffered_bytes(self):
        """A frame already sitting in the buffered reader must be
        served even when the fd itself polls empty."""
        a, b = _pipe_pair()
        try:
            a.send_v2("x", {}, [])
            time.sleep(0.05)  # let the bytes land in the pipe
            assert b.recv_frame(timeout_s=0.2).kind == "x"
        finally:
            a.close()
            b.close()

    def test_in_memory_streams_skip_polling(self):
        import io

        rd = io.BytesIO(b"".join(wire.encode_v2("payload", {}, [])))
        transport = PipeTransport(io.BytesIO(), rd, peer="mem")
        assert transport.wait_readable(timeout_s=0.01) is True
        assert transport.recv_frame(timeout_s=0.01).kind == "payload"


# ----------------------------------------------------------------------
class TestTransportTypes:
    def test_socket_transport_peer_names(self):
        client, server = _tcp_pair()
        try:
            assert client.peer.startswith("tcp://")
            assert server.peer.startswith("tcp://")
        finally:
            client.close()
            server.close()

    def test_send_after_close_raises_peer_gone(self):
        client, server = _tcp_pair()
        server.close()
        client.close()
        with pytest.raises((PeerGone, TransportError)):
            client.send_v2("too late", {}, [])
        assert isinstance(client, SocketTransport)


# ----------------------------------------------------------------------
class TestFrameCap:
    """A forged length header is refused before any body is read."""

    def test_socket_rejects_oversized_header_promptly(self):
        ours, theirs = socket.socketpair()
        transport = SocketTransport(ours)
        theirs.sendall(b"\xff\xff\xff\xff")
        t0 = time.monotonic()
        # without the cap this would wait for a 4 GB body and time out
        with pytest.raises(FrameTooLarge) as info:
            transport.recv_frame(timeout_s=5.0)
        assert time.monotonic() - t0 < 1.0
        assert isinstance(info.value, TransportError)
        transport.close()
        theirs.close()

    def test_worker_endpoint_drops_the_connection(self):
        from repro.serve.workers import WorkerEndpoint

        ours, theirs = socket.socketpair()
        theirs.sendall(b"\xff\xff\xff\xff")
        assert WorkerEndpoint(SocketTransport(ours)).serve() == "closed"
        theirs.close()

    def test_stream_reader_rejects_one_byte_over_the_cap(self):
        assert wire.frame_length(wire.frame_header(wire.MAX_FRAME_BYTES)) == wire.MAX_FRAME_BYTES
        stream = io.BytesIO(wire.frame_header(wire.MAX_FRAME_BYTES + 1))
        with pytest.raises(FrameTooLarge):
            wire.read_frame(stream)
