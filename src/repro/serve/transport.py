"""URL-addressed worker transports: pipes, Unix sockets, TCP sockets.

Until this module existed the shard-worker wire protocol
(:mod:`repro.serve.wire`) only ever ran over one medium — the
stdin/stdout pipes of a child the parent had just spawned — and the
plumbing (stream handles, frame reads, broken-pipe handling, exit-code
crash detection) was inlined in the pipe worker client.  That works for
one machine; a fleet spanning hosts needs the same frames over real
sockets, and a transport the parent did not spawn cannot be declared
dead by ``waitpid``.

:class:`Transport` is the seam: a tiny connection-oriented surface —
``send_v2`` / ``recv_frame`` / ``request`` / ``reply`` / ``close`` —
that carries the length-prefixed frame stream of
:mod:`repro.serve.wire` (one frame format for control and bulk
messages, byte-identical on every medium), addressed by URL:

- ``pipe://``            — parent<->child stdio pipes (the local fast
  path; how the child is spawned is
  :class:`~repro.serve.workers.ShardWorker`'s business);
- ``shm://``             — stdio pipes for framing plus a pair of
  preallocated :class:`ShmRing` shared-memory slab rings for bulk
  array payloads (the fastest local path; see below);
- ``unix:///path/sock``  — a Unix-domain socket (same-host daemons);
- ``tcp://host:port``    — a TCP socket (multi-host fleets; Nagle is
  disabled so micro-batched request frames are not coalesced against
  the latency SLO).

**Shared-memory rings.**  ``shm://`` keeps the pipe for control flow
and frame ordering but stops copying array payloads through it: each
direction gets a file-backed ``mmap`` ring of fixed-size slabs (a file
under ``/dev/shm`` when the host has one), the sender places payload
bytes into consecutive slabs (:meth:`ShmRing.place`) and ships a v2
frame whose array specs carry ``[offset, nbytes]`` refs instead of
in-band bytes (:func:`repro.serve.wire.encode_v2_shm`), and the
receiver maps them back as zero-copy views.  No per-slab bookkeeping
is needed because the worker protocol is strictly one request / one
reply in order per transport and receivers copy results out at the API
boundary before the next send — by the time a writer's bump cursor
wraps, the previous frame's refs are dead.  Frames that don't fit the
ring fall back to in-band v2 automatically (capacity bounds memory,
never message size).  ``multiprocessing.shared_memory`` is avoided on
purpose: its resource tracker unlinks attached segments on exit in the
supported 3.10–3.12 range (bpo-38119); a plain file + ``mmap`` has
none of that magic and unlinks exactly once, when the owning worker
client drops its link.

Peer-death detection is the part that genuinely changes across media.
A spawned child's death is visible out-of-band (``poll``/``waitpid``
plus EOF on the pipe); a remote peer offers only the byte stream, so
this module layers two in-band signals:

- **torn stream** — EOF at a frame boundary is a clean close
  (``recv_frame`` returns ``None``); EOF *inside* a frame means the
  peer vanished mid-message and raises :class:`PeerGone` (the partial
  frame cannot be completed, and the connection is marked broken);
- **deadlines** — ``recv_frame(timeout_s=...)`` bounds how long a
  caller waits on a silent peer and raises :class:`TransportTimeout`.
  A timeout *poisons* the transport (the stream position may be
  mid-frame, so no further traffic can be framed safely): callers
  reconnect, they do not retry on the same socket.  Heartbeats build
  on this — :meth:`Transport.request` with a short deadline is the
  probe the control plane uses to detect silently-dead peers between
  requests (see ``ShardedFleet.heartbeat``).

A body that does not decode raises
:class:`~repro.serve.wire.FrameError`, also a :class:`TransportError`:
receivers drop that connection exactly as they drop a torn one.

Both socket flavors expose the same buffered-file read side as a pipe,
so the codec — and its zero-copy properties — is shared unchanged.  A
frame's first chunk (header + JSON meta) and its raw array payloads
are written with one ``sendall`` per chunk, never concatenated through
an intermediate copy.
"""

from __future__ import annotations

import contextlib
import dataclasses
import mmap
import os
import selectors
import socket
import time
from pathlib import Path
from typing import Callable, Iterable

from . import wire
from .wire import FrameError, FrameTooLarge, TransportError

__all__ = [
    "FrameError",
    "FrameTooLarge",
    "PeerGone",
    "PipeTransport",
    "ShmRing",
    "SocketTransport",
    "Transport",
    "TransportError",
    "TransportListener",
    "TransportTimeout",
    "TransportURL",
    "connect",
    "parse_url",
    "shm_ring_dir",
]

SCHEMES = ("pipe", "shm", "tcp", "unix")

# shm ring geometry defaults: 16 slabs x 256 KiB = 4 MiB per direction,
# comfortably above the largest smoke-fleet rollout reply while staying
# irrelevant next to the engine's own buffers
DEFAULT_SHM_SLOTS = 16
DEFAULT_SHM_SLAB_BYTES = 256 * 1024
_SHM_ALIGN = 64  # per-array alignment inside the ring (cache line)


class PeerGone(TransportError):
    """The peer closed or died: EOF mid-frame, reset, or broken pipe."""


class TransportTimeout(TransportError):
    """A receive deadline expired; the transport is no longer framed."""


@dataclasses.dataclass(frozen=True)
class TransportURL:
    """One parsed transport address.

    ``host``/``port`` are set for ``tcp``, ``path`` for ``unix``;
    ``pipe`` URLs carry neither (the address *is* the child's stdio).
    """

    scheme: str
    host: str | None = None
    port: int | None = None
    path: str | None = None

    def __str__(self) -> str:
        if self.scheme == "tcp":
            return f"tcp://{self.host}:{self.port}"
        if self.scheme == "unix":
            return f"unix://{self.path}"
        return f"{self.scheme}://"


def parse_url(url: str | TransportURL) -> TransportURL:
    """Parse ``pipe://`` / ``unix:///path`` / ``tcp://host:port``.

    ``tcp`` port 0 is allowed for listeners (the OS assigns an
    ephemeral port; read :attr:`TransportListener.url` for the bound
    address).
    """
    if isinstance(url, TransportURL):
        return url
    scheme, sep, rest = url.partition("://")
    if not sep or scheme not in SCHEMES:
        raise ValueError(f"unsupported transport URL {url!r} (schemes: {', '.join(SCHEMES)})")
    if scheme in ("pipe", "shm"):
        if rest:
            raise ValueError(f"{scheme} transport takes no address, got {url!r}")
        return TransportURL(scheme=scheme)
    if scheme == "unix":
        if not rest.startswith("/"):
            raise ValueError(f"unix transport needs an absolute path, got {url!r}")
        return TransportURL(scheme="unix", path=rest)
    host, sep, port = rest.rpartition(":")
    if not sep or not host:
        raise ValueError(f"tcp transport needs host:port, got {url!r}")
    try:
        port_num = int(port)
    except ValueError:
        raise ValueError(f"tcp port must be an integer, got {url!r}") from None
    if not 0 <= port_num <= 0xFFFF:
        raise ValueError(f"tcp port out of range in {url!r}")
    return TransportURL(scheme="tcp", host=host, port=port_num)


class ShmRing:
    """A preallocated ring of shared-memory slabs for bulk payloads.

    One ring serves one direction of one transport: exactly one process
    writes it (via :meth:`place`) and exactly one reads it (via
    :attr:`buf`, through ``np.frombuffer`` in the wire codec).  A
    message's payload blocks are copied into consecutive 64-byte-aligned
    positions starting at a slab boundary; the bump cursor wraps to slab
    0 when the next message would run off the end, which is safe because
    the worker protocol keeps at most one frame in flight per direction
    (see the module docstring).  ``place`` returns ``None`` when a
    message is bigger than the whole ring — the caller falls back to an
    in-band frame.

    The backing store is a plain file (created under ``/dev/shm`` when
    available) mapped with ``mmap`` — *not*
    ``multiprocessing.shared_memory``, whose resource tracker unlinks
    attached segments on process exit in 3.10–3.12.  The creating side
    passes ``create=True`` and later ``close(unlink=True)``; attaching
    sides open the existing file and just ``close()``.
    """

    def __init__(
        self,
        path: str,
        slots: int = DEFAULT_SHM_SLOTS,
        slab_bytes: int = DEFAULT_SHM_SLAB_BYTES,
        create: bool = False,
    ):
        self.path = str(path)
        self.slots = int(slots)
        self.slab_bytes = int(slab_bytes)
        if self.slots < 1:
            raise ValueError(f"shm ring needs at least one slab, got {self.slots}")
        if self.slab_bytes < _SHM_ALIGN or self.slab_bytes % _SHM_ALIGN:
            raise ValueError(f"slab size must be a positive multiple of {_SHM_ALIGN}, got {self.slab_bytes}")
        self.nbytes = self.slots * self.slab_bytes
        fd = os.open(self.path, os.O_RDWR | (os.O_CREAT if create else 0), 0o600)
        try:
            if create:
                os.ftruncate(fd, self.nbytes)
            elif os.fstat(fd).st_size < self.nbytes:
                raise ValueError(
                    f"shm ring file {self.path} is {os.fstat(fd).st_size} bytes, need {self.nbytes}"
                )
            self._mm = mmap.mmap(fd, self.nbytes)
        finally:
            os.close(fd)
        self.buf = self._mm  # the receive-side buffer np.frombuffer maps over
        self._cursor = 0  # next free slab index (writer side only)
        self._closed = False

    def place(self, blocks) -> list[int] | None:
        """Copy payload blocks into the ring; their byte offsets, or ``None``.

        ``blocks`` are buffer objects (memoryviews of array memory).
        All blocks of one message land in one consecutive slab run so a
        single wrap check covers the whole message.
        """
        rel = []
        total = 0
        for block in blocks:
            rel.append(total)
            total += -(-block.nbytes // _SHM_ALIGN) * _SHM_ALIGN
        need = -(-total // self.slab_bytes)
        if need > self.slots:
            return None
        if self._cursor + need > self.slots:
            self._cursor = 0  # wrap: the previous frame has been consumed
        base = self._cursor * self.slab_bytes
        self._cursor += need
        for block, offset in zip(blocks, rel):
            self._mm[base + offset : base + offset + block.nbytes] = block
        return [base + offset for offset in rel]

    def close(self, unlink: bool = False) -> None:
        """Unmap the ring; the creating side also unlinks the backing file.

        Mapped views handed out earlier (decoded arrays not yet copied)
        keep the pages alive until they are garbage collected — mmap
        close only fails if a view is *actively* exported, in which case
        the unmap is skipped and retried implicitly at GC.
        """
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(BufferError, ValueError):
            self._mm.close()
        if unlink:
            with contextlib.suppress(OSError):
                os.unlink(self.path)

    @property
    def closed(self) -> bool:
        return self._closed

    def __repr__(self) -> str:
        return f"ShmRing(path={self.path!r}, slots={self.slots}, slab_bytes={self.slab_bytes})"


def shm_ring_dir() -> str:
    """Directory for ring backing files: ``/dev/shm`` when the host has one.

    Falling back to the default temp dir keeps ``shm://`` working on
    hosts without a tmpfs mount — the mapping is still shared memory;
    only eviction-to-disk behavior differs under memory pressure.
    """
    if os.path.isdir("/dev/shm"):
        return "/dev/shm"
    import tempfile

    return tempfile.gettempdir()


class Transport:
    """One framed, bidirectional connection to a peer.

    Subclasses provide the raw streams; framing, torn-stream
    detection and deadline bookkeeping live here.  Not thread-safe:
    callers serialize request/reply pairs per transport (the worker
    protocol is strictly one reply per request, in order).
    """

    peer: str = "?"
    # shm rings for bulk payloads (attach_shm); class attrs so plain
    # pipe/socket transports pay nothing for the feature existing
    _shm_tx: ShmRing | None = None
    _shm_rx: ShmRing | None = None

    # -- raw stream hooks (subclass responsibility) --------------------
    def _write(self, chunk) -> None:
        raise NotImplementedError

    def _flush(self) -> None:
        raise NotImplementedError

    def _read_stream(self):
        """The buffered binary read side frames are decoded from."""
        raise NotImplementedError

    def _set_read_timeout(self, timeout_s: float | None) -> None:
        """Arm (or clear) the receive deadline; may be a no-op."""

    def close(self) -> None:
        raise NotImplementedError

    @property
    def closed(self) -> bool:
        raise NotImplementedError

    # -- framing -------------------------------------------------------
    def send_chunks(self, chunks: Iterable) -> None:
        """Write pre-encoded frame chunks (header + raw array buffers)."""
        try:
            for chunk in chunks:
                self._write(chunk)
            self._flush()
        except (BrokenPipeError, ConnectionError, OSError) as exc:
            raise PeerGone(f"peer {self.peer} gone while sending: {exc}") from exc

    def attach_shm(self, tx: ShmRing | None = None, rx: ShmRing | None = None) -> None:
        """Route bulk v2 payloads through shared-memory rings.

        ``tx`` is the ring this side writes (:meth:`send_v2` payloads),
        ``rx`` the ring the peer writes (resolved by
        :meth:`recv_frame`'s decode).  Both sides of a connection attach
        the same two rings with the roles swapped.
        """
        self._shm_tx = tx
        self._shm_rx = rx

    def send_v2(self, kind: str, meta: dict, arrays) -> None:
        """Write one frame, its payloads via the attached shm ring when they fit.

        Encoding happens before any bytes hit the stream on both paths,
        so a ``TypeError`` from a value the codec cannot carry leaves
        the stream clean and the transport usable.
        """
        self.send_chunks(self._encode(kind, meta, arrays))

    def _encode(self, kind: str, meta: dict, arrays) -> list:
        if self._shm_tx is not None and not self._shm_tx.closed:
            chunks = wire.encode_v2_shm(kind, meta, arrays, self._shm_tx)
            if chunks is not None:
                return chunks
        return wire.encode_v2(kind, meta, arrays)

    def recv_frame(self, timeout_s: float | None = None) -> wire.V2Frame | None:
        """Read one frame; ``None`` means the peer closed cleanly.

        Raises :class:`PeerGone` when the stream ends inside a frame
        (the peer died mid-message), :class:`TransportTimeout` when
        ``timeout_s`` elapses first, :class:`FrameTooLarge` when the
        header announces more than
        :data:`~repro.serve.wire.MAX_FRAME_BYTES`, and
        :class:`~repro.serve.wire.FrameError` when the body does not
        decode.  Each means the peer cannot be trusted to stay framed —
        abandon the transport and reconnect.
        """
        self._set_read_timeout(timeout_s)
        stream = self._read_stream()
        try:
            header = wire.read_exact(stream, wire.LENGTH_PREFIX_SIZE)
            if header is None:
                return None  # clean EOF at a frame boundary
            length = wire.frame_length(header)
            body = wire.read_exact(stream, length)
        except FrameTooLarge:
            raise  # the body was never read: the stream is unframed
        except (socket.timeout, TimeoutError) as exc:
            raise TransportTimeout(
                f"no frame from {self.peer} within {timeout_s:.3f}s"
            ) from exc
        except (ConnectionError, OSError, ValueError) as exc:
            # ValueError: reading a stream another timeout already broke
            raise PeerGone(f"peer {self.peer} gone while receiving: {exc}") from exc
        finally:
            self._set_read_timeout(None)
        if body is None:
            raise PeerGone(f"peer {self.peer} vanished mid-frame (partial frame discarded)")
        return wire.decode_body(body, shm=self._shm_rx)

    def request(self, kind: str, meta: dict, timeout_s: float | None = None) -> wire.V2Frame:
        """One control round-trip: send a zero-array frame, return the reply frame.

        The building block for heartbeats and handshakes.  A ``None``
        reply (peer closed instead of answering) is promoted to
        :class:`PeerGone` — a request must be answered.
        """
        return self.request_with(lambda t: t.send_v2(kind, meta, ()), timeout_s=timeout_s)

    def request_with(self, send: Callable[[Transport], None], timeout_s: float | None = None) -> wire.V2Frame:
        """A round-trip whose request ``send(transport)`` writes itself.

        Same reply semantics as :meth:`request`; used by callers whose
        request carries arrays (the bulk ops) or is built once per call.
        """
        send(self)
        reply = self.recv_frame(timeout_s=timeout_s)
        if reply is None:
            raise PeerGone(f"peer {self.peer} closed instead of replying")
        return reply

    def reply(self, handler: Callable[[], object]) -> None:
        """Answer one request with ``handler()``: the one server-side reply path.

        A :class:`~repro.serve.wire.V2Frame` result is sent as it is (bulk
        replies); any other value as ``ok`` with ``{"value": result}``.
        An exception from the handler — or from encoding its result —
        becomes an ``err`` frame naming its type, so the peer's errors
        travel the wire and the connection stays framed.  Only a failure
        of this link raises (:class:`TransportError`).
        """
        try:
            result = handler()
            if not isinstance(result, wire.V2Frame):
                result = wire.V2Frame("ok", {"value": result}, [])
            chunks = self._encode(result.kind, result.meta, result.arrays)
        except Exception as exc:  # errors travel the wire, not the serving process
            chunks = self._encode("err", wire.error_meta(exc), [])
        self.send_chunks(chunks)

    def wait_readable(self, timeout_s: float | None = None) -> bool:
        """Block until the next frame's first byte is available.

        Unlike a :meth:`recv_frame` deadline this never consumes bytes,
        so a ``False`` return (nothing arrived in time) leaves the
        stream framed and the transport fully usable — it is the idle
        wait for server accept loops that must poll a stop flag between
        requests without poisoning the connection.  Buffered read-ahead
        from a previous frame counts as readable.
        """
        return True  # base: no poll support, let recv_frame block

    def __enter__(self) -> Transport:
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class PipeTransport(Transport):
    """The frame stream over a pair of OS pipes (or any binary streams).

    The local fast path under ``pipe://`` and ``shm://``
    :class:`~repro.serve.workers.ShardWorker` children, behind the
    :class:`Transport` surface.  Receive deadlines are
    honored via ``select`` on the read end when it is a real pipe;
    in-memory streams (tests) skip the poll.
    """

    def __init__(self, write_stream, read_stream, peer: str = "pipe"):
        self._wr = write_stream
        self._rd = read_stream
        self.peer = peer
        self._closed = False
        self._deadline_s: float | None = None

    def _write(self, chunk) -> None:
        self._wr.write(chunk)

    def _flush(self) -> None:
        self._wr.flush()

    def _read_stream(self):
        if self._deadline_s is None:
            return self._rd
        return _DeadlineReader(self._rd, self._deadline_s)

    def _set_read_timeout(self, timeout_s: float | None) -> None:
        self._deadline_s = None if timeout_s is None else time.monotonic() + timeout_s

    def wait_readable(self, timeout_s: float | None = None) -> bool:
        try:
            fd = self._rd.fileno()
        except (AttributeError, OSError, ValueError):
            return True  # in-memory stream (tests): reads cannot block
        if _buffered_ready(self._rd, fd):
            return True
        return _fd_readable(fd, timeout_s)

    def close(self) -> None:
        self._closed = True
        for stream in (self._wr, self._rd):
            with contextlib.suppress(OSError, ValueError):
                stream.close()

    @property
    def closed(self) -> bool:
        return self._closed


class _DeadlineReader:
    """Wrap a pipe's read side with a ``select``-based deadline.

    ``read`` blocks at most until the deadline; hitting it raises
    ``TimeoutError``, which :meth:`Transport.recv_frame` maps to
    :class:`TransportTimeout`.  Streams without a file descriptor
    (BytesIO in tests) cannot block, so they read straight through.
    """

    def __init__(self, stream, deadline_s: float):
        self._stream = stream
        self._deadline_s = deadline_s
        try:
            self._fd = stream.fileno()
        except (AttributeError, OSError, ValueError):
            self._fd = None

    def read(self, n: int) -> bytes:
        # buffered read-ahead first: select() only sees the fd
        if self._fd is not None and not _buffered_ready(self._stream, self._fd):
            remaining = self._deadline_s - time.monotonic()
            if remaining <= 0 or not _fd_readable(self._fd, remaining):
                raise TimeoutError("pipe read deadline expired")
        return self._stream.read(n)


def _fd_readable(fd: int, timeout_s: float | None) -> bool:
    """``select`` one fd for reading; ``None`` waits forever."""
    with selectors.DefaultSelector() as sel:
        sel.register(fd, selectors.EVENT_READ)
        return bool(sel.select(timeout_s))


def _buffered_ready(stream, fd: int) -> bool:
    """Whether ``stream`` holds read-ahead bytes a poll on ``fd`` misses.

    ``BufferedReader.read`` pulls whole kernel chunks, so the start of
    the next frame may already sit in userspace while the fd polls
    empty.  Probing with the fd briefly non-blocking makes ``peek``
    return the buffer without issuing a blocking raw read.
    """
    peek = getattr(stream, "peek", None)
    if peek is None:
        return False  # raw stream: no read-ahead to miss
    try:
        os.set_blocking(fd, False)
    except OSError:
        return False
    try:
        return len(peek(1)) > 0
    except (BlockingIOError, OSError, ValueError):
        return False
    finally:
        with contextlib.suppress(OSError):
            os.set_blocking(fd, True)


class SocketTransport(Transport):
    """The frame stream over a connected TCP or Unix socket."""

    def __init__(self, sock: socket.socket, peer: str | None = None):
        sock.settimeout(None)  # blocking by default; deadlines are per-recv
        if sock.family == socket.AF_INET:
            with contextlib.suppress(OSError):
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._sock = sock
        self._rd = sock.makefile("rb")
        self.peer = peer if peer is not None else _peer_name(sock)
        self._closed = False

    def _write(self, chunk) -> None:
        self._sock.sendall(chunk)

    def _flush(self) -> None:
        pass  # sendall already handed the bytes to the kernel

    def _read_stream(self):
        return self._rd

    def _set_read_timeout(self, timeout_s: float | None) -> None:
        self._sock.settimeout(timeout_s)

    def wait_readable(self, timeout_s: float | None = None) -> bool:
        if self._closed:
            return True  # let recv_frame surface the real error
        fd = self._sock.fileno()
        if fd < 0:
            return True
        if _buffered_ready(self._rd, fd):
            return True
        return _fd_readable(fd, timeout_s)

    def close(self) -> None:
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.shutdown(socket.SHUT_RDWR)
        with contextlib.suppress(OSError):
            self._rd.close()
        with contextlib.suppress(OSError):
            self._sock.close()

    @property
    def closed(self) -> bool:
        return self._closed


def _peer_name(sock: socket.socket) -> str:
    try:
        peer = sock.getpeername()
    except OSError:
        return "?"
    if isinstance(peer, tuple):
        return f"tcp://{peer[0]}:{peer[1]}"
    return f"unix://{peer or '?'}"


def connect(
    url: str | TransportURL,
    timeout_s: float = 10.0,
    retry_interval_s: float = 0.05,
) -> SocketTransport:
    """Dial a socket URL, retrying refused connections until ``timeout_s``.

    Retrying here (rather than in every caller) is what makes
    restart-by-reconnect races benign: a worker that is still binding
    its listener — or being respawned after a crash — turns into a
    short wait instead of an error.  Raises :class:`TransportError`
    when the deadline passes without a connection.
    """
    parsed = parse_url(url)
    if parsed.scheme in ("pipe", "shm"):
        raise ValueError(f"{parsed.scheme}:// has no dialable address; spawn the worker instead")
    deadline = time.monotonic() + timeout_s
    last_error: Exception | None = None
    while True:
        remaining = max(deadline - time.monotonic(), 0.001)
        try:
            if parsed.scheme == "tcp":
                sock = socket.create_connection((parsed.host, parsed.port), timeout=remaining)
            else:
                sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                sock.settimeout(remaining)
                sock.connect(parsed.path)
            return SocketTransport(sock, peer=str(parsed))
        except (ConnectionError, FileNotFoundError, socket.timeout, TimeoutError, OSError) as exc:
            last_error = exc
        if time.monotonic() >= deadline:
            raise TransportError(f"could not connect to {parsed} within {timeout_s:.1f}s: {last_error}")
        time.sleep(retry_interval_s)


class TransportListener:
    """Bind a socket URL and accept :class:`SocketTransport` peers.

    ``tcp://host:0`` binds an ephemeral port — read :attr:`url` for
    the resolved address to hand to clients.  Stale Unix socket files
    are replaced (the daemon that owned them is gone by definition:
    binding an *active* one raises ``EADDRINUSE`` like TCP does).
    """

    def __init__(self, url: str | TransportURL, backlog: int = 16):
        parsed = parse_url(url)
        if parsed.scheme in ("pipe", "shm"):
            raise ValueError(f"{parsed.scheme}:// cannot listen; it is a spawn-time transport")
        if parsed.scheme == "tcp":
            sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            sock.bind((parsed.host, parsed.port))
            host, port = sock.getsockname()[:2]
            self.url = TransportURL(scheme="tcp", host=parsed.host, port=port)
        else:
            path = Path(parsed.path)
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.bind(parsed.path)
            except OSError:
                # a leftover socket file from a dead process; probe it
                # and only steal the address if nothing answers
                probe = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
                try:
                    probe.connect(parsed.path)
                except OSError:
                    path.unlink(missing_ok=True)
                    sock.bind(parsed.path)
                else:
                    probe.close()
                    sock.close()
                    raise TransportError(f"{parsed} is already served by a live process")
                finally:
                    probe.close()
            self.url = parsed
        sock.listen(backlog)
        self._sock = sock
        self._closed = False

    def accept(self, timeout_s: float | None = None) -> SocketTransport:
        """Block for the next peer; :class:`TransportTimeout` on deadline."""
        try:
            self._sock.settimeout(timeout_s)
            peer_sock, _ = self._sock.accept()
        except (socket.timeout, TimeoutError) as exc:
            raise TransportTimeout(f"no connection on {self.url} within {timeout_s:.3f}s") from exc
        except OSError as exc:
            raise TransportError(f"listener on {self.url} closed: {exc}") from exc
        return SocketTransport(peer_sock)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        with contextlib.suppress(OSError):
            self._sock.close()
        if self.url.scheme == "unix":
            with contextlib.suppress(OSError):
                os.unlink(self.url.path)

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> TransportListener:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
