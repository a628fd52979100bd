"""Transport echo peer: send every received v2 frame's arrays straight back.

Run as ``python echo_peer.py [REQ_RING REP_RING SLOTS SLAB_BYTES]`` with
the parent on the other end of its stdin/stdout pipes.  With ring
arguments the bulk payloads travel through those shared-memory rings
(``shm://``); without, in-band through the pipes (``pipe://``).  It
exits when the parent closes the pipe.
"""

from __future__ import annotations

import sys

from repro.serve.transport import PipeTransport, ShmRing


def main(argv: list[str]) -> int:
    transport = PipeTransport(sys.stdout.buffer, sys.stdin.buffer, peer="pipe://parent")
    if argv:
        req, rep, slots, slab = argv[0], argv[1], int(argv[2]), int(argv[3])
        transport.attach_shm(tx=ShmRing(rep, slots=slots, slab_bytes=slab), rx=ShmRing(req, slots=slots, slab_bytes=slab))
    while (frame := transport.recv_frame()) is not None:
        transport.send_v2("ok", {}, frame.arrays)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
