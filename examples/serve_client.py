"""Serve a fleet over sockets and talk to it with the public client.

This is the multi-host serving loop in one file:

1. start a :class:`SocDaemon` — the same process ``repro-soc serve``
   runs — with two spawned socket shard workers;
2. connect a :class:`repro.serve.SocClient` by URL (the only import a
   consumer needs; no gateway internals);
3. register cells, estimate present SoC, predict future SoC;
4. grow the fleet by registering one more worker at runtime;
5. read the health/stats a dashboard would scrape.

In production the daemon runs standalone::

    repro-soc serve model.npz --listen tcp://0.0.0.0:7355 \
        --workers 2 --worker-transport tcp --journal fleet.journal

workers join from other hosts::

    repro-soc worker --connect tcp://daemon-host:7355 --name rack3

and this script's client half works unchanged against that daemon.

Run:  python examples/serve_client.py
"""

import numpy as np

from repro.core import TwoBranchSoCNet
from repro.serve import ShardedFleet, ShardWorker, SocClient, WorkerSpec
from repro.serve.daemon import SocDaemon


def main() -> None:
    # 1. A daemon serving two spawned socket workers.  (Real deployments
    #    load a trained checkpoint; the untrained net keeps this fast.)
    model = TwoBranchSoCNet(rng=np.random.default_rng(0))
    spec = WorkerSpec(url="tcp://127.0.0.1:0", model=model, spawn=True, name="shard{shard}")
    daemon = SocDaemon(
        ShardedFleet(2, spec=spec),
        "tcp://127.0.0.1:0",  # port 0: the OS picks; daemon.url has it
        control_interval_s=0.5,
    )
    with daemon:
        print(f"daemon listening on {daemon.url}")

        # 2. The public client: one URL, a context manager, typed errors.
        with SocClient(daemon.url) as client:
            hello = client.hello()
            print(f"connected to {hello['service']} ({len(hello['ops'])} ops)")

            # 3. Register a few cells and serve them.
            for cell_id, chemistry in [("pack0", "nmc"), ("pack1", "lfp"), ("pack2", "nmc")]:
                client.register_cell(cell_id, chemistry=chemistry)
            print(f"registered {len(client)} cells")

            soc = client.estimate("pack0", voltage=3.71, current=1.2, temp_c=25.0)
            print(f"pack0 SoC now: {soc:.4f}")
            future = client.predict("pack0", current_avg=2.0, temp_avg_c=25.0, horizon_s=300.0)
            print(f"pack0 SoC after 300 s at 2 A: {future:.4f}")

            # 4. Grow the fleet at runtime: hand the daemon a worker URL
            #    (here we cheat and spawn locally; across hosts you'd
            #    start `repro-soc worker --listen tcp://0.0.0.0:7456`
            #    on the new machine and register that address).
            spare = ShardWorker(spec)
            spare._drop_link()  # free the listener: the daemon dials it
            index = client.add_worker(spare.url)
            print(f"worker {spare.url} joined as shard {index}")
            print(f"worker health: {client.worker_health()}")

            # 5. The numbers a dashboard scrapes.
            stats = client.stats()
            for endpoint in ("estimate", "predict"):
                if endpoint in stats:
                    print(
                        f"{endpoint}: {stats[endpoint]['completed']} served, "
                        f"p50 {stats[endpoint]['p50_ms']:.2f} ms"
                    )
            spare.close()
    print("daemon stopped")


if __name__ == "__main__":
    main()
