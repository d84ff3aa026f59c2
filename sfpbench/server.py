"""The http-churn system process: a ``FrontendServer`` over a 4-switch
full-mesh fabric with the hash partitioner, the dataplane mirror on and
``FabricDurability`` attached with ``fsync="always"``.

Run as ``python -m sfpbench.server --seed N --size full --wal-dir DIR`` by
:mod:`sfpbench.http_churn`.  The fabric is prefilled in-process before
serving starts; then the process prints one JSON line with the bound address
and obeys one JSON command per stdin line, answering each with one JSON
line on stdout:

* ``{"cmd": "trace"}`` installs the span wrappers;
* ``{"cmd": "untrace"}`` removes them and answers with the recorded self
  times, span counts and event counts;
* ``{"cmd": "probe"}`` runs one forwarding-probe round (clients are
  paused meanwhile) and answers with its packets and ``process_batch`` time
  at the reference host speed (:class:`sfpbench.measure.SpeedGauge`);
* ``{"cmd": "stop"}`` closes the server (drain, stop workers, quiesce
  checkpoint), checks the fabric invariant and answers with the problems
  and this process's peak RSS.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

from sfpbench import inputs, spans
from sfpbench.measure import SpeedGauge, Window, peak_rss_mb
from sfpbench.workloads import Size, forward, prefill

SIZES = {"full": Size(200, 4, 6, 256), "tiny": Size(16, 4, 3, 64)}


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--wal-dir", required=True)
    args = parser.parse_args(argv)
    size = SIZES[args.size]

    from repro.durability.checkpoint import FabricDurability
    from repro.fabric import FabricOrchestrator, FabricTopology
    from repro.fabric.partitioner import ConsistentHashPartitioner
    from repro.frontend import FrontendServer

    topology = FabricTopology.full_mesh(size.switches, spec=inputs.CONTROL_SPEC)
    fabric = FabricOrchestrator(
        topology,
        num_types=10,
        partitioner=ConsistentHashPartitioner(),
        with_dataplane=True,
    )
    durability = FabricDurability(
        args.wal_dir, fsync="always", checkpoint_every=0
    ).attach(fabric)
    prefill(fabric, inputs.make_chains(args.seed, inputs.CONTROL_CHAINS, size.tenants))
    server = FrontendServer(fabric, port=0).start()
    _reply({"address": server.address})

    traffic = inputs.Traffic(args.seed)
    gauge = SpeedGauge()
    tracer: spans.Tracer | None = None
    try:
        for line in sys.stdin:
            cmd = json.loads(line)["cmd"]
            if cmd == "trace":
                tracer = spans.Tracer()
                spans.install(tracer, frontend=True)
                _reply({})
            elif cmd == "untrace":
                tracer.uninstall()
                _reply({
                    "self_s": spans.self_times(tracer.spans),
                    "calls": Counter(s.name for s in tracer.spans),
                    "counts": tracer.counts,
                    "requests": sum(
                        1 for s in tracer.spans if s.name == "frontend.server"
                    ),
                    "request_s": sum(
                        s.duration for s in tracer.spans
                        if s.name == "frontend.server"
                    ),
                })
                tracer = None
            elif cmd == "probe":
                window = Window()
                gauge.reset()
                forward(traffic.batches(fabric, size.batch), window, gauge)
                _reply({
                    "packets": window.packets,
                    "batch_s": window.batch_s * gauge.scale(),
                })
            elif cmd == "stop":
                rss = peak_rss_mb()
                server.close()
                problems = fabric.check_invariant()
                _reply({"problems": problems, "peak_rss_mb": rss})
                return 0
            else:
                raise ValueError(f"unknown command {cmd!r}")
    finally:
        if tracer is not None:
            tracer.uninstall()
        server.close()
        durability.close()
    return 1


if __name__ == "__main__":
    sys.exit(main())
