"""The benchmark's server process for the serve-loopback workload.

Builds every configuration over the resident TPC/A population, starts
one :class:`repro.serve.DemuxServer` per configuration on an ephemeral
loopback port, and announces the ports as one JSON line on stdout.  It
serves until its stdin closes, then shuts the servers down and prints a
second JSON line with each server's counters.

With ``--time-lookups`` each structure's ``lookup`` is wrapped in a
timer before the server receives it, so the final line also carries the
nanoseconds the server spent inside demux.

Run by ``serving.py``; by hand::

    python3 bench/serve_child.py --users 1000 [--time-lookups]
"""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
import time

import spec


def _timed(algorithm):
    """Shadow ``algorithm.lookup`` with a timing wrapper; returns totals."""
    totals = [0, 0]
    inner = algorithm.lookup
    clock = time.perf_counter_ns

    def lookup(tup, *args):
        start = clock()
        result = inner(tup, *args)
        totals[0] += clock() - start
        totals[1] += 1
        return result

    algorithm.lookup = lookup
    return totals


async def _serve(algorithms, timers) -> dict:
    import workloads
    from repro.serve import DemuxServer, ServeConfig

    servers = {
        config: DemuxServer(
            algorithm,
            config=ServeConfig(algorithm=spec.CONFIGS[config]),
        )
        for config, algorithm in algorithms.items()
    }
    ports = {}
    for config, server in servers.items():
        ports[config] = await server.start()
    print(json.dumps({"ports": ports}), flush=True)
    loop = asyncio.get_running_loop()
    await loop.run_in_executor(None, sys.stdin.buffer.read)
    report = {}
    for config, server in servers.items():
        await server.stop()
        stats = algorithms[config].stats
        sessions = server.sessions
        report[config] = {
            "lookups": stats.lookups,
            "not_found": stats.combined().not_found,
            "errors": (
                server.protocol_errors
                + server.handler_failures
                + sessions.errors
                + sessions.rejected_capacity
                + sessions.rejected_duplicate
            ),
            "bytes": workloads.retained_bytes(algorithms[config]),
            "lookup_ns": timers[config][0] if config in timers else 0,
            "lookup_calls": timers[config][1] if config in timers else 0,
        }
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--users", type=int, required=True)
    parser.add_argument("--time-lookups", action="store_true")
    args = parser.parse_args(argv)
    spec.use_checkout_src()
    import workloads

    population = workloads.serve_population(args.users)
    algorithms = workloads.build_all(population)
    timers = (
        {config: _timed(algorithm) for config, algorithm in algorithms.items()}
        if args.time_lookups
        else {}
    )
    report = asyncio.run(_serve(algorithms, timers))
    print(json.dumps({"stats": report}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
