"""Client side of the serve-loopback workload.

:class:`ServerProcess` runs ``serve_child.py`` and owns its lifetime;
:class:`LoopbackClient` is the load: one single-threaded asyncio loop in
the benchmark process that, per cell, opens the workload's connections
to one server (at most ``nproc`` of them), sends each connection's
``frame_plan`` lock-step -- every frame awaits its ACK echo -- and
times each round trip.
"""

from __future__ import annotations

import asyncio
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Sequence

from repro.serve import FRAME_ACK, FRAME_HELLO, FrameError, encode_frame, read_frame

import spec
import workloads
from workloads import CellResult

HOST = "127.0.0.1"

#: Seconds a cell (about 0.2 s when the server answers) and a server
#: shutdown may take.
CELL_TIMEOUT = 20.0
PROCESS_TIMEOUT = 30.0


class ServerProcess:
    """One ``serve_child.py`` process: spawned, announced, stopped."""

    def __init__(self, users: int, *, time_lookups: bool = False):
        command = [
            sys.executable,
            os.path.join(spec.BENCH_DIR, "serve_child.py"),
            "--users", str(users),
        ]
        if time_lookups:
            command.append("--time-lookups")
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=spec.ROOT,
        )
        line = self._proc.stdout.readline()
        #: Seconds from spawn until the ports were announced.
        self.startup_s = time.perf_counter() - start
        if not line:
            self.stop()
            raise RuntimeError("server process exited before announcing")
        self.ports: Dict[str, int] = json.loads(line)["ports"]

    def stop(self) -> Dict[str, dict]:
        """Shut the servers down; returns each server's counters."""
        try:
            out, _ = self._proc.communicate(timeout=PROCESS_TIMEOUT)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            out, _ = self._proc.communicate()
        for line in reversed(out.decode("utf-8", "replace").splitlines()):
            if line.startswith("{"):
                return json.loads(line).get("stats", {})
        return {}


class LoopbackClient:
    """The load generator: lock-step connections from one event loop."""

    def __init__(self, seed: int, frames: int, connections: int):
        self.connections = connections
        #: Connection slot ``j`` sends the plan of client ``j + 1`` in
        #: every cell, so frame ``i`` of a slot is the same work each
        #: round; only the HELLO identity is fresh.
        self.plans = workloads.serve_plans(
            frames, seed, range(1, connections + 1)
        )
        self._loop = asyncio.new_event_loop()
        self._next_id = 1

    def close(self) -> None:
        self._loop.close()

    def _take_ids(self) -> List[int]:
        """Fresh client ids, so no session key is reused across cells."""
        ids = list(range(self._next_id, self._next_id + self.connections))
        self._next_id += self.connections
        return ids

    def run_cell(self, port: int) -> CellResult:
        ids = self._take_ids()
        wire = [
            [
                encode_frame(kind, client_id, seq, bytes(length))
                for seq, (kind, length) in enumerate(plan)
            ]
            for client_id, plan in zip(ids, self.plans)
        ]
        sent = sum(len(frames) for frames in wire)
        start = time.perf_counter()
        try:
            return self._loop.run_until_complete(
                asyncio.wait_for(self._cell(port, ids, wire), CELL_TIMEOUT)
            )
        except (OSError, asyncio.TimeoutError):
            # Refused, reset or silent: every frame of the cell fails.
            return CellResult(sent, time.perf_counter() - start, [], sent)

    async def _cell(self, port, ids, wire) -> CellResult:
        conns = [await asyncio.open_connection(HOST, port) for _ in ids]
        try:
            for (_, writer), client_id in zip(conns, ids):
                writer.write(encode_frame(FRAME_HELLO, client_id, 0))
                await writer.drain()
            per_connection: List[List[int]] = [[] for _ in conns]
            start = time.perf_counter_ns()
            failed = await asyncio.gather(*(
                _lock_step(reader, writer, frames, latencies)
                for (reader, writer), frames, latencies in zip(
                    conns, wire, per_connection
                )
            ))
            seconds = (time.perf_counter_ns() - start) / 1e9
        finally:
            for _, writer in conns:
                writer.close()
            for _, writer in conns:
                try:
                    await writer.wait_closed()
                except OSError:
                    pass
        ops = sum(len(frames) for frames in wire)
        latencies = [ns for times in per_connection for ns in times]
        return CellResult(ops, seconds, latencies, sum(failed))


async def _lock_step(reader, writer, frames: Sequence[bytes], latencies) -> int:
    """Send each frame and await its echo; returns frames not acked."""
    clock = time.perf_counter_ns
    record = latencies.append
    failed = 0
    for seq, data in enumerate(frames):
        start = clock()
        writer.write(data)
        await writer.drain()
        try:
            echo = await read_frame(reader)
        except FrameError:
            echo = None
        record(clock() - start)
        if echo is None:
            return failed + len(frames) - seq
        if echo.kind != FRAME_ACK or echo.seq != seq:
            failed += 1
    return failed
