"""Tests for repro.serve.server: real sockets end to end -- frame
routing through the demux engine, graceful shutdown, the 100-client
concurrency smoke with a live /healthz scrape, and the record/replay
determinism bridge."""

import asyncio
import json
import urllib.request

import pytest

from repro.core.registry import make_algorithm
from repro.core.stats import PacketKind
from repro.fastpath.conformance import replay, stream_ops
from repro.obs.metrics import MetricsRegistry
from repro.obs.watchdog import gauge_max
from repro.serve.clock import WallClockAdapter
from repro.serve.loadgen import LoadConfig, LoadGenerator, frame_plan
from repro.serve.protocol import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_HELLO,
    encode_frame,
    logical_tuple,
    read_frame,
)
from repro.serve.recorder import RecorderTap
from repro.serve.server import DemuxServer, ServeConfig, run_self_drive
from repro.workload.record import load_stream


def _serve(config, load, **kwargs):
    return asyncio.run(run_self_drive(config, load, **kwargs))


class TestEndToEnd:
    def test_swarm_is_fully_served_through_the_engine(self):
        algorithm = make_algorithm("fast-sequent:h=19")
        load = LoadConfig(clients=12, frames=15, seed=3)
        report = _serve(
            ServeConfig(), load, algorithm=algorithm
        )
        assert report.ok
        assert report.frames_sent == 12 * 15
        assert report.acks_received == 12 * 15
        assert report.sessions["accepted"] == 12
        # Every frame went through the real demux hot path.
        assert algorithm.stats.lookups == 12 * 15
        data = sum(
            1
            for cid in range(12)
            for kind, _ in frame_plan(load, cid)
            if kind == FRAME_DATA
        )
        assert algorithm.stats.by_kind[PacketKind.DATA].lookups == data
        # And every session was torn down on close.
        assert len(algorithm) == 0
        assert report.sessions["closed"] == 12

    def test_lifecycle_hooks_fire_on_live_sessions(self):
        events = []

        class Hook:
            """The ConnectionReaper observer protocol, recorded."""

            def note_insert(self, pcb):
                events.append(("insert", pcb.four_tuple))

            def note_remove(self, tup):
                events.append(("remove", tup))

            def note_touch(self, tup):
                events.append(("touch", tup))

        algorithm = make_algorithm("sequent:h=19")
        algorithm.lifecycle = Hook()
        report = _serve(
            ServeConfig(),
            LoadConfig(clients=3, frames=2, seed=1),
            algorithm=algorithm,
        )
        assert report.ok
        inserts = [tup for what, tup in events if what == "insert"]
        removes = [tup for what, tup in events if what == "remove"]
        touches = [tup for what, tup in events if what == "touch"]
        expected = sorted(logical_tuple(cid) for cid in range(3))
        assert sorted(inserts) == expected
        assert sorted(removes) == expected
        assert len(touches) == 3 * 2  # one per routed frame

    def test_max_sessions_sheds_excess_clients(self):
        async def scenario():
            server = DemuxServer(
                make_algorithm("bsd"),
                config=ServeConfig(max_sessions=3),
            )
            port = await server.start()
            held = []
            # Three clients connect, handshake, and hold their
            # sessions open; the fourth must be shed.
            for cid in range(3):
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(encode_frame(FRAME_HELLO, cid, 0))
                writer.write(encode_frame(FRAME_DATA, cid, 0, b"x"))
                await writer.drain()
                assert (await read_frame(reader)).kind == FRAME_ACK
                held.append((reader, writer))
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(encode_frame(FRAME_HELLO, 99, 0))
            writer.write(encode_frame(FRAME_DATA, 99, 0, b"x"))
            await writer.drain()
            shed = await read_frame(reader)  # server closes, no ack
            held.append((reader, writer))
            for _, held_writer in held:
                held_writer.close()
                try:
                    await held_writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            await server.stop()
            return server, shed

        server, shed = asyncio.run(scenario())
        assert shed is None
        assert server.sessions.accepted == 3
        assert server.sessions.rejected_capacity == 1

    def test_raw_client_without_hello_is_served_by_peer_address(self):
        async def scenario():
            server = DemuxServer(make_algorithm("bsd"))
            port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(encode_frame(FRAME_DATA, 0, 0, b"raw"))
            await writer.drain()
            echo = await read_frame(reader)
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return server, echo

        server, echo = asyncio.run(scenario())
        assert echo.kind == FRAME_ACK
        assert server.sessions.accepted == 1
        # The session key came from the socket, not the handshake.
        assert server.protocol_errors == 0

    def test_second_hello_is_a_protocol_error(self):
        async def scenario():
            server = DemuxServer(make_algorithm("bsd"))
            port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(encode_frame(FRAME_HELLO, 1, 0))
            writer.write(encode_frame(FRAME_DATA, 1, 0, b"x"))
            await writer.drain()
            assert (await read_frame(reader)).kind == FRAME_ACK
            writer.write(encode_frame(FRAME_HELLO, 1, 0))
            await writer.drain()
            assert await read_frame(reader) is None  # server hung up
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return server

        server = asyncio.run(scenario())
        assert server.protocol_errors == 1
        assert server.sessions.closed == 1

    def test_garbage_bytes_count_as_protocol_error(self):
        async def scenario():
            server = DemuxServer(make_algorithm("bsd"))
            port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(b"GET / HTTP/1.1\r\n\r\n")
            await writer.drain()
            assert await read_frame(reader) is None
            writer.close()
            await writer.wait_closed()
            await server.stop()
            return server

        server = asyncio.run(scenario())
        assert server.protocol_errors == 1
        assert server.sessions.accepted == 0

    def test_graceful_stop_closes_open_connections(self):
        async def scenario():
            server = DemuxServer(
                make_algorithm("bsd"),
                config=ServeConfig(drain_timeout=0.2),
            )
            port = await server.start()
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port
            )
            writer.write(encode_frame(FRAME_HELLO, 7, 0))
            await writer.drain()
            # Let the handler install the session, then stop while the
            # connection is idle-open: stop() must not hang on it.
            await asyncio.sleep(0.05)
            assert server.sessions.active == 1
            await server.stop()
            assert not server.running
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            return server

        server = asyncio.run(scenario())
        assert server.sessions.active == 0
        assert server.sessions.closed == 1

    def test_snapshot_section_shape(self):
        """The serve facts as /snapshot.json's ``metrics`` section
        carries them: published samples."""
        registry = MetricsRegistry()

        async def scenario():
            algorithm = make_algorithm("fast-sequent:h=19")
            server = DemuxServer(
                algorithm,
                config=ServeConfig(max_sessions=8),
                recorder=RecorderTap(seed=5),
            )
            await server.start()
            registry.publish(algorithm)
            registry.publish(server)
            await server.stop()

        asyncio.run(scenario())
        snapshot = registry.snapshot()
        assert gauge_max(snapshot, "serve_sessions", state="limit") == 8
        assert gauge_max(snapshot, "serve_sessions", state="active") == 0
        for what in ("accepted", "rejected_capacity", "rejected_duplicate",
                     "protocol_errors", "handler_failures",
                     "recorded_packets"):
            assert gauge_max(snapshot, "serve_totals", what=what) == 0
        assert gauge_max(snapshot, "serve_uptime_seconds") >= 0.0
        assert (
            snapshot["demux_lookups_total"]["samples"][0]["labels"]
            ["algorithm"] == "fast-sequent"
        )


class TestConcurrencySmoke:
    def test_hundred_concurrent_clients_with_live_healthz(self):
        """The acceptance smoke: >=100 simultaneous connections, the
        telemetry plane scraped while they are being served, clean
        shutdown afterwards."""
        scraped = {}

        def scrape(telemetry):
            with urllib.request.urlopen(
                telemetry.url("/healthz"), timeout=5.0
            ) as response:
                scraped["healthz"] = (
                    response.status,
                    json.loads(response.read()),
                )
            with urllib.request.urlopen(
                telemetry.url("/snapshot.json"), timeout=5.0
            ) as response:
                scraped["snapshot"] = json.loads(response.read())

        report = _serve(
            ServeConfig(algorithm="fast-sequent:h=19"),
            LoadConfig(clients=120, frames=6, seed=9),
            telemetry_port=0,
            on_telemetry=scrape,
        )
        assert report.ok
        assert report.sessions["accepted"] == 120
        assert report.sessions["peak_sessions"] >= 100
        assert report.acks_received == 120 * 6
        status, health = scraped["healthz"]
        assert status == 200
        assert health["state"] in ("ok", "degraded")
        metrics = scraped["snapshot"]["metrics"]
        assert gauge_max(metrics, "serve_totals", what="accepted") == 120
        assert report.health["state"] == "ok"


class TestRecordReplayBridge:
    def test_twice_recorded_runs_are_byte_identical(self, tmp_path):
        """The determinism acceptance: two seeded serving runs produce
        captures with equal digests and identical decision traces."""
        load = LoadConfig(clients=20, frames=12, seed=13)
        paths = [str(tmp_path / "a.json"), str(tmp_path / "b.json")]
        digests = []
        for path in paths:
            report = _serve(
                ServeConfig(), load, record_path=path
            )
            assert report.ok
            digests.append(report.capture_digest)
        assert digests[0] == digests[1]

        first, second = load_stream(paths[0]), load_stream(paths[1])
        assert first.tuples == second.tuples
        assert first.packets == second.packets
        for spec in ("bsd", "fast-sequent:h=19"):
            traces = [
                replay(make_algorithm(spec), stream_ops(stream))[0]
                for stream in (first, second)
            ]
            assert traces[0] == traces[1]

    def test_capture_reflects_what_the_swarm_sent(self, tmp_path):
        load = LoadConfig(clients=5, frames=10, seed=4)
        path = str(tmp_path / "cap.json")
        report = _serve(ServeConfig(), load, record_path=path)
        assert report.ok
        stream = load_stream(path)
        assert stream.kind == "live-capture"
        assert stream.seed == 4
        assert len(stream.packets) == 5 * 10
        assert set(stream.tuples) == {
            logical_tuple(cid) for cid in range(5)
        }
        # Canonical ordering: packets sorted by (seq, client).
        expected_kinds = {
            (cid, seq): (
                PacketKind.ACK if kind == FRAME_ACK else PacketKind.DATA
            )
            for cid in range(5)
            for seq, (kind, _) in enumerate(frame_plan(load, cid))
        }
        position = 0
        for seq in range(10):
            for cid in range(5):
                tup, kind = stream.packets[position]
                assert tup == logical_tuple(cid)
                assert kind == expected_kinds[(cid, seq)]
                position += 1

    def test_arrival_order_keeps_true_interleaving(self, tmp_path):
        load = LoadConfig(clients=6, frames=8, seed=2)
        path = str(tmp_path / "arrival.json")
        report = _serve(
            ServeConfig(record_order="arrival"),
            load,
            record_path=path,
        )
        assert report.ok
        stream = load_stream(path)
        assert len(stream.packets) == 6 * 8
        # Same multiset of packets as the canonical capture would
        # hold -- only the interleaving differs.
        canonical = str(tmp_path / "canonical.json")
        _serve(ServeConfig(), load, record_path=canonical)
        other = load_stream(canonical)
        assert sorted(
            (str(tup), kind.value) for tup, kind in stream.packets
        ) == sorted(
            (str(tup), kind.value) for tup, kind in other.packets
        )

    def test_recorder_tap_rejects_unknown_order(self):
        with pytest.raises(ValueError):
            RecorderTap(order="chronological")
        with pytest.raises(ValueError):
            ServeConfig(record_order="chronological")


class TestServeClockIntegration:
    def test_server_duration_comes_from_the_adapter(self):
        ticks = iter([100.0] + [100.0 + i * 0.5 for i in range(1, 200)])
        clock = WallClockAdapter(wall=lambda: next(ticks))

        async def scenario():
            server = DemuxServer(make_algorithm("bsd"), clock=clock)
            await server.start()
            generator = LoadGenerator(LoadConfig(clients=2, frames=2))
            await generator.run("127.0.0.1", server.port)
            elapsed = server.elapsed
            await server.stop()
            return elapsed

        elapsed = asyncio.run(scenario())
        assert elapsed > 0.0
        assert elapsed == clock.elapsed - 0.0
