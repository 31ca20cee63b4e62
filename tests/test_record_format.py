"""Tests for the versioned capture file format in
repro.workload.record: save/load round trips, header validation,
digest verification, and the ``record-info`` CLI."""

import json

import pytest

from conftest import make_tuple
from repro.core.stats import PacketKind
from repro.fastpath.conformance import golden_stream
from repro.workload.record import (
    CAPTURE_FORMAT,
    CAPTURE_VERSION,
    CaptureFormatError,
    RecordedStream,
    load_stream,
    record_tpca_stream,
    save_stream,
    stream_digest,
    stream_info,
)


@pytest.fixture
def stream():
    return record_tpca_stream(n_users=40, duration=5.0, seed=3)


def _rewrite(path, mutate):
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    mutate(document)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


class TestRoundTrip:
    def test_save_load_preserves_everything(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        digest = save_stream(stream, path)
        loaded = load_stream(path)
        assert loaded.tuples == stream.tuples
        assert loaded.packets == stream.packets
        assert loaded.seed == stream.seed
        assert loaded.n_users == stream.n_users
        assert loaded.kind == "synthetic-tpca"
        assert stream_digest(loaded) == digest

    def test_stray_packets_round_trip(self, tmp_path):
        # A packet for a never-installed connection must survive the
        # index compression (carried inline) and replay as a miss.
        installed = (make_tuple(0), make_tuple(1))
        stray = make_tuple(99)
        stream = RecordedStream(
            tuples=installed,
            packets=(
                (installed[0], PacketKind.DATA),
                (stray, PacketKind.DATA),
                (installed[1], PacketKind.ACK),
            ),
            n_users=2,
            duration=1.0,
            seed=0,
            kind="live-capture",
        )
        path = str(tmp_path / "stray.json")
        save_stream(stream, path)
        loaded = load_stream(path)
        assert loaded.packets == stream.packets
        assert loaded.kind == "live-capture"
        # The inline stray shares the parse's address objects.
        assert loaded.packets[1][0].local_addr is loaded.tuples[0].local_addr

    def test_digest_is_content_only(self, stream):
        # Same tuples+packets under different header facts hash equal:
        # the digest certifies what replays, not where it came from.
        import dataclasses

        relabeled = dataclasses.replace(
            stream, duration=999.0, seed=41, kind="live-capture"
        )
        assert stream_digest(relabeled) == stream_digest(stream)

    def test_digest_changes_with_content(self, stream):
        import dataclasses

        truncated = dataclasses.replace(
            stream, packets=stream.packets[:-1]
        )
        assert stream_digest(truncated) != stream_digest(stream)

    def test_golden_stream_digest_is_pinned(self):
        # Equal digests replay identically: the seed-101 golden stream
        # must keep the digest it had before addresses became ints.
        assert stream_digest(golden_stream(101)) == (
            "c2756a4284811f3ab2ff6c5c069dd5f247e4d93effcb657c74d0f32a12f133c4"
        )

    def test_addresses_travel_as_dotted_quads(self, stream, tmp_path):
        # An address is an int underneath, which json.dumps would write
        # as a bare number without complaint.
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)
        with open(path, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        for wire, tup in zip(document["tuples"], stream.tuples):
            assert wire == [
                str(tup.local_addr), tup.local_port,
                str(tup.remote_addr), tup.remote_port,
            ]
        assert document["tuples"][0][0] == "10.0.0.1"

    def test_loaded_tuples_share_address_objects(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)
        loaded = load_stream(path)
        assert len({id(tup.local_addr) for tup in loaded.tuples}) == 1
        remotes = {tup.remote_addr for tup in loaded.tuples}
        assert len({id(addr) for addr in remotes}) == len(remotes)


class TestValidation:
    def test_rejects_non_json(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(CaptureFormatError, match="JSON"):
            load_stream(str(path))

    def test_rejects_wrong_format_tag(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)
        _rewrite(path, lambda d: d.update(format="other-format"))
        with pytest.raises(CaptureFormatError, match="format"):
            load_stream(path)

    def test_rejects_unsupported_version(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)
        _rewrite(path, lambda d: d.update(version=CAPTURE_VERSION + 1))
        with pytest.raises(CaptureFormatError, match="version"):
            load_stream(path)

    def test_rejects_tampered_content(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)

        def drop_packet(document):
            document["packets"] = document["packets"][:-1]
            document["packet_count"] -= 1

        _rewrite(path, drop_packet)
        with pytest.raises(CaptureFormatError, match="digest"):
            load_stream(path)

    def test_digest_covers_the_bytes_read(self, stream, tmp_path):
        """An edit that parses to the same stream still breaks the
        digest: it is taken over the fields as read, not re-derived
        from the parsed stream."""
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)

        def inline_first_packet(document):
            index, kind = document["packets"][0]
            document["packets"][0] = [document["tuples"][index], kind]

        _rewrite(path, inline_first_packet)
        with pytest.raises(CaptureFormatError, match="digest"):
            load_stream(path)

    def test_rejects_wrong_packet_count(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)
        _rewrite(path, lambda d: d.update(packet_count=1))
        with pytest.raises(CaptureFormatError, match="packets"):
            load_stream(path)

    def test_rejects_out_of_range_tuple_index(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)

        def corrupt(document):
            document["packets"][0][0] = len(document["tuples"]) + 7
            document.pop("digest")

        _rewrite(path, corrupt)
        with pytest.raises(CaptureFormatError, match="tuple"):
            load_stream(path)

    def test_rejects_unknown_packet_kind(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)

        def corrupt(document):
            document["packets"][0][1] = "syn"
            document.pop("digest")

        _rewrite(path, corrupt)
        with pytest.raises(CaptureFormatError, match="kind"):
            load_stream(path)

    def test_rejects_missing_fields(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)
        _rewrite(path, lambda d: d.pop("tuples"))
        with pytest.raises(CaptureFormatError, match="tuples"):
            load_stream(path)

    def test_rejects_malformed_tuple(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        save_stream(stream, path)

        def corrupt(document):
            document["tuples"][0] = ["999.999.0.1", 1, "10.0.0.1", 2]
            document.pop("digest")

        _rewrite(path, corrupt)
        with pytest.raises(CaptureFormatError, match="tuple"):
            load_stream(path)


class TestStreamInfo:
    def test_header_facts(self, stream, tmp_path):
        path = str(tmp_path / "cap.json")
        digest = save_stream(stream, path)
        info = stream_info(path)
        assert info["format"] == CAPTURE_FORMAT
        assert info["version"] == CAPTURE_VERSION
        assert info["kind"] == "synthetic-tpca"
        assert info["seed"] == 3
        assert info["digest"] == digest
        assert info["connections"] == 40
        assert info["packet_count"] == len(stream.packets)

    def test_cli_prints_header(self, stream, tmp_path, capsys):
        from repro.cli import main

        path = str(tmp_path / "cap.json")
        digest = save_stream(stream, path)
        assert main(["record-info", path]) == 0
        out = capsys.readouterr().out
        assert CAPTURE_FORMAT in out
        assert digest in out
        assert "packet_count" in out

    def test_cli_rejects_bad_capture(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.json"
        path.write_text('{"format": "wrong"}')
        assert main(["record-info", str(path)]) == 1
        assert "error" in capsys.readouterr().err

    def test_cli_rejects_missing_file(self, capsys):
        from repro.cli import main

        assert main(["record-info", "/nonexistent/cap.json"]) == 1
        assert "error" in capsys.readouterr().err
