"""File formats: round trips, determinism, layout of the channel CSV."""

from __future__ import annotations

import csv
import errno
import io
import json
import os
import re
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stormctl.agents import (
    AgentConfig,
    Policy,
    ThresholdDb,
    TriggerCause,
    TroubleTicket,
)
from stormctl.datasets import interpolate, load_trace
from stormctl.growth import FitResult, TracePoint, fit_model, make_params
from stormctl.plotting import render_chart, write_chart
from stormctl.simulation import (
    Injector,
    NormalBroadcastProfile,
    Scenario,
    ScenarioError,
    Senders,
    preset,
    run,
)
from stormctl import tracefile

from .oracles import channel_csv, reference_channel_csv, reference_interpolate
from .test_simulation import small_scenarios

finite_times = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
finite_counts = st.floats(0.0, 1e9, allow_nan=False, allow_infinity=False)


class TestCountTraces:
    def test_round_trip_is_exact(self, tmp_path):
        points = load_trace("table1")
        path = tmp_path / "t.csv"
        tracefile.write_trace(points, path)
        assert tracefile.read_trace(path) == points

    @given(st.lists(st.tuples(finite_times, finite_counts), min_size=1,
                    max_size=30))
    @settings(max_examples=50)
    def test_round_trip_arbitrary_floats(self, tmp_path_factory, rows):
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        points = [TracePoint(t, c) for t, c in rows]
        tracefile.write_trace(points, path)
        assert tracefile.read_trace(path) == points

    def test_header_required(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ValueError):
            tracefile.read_trace(path)

    def test_columns_found_by_header_name(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("count,t_ms,extra\n5,0.1,x\n\n9,0.2,y\n")
        assert tracefile.read_trace(path) == [TracePoint(0.1, 5.0),
                                              TracePoint(0.2, 9.0)]

    def test_short_row_names_its_path_and_row(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("t_ms,count\n0,0\n\n0.1,5\n0.2\n0.3,9\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 3: expected 2 cells, got 1")):
            tracefile.read_trace(path)

    @given(st.lists(st.tuples(st.floats() | st.integers(-2**53, 2**53),
                              st.floats()), max_size=20))
    @example([(float("nan"), float("inf")), (float("-inf"), -0.0),
              (1e300, -1e-300), (0, 5)])
    @settings(max_examples=100)
    def test_format_matches_csv_writer(self, points):
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(("t_ms", "count"))
        for t, count in points:
            writer.writerow((repr(float(t)), repr(float(count))))
        assert tracefile.format_trace(points) == out.getvalue()


@st.composite
def sorted_traces_and_times(draw):
    """A trace of 0 to 12 points sorted by time, its times drawn from at
    most 5 values so that they often repeat, and a time to read it at:
    one of its knots, or any time in or around its span."""
    knots = draw(st.lists(finite_times, min_size=1, max_size=5))
    ts = sorted(draw(st.lists(st.sampled_from(knots), max_size=12)))
    counts = draw(st.lists(finite_counts, min_size=len(ts), max_size=len(ts)))
    t = draw(st.sampled_from(knots) | st.floats(-1.0, 1e4 + 1.0))
    return list(map(TracePoint, ts, counts)), t


class TestInterpolate:
    """`interpolate` bisects for the segment that the scan of
    `reference_interpolate` finds, so its value has the same bits."""

    HUMP = [TracePoint(0.0, 0.0), TracePoint(0.1, 400.0),
            TracePoint(0.1, 1400.0), TracePoint(0.3, 2400.0)]

    @given(sorted_traces_and_times())
    @example(([], 0.0))
    @example(([TracePoint(2.0, 7.0)], 2.0))         # a single point
    @example(([TracePoint(2.0, 7.0)], 1.5))
    @example((HUMP, 0.0))                           # both ends
    @example((HUMP, 0.3))
    @example((HUMP, 0.1))                           # a repeated knot
    @example((HUMP, 0.2))
    @example((HUMP, 0.30000000000000004))
    @settings(max_examples=300)
    def test_same_bits_as_the_scan(self, case):
        points, t = case
        assert interpolate(points, t).hex() == \
            reference_interpolate(points, t).hex()


class TestChannelCsv:
    def test_layout(self, tmp_path, normal_trace):
        path = tmp_path / "trace.csv"
        tracefile.write_channel_csv(normal_trace, path)
        rows = tracefile.read_channel_csv(path)
        per_tick = 1 + normal_trace.scenario.node_count
        assert len(rows) == per_tick * len(normal_trace.records)
        channel = [r for r in rows if r["node_id"] == "*"]
        assert len(channel) == len(normal_trace.records)
        assert channel[0]["verdict"] in ("idle", "normal", "busy", "storm")
        assert channel[0]["utilization"] is not None
        node = [r for r in rows if r["node_id"] != "*"]
        assert node[0]["verdict"] == ""
        assert node[0]["utilization"] is None

    def test_counts_match_records(self, tmp_path, normal_trace):
        path = tmp_path / "trace.csv"
        tracefile.write_channel_csv(normal_trace, path)
        rows = tracefile.read_channel_csv(path)
        first = next(r for r in rows if r["node_id"] == "*")
        assert first["bcast_pkts"] == normal_trace.records[0].stats.broadcast_pkts
        assert first["t_ms"] == normal_trace.records[0].t

    def test_short_row_names_its_path_and_row(self, tmp_path, normal_trace):
        path = tmp_path / "trace.csv"
        tracefile.write_channel_csv(normal_trace, path)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[3].startswith("0.0,1,")
        lines[3] = "0.0,1,0\n"         # the third row under the header
        path.write_text("".join(lines))
        with pytest.raises(ValueError, match=re.escape(
                f"{path}: row 3: expected 10 cells, got 3")):
            tracefile.read_channel_csv(path)

    def test_crafted_node_rows_match_reference(self):
        """Node rows the run seldom makes, against the csv.writer oracle:
        one counts pair on many nodes and ticks, pairs one column apart,
        a node that delivered only unicast, and one that only had its
        frames suppressed (its row is idle)."""
        trace = run(replace(preset("normal"), node_count=50, duration=12.0))
        repeated = (3, 7)
        one_apart = [(4, 7), (3, 8), (2, 7), (3, 6)]
        records = []
        for i, rec in enumerate(trace.records):
            # per sender: delivered broadcast and total, attempted
            # broadcast and total, suppressed
            counts = {s.node: (s.bcast_pkts, s.total_pkts, s.attempted_bcast,
                               s.attempted_total, s.suppressed)
                      for s in rec.senders}
            for n in range(i % 2, 30, 2):
                counts[n] = (*repeated, *repeated, 0)
            for n, pair in enumerate(one_apart, start=30 + i % 2):
                counts[n] = (*pair, *pair, 0)
            counts[40] = (0, 5, 0, 5, 0)
            counts[41] = (0, 0, 4, 9, 9)
            nodes = tuple(sorted(counts))
            senders = Senders(nodes, *zip(*map(counts.get, nodes)),
                              rec.senders.size, rec.senders.idle)
            records.append(rec._replace(senders=senders))
        crafted = replace(trace, records=records)
        text = channel_csv(crafted)
        assert text == reference_channel_csv(crafted)
        assert f"{records[1].t!r},41,0,0,0,0,,,,\n" in text
        assert f"{records[1].t!r},40,0,5,0,2560,,,,\n" in text
        assert f"{records[1].t!r},1,3,7,1536,3584,,,,\n" in text

    def test_written_without_the_whole_text(self, tmp_path, monkeypatch,
                                            loop_trace):
        given = []
        original = tracefile.write_text

        def write_text(path, text):
            assert not isinstance(text, str), "the channel CSV was built whole"
            given.append(text)
            original(path, text)

        monkeypatch.setattr(tracefile, "write_text", write_text)
        path = tmp_path / "trace.csv"
        tracefile.write_channel_csv(loop_trace, path)
        assert len(given) == 1
        assert path.read_bytes() == reference_channel_csv(loop_trace).encode()

    def test_long_trace_is_written_in_little_memory(self, tmp_path):
        """Only a tick's text, and the trace's fixed row templates, are
        held at once: the peak stays far below the file's size."""
        trace = run(replace(preset("loop-storm"), node_count=1000,
                            duration=300.0))
        path = tmp_path / "trace.csv"
        tracemalloc.start()
        try:
            tracefile.write_channel_csv(trace, path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 4


class TestTickets:
    def make(self, n=3):
        return [
            TroubleTicket(i + 1, i % 2, 10.5 * i, TriggerCause.IPID_LOOP,
                          3.0, 3.0)
            for i in range(n)
        ]

    def test_round_trip(self, tmp_path):
        path = tmp_path / "tickets.jsonl"
        tickets = self.make()
        tracefile.write_tickets(tickets, path)
        assert tracefile.read_tickets(path) == tickets

    def test_one_json_object_per_line(self, tmp_path):
        path = tmp_path / "tickets.jsonl"
        tracefile.write_tickets(self.make(2), path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert record["cause"] == "ipid_loop"
        assert list(record) == sorted(record)

    def test_empty_file_reads_empty(self, tmp_path):
        path = tmp_path / "tickets.jsonl"
        tracefile.write_tickets([], path)
        assert tracefile.read_tickets(path) == []


class TestParamsRecord:
    def test_round_trip(self, tmp_path):
        fit = fit_model(load_trace("table3"))
        path = tmp_path / "params.json"
        tracefile.write_params(fit, path)
        back = tracefile.read_params(path)
        assert back.params == fit.params
        assert back.rmse == fit.rmse

    def test_record_fields(self):
        fit = FitResult(make_params(500.0, 9e4, 1.5), 12.5)
        record = tracefile.params_to_dict(fit)
        assert set(record) == {"p_start", "p_end", "m", "a", "b", "rmse"}


class TestScenarioDocuments:
    def full_scenario(self):
        return Scenario(
            name="everything", node_count=4, link_rate=1e9, tick=0.5,
            duration=20.0, seed=42, frame_size=256,
            generator=NormalBroadcastProfile(jitter=0.02,
                                             broadcast_peak_fraction=0.1),
            injectors=(
                Injector(kind="loop", start_t=5.0, end_t=15.0, origin_node=2,
                         pass_interval=0.5, factor=3, reuse_ipid=False),
                Injector(kind="smurf", start_t=1.0, origin_node=1, rate=2.5),
            ),
            agents=AgentConfig(
                sample_period=0.5, deviation_threshold=0.07,
                consecutive_required=4, suppression_window=500.0,
                policy=Policy.BANDWIDTH_BASED,
                thresholds=ThresholdDb(nbw_permissible=900.0,
                                       byte_threshold_mb=1.25),
            ),
        )

    def test_round_trip(self, tmp_path):
        scenario = self.full_scenario()
        path = tmp_path / "scenario.json"
        tracefile.write_scenario(scenario, path)
        assert tracefile.read_scenario(path) == scenario

    def test_round_trip_minimal(self, tmp_path):
        scenario = Scenario(name="bare", node_count=2, link_rate=10e6,
                            duration=5.0)
        path = tmp_path / "scenario.json"
        tracefile.write_scenario(scenario, path)
        assert tracefile.read_scenario(path) == scenario

    @given(small_scenarios())
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random(self, scenario):
        doc = json.loads(json.dumps(tracefile.scenario_to_dict(scenario)))
        assert tracefile.scenario_from_dict(doc) == scenario

    def test_omitted_keys_take_defaults(self):
        doc = {"schema": tracefile.SCENARIO_SCHEMA, "node_count": 3,
               "injectors": [{"kind": "loop"}], "agents": {"thresholds": {}}}
        assert tracefile.scenario_from_dict(doc) == Scenario(
            node_count=3, injectors=(Injector(kind="loop"),),
            agents=AgentConfig())

    def test_name_must_encode_as_utf8(self):
        doc = tracefile.scenario_to_dict(self.full_scenario())
        doc["name"] = "\ud800"     # JSON's "\ud800": a lone surrogate
        with pytest.raises(ScenarioError) as err:
            tracefile.scenario_from_dict(doc)
        assert str(err.value) == "scenario.name must be encodable as UTF-8"

    def test_unsupported_schema_rejected(self):
        doc = tracefile.scenario_to_dict(self.full_scenario())
        doc["schema"] = 99
        with pytest.raises(ValueError):
            tracefile.scenario_from_dict(doc)


class TestSummary:
    def test_summary_is_json_stable(self, tmp_path, loop_trace):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        tracefile.write_summary(loop_trace.summary(), a)
        tracefile.write_summary(loop_trace.summary(), b)
        assert a.read_bytes() == b.read_bytes()
        assert json.loads(a.read_text())["scenario"] == "loop-storm"


class TestCharts:
    def test_same_data_same_bytes(self):
        series = [("one", [(0.0, 0.0), (1.0, 5.0), (2.0, 3.0)])]
        assert render_chart(series, title="x") == \
            render_chart(series, title="x")

    def test_svg_document_structure(self, tmp_path):
        path = tmp_path / "chart.svg"
        write_chart([("burst", [(0.0, 0.0), (1.5, 40.0)])], path,
                    title="peak <40000>")
        text = path.read_text()
        assert text.startswith("<svg ")
        assert text.rstrip().endswith("</svg>")
        assert "polyline" in text
        assert "&lt;40000&gt;" in text      # labels are escaped

    def test_empty_series_rejected(self):
        with pytest.raises(ValueError):
            render_chart([("nothing", [])])


class TestWriter:
    """Every artifact is overwritten in place through one writer: never
    opened with O_TRUNC, cut only where the old file was longer."""

    LONG = [(float(t), 1000.0 * t) for t in range(50)]
    SHORT = [(0.0, 1.0)]

    def test_shorter_rewrite_leaves_no_tail(self, tmp_path):
        path = tmp_path / "t.csv"
        tracefile.write_trace(self.LONG, path)
        tracefile.write_trace(self.SHORT, path)
        assert path.read_text() == tracefile.format_trace(self.SHORT)

    def test_device_is_written_and_never_cut(self):
        tracefile.write_tickets([], os.devnull)
        tracefile.write_trace(self.LONG, os.devnull)

    def test_symlink_is_written_through(self, tmp_path):
        target = tmp_path / "target.csv"
        link = tmp_path / "link.csv"
        tracefile.write_trace(self.LONG, target)
        link.symlink_to(target)
        tracefile.write_trace(self.SHORT, link)
        assert link.is_symlink()
        assert target.read_text() == tracefile.format_trace(self.SHORT)

    def test_existing_file_keeps_mode_and_links(self, tmp_path):
        path = tmp_path / "t.csv"
        other = tmp_path / "hard.csv"
        tracefile.write_trace(self.LONG, path)
        path.chmod(0o600)
        os.link(path, other)
        tracefile.write_trace(self.SHORT, path)
        assert path.stat().st_mode & 0o777 == 0o600
        assert path.stat().st_nlink == 2
        assert other.read_text() == tracefile.format_trace(self.SHORT)

    def test_new_file_mode_follows_umask(self, tmp_path):
        path = tmp_path / "t.csv"
        umask = os.umask(0o027)
        try:
            tracefile.write_trace(self.SHORT, path)
        finally:
            os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o640

    def test_encoding_error_leaves_previous_bytes(self, tmp_path):
        path = tmp_path / "chart.svg"
        series = [("burst", [(0.0, 0.0), (1.5, 40.0)])]
        write_chart(series, path, title="before")
        before = path.read_bytes()
        with pytest.raises(UnicodeEncodeError):
            write_chart(series, path, title="\ud800")
        assert path.read_bytes() == before

    def test_failed_write_leaves_no_old_byte(self, tmp_path, monkeypatch):
        path = tmp_path / "t.csv"
        tracefile.write_trace(self.LONG, path)
        write = os.write
        room = [8]      # the disk fills after 8 bytes

        def full_disk(fd, data):
            if not room[0]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            done = write(fd, data[:room[0]])
            room[0] -= done
            return done

        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(OSError) as err:
            tracefile.write_trace(self.SHORT, path)
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC
        assert path.read_text() == tracefile.format_trace(self.SHORT)[:8]

    def test_shorter_chunked_rewrite_leaves_no_tail(self, tmp_path):
        path = tmp_path / "t.csv"
        long_text = tracefile.format_trace(self.LONG)
        tracefile.write_text(path, iter(long_text.splitlines(keepends=True)))
        tracefile.write_text(path, ["t_ms,", "count\n", "0.0,1.0\n"])
        assert path.read_text() == tracefile.format_trace(self.SHORT)

    def test_chunks_that_fill_the_disk_leave_no_old_byte(self, tmp_path,
                                                         monkeypatch):
        path = tmp_path / "t.csv"
        tracefile.write_trace(self.LONG, path)
        write = os.write
        room = [io.DEFAULT_BUFFER_SIZE + 5]     # full partway through block 2
        chunks = ["a" * io.DEFAULT_BUFFER_SIZE, "b" * 10, "c" * 30000]

        def full_disk(fd, data):
            if not room[0]:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            done = write(fd, data[:room[0]])
            room[0] -= done
            return done

        monkeypatch.setattr(os, "write", full_disk)
        with pytest.raises(OSError) as err:
            tracefile.write_text(path, chunks)
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC
        assert path.read_text() == "".join(chunks)[:io.DEFAULT_BUFFER_SIZE + 5]

    def test_raising_chunks_leave_only_the_bytes_written(self, tmp_path):
        path = tmp_path / "t.csv"
        tracefile.write_trace(self.LONG * 10, path)
        block = "x" * io.DEFAULT_BUFFER_SIZE

        def chunks():
            yield block
            yield "held, never written"
            raise RuntimeError("formatting failed")

        with pytest.raises(RuntimeError, match="formatting failed"):
            tracefile.write_text(path, chunks())
        assert path.read_text() == block

    def test_device_accepts_chunks(self):
        tracefile.write_text(os.devnull, ["a", "b" * 2 * io.DEFAULT_BUFFER_SIZE])

    def test_small_trace_takes_one_write(self, tmp_path, monkeypatch):
        trace = run(replace(preset("normal"), node_count=3, duration=32.0))
        assert len(trace.records) == 32
        calls = []
        write = os.write

        def counting_write(fd, data):
            calls.append(len(data))
            return write(fd, data)

        path = tmp_path / "trace.csv"
        monkeypatch.setattr(os, "write", counting_write)
        tracefile.write_channel_csv(trace, path)
        monkeypatch.undo()
        assert calls == [path.stat().st_size]
        assert path.read_text() == reference_channel_csv(trace)

    def test_no_writer_truncates_on_open(self, tmp_path, monkeypatch,
                                         loop_trace):
        flags = []
        real_open = os.open

        def recording_open(path, flag, *args, **kwargs):
            flags.append(flag)
            return real_open(path, flag, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_open)
        writes = [
            lambda p: tracefile.write_trace(self.LONG, p),
            lambda p: tracefile.write_channel_csv(loop_trace, p),
            lambda p: tracefile.write_tickets(loop_trace.tickets, p),
            lambda p: tracefile.write_params(fit_model(load_trace("table3")),
                                             p),
            lambda p: tracefile.write_summary(loop_trace.summary(), p),
            lambda p: tracefile.write_scenario(loop_trace.scenario, p),
            lambda p: write_chart([("burst", self.LONG)], p),
        ]
        for i, write in enumerate(writes):
            for _ in range(2):      # create, then overwrite
                write(tmp_path / f"artifact{i}")
        assert len(flags) == 2 * len(writes)
        assert not any(flag & os.O_TRUNC for flag in flags)
