"""Command-line front end: exit codes, artifacts, reproducible outputs."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stormctl
from stormctl.agents import AgentConfig, ThresholdDb
from stormctl.cli import EXIT_DETECTED, EXIT_OK, EXIT_USAGE, main
from stormctl.datasets import dataset_names, load_trace
from stormctl import simulation, tracefile

# The directory the package was imported from, for subprocesses that run
# with a replaced environment.
PACKAGE_ROOT = str(Path(stormctl.__file__).resolve().parent.parent)


class TestModelCommand:
    ARGS = ["model", "--p-start", "500", "--p-end", "90000", "--m", "1.5"]

    def test_writes_csv_to_stdout(self, capsys):
        assert main(self.ARGS) == EXIT_OK
        out = capsys.readouterr().out
        lines = out.strip().splitlines()
        assert lines[0] == "t_ms,count"
        assert len(lines) == 1 + 31          # 0.0 .. 3.0 at 0.1
        assert lines[1] == "0.0,0.0"

    def test_out_file_and_plot(self, tmp_path, capsys):
        csv = tmp_path / "curve.csv"
        svg = tmp_path / "curve.svg"
        code = main(self.ARGS + ["--out", str(csv), "--plot", str(svg)])
        capsys.readouterr()
        assert code == EXIT_OK
        points = tracefile.read_trace(csv)
        assert points[0].count == 0.0
        assert svg.read_text().startswith("<svg ")

    def test_rejects_zero_m(self, capsys):
        code = main(["model", "--p-start", "1", "--p-end", "2", "--m", "0"])
        capsys.readouterr()
        assert code == EXIT_USAGE


class TestFitCommand:
    def test_fit_dataset_prints_params(self, capsys):
        assert main(["fit", "--dataset", "table3"]) == EXIT_OK
        record = json.loads(capsys.readouterr().out)
        assert set(record) == {"p_start", "p_end", "m", "a", "b", "rmse"}
        assert record["m"] > 0

    def test_fit_is_reproducible(self, capsys):
        main(["fit", "--dataset", "table3"])
        first = capsys.readouterr().out
        main(["fit", "--dataset", "table3"])
        assert capsys.readouterr().out == first

    def test_fit_trace_file(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        tracefile.write_trace(load_trace("table1"), path)
        params = tmp_path / "params.json"
        code = main(["fit", "--trace", str(path), "--out", str(params)])
        capsys.readouterr()
        assert code == EXIT_OK
        assert tracefile.read_params(params).params.m > 0

    def test_trace_and_dataset_conflict(self, tmp_path, capsys):
        path = tmp_path / "trace.csv"
        tracefile.write_trace(load_trace("table1"), path)
        code = main(["fit", "--trace", str(path), "--dataset", "table1"])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_missing_file(self, tmp_path, capsys):
        code = main(["fit", "--trace", str(tmp_path / "nope.csv")])
        capsys.readouterr()
        assert code == EXIT_USAGE

    def test_unknown_dataset_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["fit", "--dataset", "table9"])
        capsys.readouterr()
        assert err.value.code == EXIT_USAGE

    # e^(m t) overflows a double once m t passes about 709.78; the fit
    # lowers the top of its m domain for a long rise instead
    def long_rise(self, tmp_path, t_end):
        path = tmp_path / "rise.csv"
        tracefile.write_trace([(t_end * k / 4, c) for k, c in
                               enumerate((0.0, 100.0, 300.0, 700.0, 1500.0))],
                              path)
        return str(path)

    @pytest.mark.parametrize("t_end", [200.0, 1500.0])
    def test_long_rise_fits(self, tmp_path, capsys, t_end):
        out = tmp_path / "params.json"
        code = main(["fit", "--trace", self.long_rise(tmp_path, t_end),
                     "--out", str(out)])
        record = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert all(map(math.isfinite, record.values()))
        assert record["m"] > 0
        assert tracefile.read_params(out).params.m == record["m"]

    def test_rise_too_long_for_the_domain_exits_2(self, tmp_path, capsys):
        # at 10 s even m = 0.025 makes t*e^(m t) pass 2**256
        out = tmp_path / "params.json"
        code = main(["fit", "--trace", self.long_rise(tmp_path, 10000.0),
                     "--out", str(out)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == ("stormctl: fit failed: a rise of 10000 ms is "
                                "too long to fit: t*e^(m t) passes 2**256 for "
                                "every m from 0.025\n")
        assert captured.out == ""
        assert not out.exists()

    def test_rise_of_70_ms_still_fits(self, tmp_path, capsys):
        code = main(["fit", "--trace", self.long_rise(tmp_path, 70.0)])
        assert code == EXIT_OK
        assert json.loads(capsys.readouterr().out)["rmse"] >= 0

    def test_negative_times_exit_2(self, tmp_path, capsys):
        # the curve is defined only for t >= 0, so --model-out could not
        # evaluate a fit of this rise
        path = tmp_path / "rise.csv"
        tracefile.write_trace(zip(range(-4, 1), (0, 100, 300, 700, 1500)), path)
        model = tmp_path / "model.csv"
        code = main(["fit", "--trace", str(path), "--model-out", str(model)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err == ("stormctl: fit failed: trace times must be "
                                "nonnegative\n")
        assert captured.out == ""
        assert not model.exists()


class TestDetectCommand:
    def test_identity_replay_is_clean(self, capsys):
        code = main(["detect", "--dataset", "table4",
                     "--reference-dataset", "table4"])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "no storm detected" in out

    # every bundled trace the parser offers must load
    @pytest.mark.parametrize("name", dataset_names())
    def test_every_offered_dataset_loads(self, capsys, name):
        code = main(["detect", "--dataset", name,
                     "--reference-dataset", name])
        capsys.readouterr()
        assert code == EXIT_OK

    def test_storm_against_reference_exits_nonzero(self, tmp_path, capsys):
        tickets = tmp_path / "tickets.jsonl"
        code = main(["detect", "--dataset", "table1",
                     "--reference-dataset", "table4",
                     "--out", str(tickets)])
        out = capsys.readouterr().out
        assert code == EXIT_DETECTED
        assert "ticket" in out
        stored = tracefile.read_tickets(tickets)
        assert len(stored) == 1
        assert stored[0].t <= 1.0

    def test_threshold_can_mask_breaches(self, capsys):
        # largest relative deviation between these two traces is ~7.8
        code = main(["detect", "--dataset", "table1",
                     "--reference-dataset", "table4",
                     "--threshold", "10.0"])
        capsys.readouterr()
        assert code == EXIT_OK


class TestNonFiniteGrowthInputs:
    """A nan or infinite growth input exits 2, with no traceback, and
    writes nothing: each case below exited 0 before."""

    def trace_with(self, tmp_path, row, column, cell):
        path = tmp_path / "trace.csv"
        tracefile.write_trace(load_trace("table1"), path)
        lines = path.read_text().splitlines(keepends=True)
        cells = lines[row].rstrip("\n").split(",")
        cells[column] = cell
        lines[row] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        return str(path)

    def rejected(self, capsys, argv):
        code = main(argv)
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("stormctl: ")
        assert "Traceback" not in captured.err
        return captured

    def test_fit_nan_count(self, tmp_path, capsys):
        out = tmp_path / "params.json"
        captured = self.rejected(capsys, [
            "fit", "--trace", self.trace_with(tmp_path, 3, 1, "nan"),
            "--out", str(out)])
        assert "row 3: t_ms and count must be finite" in captured.err
        assert "NaN" not in captured.out
        assert not out.exists()

    def test_fit_nan_time(self, tmp_path, capsys):
        captured = self.rejected(capsys, [
            "fit", "--trace", self.trace_with(tmp_path, 5, 0, "nan")])
        assert "row 5: t_ms and count must be finite" in captured.err
        assert captured.out == ""

    def test_detect_nan_count(self, tmp_path, capsys):
        captured = self.rejected(capsys, [
            "detect", "--trace", self.trace_with(tmp_path, 3, 1, "nan"),
            "--reference-dataset", "table4"])
        assert "must be finite" in captured.err

    def test_model_nan_p_start(self, capsys):
        captured = self.rejected(capsys, [
            "model", "--p-start", "nan", "--p-end", "90000", "--m", "1.5"])
        assert "must be finite" in captured.err
        assert captured.out == ""

    def test_model_infinite_m(self, capsys):
        captured = self.rejected(capsys, [
            "model", "--p-start", "500", "--p-end", "90000", "--m", "inf"])
        assert "must be finite" in captured.err
        assert captured.out == ""


class TestTraceReadErrors:
    """An unreadable trace exits 2 and names its path exactly once."""

    def rejected(self, capsys, path) -> str:
        code = main(["fit", "--trace", str(path)])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.count(str(path)) == 1
        return err

    def test_short_row(self, tmp_path, capsys):
        path = tmp_path / "short.csv"
        path.write_text("t_ms,count\n0,0\n0.1,5\n0.2\n")
        err = self.rejected(capsys, path)
        assert err == (f"stormctl: cannot read trace {path}: row 3: "
                       f"expected 2 cells, got 1\n")

    def test_missing_file(self, tmp_path, capsys):
        path = tmp_path / "nope.csv"
        err = self.rejected(capsys, path)
        assert err == (f"stormctl: cannot read trace {path}: "
                       f"No such file or directory\n")


class TestShortTraceRows:
    """A count trace row with a missing cell exits 2 and names the row;
    it used to exit 1 (for `detect`, "tickets raised") with a TypeError."""

    def rejected(self, tmp_path, capsys, argv):
        path = tmp_path / "short.csv"
        path.write_text("t_ms,count\n0,0\n0.1,5\n0.2\n0.3,9\n")
        code = main(argv + ["--trace", str(path)])
        captured = capsys.readouterr()
        assert code == EXIT_USAGE
        assert captured.err.startswith("stormctl: ")
        assert "row 3: expected 2 cells, got 1" in captured.err
        assert "Traceback" not in captured.err

    def test_fit(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys, ["fit"])

    def test_detect(self, tmp_path, capsys):
        self.rejected(tmp_path, capsys,
                      ["detect", "--reference-dataset", "table4"])


class TestSimCommand:
    def test_normal_preset_clean_exit(self, capsys):
        assert main(["sim", "--scenario", "normal"]) == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["tickets"] == 0

    def test_loop_storm_detects(self, capsys):
        assert main(["sim", "--scenario", "loop-storm"]) == EXIT_DETECTED
        summary = json.loads(capsys.readouterr().out)
        assert summary["tickets"] >= 1
        assert "storm" in summary["verdicts"]

    def test_no_agents_flag(self, capsys):
        code = main(["sim", "--scenario", "loop-storm", "--no-agents"])
        summary = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK             # nothing watching, no tickets
        assert summary["tickets"] == 0
        assert summary["max_utilization"] == 1.0

    def test_out_directory_artifacts(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["sim", "--scenario", "faulty-nic", "--out", str(out),
                     "--plot"])
        capsys.readouterr()
        assert code == EXIT_DETECTED
        for name in ("trace.csv", "tickets.jsonl", "summary.json",
                     "scenario.json", "trace.svg"):
            assert (out / name).exists(), name
        assert len(tracefile.read_tickets(out / "tickets.jsonl")) == 1
        scenario = tracefile.read_scenario(out / "scenario.json")
        assert scenario.name == "faulty-nic"

    def test_artifacts_byte_identical_across_runs(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["sim", "--scenario", "loop-storm", "--out", str(a), "--plot"])
        main(["sim", "--scenario", "loop-storm", "--out", str(b), "--plot"])
        capsys.readouterr()
        for name in ("trace.csv", "tickets.jsonl", "summary.json",
                     "scenario.json", "trace.svg"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_seed_override_changes_summary(self, capsys):
        main(["sim", "--scenario", "normal"])
        base = json.loads(capsys.readouterr().out)
        main(["sim", "--scenario", "normal", "--seed", "123"])
        other = json.loads(capsys.readouterr().out)
        assert base["seed"] != other["seed"]
        assert base["frames"]["delivered"] != other["frames"]["delivered"]

    def test_scenario_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "first"
        main(["sim", "--scenario", "smurf", "--out", str(out)])
        capsys.readouterr()
        first = json.loads((out / "summary.json").read_text())
        code = main(["sim", "--scenario-file", str(out / "scenario.json")])
        rerun = json.loads(capsys.readouterr().out)
        assert code == EXIT_OK
        assert rerun == first

    def test_scenario_and_file_conflict(self, tmp_path, capsys):
        out = tmp_path / "run"
        main(["sim", "--scenario", "smurf", "--out", str(out)])
        capsys.readouterr()
        code = main(["sim", "--scenario", "smurf",
                     "--scenario-file", str(out / "scenario.json")])
        capsys.readouterr()
        assert code == EXIT_USAGE


class TestUnwritableOutput:
    """An output that cannot be written exits 2 with one line, not a
    traceback: exit 1 would claim that tickets were raised."""

    def rejected(self, capsys, argv, path):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith(f"stormctl: cannot write {path}: ")
        assert err.count("\n") == 1

    def test_model_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "curve.csv"
        self.rejected(capsys, TestModelCommand.ARGS + ["--out", str(path)],
                      path)

    @pytest.mark.parametrize("flag", ["--out", "--model-out", "--plot"])
    def test_fit_outputs(self, tmp_path, capsys, flag):
        path = tmp_path / "missing" / "fit.out"
        self.rejected(capsys, ["fit", "--dataset", "table3", flag, str(path)],
                      path)

    def test_detect_out(self, tmp_path, capsys):
        path = tmp_path / "missing" / "tickets.jsonl"
        self.rejected(capsys, ["detect", "--dataset", "table1",
                               "--reference-dataset", "table4",
                               "--out", str(path)], path)

    def test_sim_out_is_a_file(self, tmp_path, capsys):
        path = tmp_path / "run"
        path.write_text("")
        self.rejected(capsys, ["sim", "--scenario", "normal",
                               "--out", str(path)], path)


class TestRejectedScenarioFiles:
    """Scenarios the simulator cannot honour exit 2, with no traceback."""

    def rejected(self, tmp_path, capsys, doc, *flags):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["sim", "--scenario-file", str(path), *flags])
        err = capsys.readouterr().err
        assert code == EXIT_USAGE
        assert err.startswith("stormctl: ")
        assert "Traceback" not in err
        return err

    def run_edited(self, tmp_path, capsys, edit):
        doc = tracefile.scenario_to_dict(simulation.preset("loop-storm"))
        edit(doc)
        return self.rejected(tmp_path, capsys, doc)

    # each of these ran, or exited 1 with a traceback, while the reader
    # listed the fields by hand
    MALFORMED = {
        "missing-node-count": (
            lambda doc: doc.pop("node_count"), "scenario.node_count: missing"),
        "missing-injector-kind": (
            lambda doc: doc["injectors"][0].pop("kind"),
            "scenario.injectors[0].kind: missing"),
        "null-link-rate": (
            lambda doc: doc.update(link_rate=None),
            "scenario.link_rate: expected float"),
        "list-rate": (
            lambda doc: doc["injectors"][0].update(rate=[1]),
            "scenario.injectors[0].rate: expected float"),
        "null-thresholds": (
            lambda doc: doc["agents"].update(thresholds=None),
            "scenario.agents.thresholds: expected an object"),
        "mistyped-key": (
            lambda doc: doc["agents"]["thresholds"].update(ipid_min_repeat=2),
            "scenario.agents.thresholds.ipid_min_repeat: unknown key"),
        "fractional-factor": (
            lambda doc: doc["injectors"][0].update(factor=2.7),
            "scenario.injectors[0].factor: expected int"),
        "string-bool": (
            lambda doc: doc["injectors"][0].update(reuse_ipid="false"),
            "scenario.injectors[0].reuse_ipid: expected bool"),
    }

    @pytest.mark.parametrize("case", MALFORMED)
    def test_malformed_document(self, tmp_path, capsys, case):
        edit, message = self.MALFORMED[case]
        err = self.run_edited(tmp_path, capsys, edit)
        assert err.startswith(f"stormctl: {message}")

    # a dataclass's own check names the object it rejected
    CHECKED = {
        "unknown-injector-kind": (
            lambda doc: doc.update(injectors=[{"kind": "gremlin"}]),
            "scenario.injectors[0]: unknown injector kind 'gremlin'"),
        "zero-suppression-window": (
            lambda doc: doc["agents"].update(suppression_window=0.0),
            "scenario.agents: suppression_window must be positive"),
        # windows are numbered in steps; these ran, with edges between
        # steps or, below half a step, a window of no steps
        "off-step-suppression-window": (
            lambda doc: doc["agents"].update(suppression_window=0.015),
            "scenario.agents: suppression_window must be a whole number of "
            "0.01 ms steps"),
        "sub-step-suppression-window": (
            lambda doc: doc["agents"].update(suppression_window=0.004),
            "scenario.agents: suppression_window must be a whole number of "
            "0.01 ms steps"),
        "negative-jitter": (
            lambda doc: doc.update(generator={"jitter": -0.1}),
            "scenario.generator: jitter must be in [0, 1)"),
        # the shape is read by bisection; a reversed one ran before
        "decreasing-shape-times": (
            lambda doc: doc.update(generator={
                "shape": [[0.0, 0.0], [2.0, 100.0], [1.0, 50.0]]}),
            "scenario.generator: shape times must not decrease"),
    }

    @pytest.mark.parametrize("case", CHECKED)
    def test_dataclass_check_names_its_path(self, tmp_path, capsys, case):
        edit, message = self.CHECKED[case]
        err = self.run_edited(tmp_path, capsys, edit)
        assert err == f"stormctl: {message}\n"

    def test_document_not_an_object(self, tmp_path, capsys):
        doc = [tracefile.scenario_to_dict(simulation.preset("loop-storm"))]
        err = self.rejected(tmp_path, capsys, doc)
        assert err.startswith("stormctl: scenario: expected an object")

    def test_sample_period_must_equal_tick(self, tmp_path, capsys):
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["agents"].update(sample_period=0.5))
        assert "sample" in err

    def test_name_not_encodable_as_utf8(self, tmp_path, capsys):
        # the chart writes the name: it raised UnicodeEncodeError (exit 1)
        # and left an empty trace.svg
        doc = tracefile.scenario_to_dict(simulation.preset("normal"))
        doc["name"] = "\ud800"
        out = tmp_path / "run"
        err = self.rejected(tmp_path, capsys, doc, "--out", str(out), "--plot")
        assert err == "stormctl: scenario.name must be encodable as UTF-8\n"
        assert not out.exists()

    def test_infinite_duration(self, tmp_path, capsys):
        err = self.run_edited(
            tmp_path, capsys, lambda doc: doc.update(duration=float("inf")))
        assert err == "stormctl: scenario.duration must be finite\n"

    def test_nan_pass_interval(self, tmp_path, capsys):
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["injectors"][0].update(pass_interval=float("nan")))
        assert err == ("stormctl: scenario.injectors[0].pass_interval must be "
                       "finite\n")

    def test_loop_start_between_steps(self, tmp_path, capsys):
        # ran before, seeding the loop at the next boundary it was active on
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["injectors"][0].update(start_t=10.005))
        assert err == ("stormctl: scenario.injectors[0].start_t must be a "
                       "whole number of 0.01 ms steps\n")

    def test_infinite_integer_field(self, tmp_path, capsys):
        self.run_edited(
            tmp_path, capsys, lambda doc: doc.update(node_count=float("inf")))

    def test_zero_ipid_repeats(self, tmp_path, capsys):
        # accepted before: the loop scan then raised partway through the run
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["agents"]["thresholds"].update(ipid_min_repeats=0))
        assert "ipid_min_repeats must be at least 2" in err

    def test_one_ipid_repeat(self, tmp_path, capsys):
        # accepted before: every delivered broadcast frame was a loop
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["agents"]["thresholds"].update(ipid_min_repeats=1))
        assert "ipid_min_repeats must be at least 2" in err

    def test_negative_byte_budget(self, tmp_path, capsys):
        # accepted before: every broadcast frame was silently suppressed
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["agents"]["thresholds"].update(
                byte_threshold_mb=-1.0))
        assert "byte_threshold_mb must be positive" in err

    @pytest.mark.parametrize("field", ["nbw_permissible", "nbw_factor"])
    def test_negative_bandwidth_limit(self, tmp_path, capsys, field):
        # accepted before: every node, silent or not, broke the limit
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["agents"]["thresholds"].update({field: -1.0}))
        assert "nbw_permissible and nbw_factor must be nonnegative" in err

    def test_negative_ipid_window(self, tmp_path, capsys):
        # accepted before: the loop rule was silently switched off
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["agents"]["thresholds"].update(ipid_window_ms=-5.0))
        assert "ipid_window_ms must be nonnegative" in err

    def test_ipid_window_between_steps(self, tmp_path, capsys):
        err = self.run_edited(
            tmp_path, capsys,
            lambda doc: doc["agents"]["thresholds"].update(
                ipid_window_ms=0.005))
        assert err == ("stormctl: scenario.agents.thresholds: ipid_window_ms "
                       "must be a whole number of 0.01 ms steps\n")


def _slots(doc) -> list:
    """(container, key or index) of every value inside a JSON document."""
    found = []
    items = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        found.append((doc, key))
        found.extend(_slots(value))
    return found


class TestMutatedScenarioFiles:
    """A valid document with one random defect never crashes `sim`."""

    BASE = tracefile.scenario_to_dict(simulation.Scenario(
        name="mutated", node_count=3, link_rate=100e6, duration=5.0, seed=3,
        generator=simulation.NormalBroadcastProfile(),
        injectors=(
            simulation.Injector(kind="loop", start_t=1.0, origin_node=1,
                                pass_interval=0.5),
            simulation.Injector(kind="smurf", start_t=2.0, end_t=4.0,
                                rate=2.0),
            simulation.Injector(kind="faulty_nic", origin_node=2, rate=0.5),
        ),
        agents=AgentConfig(thresholds=ThresholdDb(
            nbw_permissible=1200.0, byte_threshold_mb=0.5))))

    # no large numbers: a valid scenario could then run for hours
    OUT_OF_RANGE = (0, -1, -0.5, float("inf"), float("nan"))
    WRONG_TYPE = ("x", True, None, [], {}, [1], 2.5)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_exits_cleanly(self, data):
        doc = copy.deepcopy(self.BASE)
        slots = _slots(doc)
        kind = data.draw(st.sampled_from(
            ["drop", "wrong-type", "out-of-range", "unknown-key"]))
        if kind == "unknown-key":
            objects = [doc] + [box[key] for box, key in slots
                               if isinstance(box[key], dict)]
            data.draw(st.sampled_from(objects))["bogus"] = 1
        elif kind == "out-of-range":
            box, key = data.draw(st.sampled_from(
                [(box, key) for box, key in slots
                 if type(box[key]) in (int, float)]))
            box[key] = data.draw(st.sampled_from(
                self.OUT_OF_RANGE + (-box[key],)))
        else:
            box, key = data.draw(st.sampled_from(slots))
            if kind == "drop":
                del box[key]
            else:
                box[key] = data.draw(st.sampled_from(self.WRONG_TYPE))

        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(err):
                code = main(["sim", "--scenario-file", str(path)])
        # a defect either is rejected, or leaves a scenario that runs to
        # a verdict (1 when its agents raise a ticket)
        assert code in (EXIT_OK, EXIT_DETECTED, EXIT_USAGE)
        if code == EXIT_USAGE:
            assert err.getvalue().startswith("stormctl: ")
        assert "Traceback" not in err.getvalue()


class TestEntryPoint:
    def test_console_script_runs(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stormctl.cli", "fit",
             "--dataset", "table3"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["m"] > 0

    def test_log_env_smoke(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "stormctl.cli", "sim",
             "--scenario", "normal"],
            capture_output=True, text=True, timeout=60,
            env={"STORMCTL_LOG": "DEBUG", "PATH": "/usr/bin:/bin",
                 "PYTHONPATH": PACKAGE_ROOT},
        )
        assert proc.returncode == EXIT_OK

    # `model --out /dev/stdout > curve.csv`: the file gets the CSV alone,
    # as the status line goes to stderr and cannot overwrite its header
    @pytest.mark.skipif(not Path("/dev/stdout").exists(),
                        reason="no /dev/stdout")
    def test_model_out_to_redirected_stdout(self, tmp_path, capsys):
        main(TestModelCommand.ARGS)
        expected = capsys.readouterr().out
        target = tmp_path / "curve.csv"
        with target.open("w") as out:
            proc = subprocess.run(
                [sys.executable, "-m", "stormctl.cli", *TestModelCommand.ARGS,
                 "--out", "/dev/stdout"],
                stdout=out, stderr=subprocess.PIPE, text=True, timeout=60,
            )
        assert proc.returncode == EXIT_OK
        assert target.read_text() == expected
        assert proc.stderr == "wrote 31 samples to /dev/stdout\n"

    def test_sim_out_stdout_is_pure_json(self, tmp_path):
        out = tmp_path / "run"
        proc = subprocess.run(
            [sys.executable, "-m", "stormctl.cli", "sim",
             "--scenario", "normal", "--out", str(out)],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["scenario"] == "normal"
        assert proc.stderr == f"wrote artifacts to {out}\n"

    def test_no_args_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "stormctl.cli"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == EXIT_USAGE

    # xml.sax.saxutils pulls these in, and they cost more of a cold start
    # than the rest of the CLI's imports together
    def test_import_leaves_out_the_network_stack(self):
        heavy = ("urllib.request", "http.client", "email", "ssl")
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import stormctl.cli; "
                f"print(*[m for m in {heavy!r} if m in sys.modules])")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, PACKAGE_ROOT],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []

    # only `--plot` draws a chart, so only its branches import plotting
    def test_import_leaves_out_plotting(self):
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import stormctl.cli; "
                "print('stormctl.plotting' in sys.modules)")
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code, PACKAGE_ROOT],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False"]
