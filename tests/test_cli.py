import hashlib
import inspect
import json
import os
import shutil
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vcdfuel import cli, csvio, synthetic, validation
from vcdfuel.cli import DEFAULT_CONFIG, config_hash, load_config, main
from vcdfuel.csvio import read_columns
from vcdfuel.drive_cycles import save_cycle
from vcdfuel.dyno import (
    DYNO_COLUMNS,
    auto_select_smoothing,
    clip_outliers,
    hot_engine_window,
    process_log,
    smooth_speed,
    write_dyno_csv,
)
from vcdfuel.extraction import fit_all_maps, run_vcd
from vcdfuel.powertrain import STANDSTILL_SPEED, simulate, vehicle_to_dict
from vcdfuel.semi_principled import (
    build_semi_model,
    build_semi_model_from_dataset,
    eval_semi_trace,
    load_semi_model,
)
from vcdfuel.simplified import (
    DEFAULT_DEGREES,
    FitGrid,
    default_grid,
    eval_simplified_trace,
    load_simplified,
)
from vcdfuel.synthetic import (
    builtin_cycle,
    builtin_cycles,
    cruise_cycle,
    default_vehicle,
    make_dyno_log,
)
from vcdfuel.trace import read_trace_csv, write_trace_csv
from vcdfuel.validation import align, build_report, compare_pair, cumulative_fuel


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree(root):
    """Every file under ``root``, by relative path, with its bytes."""
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def edited(edit):
    """A damage that applies ``edit`` to the parsed JSON document."""
    def damage(text):
        doc = json.loads(text)
        edit(doc)
        return json.dumps(doc)
    return damage


def cut_shift_tables(n):
    """An edit keeping the first ``n`` upshift and downshift speeds."""
    def edit(doc):
        for key in ("upshift_speeds_mps", "downshift_speeds_mps"):
            doc["shifting"][key] = doc["shifting"][key][:n]
    return edit


def last_gear_ratio(value):
    """An edit setting the top gear's ratio to ``value``."""
    def edit(doc):
        doc["params"]["gear_ratios"][-1] = value
    return edit


def wrapped(section, *keys):
    """An edit wrapping the lists under ``keys`` in one more list."""
    def edit(doc):
        for key in keys:
            doc[section][key] = [doc[section][key]]
    return edit


def emptied(section, *keys):
    """An edit emptying the lists under ``keys``."""
    def edit(doc):
        for key in keys:
            doc[section][key] = []
    return edit


def one_grid_point(grid):
    """An edit cutting the engine map to the first point of its ``grid``."""
    def edit(doc):
        fuel_map = doc["engine_map"]
        if grid == "speed":
            fuel_map["speed_grid_radps"] = fuel_map["speed_grid_radps"][:1]
            fuel_map["fuel_gps"] = fuel_map["fuel_gps"][:1]
        else:
            fuel_map["torque_grid_nm"] = fuel_map["torque_grid_nm"][:1]
            fuel_map["fuel_gps"] = [row[:1] for row in fuel_map["fuel_gps"]]
    return edit


def gear_map_of_other_degree(text):
    """A semi_model.json whose third torque map is a consistent (2, 1) map."""
    doc = json.loads(text)
    doc["torque_maps"][2]["degree"] = [2, 1]
    doc["torque_maps"][2]["coeffs_std"].append([0.0, 0.0])
    return json.dumps(doc)


@pytest.fixture(scope="module")
def pipeline_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert main(["pipeline", "--out", str(out)]) == 0
    return out


@pytest.fixture(scope="module")
def plots_out(tmp_path_factory):
    out = tmp_path_factory.mktemp("plots")
    assert main(["pipeline", "--out", str(out), "--plots"]) == 0
    return out


class TestStages:
    def test_simulate_writes_one_trace_per_cycle(self, pipeline_out):
        assert sorted(path.name for path in (pipeline_out / "traces").iterdir()) == [
            f"{name}_reference.csv" for name in ("aggressive", "cruise", "urban")]

    def test_pipeline_artifacts_present(self, pipeline_out):
        for artifact in ("semi_model.json", "simplified_model.json"):
            assert (pipeline_out / artifact).exists()
        assert (pipeline_out / "reports" / "report.json").exists()
        # the rig's (t, v, a) columns live in its trace file only
        assert not list((pipeline_out / "profiles").glob("*_profile.csv"))
        assert (pipeline_out / "profiles" / "cruise_dyno_trace.csv").exists()

    def test_artifacts_carry_provenance(self, pipeline_out):
        for artifact in ("semi_model.json", "simplified_model.json"):
            doc = json.loads((pipeline_out / artifact).read_text())
            prov = doc["_provenance"]
            assert prov["tool"] == "vcdfuel"
            assert "config_hash" in prov and "version" in prov

    def test_missing_vehicle_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicle": str(tmp_path / "nope.json")}))
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "vehicle file not found" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", str(tmp_path / "ghost.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_fit_simplified_without_semi_model_exits_2(self, tmp_path, capsys):
        code = main(["fit-simplified", "--out", str(tmp_path)])
        assert code == 2
        err = capsys.readouterr().err
        assert "semi_model.json" in err and "vcdfuel extract" in err

    def test_extract_without_traces_names_prerequisite(self, tmp_path, capsys):
        code = main(["extract", "--out", str(tmp_path)])
        assert code == 2
        assert "simulate" in capsys.readouterr().err

    def test_validate_before_ingest_names_prerequisite(self, pipeline_out, tmp_path, capsys):
        # what simulate, extract and fit-simplified write, but no rig trace
        out = tmp_path / "out"
        shutil.copytree(pipeline_out / "traces", out / "traces")
        for name in ("semi_model.json", "simplified_model.json"):
            shutil.copy(pipeline_out / name, out / name)
        assert main(["validate", "--out", str(out)]) == 2
        assert capsys.readouterr().err == \
            "error: missing cruise_dyno_trace.csv; run `vcdfuel ingest` first\n"
        assert not (out / "reports" / "report.json").exists()
        # with no rig configured the cycles are validated alone
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dyno_logs": []}))
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        records = json.loads((out / "reports" / "report.json").read_text())["records"]
        assert sorted(records) == sorted(f"{cycle}_{kind}"
                                         for cycle in ("aggressive", "cruise", "urban")
                                         for kind in ("semi", "simplified", "closure"))

    @pytest.mark.parametrize("args", [["--out", "afile"], ["--config", ".", "--out", "out"]],
                             ids=["out-is-a-file", "config-is-a-directory"])
    def test_os_error_exits_2(self, tmp_path, monkeypatch, capsys, args):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "afile").touch()
        assert main(["simulate", *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1


TRACE_HEADER = "t,v,gear,fuel\n"
GOOD_TRACE = TRACE_HEADER + "0,0,1,0.5\n1,1,1,0.6\n2,2,2,0.7\n"
DYNO_HEADER = ",".join(DYNO_COLUMNS) + "\n"
DYNO_ROW = "0,20,1500,80,20,1.2,90,2,500\n"
MALFORMED = [
    # (config key, stage, file contents, expected message)
    ("validate_pairs", "validate", TRACE_HEADER + "0,0,1,0.5\n1,1,1,nan\n", "non-finite"),
    ("validate_pairs", "validate", "t,v,v\n0,0,0\n1,1,1\n", "repeated column"),
    ("validate_pairs", "validate", TRACE_HEADER + "0,0,1,0.5\n1,1,1.5,0.6\n", "non-integers"),
    ("validate_pairs", "validate", TRACE_HEADER, "no data rows"),
    ("validate_pairs", "validate", TRACE_HEADER + "0,0,1,0.5\n2,1,1,0.6\n1,1,1,0.6\n",
     "not strictly increasing"),
    ("validate_pairs", "validate", "t,v\n0,0\n1,1\n2,2\n", "trace 'bad' has no 'fuel' column"),
    ("dyno_logs", "ingest", DYNO_HEADER + DYNO_ROW + "0.1,20,inf,80,20,1.2,90,2,500\n",
     "non-finite"),
    ("dyno_logs", "ingest", DYNO_HEADER + DYNO_ROW + "0.1,20,1500,80,20,nan,90,2,500\n",
     "non-finite"),
    ("dyno_logs", "ingest", DYNO_HEADER, "no data rows"),
    ("dyno_logs", "ingest", DYNO_HEADER + "1" + DYNO_ROW[1:] + DYNO_ROW,
     "not strictly increasing"),
    ("cycles", "simulate", "t,v,grade\n0,0,0\n1,1,0\n", "expected header 't,v'"),
    ("cycles", "simulate", "t,v,note\n0,0,fast\n1,1,slow\n",
     "could not convert string to float: 'fast'"),
]


class TestBadInputsExit1:
    @pytest.mark.parametrize("key, stage, text, message", MALFORMED, ids=[
        "trace-nan-fuel", "trace-repeated-column", "trace-fractional-gear", "trace-header-only",
        "trace-decreasing-t", "trace-without-fuel", "dyno-inf-rpm", "dyno-nan-fuel",
        "dyno-header-only", "dyno-decreasing-t", "cycle-extra-column", "cycle-text-column"])
    def test_malformed_csv(self, tmp_path, capsys, key, stage, text, message):
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        if key == "validate_pairs":
            good = tmp_path / "good.csv"
            good.write_text(GOOD_TRACE)
            value = [{"name": "pair", "ref": str(good), "model": str(bad)}]
        else:
            value = [str(bad)]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: value}))
        out = tmp_path / "out"
        assert main([stage, "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad" in err and message in err
        assert "Traceback" not in err
        assert not (out / "reports" / "report.json").exists()

    def test_fractional_dyno_gear(self, tmp_path, capsys):
        log = make_dyno_log(cruise_cycle(), default_vehicle(), seed=5)
        log.gear = log.gear + 0.5
        bad = tmp_path / "bad.csv"
        write_dyno_csv(log, bad)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dyno_logs": [str(bad)]}))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 1
        assert "trace 'bad': column 'gear' holds non-integers" in capsys.readouterr().err
        assert not (out / "profiles" / "bad_trace.csv").exists()

    def test_out_of_range_gear_in_trace_csv(self, pipeline_out, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out / "traces", out / "traces")
        path = out / "traces" / "urban_reference.csv"
        trace = read_trace_csv(path)
        trace.gear[trace.v >= STANDSTILL_SPEED] = 0
        write_trace_csv(trace, path)
        assert main(["extract", "--out", str(out)]) == 1
        assert "gear [0] outside [1, " in capsys.readouterr().err
        assert not (out / "semi_model.json").exists()

    def test_non_finite_cycle(self, tmp_path, capsys):
        cycle = tmp_path / "bad.csv"
        cycle.write_text("t,v\n0,0\n1,nan\n2,3\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cycles": [str(cycle)]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "non-finite" in capsys.readouterr().err
        assert not (out / "traces" / "bad_reference.csv").exists()

    @pytest.mark.parametrize("stage, artifact, damage, downstream", [
        ("fit-simplified", "semi_model.json", lambda text: text[:500], "simplified_model.json"),
        ("fit-simplified", "semi_model.json", gear_map_of_other_degree, "simplified_model.json"),
        ("validate", "simplified_model.json",
         lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "coeff_c"}),
         "reports/report.json"),
        ("fit-simplified", "semi_model.json",
         edited(lambda doc: doc["fuel_map"]["domain"].__setitem__(1, [0, 1, 2])),
         "simplified_model.json"),
        ("fit-simplified", "semi_model.json", edited(lambda doc: doc["fuel_map"].update(x_std=0)),
         "simplified_model.json"),
        ("validate", "simplified_model.json",
         edited(lambda doc: doc.update(v_range_mps=[0, 30, 40])), "reports/report.json"),
        ("fit-simplified", "semi_model.json",
         edited(lambda doc: doc["constants"]["downshift_cutoffs_mps"].pop()),
         "simplified_model.json"),
        ("fit-simplified", "semi_model.json", edited(cut_shift_tables(4)), "simplified_model.json"),
        ("validate", "simplified_model.json", edited(lambda doc: doc["cut_boundary"].pop()),
         "reports/report.json"),
        ("fit-simplified", "semi_model.json",
         edited(emptied("shifting", "torque_curve_speed_radps", "torque_curve_nm")),
         "simplified_model.json"),
        ("validate", "semi_model.json", edited(lambda doc: doc.update(speed_max_mps=-5)),
         "reports/report.json"),
        ("validate", "simplified_model.json", edited(lambda doc: doc.update(coeff_c=[])),
         "reports/report.json"),
        ("validate", "simplified_model.json", edited(lambda doc: doc.update(coeff_c=[[1.0, 2.0]])),
         "reports/report.json"),
        ("fit-simplified", "semi_model.json", edited(last_gear_ratio(-0.5)),
         "simplified_model.json"),
    ], ids=["truncated-semi-model", "gear-maps-of-unequal-degree",
            "simplified-model-without-coeff-c",
            "fuel-map-domain-of-three", "fuel-map-zero-x-std", "simplified-range-of-three",
            "five-downshift-cutoffs", "semi-shift-tables-of-four", "cut-boundary-of-five",
            "semi-empty-torque-curve", "negative-speed-max", "empty-coeff-c", "nested-coeff-c",
            "semi-negative-top-ratio"])
    def test_malformed_json_artifact(self, pipeline_out, tmp_path, capsys,
                                     stage, artifact, damage, downstream):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        (out / downstream).unlink()
        path = out / artifact
        path.write_text(damage(path.read_text()))
        assert main([stage, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}:")
        assert err.count("\n") == 1 and "Traceback" not in err
        assert not (out / downstream).exists()

    def test_urban_only_cycle_set_names_top_gear(self, tmp_path, capsys):
        save_cycle(builtin_cycle("urban"), tmp_path / "urban.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cycles": [str(tmp_path / "urban.csv")]}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        assert main(["extract", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: cannot place the downshift cutoff of gear(s) [6]")
        assert "Traceback" not in err
        assert not (out / "semi_model.json").exists()

    def test_reference_traces_without_idle_fuel(self, pipeline_out, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out / "traces", out / "traces")
        for path in (out / "traces").glob("*_reference.csv"):
            trace = read_trace_csv(path)
            trace.fuel[trace.v < STANDSTILL_SPEED] = 0.0
            write_trace_csv(trace, path)
        assert main(["extract", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: idle fuel must be positive, got 0.0 g/s\n"
        assert not (out / "semi_model.json").exists()

    @pytest.mark.parametrize("column", ["v", "a", "grade", "gear", "engine_speed",
                                        "engine_torque", "pedal", "fuel"])
    def test_reference_trace_without_column(self, pipeline_out, tmp_path, capsys, column):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out / "traces", out / "traces")
        path = out / "traces" / "cruise_reference.csv"
        write_trace_csv(replace(read_trace_csv(path), **{column: None}), path)
        assert main(["extract", "--out", str(out)]) == 1
        message = (f"{path}: trace CSV has no 'v' column" if column == "v"
                   else f"trace 'cruise' has no '{column}' column")
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (out / "semi_model.json").exists()

    def test_rig_trace_without_a(self, pipeline_out, tmp_path, capsys):
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        (out / "reports" / "report.json").unlink()
        path = out / "profiles" / "cruise_dyno_trace.csv"
        write_trace_csv(replace(read_trace_csv(path), a=None), path)
        assert main(["validate", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "error: trace 'cruise_dyno' has no 'a' column\n"
        assert not (out / "reports" / "report.json").exists()

    def test_two_cycles_with_one_name(self, tmp_path, capsys):
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            save_cycle(builtin_cycle("urban"), tmp_path / sub / "urban.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cycles": [str(tmp_path / sub / "urban.csv")
                                              for sub in ("a", "b")]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert "two cycle files named 'urban'" in capsys.readouterr().err

    def test_rig_log_named_like_a_cycle(self, tmp_path, capsys):
        (tmp_path / "rig").mkdir()
        for name, cycle in (("cruise", cruise_cycle()), ("urban", builtin_cycle("urban"))):
            save_cycle(cycle, tmp_path / f"{name}.csv")
        write_dyno_csv(make_dyno_log(cruise_cycle(), default_vehicle(), seed=5),
                       tmp_path / "rig" / "cruise.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cycles": [str(tmp_path / "cruise.csv"),
                                              str(tmp_path / "urban.csv")],
                                   "dyno_logs": [str(tmp_path / "rig" / "cruise.csv")]}))
        out = tmp_path / "out"
        assert main(["pipeline", "--config", str(cfg), "--out", str(out), "--plots"]) == 1
        assert capsys.readouterr().err == \
            "error: config key 'dyno_logs': a cycle and a dyno log named 'cruise'\n"
        assert not out.exists()

    def test_rig_log_named_like_a_cycle_with_validate_pairs(self, tmp_path):
        # explicit pairs key the report, so the rig's name keys nothing twice
        save_cycle(cruise_cycle(), tmp_path / "cruise.csv")
        good = tmp_path / "good.csv"
        good.write_text(GOOD_TRACE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "cycles": [str(tmp_path / "cruise.csv")],
            "dyno_logs": [str(tmp_path / "rig" / "cruise.csv")],
            "validate_pairs": [{"name": "pair", "ref": str(good), "model": str(good)}]}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0

    def test_ingest_error_names_the_dyno_log(self, tmp_path, capsys):
        # the synthetic rig is hot only after 200 s; the aggressive cycle
        # lasts 115 s, so with warm-up its log never settles
        write_dyno_csv(make_dyno_log(cruise_cycle(), default_vehicle(), seed=5),
                       tmp_path / "zeta.csv")
        write_dyno_csv(make_dyno_log(builtin_cycle("aggressive"), default_vehicle()),
                       tmp_path / "cold.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dyno_logs": [str(tmp_path / "zeta.csv"),
                                                 str(tmp_path / "cold.csv")]}))
        assert main(["ingest", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == \
            "error: dyno log 'cold': water temperature never settles above 85.0 C\n"

    def test_two_dyno_logs_with_one_name(self, tmp_path, capsys):
        log = make_dyno_log(cruise_cycle(), default_vehicle(), seed=5)
        for sub in ("a", "b"):
            (tmp_path / sub).mkdir()
            write_dyno_csv(log, tmp_path / sub / "x.csv")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dyno_logs": [str(tmp_path / sub / "x.csv")
                                                 for sub in ("a", "b")]}))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == \
            "error: config key 'dyno_logs': two dyno logs named 'x'\n"
        assert not out.exists()

    def test_repeated_validate_pairs_name(self, tmp_path, capsys):
        good = tmp_path / "good.csv"
        good.write_text(GOOD_TRACE)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"validate_pairs": [
            {"name": "pair", "ref": str(good), "model": str(good)}] * 2}))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out), "--plots"]) == 1
        assert capsys.readouterr().err == "error: two validation pairs named 'pair'\n"
        assert list((out / "reports").iterdir()) == []

    @pytest.mark.parametrize("missing", ["ref", "model"])
    def test_missing_validate_pairs_path_exits_2(self, tmp_path, capsys, missing):
        good = tmp_path / "good.csv"
        good.write_text(GOOD_TRACE)
        entry = {"name": "pair", "ref": str(good), "model": str(good),
                 missing: str(tmp_path / "nope.csv")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"validate_pairs": [entry]}))
        assert main(["validate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        kind = {"ref": "reference", "model": "model"}[missing]
        assert capsys.readouterr().err == \
            f"error: {kind} trace file not found: {tmp_path / 'nope.csv'}\n"

    @pytest.mark.parametrize("stage, dt", [
        ("ingest", "0"), ("validate", "0"), ("ingest", "nan"), ("simulate", "nan"),
        ("simulate", "inf"), ("simulate", "-0.1")])
    def test_grid_step_must_be_finite_and_positive(self, tmp_path, capsys, stage, dt):
        args = [stage, "--out", str(tmp_path / "out"), "--dt", dt]
        if stage == "validate":
            good = tmp_path / "good.csv"
            good.write_text(GOOD_TRACE)
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"validate_pairs": [
                {"name": "pair", "ref": str(good), "model": str(good)}]}))
            args += ["--config", str(cfg)]
        assert main(args) == 1
        assert capsys.readouterr().err == \
            f"error: dt must be finite and positive, got {float(dt)}\n"

    @pytest.mark.parametrize("edit, reason", [
        (lambda doc: doc["params"].pop("mass_kg"), "missing key 'mass_kg'"),
        (lambda doc: doc["params"].update(mass_kg=-1.0), "masses must be positive"),
        (lambda doc: doc["control"].update(idle_fuel_gps=0.0), "idle_fuel_gps must be positive"),
        (lambda doc: doc["control"].update(idle_fuel_gps=-0.1), "idle_fuel_gps must be positive"),
        (lambda doc: doc["control"].update(launch_correction=[[0.0]]),
         "launch_correction must be (accel, torque) pairs with strictly ascending accel, "
         "got [[0.0]]"),
        (lambda doc: doc["control"].update(launch_correction=[[1, 5], [0, 2]]),
         "with strictly ascending accel, got [[1, 5], [0, 2]]"),
        (lambda doc: doc["shifting"]["torque_curve_nm"].pop(),
         "torque_curve must have one value per torque_curve_speed entry, got 7 and 8"),
        (cut_shift_tables(3), "need 5 upshift and downshift speeds for 6 gears, got 3"),
        (lambda doc: doc["shifting"].update(pedal_gain_per_pct="0.004"),
         "'pedal_gain_per_pct' must be a number, got \"0.004\""),
        (lambda doc: doc["control"].update(fuel_cut_speed_mps="6"),
         "'fuel_cut_speed_mps' must be a number, got \"6\""),
        (lambda doc: doc["params"].update(road_load_a_n="120.0"),
         "'road_load_a_n' must be a number, got \"120.0\""),
        (lambda doc: doc["control"].update(idle_torque_nm="3"),
         "'idle_torque_nm' must be a number, got \"3\""),
        (lambda doc: doc["params"].update(mass_kg=True), "'mass_kg' must be a number, got true"),
        (wrapped("shifting", "upshift_speeds_mps", "downshift_speeds_mps"),
         "upshift_speeds must be a flat list of numbers, got shape [1, 5]"),
        (wrapped("shifting", "torque_curve_speed_radps", "torque_curve_nm"),
         "torque_curve_speed must be a flat list of numbers, got shape [1, 8]"),
        (emptied("shifting", "torque_curve_speed_radps", "torque_curve_nm"),
         "torque_curve_speed needs 1 or more entries, got 0"),
        (one_grid_point("speed"), "speed_grid needs 2 or more entries, got 1"),
        (one_grid_point("torque"), "torque_grid needs 2 or more entries, got 1"),
        (last_gear_ratio(0.0), "gear_ratios must be positive, got [4.0, 2.6, 1.8, 1.35, 1.0, 0.0]"),
        (last_gear_ratio(-0.5), "gear_ratios must be positive, got [4.0, 2.6, 1.8, 1.35, 1.0, -0.5]"),
        # thresholds scaled by 1 - 0.05 * pedal change sign above 20 % pedal
        (lambda doc: doc["shifting"].update(pedal_gain_per_pct=-0.05),
         "pedal_gain must keep 1 + 100 * pedal_gain positive, got -0.05"),
    ], ids=["missing-mass", "negative-mass", "zero-idle-fuel", "negative-idle-fuel",
            "one-number-knot", "descending-knots", "short-torque-curve", "shift-tables-of-three",
            "string-pedal-gain", "string-cut-speed", "string-road-load", "string-idle-torque",
            "bool-mass", "nested-shift-tables", "nested-torque-curve", "empty-torque-curve",
            "one-speed-grid-point", "one-torque-grid-point", "zero-top-ratio",
            "negative-top-ratio", "flipping-pedal-gain"])
    def test_bad_vehicle_json(self, tmp_path, capsys, edit, reason):
        doc = vehicle_to_dict(default_vehicle())
        edit(doc)
        vehicle = tmp_path / "veh.json"
        vehicle.write_text(json.dumps(doc))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"vehicle": str(vehicle)}))
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {vehicle}: ") and reason in err
        assert err.count("\n") == 1


class TestDeterminism:
    def test_simulate_rerun_identical_bytes(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        assert main(["simulate", "--out", str(out_a)]) == 0
        assert main(["simulate", "--out", str(out_b)]) == 0
        for path_a in sorted((out_a / "traces").iterdir()):
            path_b = out_b / "traces" / path_a.name
            assert sha256(path_a) == sha256(path_b), path_a.name


STAGES = ("simulate", "extract", "fit-simplified", "ingest", "validate")


def user_csv_config(root):
    """A config on user files: the built-in cycles as km/h CSVs and a rig log."""
    paths = []
    for name, cycle in builtin_cycles().items():
        save_cycle(cycle, root / f"{name}.csv", unit="kph")
        paths.append(str(root / f"{name}.csv"))
    write_dyno_csv(make_dyno_log(cruise_cycle(), default_vehicle(), seed=5), root / "rig.csv")
    cfg = root / "cfg.json"
    cfg.write_text(json.dumps({"cycles": paths, "unit": "kph", "dt": 0.2,
                               "dyno_logs": [str(root / "rig.csv")]}))
    return cfg


class TestInMemoryPipeline:
    def test_builtin_pipeline_equals_stages(self, pipeline_out, tmp_path):
        for stage in STAGES:
            assert main([stage, "--out", str(tmp_path)]) == 0
        assert tree(tmp_path) == tree(pipeline_out)

    def test_user_csv_pipeline_equals_stages(self, tmp_path):
        cfg = str(user_csv_config(tmp_path))
        assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "a"), "--plots"]) == 0
        for stage in STAGES:
            assert main([stage, "--config", cfg, "--out", str(tmp_path / "b"), "--plots"]) == 0
        assert tree(tmp_path / "a") == tree(tmp_path / "b")
        assert "rig_semi" in json.loads((tmp_path / "a" / "reports" / "report.json")
                                        .read_text())["records"]

    def test_stages_equal_pipeline_in_reused_out(self, tmp_path):
        # an earlier run on another config leaves profiles/rig_trace.csv
        used = tmp_path / "used"
        assert main(["pipeline", "--config", str(user_csv_config(tmp_path)),
                     "--out", str(used)]) == 0
        shutil.copytree(used, tmp_path / "a")
        shutil.copytree(used, tmp_path / "b")
        assert main(["pipeline", "--out", str(tmp_path / "a")]) == 0
        for stage in STAGES:
            assert main([stage, "--out", str(tmp_path / "b")]) == 0
        assert tree(tmp_path / "a") == tree(tmp_path / "b")

    def test_pipeline_reads_back_nothing_it_wrote(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("pipeline re-read an artifact it wrote")

        for name in ("read_trace_csv", "load_semi_model", "load_simplified"):
            monkeypatch.setattr(cli, name, refuse)
        assert main(["pipeline", "--out", str(tmp_path)]) == 0

    def test_pipeline_parses_each_builtin_cycle_once(self, tmp_path, monkeypatch):
        loaded = []
        real = synthetic.load_cycle

        def counting(path, *args, **kwargs):
            loaded.append(Path(path).stem)
            return real(path, *args, **kwargs)

        monkeypatch.setattr(synthetic, "load_cycle", counting)
        assert main(["pipeline", "--out", str(tmp_path)]) == 0
        # three for simulate, the synthetic rig's own cycle for ingest
        assert loaded == ["cruise", "urban", "aggressive", "cruise"]

    def test_stages_looked_up_as_module_globals(self, tmp_path, monkeypatch):
        # stage timing wraps the cmd_* attributes of vcdfuel.cli by name
        calls = []
        real = cli.cmd_extract

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(cli, "cmd_extract", counting)
        assert main(["pipeline", "--out", str(tmp_path)]) == 0
        assert len(calls) == 1

    def test_validate_alone_reads_each_artifact_once(self, pipeline_out, tmp_path, monkeypatch):
        calls = Counter()

        def counting(name):
            real = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            return wrapper

        for name in ("read_trace_csv", "load_semi_model", "load_simplified"):
            monkeypatch.setattr(cli, name, counting(name))
        out = tmp_path / "out"
        shutil.copytree(pipeline_out, out)
        assert main(["validate", "--out", str(out)]) == 0
        # three reference traces and one rig trace
        assert calls == {"load_semi_model": 1, "load_simplified": 1, "read_trace_csv": 4}
        assert tree(out) == tree(pipeline_out)

    def test_pipeline_ignores_stale_rig_traces(self, pipeline_out, tmp_path):
        out = tmp_path / "out"
        (out / "profiles").mkdir(parents=True)
        shutil.copy(pipeline_out / "profiles" / "cruise_dyno_trace.csv",
                    out / "profiles" / "stale_trace.csv")
        assert main(["pipeline", "--out", str(out)]) == 0
        records = json.loads((out / "reports" / "report.json").read_text())["records"]
        assert "cruise_dyno_semi" in records and "stale_semi" not in records
        # so does validate run alone: it reads the rig traces its config names
        assert main(["validate", "--out", str(out)]) == 0
        records = json.loads((out / "reports" / "report.json").read_text())["records"]
        assert "cruise_dyno_semi" in records and "stale_semi" not in records


class TestValidateEquivalence:
    def test_cli_validate_matches_library_report(self, pipeline_out, tmp_path):
        ref_path = pipeline_out / "traces" / "cruise_reference.csv"
        model_path = tmp_path / "cruise_semi.csv"
        ref = read_trace_csv(ref_path)
        semi = load_semi_model(pipeline_out / "semi_model.json")
        write_trace_csv(eval_semi_trace(semi, ref.t, ref.v, ref.a, ref.grade), model_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"validate_pairs": [
            {"name": "cruise_pair", "ref": str(ref_path), "model": str(model_path)}]}))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        cli_doc = json.loads((out / "reports" / "report.json").read_text())
        rec = cli_doc["records"]["cruise_pair"]

        ref = read_trace_csv(ref_path)
        model = read_trace_csv(model_path)
        lib = build_report([("cruise_pair", ref, model)]).records[0]
        assert rec["mae_fuel_gps"] == pytest.approx(lib.mae_fuel_gps, rel=1e-12)
        assert rec["cumulative_error_pct"] == pytest.approx(lib.cumulative_error_pct, rel=1e-12)
        assert rec["gear_mismatch_pct"] == pytest.approx(lib.gear_mismatch_pct, rel=1e-12)


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestBackgroundWrites:
    """Inside a command each CSV's rows are formatted by a helper process,
    which the command waits for before it returns."""

    @pytest.mark.parametrize("dyno_log, code", [(None, 0), ("missing.csv", 2), ("bad.csv", 1)],
                             ids=["ok", "missing-log", "bad-log"])
    def test_no_helper_outlives_main(self, pipeline_out, tmp_path, dyno_log, code):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dyno_logs": [str(tmp_path / dyno_log)]} if dyno_log else {}))
        (tmp_path / "bad.csv").write_text(DYNO_HEADER)
        out = tmp_path / "out"
        # ingest fails after simulate has handed its traces to helpers
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == code
        no_child_left()
        assert tree(out / "traces") == tree(pipeline_out / "traces")

    def test_failed_helper_is_one_error_naming_its_file(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(csvio, "HELPER", [sys.executable, "-c", "import sys; sys.exit(3)"])
        assert main(["simulate", "--out", str(tmp_path)]) == 2
        no_child_left()
        path = tmp_path / "traces" / "cruise_reference.csv"
        assert capsys.readouterr().err == \
            f"error: {path}: formatting rows failed (exit status 3)\n"

    def test_pipeline_validates_traces_it_wrote(self, tmp_path, capsys, monkeypatch):
        # a helper that starts late: validate must wait for the traces it reads
        monkeypatch.setattr(csvio, "HELPER", [
            *csvio.HELPER[:-1], "-c",
            "import runpy, sys, time; time.sleep(0.5);"
            "runpy.run_path(sys.argv[1], run_name='__main__')",
            csvio.HELPER[-1]])
        out = tmp_path / "out"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"validate_pairs": [
            {"name": "pair", "ref": str(out / "traces" / "cruise_reference.csv"),
             "model": str(out / "traces" / "urban_reference.csv")}]}))
        assert main(["pipeline", "--config", str(cfg), "--out", str(out)]) == 0
        reports = tree(out / "reports")
        printed = capsys.readouterr().out.splitlines()[-len(reports["report.txt"].splitlines()):]
        shutil.rmtree(out)
        for stage in ("simulate", "validate"):
            assert main([stage, "--config", str(cfg), "--out", str(out)]) == 0
        assert tree(out / "reports") == reports
        assert capsys.readouterr().out.splitlines()[-len(printed):] == printed


class TestConfig:
    def test_defaults_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"dt": 0.2, "smoothing": {"bound": 3.0}}))
        cfg = load_config(cfg_file)
        assert cfg["dt"] == 0.2
        assert cfg["smoothing"]["bound"] == 3.0
        assert cfg["smoothing"]["mu"] == 0.5  # untouched default

    def test_cli_flag_overrides_config(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"dt": 0.2}))
        cfg = load_config(cfg_file, {"dt": 0.05})
        assert cfg["dt"] == 0.05

    @pytest.mark.parametrize("stage, text, message", [
        ("simulate", json.dumps({"gird": {"shape": [8, 8, 3]}}), "unknown config key 'gird'"),
        ("simulate", json.dumps({"smoothing": {"mue": 0.4}}),
         "unknown config key 'smoothing.mue'"),
        ("simulate", '{"dt": 0.1,', "Expecting property name"),
        ("simulate", "[0.1]", "config must be a JSON object"),
        ("simulate", json.dumps({"dt": "0.1"}), "config key 'dt' must be a number"),
        ("simulate", json.dumps({"grid": 5}), "config key 'grid' must be an object"),
        ("simulate", json.dumps({"grid": {"shape": [48, 36]}}),
         "config key 'grid.shape' must be a list of 3"),
        ("simulate", json.dumps({"degrees": {"C": 3.5}}),
         "config key 'degrees.C' must be an integer"),
        ("simulate", json.dumps({"min_gear_samples": True}),
         "config key 'min_gear_samples' must be an integer"),
        ("simulate", json.dumps({"smoothing": {"mu": False}}),
         "config key 'smoothing.mu' must be a number"),
        ("simulate", json.dumps({"dyno_synthetic": {"warmup": 1}}),
         "config key 'dyno_synthetic.warmup' must be true or false"),
        ("simulate", '{"dt": NaN}', "non-finite value 'NaN'"),
        ("simulate", json.dumps({"vehicle": 5}),
         "config key 'vehicle' must be \"builtin\" or a vehicle"),
        ("simulate", json.dumps({"cycles": 5}),
         "config key 'cycles' must be \"builtin\" or a list of"),
        ("simulate", json.dumps({"cycles": ["a.csv", 5]}), "config key 'cycles' must be"),
        ("simulate", json.dumps({"unit": "furlong"}),
         "config key 'unit' must be one of mps, kph, mph"),
        ("simulate", json.dumps({"dyno_logs": 5}),
         "config key 'dyno_logs' must be \"synthetic\" or a list"),
        ("simulate", json.dumps({"dyno_synthetic": {"cycle": "nope"}}),
         "config key 'dyno_synthetic.cycle' must be the name of a built-in cycle"),
        ("simulate", json.dumps({"validate_pairs": [{"name": "x"}]}),
         "config key 'validate_pairs' must be null or a list"),
        ("simulate", json.dumps({"out_dir": 5}), "config key 'out_dir' must be a directory path"),
        # the right type but out of range: the stage that uses the value rejects it
        ("simulate", json.dumps({"cycles": []}),
         'config key \'cycles\' must be "builtin" or a list of cycle CSV paths, at least one'),
        ("fit-simplified", json.dumps({"grid": {"shape": [48, 9, 11]}}),
         "need at least 10 grid cells per axis, got [48, 9, 11]"),
        ("fit-simplified", json.dumps({"grid": {"a_range": [2.5, -1.0]}}),
         "fit grid a range [2.5, -1.0] must have lo < hi"),
        ("extract", json.dumps({"fuel_map_degree": [-1, 2]}),
         "map degrees must be nonnegative, got [-1, 2]"),
        ("extract", json.dumps({"gear_map_degree": [1, -1]}),
         "map degrees must be nonnegative, got [1, -1]"),
        ("fit-simplified", json.dumps({"degrees": {"C": -1}}),
         "simplified-model degrees must be nonnegative"),
        ("ingest", json.dumps({"smoothing": {"mu": 2.0}}), "smoothing mu must be in [0, 2/3]"),
        ("ingest", json.dumps({"smoothing": {"clip_fraction": 0.6}}),
         "clip fraction must be in [0, 0.5)"),
        ("ingest", json.dumps({"smoothing": {"max_steps": 0}}),
         "smoothing max_steps must be at least 1"),
        ("ingest", json.dumps({"dyno_synthetic": {"sample_rate_hz": 0}}),
         "dyno sample rate must be positive"),
        ("ingest", json.dumps({"dyno_synthetic": {"rpm_noise": -1}}),
         "dyno rpm noise must be nonnegative"),
        ("ingest", json.dumps({"dyno_synthetic": {"seed": -1}}), "dyno seed must be nonnegative"),
        ("ingest", json.dumps({"smoothing": {"mu": 2.0},
                               "dyno_synthetic": {"rpm_noise": 0, "spike_rate": 0}}),
         "smoothing mu must be in [0, 2/3]"),
        ("ingest", json.dumps({"smoothing": {"bound": -1}}),
         "smoothing bound must be positive, got -1 m/s2"),
        ("ingest", json.dumps({"dyno_synthetic": {"spike_rate": 2.0}}),
         "dyno spike rate must be in [0, 1], got 2.0"),
        ("extract", json.dumps({"min_gear_samples": -5}),
         "min_gear_samples must be at least 1, got -5"),
    ], ids=["top-level-typo", "nested-typo", "truncated-json", "not-an-object", "string-dt",
            "int-grid", "short-shape", "fractional-degree", "bool-integer", "bool-number",
            "int-bool", "nan-dt", "int-vehicle", "int-cycles", "int-cycle-path", "unknown-unit",
            "int-dyno-logs", "unknown-synthetic-cycle", "pair-without-paths", "int-out-dir",
            "empty-cycles", "grid-shape-below-10", "reversed-a-range", "negative-fuel-degree",
            "negative-gear-degree", "negative-simplified-degree", "mu-above-1",
            "clip-fraction-above-half", "zero-max-steps", "zero-sample-rate",
            "negative-rpm-noise", "negative-seed", "mu-above-1-clean-log", "negative-bound",
            "spike-rate-above-1", "negative-min-gear-samples"])
    def test_bad_config_exits_1(self, pipeline_out, tmp_path, capsys, stage, text, message):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(text)
        out = tmp_path / "out"
        if stage != "simulate":
            # the stage's prerequisites, so that it gets as far as the bad value
            shutil.copytree(pipeline_out, out)
        assert main([stage, "--config", str(cfg_file), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err
        assert "Traceback" not in err
        if stage == "simulate":
            # rejected while the config loads, before anything is written
            assert err.startswith(f"error: {cfg_file}: ")
            assert not out.exists()

    def test_int_accepted_for_float(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"dt": 1, "smoothing": {"bound": 3}}))
        cfg = load_config(cfg_file)
        assert cfg["dt"] == 1 and cfg["smoothing"]["bound"] == 3

    def test_out_dir_key_accepted(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"out_dir": str(tmp_path / "from_config")}))
        assert main(["simulate", "--config", str(cfg_file)]) == 0
        assert (tmp_path / "from_config" / "traces" / "cruise_reference.csv").exists()


def defaults(fn) -> dict:
    """Keyword defaults of a library function, by parameter name."""
    return {name: param.default for name, param in inspect.signature(fn).parameters.items()
            if param.default is not param.empty}


class TestDefaultsDecidedOnce:
    """Each tuning value is one library constant that both the signature
    defaults and DEFAULT_CONFIG read, so a library call with default
    arguments fits the same model as a ``vcdfuel`` run."""

    def test_default_config_hash_unchanged(self):
        assert config_hash(load_config()) == "01a46a0f4bf59983"

    @pytest.mark.parametrize("fn", [simulate, run_vcd, build_semi_model, process_log, align,
                                    compare_pair, build_report], ids=lambda fn: fn.__name__)
    def test_dt(self, fn):
        assert defaults(fn)["dt"] == DEFAULT_CONFIG["dt"]

    @pytest.mark.parametrize("fn", [fit_all_maps, build_semi_model, build_semi_model_from_dataset],
                             ids=lambda fn: fn.__name__)
    def test_map_degrees_and_min_gear_samples(self, fn):
        found = defaults(fn)
        assert list(found["fuel_degree"]) == DEFAULT_CONFIG["fuel_map_degree"]
        assert list(found["gear_degree"]) == DEFAULT_CONFIG["gear_map_degree"]
        assert found["min_gear_samples"] == DEFAULT_CONFIG["min_gear_samples"]

    def test_smoothing(self):
        smoothing = DEFAULT_CONFIG["smoothing"]
        assert {key: defaults(process_log)[key] for key in smoothing} == smoothing
        assert {key: defaults(auto_select_smoothing)[key] for key in ("mu", "bound", "max_steps")} \
            == {key: smoothing[key] for key in ("mu", "bound", "max_steps")}
        assert defaults(smooth_speed)["mu"] == smoothing["mu"]
        assert defaults(clip_outliers)["fraction"] == smoothing["clip_fraction"]
        assert defaults(hot_engine_window)["threshold"] == smoothing["hot_threshold"]

    def test_dyno_synthetic(self):
        synthetic = {key: val for key, val in DEFAULT_CONFIG["dyno_synthetic"].items()
                     if key != "cycle"}
        assert defaults(make_dyno_log) == synthetic

    def test_simplified_degrees_and_grid(self):
        assert DEFAULT_DEGREES == DEFAULT_CONFIG["degrees"]
        grid = DEFAULT_CONFIG["grid"]
        assert list(defaults(FitGrid)["shape"]) == grid["shape"]
        box = default_grid(SimpleNamespace(speed_max=30.0))
        assert [list(box.a_range), list(box.grade_range), list(box.shape)] \
            == [grid["a_range"], grid["grade_range"], grid["shape"]]


class TestPlotsAndDynoPairs:
    def test_validate_covers_dyno_trace_and_emits_svg(self, pipeline_out, tmp_path):
        report = json.loads((pipeline_out / "reports" / "report.json").read_text())
        assert "cruise_dyno_semi" in report["records"]
        assert "cruise_dyno_simplified" in report["records"]
        # dyno-based records carry internal-dynamics metrics too
        assert report["records"]["cruise_dyno_semi"]["mae_engine_speed_rpm"] is not None

        out = tmp_path / "svg"
        assert main(["simulate", "--out", str(out)]) == 0
        assert main(["extract", "--out", str(out)]) == 0
        assert main(["fit-simplified", "--out", str(out)]) == 0
        assert main(["ingest", "--out", str(out)]) == 0
        assert main(["validate", "--out", str(out), "--plots"]) == 0
        svgs = list((out / "reports").glob("*.svg"))
        assert svgs
        body = svgs[0].read_text()
        assert body.startswith("<svg") and "polyline" in body

    def test_plots_align_each_pair_once(self, tmp_path, monkeypatch):
        calls = []
        real_align = validation.align

        def counting_align(*args, **kwargs):
            calls.append(args)
            return real_align(*args, **kwargs)

        monkeypatch.setattr(validation, "align", counting_align)
        # also counts calls through a name the CLI imports itself
        monkeypatch.setattr(cli, "align", counting_align, raising=False)
        out = tmp_path / "out"
        assert main(["pipeline", "--out", str(out), "--plots"]) == 0
        pairs = json.loads((out / "reports" / "report.json").read_text())["records"]
        assert len(calls) == len(pairs) == 11
        assert sorted(p.name for p in (out / "reports").glob("*.svg")) == sorted(
            f"{cycle}_fuel.svg" for cycle in pairs)


BUILTIN_ARTIFACTS = sorted([
    *(f"traces/{cycle}_reference.csv" for cycle in ("aggressive", "cruise", "urban")),
    "semi_model.json", "simplified_model.json",
    "profiles/cruise_dyno_profile.json", "profiles/cruise_dyno_trace.csv",
    "reports/report.json", "reports/report.txt"])


# the comparison-file column of each model output
COMPARISON_LABELS = {"fuel": "fuel_model_gps", "gear": "gear_model",
                     "engine_speed": "engine_speed_radps_model",
                     "engine_torque": "engine_torque_nm_model", "pedal": "pedal_pct_model",
                     "flags": "flags_model"}


class TestArtifactSet:
    def test_builtin_pipeline_writes_exactly_these_files(self, pipeline_out):
        assert sorted(tree(pipeline_out)) == BUILTIN_ARTIFACTS

    def test_plots_only_add_chart_data(self, pipeline_out, plots_out):
        plain, plots = tree(pipeline_out), tree(plots_out)
        # every file of the plain run is there, byte for byte
        assert {rel: plots.get(rel) for rel in plain} == plain
        added = sorted(set(plots) - set(plain))
        records = json.loads(plain["reports/report.json"])["records"]
        assert len(records) == 11
        assert [rel for rel in added if rel.endswith(".svg")] == sorted(
            f"reports/{cycle}_fuel.svg" for cycle in records)
        csvs = [rel for rel in added if rel.endswith(".csv")]
        assert len(csvs) == 11 and all(rel.startswith("reports/") and "_vs_" in rel
                                       for rel in csvs)
        assert len(added) == 22

    @pytest.mark.parametrize("cycle", ["cruise", "urban", "aggressive"])
    def test_comparison_files_hold_every_model_output(self, plots_out, cycle):
        """Each model's per-step outputs on a reference trace, as the library
        computes them, are the ``*_model`` columns of the pair's comparison
        file: floats as written with %.10g, gear and flags exactly."""
        ref = read_trace_csv(plots_out / "traces" / f"{cycle}_reference.csv")
        models = {
            "semi": eval_semi_trace(load_semi_model(plots_out / "semi_model.json"),
                                    ref.t, ref.v, ref.a, ref.grade),
            "simplified": eval_simplified_trace(
                load_simplified(plots_out / "simplified_model.json"), ref.t, ref.v, ref.a,
                ref.grade)}
        for kind, model in models.items():
            written = read_columns(
                plots_out / "reports" / f"{cycle}_{kind}_{kind}_{cycle}_vs_{cycle}_reference.csv")
            expected = {"cumfuel_model_g": cumulative_fuel(model.t, model.fuel)[1]}
            expected.update((COMPARISON_LABELS[col], getattr(model, col))
                            for col in model.columns() if col in COMPARISON_LABELS)
            assert sorted(col for col in written if "model" in col) == sorted(expected), kind
            for label, values in expected.items():
                assert written[label].size == len(ref), (kind, label)
                if values.dtype.kind != "i":
                    values = np.char.mod("%.10g", values).astype(float)
                assert np.array_equal(written[label], values), (kind, label)

    def test_rig_trace_holds_the_processed_profile(self, pipeline_out):
        # what profiles/<rig>_profile.csv held: the t, v, a columns of the rig trace
        syn = dict(DEFAULT_CONFIG["dyno_synthetic"])
        log = make_dyno_log(builtin_cycles()[syn.pop("cycle")], default_vehicle(), **syn)
        expected = process_log(log, dt=DEFAULT_CONFIG["dt"], **DEFAULT_CONFIG["smoothing"]).trace
        on_disk = read_trace_csv(pipeline_out / "profiles" / "cruise_dyno_trace.csv")
        for col in ("t", "v", "a"):
            assert getattr(on_disk, col).tobytes() == getattr(expected, col).tobytes(), col


class TestUserSuppliedInputs:
    def test_simulate_with_kph_cycle_files(self, tmp_path):
        cycle_path = tmp_path / "short.csv"
        rows = ["t,v", "0,0", "5,0", "25,50", "45,80", "70,80", "95,20", "110,0", "118,0"]
        cycle_path.write_text("\n".join(rows) + "\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cycles": [str(cycle_path)], "unit": "kph"}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        trace = read_trace_csv(out / "traces" / "short_reference.csv")
        assert trace.v.max() == pytest.approx(80 / 3.6, rel=1e-6)

    def test_cycle_with_byte_order_mark(self, tmp_path):
        # spreadsheet "CSV UTF-8" exports start with a byte-order mark
        text = "t,v\n0,0\n5,0\n25,14\n40,14\n55,0\n60,0\n"
        traces = []
        for tag, encoding in (("plain", "utf-8"), ("bom", "utf-8-sig")):
            cycle_path = tmp_path / tag / "short.csv"
            cycle_path.parent.mkdir()
            cycle_path.write_text(text, encoding=encoding)
            cfg = tmp_path / tag / "cfg.json"
            cfg.write_text(json.dumps({"cycles": [str(cycle_path)]}))
            out = tmp_path / tag / "out"
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
            traces.append((out / "traces" / "short_reference.csv").read_bytes())
        assert (tmp_path / "bom" / "short.csv").read_bytes().startswith(b"\xef\xbb\xbf")
        assert traces[0] == traces[1]

    def test_ingest_reads_external_dyno_log(self, tmp_path):
        log_path = tmp_path / "rig.csv"
        write_dyno_csv(make_dyno_log(cruise_cycle(), default_vehicle(), seed=5), log_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dyno_logs": [str(log_path)]}))
        out = tmp_path / "out"
        assert main(["ingest", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "profiles" / "rig_trace.csv").exists()
        assert (out / "profiles" / "rig_profile.json").exists()
        assert not (out / "profiles" / "rig_profile.csv").exists()
