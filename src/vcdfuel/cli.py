"""Command-line pipeline driver.

Each subcommand runs one stage and reads its predecessor's artifacts from
the output directory, so stages can be rerun independently:

    simulate        reference traces for every configured cycle
    extract         constants and fitted maps: the map-based model (semi_model.json)
    fit-simplified  reduce it to the polynomial model (simplified_model.json)
    ingest          post-process dyno logs into (t, v, a) profiles
    validate        metric reports and comparison CSVs
    pipeline        all of the above in order

Everything is deterministic given the config: artifacts carry the tool
version and a hash of the resolved config instead of timestamps, so two
runs with the same inputs produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from .drive_cycles import load_cycle
from .dyno import log_to_trace, process_log, read_dyno_csv, write_dyno_csv, write_profile
from .errors import MissingPrerequisite, VcdFuelError
from .extraction import VcdDataset, detect_shift_events, run_vcd
from .jsonio import read_json, write_json
from .powertrain import ReferenceVehicle, load_vehicle
from .semi_principled import (
    build_semi_model_from_dataset,
    eval_semi_trace,
    load_semi_model,
    model_to_dict,
)
from .simplified import (
    FitGrid,
    eval_simplified_trace,
    fit_simplified,
    load_simplified,
    simplified_to_dict,
)
from .synthetic import builtin_cycles, default_vehicle, make_dyno_log
from .trace import Trace, read_trace_csv, write_trace_csv
from .validation import build_report

DEFAULT_CONFIG = {
    "vehicle": "builtin",
    "cycles": "builtin",
    "unit": "mps",
    "dt": 0.1,
    "fuel_map_degree": [2, 2],
    "gear_map_degree": [1, 1],
    "min_gear_samples": 50,
    "degrees": {"C": 3, "P": 2, "Q": 1, "Z": 1},
    "grid": {"a_range": [-1.0, 2.5], "grade_range": [-0.12, 0.12], "shape": [48, 36, 11]},
    "smoothing": {"mu": 0.5, "bound": 4.0, "clip_fraction": 0.05,
                  "max_steps": 200, "hot_threshold": 85.0},
    "dyno_logs": "synthetic",
    "dyno_synthetic": {"cycle": "cruise", "seed": 2024, "rpm_noise": 3.0,
                       "spike_rate": 0.002, "spike_rpm": 2200.0,
                       "sample_rate_hz": 10.0, "warmup": True},
    "validate_pairs": None,
}


def load_config(path=None, overrides=None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        try:
            user = read_json(path, _checked_config)
        except FileNotFoundError:
            raise MissingPrerequisite(f"config file not found: {path}") from None
        for key, val in user.items():
            if isinstance(cfg.get(key), dict):
                cfg[key].update(val)
            else:
                cfg[key] = val
    for key, val in (overrides or {}).items():
        if val is not None:
            cfg[key] = val
    return cfg


def _checked_config(doc):
    if not isinstance(doc, dict):
        raise TypeError("config must be a JSON object")
    # a misspelt key would run on the default yet change the config hash
    _check_value("", doc, {**DEFAULT_CONFIG, "out_dir": None})
    return doc


_JSON_TYPES = {dict: "an object", list: "a list", bool: "true or false",
               int: "an integer", float: "a number"}


def _check_value(key: str, val, default) -> None:
    """Raise unless ``val`` has the JSON type of ``default``: an int passes
    for a float, a bool never for a number, objects hold only known keys and
    lists keep their length. String and null defaults stand for paths and
    lists the user supplies and are not checked."""
    if default is None or isinstance(default, str):
        return
    kind = (int, float) if isinstance(default, float) else type(default)
    if (not isinstance(val, kind) or isinstance(val, bool) != isinstance(default, bool)
            or isinstance(val, list) and len(val) != len(default)):
        length = f" of {len(default)}" if isinstance(default, list) else ""
        raise TypeError(f"config key '{key}' must be {_JSON_TYPES[type(default)]}{length}")
    if isinstance(default, dict):
        for sub, item in val.items():
            name = f"{key}.{sub}" if key else sub
            if sub not in default:
                raise ValueError(f"unknown config key '{name}'")
            _check_value(name, item, default[sub])
    elif isinstance(default, list):
        for i, (item, dflt) in enumerate(zip(val, default)):
            _check_value(f"{key}[{i}]", item, dflt)


def config_hash(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _provenance(cfg: dict) -> dict:
    return {"tool": "vcdfuel", "version": __version__, "config_hash": config_hash(cfg)}


def _write_artifact(cfg: dict, path: Path, doc: dict) -> None:
    doc["_provenance"] = _provenance(cfg)
    write_json(path, doc)


def _resolve_vehicle(cfg):
    if cfg["vehicle"] == "builtin":
        return default_vehicle()
    path = Path(cfg["vehicle"])
    if not path.exists():
        raise MissingPrerequisite(f"vehicle file not found: {path}")
    return load_vehicle(path)


def _resolve_cycles(cfg):
    if cfg["cycles"] == "builtin":
        return list(builtin_cycles().values())
    cycles = []
    for item in cfg["cycles"]:
        path = Path(item)
        if not path.exists():
            raise MissingPrerequisite(f"cycle file not found: {path}")
        cycles.append(load_cycle(path, unit=cfg["unit"]))
    return cycles


def _out_dir(cfg, args) -> Path:
    out = Path(args.out or cfg.get("out_dir", "out"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def _require(path: Path, produced_by: str) -> Path:
    if not path.exists():
        raise MissingPrerequisite(f"missing {path.name}; run `vcdfuel {produced_by}` first")
    return path


# --- stages -------------------------------------------------------------------

def cmd_simulate(cfg, args) -> int:
    out = _out_dir(cfg, args)
    vehicle = _resolve_vehicle(cfg)
    cycles = _resolve_cycles(cfg)
    traces_dir = out / "traces"
    traces_dir.mkdir(exist_ok=True)
    ds = run_vcd(vehicle, cycles, dt=cfg["dt"])
    for trace in ds.traces:
        write_trace_csv(trace, traces_dir / f"{trace.name}_reference.csv")
        print(f"wrote {traces_dir / (trace.name + '_reference.csv')}")
    _write_artifact(cfg, traces_dir / "manifest.json",
                    {"cycles": [tr.name for tr in ds.traces], "dt": cfg["dt"]})
    return 0


def _manifest_cycles(doc) -> list[str]:
    names = doc["cycles"]
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise TypeError("'cycles' must be a list of cycle names")
    return names


def _read_manifest(out: Path) -> list[str]:
    """Names of the simulated cycles, from ``traces/manifest.json``."""
    return read_json(_require(out / "traces" / "manifest.json", "simulate"), _manifest_cycles)


def _load_dataset(cfg, out: Path) -> tuple[VcdDataset, ReferenceVehicle]:
    vehicle = _resolve_vehicle(cfg)
    traces = []
    for name in _read_manifest(out):
        path = _require(out / "traces" / f"{name}_reference.csv", "simulate")
        traces.append(read_trace_csv(path, name=name))
    events = [ev for tr in traces for ev in detect_shift_events(tr)]
    return VcdDataset(params=vehicle.params, traces=traces, events=events), vehicle


def cmd_extract(cfg, args) -> int:
    out = _out_dir(cfg, args)
    ds, vehicle = _load_dataset(cfg, out)
    model = build_semi_model_from_dataset(
        ds, vehicle.shift_maps,
        fuel_degree=tuple(cfg["fuel_map_degree"]),
        gear_degree=tuple(cfg["gear_map_degree"]),
        min_gear_samples=cfg["min_gear_samples"],
        dt=cfg["dt"])
    _write_artifact(cfg, out / "semi_model.json",
                    {**model_to_dict(model), "events": len(ds.events)})
    print(f"wrote {out / 'semi_model.json'} "
          f"(idle fuel {model.constants.idle_fuel:.4f} g/s, "
          f"cut speed {model.constants.cut_speed:.2f} m/s)")
    return 0


def cmd_fit_simplified(cfg, args) -> int:
    out = _out_dir(cfg, args)
    semi = load_semi_model(_require(out / "semi_model.json", "extract"))
    gc = cfg["grid"]
    grid = FitGrid(v_range=(0.0, semi.speed_max), a_range=tuple(gc["a_range"]),
                   grade_range=tuple(gc["grade_range"]), shape=tuple(gc["shape"]))
    model = fit_simplified(semi, grid, degrees=cfg["degrees"])
    _write_artifact(cfg, out / "simplified_model.json", simplified_to_dict(model))
    diag = model.diagnostics
    print(f"wrote {out / 'simplified_model.json'} "
          f"(L2 {diag['l2_error']:.4f} g/s, max {diag['max_error']:.4f} g/s)")
    return 0


def cmd_ingest(cfg, args) -> int:
    out = _out_dir(cfg, args)
    profiles_dir = out / "profiles"
    profiles_dir.mkdir(exist_ok=True)
    logs = []
    if cfg["dyno_logs"] == "synthetic":
        syn = cfg["dyno_synthetic"]
        cycle = builtin_cycles()[syn["cycle"]]
        log = make_dyno_log(cycle, _resolve_vehicle(cfg), seed=syn["seed"],
                            sample_rate_hz=syn["sample_rate_hz"],
                            rpm_noise=syn["rpm_noise"], spike_rate=syn["spike_rate"],
                            spike_rpm=syn["spike_rpm"], warmup=syn["warmup"])
        raw_path = out / "profiles" / f"{log.name}_raw.csv"
        write_dyno_csv(log, raw_path)
        print(f"wrote {raw_path} (synthetic rig recording)")
        logs.append(log)
    else:
        for item in cfg["dyno_logs"]:
            path = Path(item)
            if not path.exists():
                raise MissingPrerequisite(f"dyno log not found: {path}")
            logs.append(read_dyno_csv(path))
    sm = cfg["smoothing"]
    for log in logs:
        profile = process_log(log, dt=cfg["dt"], bound=sm["bound"],
                              clip_fraction=sm["clip_fraction"], mu=sm["mu"],
                              hot_threshold=sm["hot_threshold"], max_steps=sm["max_steps"])
        profile.provenance.update(_provenance(cfg))
        csv_path = profiles_dir / f"{log.name}_profile.csv"
        write_profile(profile, csv_path, profiles_dir / f"{log.name}_profile.json")
        trace = log_to_trace(log, profile)
        write_trace_csv(trace, profiles_dir / f"{log.name}_trace.csv")
        print(f"wrote {csv_path} (smoothing steps {profile.provenance['smoothing_steps']}, "
              f"peak |a| {profile.provenance['max_abs_accel_before_clip']:.2f} m/s2)")
    return 0


def _model_traces_for(semi, simp, base: Trace, tag: str):
    """Evaluate both reduced models on a (t, v, a) profile."""
    grade = base.grade if base.grade is not None else 0.0
    semi_tr = eval_semi_trace(semi, base.t, base.v, base.a, grade, name=f"semi_{tag}")
    simp_tr = eval_simplified_trace(simp, base.t, base.v, base.a, grade, name=f"simplified_{tag}")
    return semi_tr, simp_tr


def cmd_validate(cfg, args) -> int:
    out = _out_dir(cfg, args)
    reports_dir = out / "reports"
    reports_dir.mkdir(exist_ok=True)
    pairs = []
    if cfg.get("validate_pairs"):
        for entry in cfg["validate_pairs"]:
            ref = read_trace_csv(_require(Path(entry["ref"]), "simulate"))
            model = read_trace_csv(_require(Path(entry["model"]), "simulate"))
            pairs.append((entry["name"], ref, model))
    else:
        names = _read_manifest(out)
        semi = load_semi_model(_require(out / "semi_model.json", "extract"))
        simp = load_simplified(_require(out / "simplified_model.json", "fit-simplified"))
        for name in names:
            ref = read_trace_csv(out / "traces" / f"{name}_reference.csv", name=f"{name}_reference")
            semi_tr, simp_tr = _model_traces_for(semi, simp, ref, name)
            write_trace_csv(semi_tr, out / "traces" / f"{name}_semi.csv")
            write_trace_csv(simp_tr, out / "traces" / f"{name}_simplified.csv")
            pairs.append((f"{name}_semi", ref, semi_tr))
            pairs.append((f"{name}_simplified", ref, simp_tr))
            pairs.append((f"{name}_closure", semi_tr, simp_tr))
        # ingested rig recordings, when present, are compared the same way:
        # both models replay the processed (t, v, a) profile
        for dyno_path in sorted((out / "profiles").glob("*_trace.csv")):
            tag = dyno_path.stem.removesuffix("_trace")
            dyno = read_trace_csv(dyno_path, name=tag)
            semi_tr, simp_tr = _model_traces_for(semi, simp, dyno, tag)
            pairs.append((f"{tag}_semi", dyno, semi_tr))
            pairs.append((f"{tag}_simplified", dyno, simp_tr))
    report = build_report(pairs, dt=cfg["dt"], out_dir=reports_dir, plots=args.plots)
    _write_artifact(cfg, reports_dir / "report.json", report.to_dict())
    table = report.format_table()
    with open(reports_dir / "report.txt", "w", encoding="utf-8") as f:
        f.write(table + "\n")
    print(table)
    return 0


def cmd_pipeline(cfg, args) -> int:
    for stage in (cmd_simulate, cmd_extract, cmd_fit_simplified, cmd_ingest, cmd_validate):
        code = stage(cfg, args)
        if code != 0:
            return code
    return 0


# --- entry ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vcdfuel",
                                     description="Powertrain simulation and fuel-model reduction pipeline")
    parser.add_argument("--version", action="version", version=f"vcdfuel {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn, help_text in (
        ("simulate", cmd_simulate, "run the reference vehicle over the configured cycles"),
        ("extract", cmd_extract, "extract constants and fitted maps into the map-based model"),
        ("fit-simplified", cmd_fit_simplified, "fit the polynomial model"),
        ("ingest", cmd_ingest, "post-process dyno logs into (t, v, a) profiles"),
        ("validate", cmd_validate, "compute metric reports and comparison CSVs"),
        ("pipeline", cmd_pipeline, "run every stage in order"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (default from config, else ./out)")
        p.add_argument("--unit", choices=["mps", "kph", "mph"], help="cycle CSV speed unit")
        p.add_argument("--dt", type=float, help="simulation/metric grid step [s]")
        p.add_argument("--plots", action="store_true", help="also render SVG line charts")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"unit": args.unit, "dt": args.dt})
        return args.func(cfg, args)
    except MissingPrerequisite as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VcdFuelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
