"""Command-line pipeline driver.

Each subcommand runs one stage on a ``Run``, which carries the config, the
output directory and the products stages hand on. Run alone, a stage reads
a predecessor's product from the output directory under the name the config
gives it, so stages can be rerun independently; ``pipeline`` passes one
``Run`` through every stage and writes the same files without reading any back:

    simulate        reference traces for every configured cycle
    extract         constants and fitted maps: the map-based model (semi_model.json)
    fit-simplified  reduce it to the polynomial model (simplified_model.json)
    ingest          post-process dyno logs into rig traces (t, v, a and the logged channels)
    validate        metric reports; with --plots also each pair's comparison CSV and chart
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
from dataclasses import replace
from functools import cached_property
from pathlib import Path

from . import __version__, dyno, extraction, simplified, synthetic
from .drive_cycles import UNIT_FACTORS, load_cycle
from .dyno import process_log, read_dyno_csv
from .errors import MissingPrerequisite, ParseError, VcdFuelError
from .extraction import VcdDataset, run_vcd
from .jsonio import is_number, read_json, write_json
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
from .synthetic import BUILTIN_CYCLES, builtin_cycle, builtin_cycles, default_vehicle, make_dyno_log
from .trace import DT, Trace, read_trace_csv, write_trace_csv
from .validation import build_report

# tuning values are the library's constants; "smoothing" and "dyno_synthetic"
# (but "cycle") are keyword arguments of process_log and make_dyno_log
DEFAULT_CONFIG = {
    "vehicle": "builtin",
    "cycles": "builtin",
    "unit": "mps",
    "dt": DT,
    "fuel_map_degree": list(extraction.FUEL_MAP_DEGREE),
    "gear_map_degree": list(extraction.GEAR_MAP_DEGREE),
    "min_gear_samples": extraction.MIN_GEAR_SAMPLES,
    "degrees": dict(simplified.DEFAULT_DEGREES),
    "grid": {"a_range": list(simplified.FIT_A_RANGE),
             "grade_range": list(simplified.FIT_GRADE_RANGE),
             "shape": list(simplified.FIT_SHAPE)},
    "smoothing": {"mu": dyno.SMOOTHING_MU, "bound": dyno.ACCEL_BOUND,
                  "clip_fraction": dyno.CLIP_FRACTION, "max_steps": dyno.MAX_SMOOTHING_STEPS,
                  "hot_threshold": dyno.HOT_THRESHOLD_C},
    "dyno_logs": "synthetic",
    "dyno_synthetic": {"cycle": "cruise", "seed": synthetic.DYNO_SEED,
                       "rpm_noise": synthetic.DYNO_RPM_NOISE,
                       "spike_rate": synthetic.DYNO_SPIKE_RATE,
                       "spike_rpm": synthetic.DYNO_SPIKE_RPM,
                       "sample_rate_hz": synthetic.DYNO_SAMPLE_RATE_HZ,
                       "warmup": synthetic.DYNO_WARMUP},
    "validate_pairs": None,
}


def load_config(path=None, overrides=None) -> dict:
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    if path is not None:
        user = read_json(_existing(path, "config"), _checked_config)
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


_UNITS = tuple(UNIT_FACTORS)
_JSON_TYPES = {dict: "an object", list: "a list", bool: "true or false",
               int: "an integer", float: "a number"}


def _paths(val) -> bool:
    return isinstance(val, list) and all(isinstance(item, str) for item in val)


def _pairs(val) -> bool:
    return val is None or isinstance(val, list) and all(
        isinstance(pair, dict) and sorted(pair) == ["model", "name", "ref"]
        and _paths(list(pair.values())) for pair in val)


# keys whose default is a string or null: what each accepts instead of a type
_FREE_KEYS = {
    "vehicle": (lambda val: isinstance(val, str), '"builtin" or a vehicle JSON path'),
    "cycles": (lambda val: val == "builtin" or (_paths(val) and len(val) > 0),
               '"builtin" or a list of cycle CSV paths, at least one'),
    "unit": (lambda val: val in _UNITS, f"one of {', '.join(_UNITS)}"),
    "dyno_logs": (lambda val: val == "synthetic" or _paths(val),
                  '"synthetic" or a list of dyno log CSV paths'),
    "dyno_synthetic.cycle": (lambda val: isinstance(val, str) and val in BUILTIN_CYCLES,
                             "the name of a built-in cycle"),
    "validate_pairs": (_pairs, 'null or a list of {"name", "ref", "model"} strings'),
    "out_dir": (lambda val: isinstance(val, str), "a directory path"),
}


def _check_value(key: str, val, default) -> None:
    """Raise unless ``val`` has the JSON type of ``default``: an int passes
    for a float, a bool never for a number, objects hold only known keys and
    lists keep their length. Keys with a string or null default accept what
    ``_FREE_KEYS`` says."""
    if key in _FREE_KEYS:
        accepts, expected = _FREE_KEYS[key]
        if not accepts(val):
            raise TypeError(f"config key '{key}' must be {expected}")
        return
    kind = (int, float) if isinstance(default, float) else type(default)
    if (not isinstance(val, kind) or is_number(default) and not is_number(val)
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


def _existing(path, kind: str) -> Path:
    path = Path(path)
    if not path.exists():
        raise MissingPrerequisite(f"{kind} file not found: {path}")
    return path


def _product_names(cfg) -> tuple[list[str], list[str]]:
    """The config's cycle and rig names in config order, as ``load_cycle``,
    ``read_dyno_csv`` and ``make_dyno_log`` give them: built-in names or file
    stems, ``<cycle>_dyno``. Fails on a name that would key two outputs."""
    cycles = (list(BUILTIN_CYCLES) if cfg["cycles"] == "builtin"
              else [Path(item).stem for item in cfg["cycles"]])
    rigs = ([f"{cfg['dyno_synthetic']['cycle']}_dyno"] if cfg["dyno_logs"] == "synthetic"
            else [Path(item).stem for item in cfg["dyno_logs"]])
    # two of a kind would write traces/<name>_* or profiles/<name>_* twice
    checks = [("cycles", "two cycle files", cycles), ("dyno_logs", "two dyno logs", rigs)]
    if not cfg.get("validate_pairs"):
        # both would key the report records <name>_semi and <name>_simplified
        checks.append(("dyno_logs", "a cycle and a dyno log", cycles + rigs))
    for key, what, names in checks:
        for name in names:
            if names.count(name) > 1:
                raise ParseError(f"config key '{key}': {what} named '{name}'")
    return cycles, rigs


# --- stages -------------------------------------------------------------------

class Run:
    """One command's config with its cycle and rig names, output directory
    ``out``, ``--plots`` flag, and the products its stages hand on: ``vehicle``
    and ``dataset`` (simulate), ``semi`` (extract), ``simplified``
    (fit-simplified) and ``rig_traces`` (ingest, by rig name). A stage that
    makes a product assigns it; any other is read from ``out``, under the
    config's names, the first time a stage asks for it. So ``pipeline`` reads
    back nothing it wrote, and a stage run alone reads each artifact once."""

    def __init__(self, cfg: dict, args):
        self.cfg = cfg
        self.cycle_names, self.rig_names = _product_names(cfg)
        self.plots = args.plots
        self.out = Path(args.out or cfg.get("out_dir", "out"))
        self.out.mkdir(parents=True, exist_ok=True)

    def artifact(self, name: str, produced_by: str) -> Path:
        """``out/<name>``, which stage ``produced_by`` writes."""
        path = self.out / name
        if not path.exists():
            raise MissingPrerequisite(f"missing {path.name}; run `vcdfuel {produced_by}` first")
        return path

    @cached_property
    def vehicle(self) -> ReferenceVehicle:
        if self.cfg["vehicle"] == "builtin":
            return default_vehicle()
        return load_vehicle(_existing(self.cfg["vehicle"], "vehicle"))

    @cached_property
    def dataset(self) -> VcdDataset:
        return VcdDataset.from_traces(self.vehicle.params, [
            read_trace_csv(self.artifact(f"traces/{name}_reference.csv", "simulate"), name=name)
            for name in self.cycle_names])

    @cached_property
    def semi(self):
        return load_semi_model(self.artifact("semi_model.json", "extract"))

    @cached_property
    def simplified(self):
        return load_simplified(self.artifact("simplified_model.json", "fit-simplified"))

    @cached_property
    def rig_traces(self) -> dict[str, Trace]:
        return {name: read_trace_csv(self.artifact(f"profiles/{name}_trace.csv", "ingest"),
                                     name=name)
                for name in self.rig_names}


def cmd_simulate(run: Run) -> None:
    cfg = run.cfg
    vehicle = run.vehicle
    if cfg["cycles"] == "builtin":
        cycles = list(builtin_cycles().values())
    else:
        cycles = [load_cycle(_existing(item, "cycle"), unit=cfg["unit"]) for item in cfg["cycles"]]
    traces_dir = run.out / "traces"
    traces_dir.mkdir(exist_ok=True)
    ds = run.dataset = run_vcd(vehicle, cycles, dt=cfg["dt"])
    for trace in ds.traces:
        write_trace_csv(trace, traces_dir / f"{trace.name}_reference.csv")
        print(f"wrote {traces_dir / (trace.name + '_reference.csv')}")


def cmd_extract(run: Run) -> None:
    cfg = run.cfg
    ds = run.dataset
    model = run.semi = build_semi_model_from_dataset(
        ds, run.vehicle.shift_maps,
        fuel_degree=tuple(cfg["fuel_map_degree"]),
        gear_degree=tuple(cfg["gear_map_degree"]),
        min_gear_samples=cfg["min_gear_samples"],
        dt=cfg["dt"])
    _write_artifact(cfg, run.out / "semi_model.json",
                    {**model_to_dict(model), "events": len(ds.events)})
    print(f"wrote {run.out / 'semi_model.json'} "
          f"(idle fuel {model.constants.idle_fuel:.4f} g/s, "
          f"cut speed {model.constants.cut_speed:.2f} m/s)")


def cmd_fit_simplified(run: Run) -> None:
    semi = run.semi
    grid = FitGrid(v_range=(0.0, semi.speed_max),
                   **{key: tuple(val) for key, val in run.cfg["grid"].items()})
    model = run.simplified = fit_simplified(semi, grid, degrees=run.cfg["degrees"])
    _write_artifact(run.cfg, run.out / "simplified_model.json", simplified_to_dict(model))
    diag = model.diagnostics
    print(f"wrote {run.out / 'simplified_model.json'} "
          f"(L2 {diag['l2_error']:.4f} g/s, max {diag['max_error']:.4f} g/s)")


def cmd_ingest(run: Run) -> None:
    cfg = run.cfg
    profiles_dir = run.out / "profiles"
    profiles_dir.mkdir(exist_ok=True)
    if cfg["dyno_logs"] == "synthetic":
        syn = dict(cfg["dyno_synthetic"])
        logs = [make_dyno_log(builtin_cycle(syn.pop("cycle")), run.vehicle, **syn)]
    else:
        logs = [read_dyno_csv(_existing(item, "dyno log")) for item in cfg["dyno_logs"]]
    run.rig_traces = {}
    for log in logs:
        profile = process_log(log, dt=cfg["dt"], **cfg["smoothing"])
        profile.provenance.update(_provenance(cfg))
        trace = run.rig_traces[log.name] = profile.trace
        csv_path = profiles_dir / f"{log.name}_trace.csv"
        write_json(profiles_dir / f"{log.name}_profile.json", profile.provenance)
        write_trace_csv(trace, csv_path)
        print(f"wrote {csv_path} (smoothing steps {profile.provenance['smoothing_steps']}, "
              f"peak |a| {profile.provenance['max_abs_accel_before_clip']:.2f} m/s2)")


def _model_traces_for(semi, simp, base: Trace, tag: str):
    """Evaluate both reduced models on a (t, v, a) profile."""
    base.require("a")
    grade = base.grade if base.grade is not None else 0.0
    semi_tr = eval_semi_trace(semi, base.t, base.v, base.a, grade, name=f"semi_{tag}")
    simp_tr = eval_simplified_trace(simp, base.t, base.v, base.a, grade, name=f"simplified_{tag}")
    return semi_tr, simp_tr


def cmd_validate(run: Run) -> None:
    cfg = run.cfg
    reports_dir = run.out / "reports"
    reports_dir.mkdir(exist_ok=True)
    pairs = []
    if cfg.get("validate_pairs"):
        for entry in cfg["validate_pairs"]:
            ref = read_trace_csv(_existing(entry["ref"], "reference trace"))
            model = read_trace_csv(_existing(entry["model"], "model trace"))
            pairs.append((entry["name"], ref, model))
    else:
        semi, simp = run.semi, run.simplified
        for ref in run.dataset.traces:
            name = ref.name
            ref = replace(ref, name=f"{name}_reference")
            semi_tr, simp_tr = _model_traces_for(semi, simp, ref, name)
            pairs.append((f"{name}_semi", ref, semi_tr))
            pairs.append((f"{name}_simplified", ref, simp_tr))
            pairs.append((f"{name}_closure", semi_tr, simp_tr))
        # ingested rig recordings are compared the same way: both models
        # replay the processed (t, v, a) profile
        for rig in run.rig_traces.values():
            semi_tr, simp_tr = _model_traces_for(semi, simp, rig, rig.name)
            pairs.append((f"{rig.name}_semi", rig, semi_tr))
            pairs.append((f"{rig.name}_simplified", rig, simp_tr))
    report = build_report(pairs, dt=cfg["dt"], out_dir=reports_dir if run.plots else None)
    _write_artifact(cfg, reports_dir / "report.json", report.to_dict())
    table = report.format_table()
    with open(reports_dir / "report.txt", "w", encoding="utf-8") as f:
        f.write(table + "\n")
    print(table)


def cmd_pipeline(run: Run) -> None:
    # stages are looked up as module globals at call time, so wrappers
    # installed on this module (stage timing) see every call
    for stage in (cmd_simulate, cmd_extract, cmd_fit_simplified, cmd_ingest, cmd_validate):
        stage(run)


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
        ("ingest", cmd_ingest, "post-process dyno logs into rig traces"),
        ("validate", cmd_validate, "compute metric reports"),
        ("pipeline", cmd_pipeline, "run every stage in order"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (default from config, else ./out)")
        p.add_argument("--unit", choices=_UNITS, help="cycle CSV speed unit")
        p.add_argument("--dt", type=float, help="simulation/metric grid step [s]")
        p.add_argument("--plots", action="store_true",
                       help="also write each validation pair's comparison CSV and SVG chart")
        p.set_defaults(func=fn)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, {"unit": args.unit, "dt": args.dt})
        args.func(Run(cfg, args))
    except (MissingPrerequisite, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VcdFuelError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
