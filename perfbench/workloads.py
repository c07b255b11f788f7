"""The benchmark's three workloads: set-up, measured loop, checks and digests.

Every workload runs in this one process. A workload's set-up is repeated
``Sizes.setup_repeats`` times and timed on its own; the measured loop then
runs operations until its time is up:

* ``builtin_pipeline`` / ``long_pipeline``: one operation is one run of
  ``vcdfuel pipeline`` through ``vcdfuel.cli.main`` into a fresh ``--out``.
  After each run the fitted models are loaded back and evaluated on seeded
  1,000-point batches (the "deploy" step, untraced and timed apart from the
  pipeline), so model throughput is measured on every workload.
* ``batch_eval``: one operation is a round of 1,000-point calls to both models.

Times are medians over the run; every sample goes into the record.

Each operation is checked; a failed check makes the operation count as
failed. Digests cover every output layer and never include a path of the
working directory.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import shutil
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer, layer_metrics
from vcdfuel import cli, semi_principled, simplified
from vcdfuel.drive_cycles import DriveCycle, save_cycle
from vcdfuel.dyno import write_dyno_csv
from vcdfuel.extraction import run_vcd
from vcdfuel.synthetic import builtin_cycles, default_vehicle, make_dyno_log

CLOSURE_GATE_GPS = 0.07      # acceptance criterion 1
BATCH_POINTS = 1000          # one traffic-simulator step for 1,000 vehicles
SEMI_CALLS = 20              # calls per round: about 30 ms of work each...
SIMPLIFIED_CALLS = 150       # ...the simplified model is ~7x faster, so more calls
DEPLOY_SHARE = 0.1           # deploy time after a pipeline run, as a share of the run
MIN_OPS = 3                  # a reference run, then untraced and traced ones


@dataclass(frozen=True)
class Sizes:
    long_cycle_s: float = 2400.0   # tile whole rounds of the built-ins until this long
    pool_calls: int = 64           # distinct seeded batches, cycled through
    bulk_points: int = 1_000_000   # one kernel-only call of the simplified model
    setup_repeats: int = 3


FULL = Sizes()
SMOKE = Sizes(long_cycle_s=400.0, pool_calls=4, bulk_points=20_000, setup_repeats=2)


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    checks: Counter = field(default_factory=Counter)
    failures: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    digests: dict = field(default_factory=dict)
    samples: dict = field(default_factory=dict)

    def operation(self, checks: dict[str, bool | str]) -> None:
        """Record one operation; each check is True, or a message saying why it failed."""
        self.attempted += 1
        self.checks.update(checks.keys())
        bad = [f"{name}: {res}" for name, res in checks.items() if res is not True]
        if bad:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.extend(bad)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- set-up --------------------------------------------------------------------

def fit_reference_models():
    """Both reduced models fitted in-process on the built-in cycles, with the
    pipeline's default configuration."""
    cfg = cli.DEFAULT_CONFIG
    vehicle = default_vehicle()
    ds = run_vcd(vehicle, list(builtin_cycles().values()), dt=cfg["dt"])
    semi = semi_principled.build_semi_model_from_dataset(
        ds, vehicle.shift_maps, fuel_degree=tuple(cfg["fuel_map_degree"]),
        gear_degree=tuple(cfg["gear_map_degree"]),
        min_gear_samples=cfg["min_gear_samples"], dt=cfg["dt"])
    gc = cfg["grid"]
    grid = simplified.FitGrid(v_range=(0.0, semi.speed_max), a_range=tuple(gc["a_range"]),
                              grade_range=tuple(gc["grade_range"]), shape=tuple(gc["shape"]))
    return semi, simplified.fit_simplified(semi, grid, degrees=cfg["degrees"])


def long_cycle(seed: int, duration: float) -> DriveCycle:
    """The built-in cycles at 1 Hz, tiled in a seeded order until ``duration``.

    Every built-in cycle starts and ends at standstill, so the tiles join
    without a jump in speed.
    """
    cycles = builtin_cycles()
    rng = np.random.default_rng(seed)
    t, v = [0.0], [0.0]
    while t[-1] < duration:
        for name in rng.permutation(sorted(cycles)):
            c = cycles[name]
            s = np.arange(1.0, c.duration + 1.0)
            t.extend(t[-1] + s)
            v.extend(np.interp(s, c.t, c.v))
    return DriveCycle(name="long", t=np.array(t), v=np.array(v))


def write_long_inputs(seed: int, sizes: Sizes) -> str:
    """Write the long cycle, its seeded rig recording and the config naming
    them, under ``inputs/`` of the working directory; returns their digest."""
    inputs = Path("inputs")
    inputs.mkdir(exist_ok=True)
    cycle = long_cycle(seed, sizes.long_cycle_s)
    save_cycle(cycle, inputs / "long.csv")
    write_dyno_csv(make_dyno_log(cycle, default_vehicle(), seed=seed), inputs / "long_rig.csv")
    # relative paths keep the config hash, and so every artifact, independent
    # of where the working directory is
    config = {"cycles": ["inputs/long.csv"], "dyno_logs": ["inputs/long_rig.csv"]}
    (inputs / "long.json").write_text(json.dumps(config, indent=1) + "\n", encoding="utf-8")
    return sha256(b"".join(p.name.encode() + p.read_bytes() for p in sorted(inputs.iterdir())))


def timed_setup(fn, repeats: int, outcome: Outcome):
    """Run ``fn`` ``repeats`` times; record the median time and check that
    every repeat gives the same result digest. Returns the last result."""
    times, digests = [], []
    for _ in range(repeats):
        t0 = time.perf_counter()
        result, digest = fn()
        times.append(time.perf_counter() - t0)
        digests.append(digest)
    outcome.metrics["setup_s"] = statistics.median(times)
    outcome.samples["setup_s"] = times
    outcome.operation({"setup_repeatable": True if len(set(digests)) == 1 else
                       "set-up repeats gave different results"})
    return result


def _model_digest(semi, simp) -> str:
    doc = {"semi": semi_principled.model_to_dict(semi),
           "simplified": simplified.simplified_to_dict(simp)}
    return sha256(json.dumps(doc, sort_keys=True).encode())


# --- batches of evaluation points -------------------------------------------------

@dataclass
class Batches:
    """Seeded 1,000-point batches around a simplified model's fitted box, with
    both models' reference outputs. About 28 % of the points lie outside
    the box on some axis; decelerations above the cut speed reach the
    fuel-cut region."""

    points: list
    semi_fuel: list
    simplified_fuel: list
    inside: np.ndarray  # per point, over all batches: inside the simplified model's box

    @classmethod
    def make(cls, semi, simp, seed: int, n_calls: int) -> "Batches":
        rng = np.random.default_rng([seed, 1])
        (v0, v1), (a0, a1), (g0, g1) = simp.v_range, simp.a_range, simp.grade_range
        points = []
        for _ in range(n_calls):
            v = rng.uniform(v0, 1.05 * v1, BATCH_POINTS)
            a = rng.uniform(a0 - 0.5, a1 + 0.25, BATCH_POINTS)
            g = rng.uniform(1.1 * g0, 1.1 * g1, BATCH_POINTS)
            points.append((v, a, g))
        simplified_out = [simplified.eval_simplified(simp, *p, with_flags=True) for p in points]
        return cls(points=points,
                   semi_fuel=[semi_principled.evaluate(semi, *p)["fuel"] for p in points],
                   simplified_fuel=[fuel for fuel, _ in simplified_out],
                   inside=~np.concatenate([clamped for _, clamped in simplified_out]))

    def digest(self) -> str:
        return sha256(b"".join(f.tobytes() for f in self.semi_fuel + self.simplified_fuel))

    def closure(self) -> tuple[float, float]:
        """(mean |semi - simplified| fuel in g/s, |total fuel error| in %) over the
        points inside the simplified model's box, where it claims to track semi."""
        semi = np.concatenate(self.semi_fuel)[self.inside]
        simp = np.concatenate(self.simplified_fuel)[self.inside]
        return (float(np.mean(np.abs(semi - simp))),
                float(100.0 * abs(simp.sum() - semi.sum()) / semi.sum()))


def _valid(out, ref) -> bool | str:
    if isinstance(out, Exception):
        return f"call raised {out!r}"
    if not np.all(np.isfinite(out)) or np.any(out < 0):
        return "non-finite or negative fuel"
    if not np.array_equal(out, ref):
        return "output differs from the first evaluation of the same points"
    return True


class BatchTimer:
    """Times rounds of 1,000-point calls to both models and checks every output."""

    def __init__(self, semi, simp, batches: Batches, outcome: Outcome):
        self.semi, self.simp, self.batches, self.outcome = semi, simp, batches, outcome
        self.next = 0
        self.semi_rate, self.simplified_rate, self.step_s = [], [], []

    def _block(self, fn, calls: int):
        n = len(self.batches.points)
        idx = [(self.next + i) % n for i in range(calls)]
        outs = []
        t0 = time.perf_counter()
        for i in idx:
            try:
                outs.append(fn(*self.batches.points[i]))
            except Exception as exc:  # counted as a failed operation, never fatal
                outs.append(exc)
        return time.perf_counter() - t0, idx, outs

    def round(self) -> float:
        """One round; returns its wall time."""
        semi_s, semi_idx, semi_outs = self._block(
            lambda v, a, g: semi_principled.evaluate(self.semi, v, a, g)["fuel"], SEMI_CALLS)
        simp_s, simp_idx, simp_outs = self._block(
            lambda v, a, g: simplified.eval_simplified(self.simp, v, a, g), SIMPLIFIED_CALLS)
        self.next += SIMPLIFIED_CALLS
        for i, out in zip(semi_idx, semi_outs):
            self.outcome.operation({"batch_output": _valid(out, self.batches.semi_fuel[i])})
        for i, out in zip(simp_idx, simp_outs):
            self.outcome.operation({"batch_output": _valid(out, self.batches.simplified_fuel[i])})
        self.semi_rate.append(SEMI_CALLS * BATCH_POINTS / semi_s)
        self.simplified_rate.append(SIMPLIFIED_CALLS * BATCH_POINTS / simp_s)
        self.step_s.append(semi_s / SEMI_CALLS + simp_s / SIMPLIFIED_CALLS)
        return semi_s + simp_s

    def bulk_rate(self, n_points: int, seed: int) -> float:
        """Points/s of single ``eval_simplified`` calls on ``n_points`` points
        (best of three): the kernel rate, free of per-call overhead."""
        rng = np.random.default_rng([seed, 2])
        (v0, v1), (a0, a1), (g0, g1) = self.simp.v_range, self.simp.a_range, self.simp.grade_range
        v = rng.uniform(v0, v1, n_points)
        a = rng.uniform(a0, a1, n_points)
        g = rng.uniform(g0, g1, n_points)
        rates, first = [], None
        for _ in range(3):
            t0 = time.perf_counter()
            fuel = simplified.eval_simplified(self.simp, v, a, g)
            rates.append(n_points / (time.perf_counter() - t0))
            first = fuel if first is None else first
            self.outcome.operation({"batch_output": _valid(fuel, first)})
        return max(rates)

    def throughput_metrics(self, outcome: Outcome) -> None:
        """Median round of the run."""
        outcome.samples["semi_points_per_s"] = self.semi_rate
        outcome.samples["simplified_points_per_s"] = self.simplified_rate
        outcome.metrics["semi_points_per_s"] = statistics.median(self.semi_rate)
        outcome.metrics["simplified_points_per_s"] = statistics.median(self.simplified_rate)


# --- pipelines ---------------------------------------------------------------------

REPORT = Path("reports") / "report.json"


def _layer_of(rel: str) -> str:
    top = rel.split("/", 1)[0]
    if top in ("traces", "profiles", "reports"):
        return top
    return "extraction" if top == "extraction.json" else "models"


def tree_digests(root: Path) -> tuple[dict[str, str], int, int]:
    """SHA-256 per output layer and of the whole directory, plus total bytes and
    file count. Paths enter the digests relative to ``root``."""
    lines: dict[str, list[str]] = {}
    total = 0
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        rel = path.relative_to(root).as_posix()
        data = path.read_bytes()
        total += len(data)
        line = f"{rel} {sha256(data)}\n"
        lines.setdefault(_layer_of(rel), []).append(line)
        lines.setdefault("out", []).append(line)
    return {k: sha256("".join(v).encode()) for k, v in sorted(lines.items())}, total, len(files)


def report_metrics(out: Path) -> dict[str, float]:
    records = json.loads((out / REPORT).read_text(encoding="utf-8"))["records"]
    return {
        "closure_mae_gps": max(r["mae_fuel_gps"] for k, r in records.items()
                               if k.endswith("_closure")),
        "cumfuel_err_pct": max(abs(r["cumulative_error_pct"]) for k, r in records.items()
                               if k.endswith("_simplified")),
    }


def run_pipeline(out: str, extra_args: list[str]) -> tuple[float, int | str, str]:
    """Run ``vcdfuel pipeline --out <out> ...`` in-process: (wall s, exit code
    or error, captured output)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = cli.main(["pipeline", "--out", out, *extra_args])
    except (Exception, SystemExit) as exc:  # counted as a failed operation, never fatal
        code = repr(exc)
    return time.perf_counter() - t0, code, buf.getvalue()


def pipeline_workload(extra_args, seed, seconds, trace, sizes, outcome, oracle=None):
    """Measured loop shared by both pipeline workloads.

    Every operation is one ``vcdfuel pipeline`` run. The first warms up and
    sets the reference digest, and is not timed; ``op_s`` is the median wall
    time of the later untraced runs.

    ``oracle`` is a (semi, simplified) pair fitted in-process that the
    pipeline's models must reproduce exactly.
    """
    tracer = Tracer() if trace else None
    plain, traced_reps = [], []
    reference = deploy = None
    ops = 0
    start = None
    while ops < MIN_OPS or time.perf_counter() - start < seconds:
        traced = trace and ops > 0 and ops % 2 == 0
        out = f"out{ops}"
        with tracer if traced else contextlib.nullcontext():
            wall, code, log = run_pipeline(out, extra_args)
        if code == 0 and ops > 0:
            (traced_reps if traced else plain).append(wall)
        ops += 1
        if start is None:  # the reference run is a warm-up, not part of the measured loop
            start = time.perf_counter()
        if code != 0:
            outcome.operation({"exit": f"vcdfuel exited with {code}: {log[-500:]}"})
            shutil.rmtree(out, ignore_errors=True)
            continue
        out_path = Path(out)
        digests, out_bytes, out_files = tree_digests(out_path)
        checks = {"exit": True}
        if reference is None:
            reference = digests
            outcome.digests.update(digests)
            outcome.metrics.update({"cli.out_bytes": out_bytes, "cli.out_files": out_files})
        checks["rerun_digest"] = True if digests == reference else \
            "output directory differs from the first run"
        quality = report_metrics(out_path)
        outcome.metrics.update(quality)
        checks["closure_gate"] = True if quality["closure_mae_gps"] <= CLOSURE_GATE_GPS else \
            f"closure MAE {quality['closure_mae_gps']:.4f} g/s above {CLOSURE_GATE_GPS}"
        semi = semi_principled.load_semi_model(out_path / "semi_model.json")
        simp = simplified.load_simplified(out_path / "simplified_model.json")
        if oracle is not None:
            checks["library_oracle"] = True if _model_digest(semi, simp) == \
                _model_digest(*oracle) else "pipeline models differ from the in-process fit"
        outcome.operation(checks)
        shutil.rmtree(out_path)

        if deploy is None:
            batches = Batches.make(semi, simp, seed, sizes.pool_calls)
            outcome.digests["batch"] = batches.digest()
            deploy = BatchTimer(semi, simp, batches, outcome)
        deploy.semi, deploy.simp = semi, simp
        budget = time.perf_counter() + DEPLOY_SHARE * wall
        rounds = 0
        while rounds < 2 or time.perf_counter() < budget:
            deploy.round()
            rounds += 1

    outcome.samples["op_s"] = plain
    outcome.samples["traced_op_s"] = traced_reps
    outcome.metrics["op_s"] = statistics.median(plain)
    if deploy:
        deploy.throughput_metrics(outcome)
    if trace:
        outcome.metrics.update(layer_metrics(tracer, max(len(traced_reps), 1)))
        outcome.metrics["trace_overhead_pct"] = \
            100.0 * (statistics.median(traced_reps) / statistics.median(plain) - 1)
        if deploy:
            outcome.metrics["simplified.eval_bulk_points_per_s"] = \
                deploy.bulk_rate(sizes.bulk_points, seed)


def builtin_pipeline(seed, seconds, trace, sizes, outcome):
    """The shipped chain exactly: default config, 3 built-in cycles plus the
    synthetic cruise rig log. The seed only picks the deploy batches."""
    def setup():
        semi, simp = fit_reference_models()
        return (semi, simp), _model_digest(semi, simp)

    oracle = timed_setup(setup, sizes.setup_repeats, outcome)
    pipeline_workload([], seed, seconds, trace, sizes, outcome, oracle=oracle)


def long_pipeline(seed, seconds, trace, sizes, outcome):
    """The same command on about 50 min of seeded driving and its rig
    recording, both read from CSV, so per-row layers dominate."""
    def setup():
        digest = write_long_inputs(seed, sizes)
        return digest, digest

    outcome.digests["inputs"] = timed_setup(setup, sizes.setup_repeats, outcome)
    pipeline_workload(["--config", "inputs/long.json"], seed, seconds, trace, sizes, outcome)


def batch_eval(seed, seconds, trace, sizes, outcome):
    """Read-only use of both models: seeded 1,000-point calls, no simulator,
    CSV or dyno work in the measured loop."""
    def setup():
        semi, simp = fit_reference_models()
        batches = Batches.make(semi, simp, seed, sizes.pool_calls)
        return (semi, simp, batches), _model_digest(semi, simp) + batches.digest()

    semi, simp, batches = timed_setup(setup, sizes.setup_repeats, outcome)
    outcome.digests["fitted_models"] = _model_digest(semi, simp)
    outcome.digests["batch"] = batches.digest()
    closure, cumfuel = batches.closure()
    outcome.metrics.update({"closure_mae_gps": closure, "cumfuel_err_pct": cumfuel})

    timer = BatchTimer(semi, simp, batches, outcome)
    tracer = Tracer() if trace else None
    plain_s, traced_s = [], []
    rounds = 0
    start = time.perf_counter()
    while rounds < MIN_OPS or time.perf_counter() - start < seconds:
        traced = trace and rounds % 2 == 1
        with tracer if traced else contextlib.nullcontext():
            wall = timer.round()
        (traced_s if traced else plain_s).append(wall)
        rounds += 1
    outcome.samples["op_s"] = timer.step_s
    outcome.metrics["op_s"] = statistics.median(timer.step_s)
    timer.throughput_metrics(outcome)
    if trace:
        outcome.metrics.update(layer_metrics(tracer, max(len(traced_s), 1)))
        outcome.metrics["trace_overhead_pct"] = \
            100.0 * (statistics.median(traced_s) / statistics.median(plain_s) - 1)
        outcome.metrics["simplified.eval_bulk_points_per_s"] = timer.bulk_rate(sizes.bulk_points,
                                                                               seed)


WORKLOADS = {
    "builtin_pipeline": builtin_pipeline,
    "long_pipeline": long_pipeline,
    "batch_eval": batch_eval,
}


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
