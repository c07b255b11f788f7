"""Compare the output of `vcdfuel pipeline --plots` at a git revision with this checkout's.

    python tools/diff_outputs.py REV [pipeline args]

Runs the pipeline twice from the current directory, so that input paths in
the arguments, and in a config they name, resolve alike for both: once on the
source of `git archive REV`, once on this checkout's `src/`, uncommitted
changes included. Each run writes to its own temporary `--out`, which
overrides one given in the arguments. Prints every output file that differs
or exists on one side only, and `stdout` if what the runs print differs once
each run's `--out` path is replaced. Exits 0 when nothing differs, 1 when
something does, and 2 when git or a run fails. Standard library only.

Example, on the benchmark's long inputs (written under `inputs/` of the
current directory by `perfbench/workloads.py:write_long_inputs`):

    python tools/diff_outputs.py HEAD~1 --config inputs/long.json
"""

from __future__ import annotations

import argparse
import io
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def export_src(rev: str, dest: Path) -> Path:
    """Extract ``src/`` of ``rev`` under ``dest``; returns the extracted ``src``."""
    proc = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"], capture_output=True)
    if proc.returncode:
        fail(f"git archive {rev}: {proc.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(proc.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def run_pipeline(src: Path, out: Path, args: list[str]) -> tuple[str, dict[str, bytes]]:
    """What the pipeline run on ``src`` into ``out`` prints, with ``out`` written ``<out>``,
    and the bytes of each file it writes, by path under ``out``."""
    proc = subprocess.run([sys.executable, "-m", "vcdfuel.cli", "pipeline", "--plots", *args,
                           "--out", str(out)],
                          env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True, text=True)
    if proc.returncode:
        fail(f"pipeline on {src} exited with {proc.returncode}:\n{proc.stderr.rstrip()}")
    files = {p.relative_to(out).as_posix(): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return proc.stdout.replace(str(out), "<out>"), files


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev", help="git revision to compare this checkout with")
    parser.add_argument("args", nargs=argparse.REMAINDER, help="arguments for the pipeline")
    ns = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="diff_outputs_") as tmp:
        tmp = Path(tmp)
        old_stdout, old = run_pipeline(export_src(ns.rev, tmp / "rev"), tmp / "out_rev", ns.args)
        new_stdout, new = run_pipeline(ROOT / "src", tmp / "out_checkout", ns.args)
    differ = []
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            differ.append(f"{name} (only at {ns.rev if name in old else 'the checkout'})")
        elif old[name] != new[name]:
            differ.append(name)
    if old_stdout != new_stdout:
        differ.append("stdout")
    for line in differ:
        print(line)
    if not differ:
        print(f"no difference: {len(new)} files and stdout", file=sys.stderr)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
