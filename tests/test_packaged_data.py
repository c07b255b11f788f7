"""The shipped vehicle and cycles are the built-ins: in the writers' form, and in the wheel."""

from pathlib import Path, PurePosixPath

import pytest

from vcdfuel.drive_cycles import save_cycle
from vcdfuel.powertrain import save_vehicle
from vcdfuel.synthetic import builtin_cycles, default_vehicle, packaged_data_dir

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_shipped_vehicle_is_in_writer_form(tmp_path):
    # a hand edit must keep the file loadable and round-trip exact
    save_vehicle(default_vehicle(), tmp_path / "vehicle.json")
    shipped = packaged_data_dir() / "vehicle_midsuv.json"
    assert (tmp_path / "vehicle.json").read_bytes() == shipped.read_bytes()


def test_shipped_cycles_are_in_writer_form(tmp_path):
    cycles = builtin_cycles()
    cycle_dir = packaged_data_dir() / "cycles"
    assert sorted(p.name for p in cycle_dir.iterdir()) == sorted(f"{n}.csv" for n in cycles)
    for name, cycle in cycles.items():
        save_cycle(cycle, tmp_path / f"{name}.csv")
        assert (tmp_path / f"{name}.csv").read_bytes() == (cycle_dir / f"{name}.csv").read_bytes()


def test_every_data_file_ships():
    # every run reads these files, so a wheel without one breaks installed copies
    tomllib = pytest.importorskip("tomllib")
    globs = tomllib.loads(PYPROJECT.read_text())["tool"]["setuptools"]["package-data"]["vcdfuel"]
    data = Path(packaged_data_dir())
    files = [PurePosixPath(p.relative_to(data.parent).as_posix())
             for p in data.rglob("*") if p.is_file()]
    assert files
    assert [f for f in files if not any(f.match(g) for g in globs)] == []
