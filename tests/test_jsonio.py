import copy
import dataclasses
import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from vcdfuel import jsonio
from vcdfuel.drive_cycles import DriveCycle
from vcdfuel.errors import ParseError
from vcdfuel.extraction import CONSTANTS_KEYS, POLY_MAP_KEYS, ExtractedConstants, PolyMap2D
from vcdfuel.jsonio import read_json, write_json
from vcdfuel.powertrain import (
    CONTROL_KEYS,
    FUEL_MAP_KEYS,
    PARAMS_KEYS,
    SHIFT_MAPS_KEYS,
    ControlParams,
    EngineFuelMap,
    GearShiftMaps,
    VehicleParams,
    load_vehicle,
    simulate,
    vehicle_to_dict,
)
from vcdfuel.semi_principled import eval_semi_trace, evaluate, load_semi_model, model_to_dict
from vcdfuel.simplified import (
    SIMPLIFIED_KEYS,
    SimplifiedModel,
    eval_simplified,
    load_simplified,
    simplified_to_dict,
)
from vcdfuel.synthetic import default_vehicle
from vcdfuel.validation import build_report, load_report

# what a loaded model must survive: one small (v, a, grade) batch, standstill
# and points outside the fitted boxes included
MODEL_USE = {"semi_model": evaluate, "simplified_model": eval_simplified}
BATCH = (np.array([0.0, 3.0, 12.0, 25.0, 60.0]), np.array([0.0, 1.5, -2.0, 0.3, 4.0]),
         np.array([0.0, 0.05, -0.1, 0.0, 0.2]))
# and a loaded vehicle: a short launch, cruise and coast-down through the gears
SHORT_CYCLE = DriveCycle(name="short", t=np.array([0.0, 3.0, 20.0, 35.0, 50.0, 53.0]),
                         v=np.array([0.0, 0.0, 20.0, 20.0, 0.0, 0.0]))


def legacy_bytes(tmp_path, doc) -> bytes:
    """The artifact bytes: ``json.dump`` with a one-space indent and sorted keys, then a newline."""
    path = tmp_path / "legacy.json"
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")
    return path.read_bytes()


@pytest.fixture(scope="module")
def artifacts(semi_model, simplified_model, dataset):
    """(document, loader) of each model and report artifact."""
    ref = dataset.traces[0]
    semi_tr = eval_semi_trace(semi_model, ref.t, ref.v, ref.a, name="semi")
    report = build_report([("pair", ref, semi_tr)])
    return {"semi_model": (model_to_dict(semi_model), load_semi_model),
            "simplified_model": (simplified_to_dict(simplified_model), load_simplified),
            "report": (report.to_dict(), load_report)}


def retyped(doc, path=()):
    """(path, original, replacement) for every key of ``doc`` and the first
    entry of every list, nested ones included: each leaf in its string form,
    as ``true`` and wrapped in a list; each list emptied and wrapped in one
    more list."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc[:1])
    for key, val in items:
        here = path + (key,)
        if isinstance(val, dict):
            yield from retyped(val, here)
        elif isinstance(val, list):
            yield here, val, []
            yield here, val, [val]
            yield from retyped(val, here)
        else:
            for replacement in (str(val), True, [val]):
                yield here, val, replacement


def key_paths(doc, prefix=()):
    """Every key and list entry of a document, nested ones included, as index paths."""
    if isinstance(doc, dict):
        for key, val in doc.items():
            yield prefix + (key,)
            yield from key_paths(val, prefix + (key,))
    elif isinstance(doc, list):
        for i, val in enumerate(doc):
            yield prefix + (i,)
            yield from key_paths(val, prefix + (i,))


class TestWriteJson:
    def test_bytes_match_the_legacy_writers(self, tmp_path, artifacts):
        docs = [doc for doc, _ in artifacts.values()]
        docs.append({"b": [1, 2.5, None, True], "a": "über", "c": {"z": 0.1 + 0.2, "y": -0.0}})
        for doc in docs:
            write_json(tmp_path / "new.json", doc)
            assert (tmp_path / "new.json").read_bytes() == legacy_bytes(tmp_path, doc)


class TestReadJson:
    @pytest.mark.parametrize("blob, message", [
        (b'{"a": 1,', "Expecting property name"),
        (b'{"a": "\xff"}', "codec can't decode"),
        (b'{"a": NaN}', "non-finite value 'NaN'"),
        (b'{"a": [-Infinity]}', "non-finite value '-Infinity'"),
        (b'{"a": 1e999}', "non-finite value '1e999'"),
        (b'{"b": 1}', "missing key 'a'"),
        (b'{"a": "x"}', "could not convert string to float"),
        (b'[1]', "list indices must be integers"),
    ], ids=["truncated", "not-utf8", "nan", "infinity", "overflow", "missing-key",
            "invalid-value", "wrong-type"])
    def test_errors_name_the_file(self, tmp_path, blob, message):
        path = tmp_path / "doc.json"
        path.write_bytes(blob)
        with pytest.raises(ParseError) as info:
            read_json(path, lambda doc: float(doc["a"]))
        assert str(info.value).startswith(f"{path}: ") and message in str(info.value)

    def test_missing_file_propagates(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            read_json(tmp_path / "ghost.json", dict)

    @pytest.mark.parametrize("kind", ["semi_model", "simplified_model", "report"])
    @given(data=st.data())
    def test_damaged_artifact_loads_or_raises_parse_error(self, tmp_path_factory, artifacts,
                                                          kind, data):
        doc, load = artifacts[kind]
        blob = (json.dumps(doc, indent=1, sort_keys=True) + "\n").encode()
        if data.draw(st.booleans(), label="truncate"):
            blob = blob[:data.draw(st.integers(0, len(blob) - 1), label="length")]
        else:
            damaged = copy.deepcopy(doc)
            *parents, key = data.draw(st.sampled_from(list(key_paths(doc))), label="key")
            holder = damaged
            for step in parents:
                holder = holder[step]
            del holder[key]
            blob = json.dumps(damaged).encode()
        path = tmp_path_factory.mktemp("damaged") / f"{kind}.json"
        path.write_bytes(blob)
        try:
            loaded = load(path)
        except ParseError as exc:
            assert str(exc).startswith(f"{path}: ")
        else:
            if kind in MODEL_USE:
                MODEL_USE[kind](loaded, *BATCH)


class TestRetypedFields:
    """Every field of a vehicle or model document, retyped: a string or bool
    in place of a number is a ParseError naming the file, and any other
    change either is one or loads into an object that works."""

    FREE_FORM = ("metadata", "diagnostics")

    @pytest.fixture(scope="class")
    def documents(self, artifacts):
        """(document, loader, use) of the vehicle and both models."""
        docs = {"vehicle": (vehicle_to_dict(default_vehicle()), load_vehicle,
                            lambda vehicle: simulate(SHORT_CYCLE, vehicle))}
        for kind, use in MODEL_USE.items():
            doc, load = artifacts[kind]
            docs[kind] = (doc, load, lambda model, use=use: use(model, *BATCH))
        return docs

    @pytest.mark.parametrize("kind", ["vehicle", "semi_model", "simplified_model"])
    def test_retyped_field_is_a_parse_error_or_works(self, tmp_path, documents, kind):
        doc, load, use = documents[kind]
        path = tmp_path / f"{kind}.json"
        failures = []
        for keys, original, replacement in retyped(doc):
            damaged = copy.deepcopy(doc)
            holder = damaged
            for step in keys[:-1]:
                holder = holder[step]
            holder[keys[-1]] = replacement
            path.write_text(json.dumps(damaged))
            must_fail = (isinstance(replacement, (str, bool))
                         and isinstance(original, (int, float)) and not isinstance(original, bool)
                         and not set(self.FREE_FORM) & set(keys))
            try:
                use(load(path))
            except ParseError as exc:
                if not str(exc).startswith(f"{path}: "):
                    failures.append(f"{keys} = {replacement!r}: {exc}")
            except Exception as exc:  # noqa: BLE001 - every other exception is a failure
                failures.append(f"{keys} = {replacement!r}: {type(exc).__name__}: {exc}")
            else:
                if must_fail:
                    failures.append(f"{keys} = {replacement!r}: accepted")
        assert not failures, "\n".join(failures)


KEY_TABLES = [(VehicleParams, PARAMS_KEYS), (EngineFuelMap, FUEL_MAP_KEYS),
              (GearShiftMaps, SHIFT_MAPS_KEYS), (ControlParams, CONTROL_KEYS),
              (ExtractedConstants, CONSTANTS_KEYS), (PolyMap2D, POLY_MAP_KEYS),
              (SimplifiedModel, SIMPLIFIED_KEYS)]


@pytest.mark.parametrize("cls, keys", KEY_TABLES, ids=[cls.__name__ for cls, _ in KEY_TABLES])
def test_key_table_names_every_init_field(cls, keys):
    """A field added to a type but not to its table would be neither written
    nor read; two attributes under one key would overwrite each other."""
    assert sorted(keys) == sorted(f.name for f in dataclasses.fields(cls) if f.init)
    assert len(set(keys.values())) == len(keys)


def test_formats_have_one_module_each():
    """JSON is read and written only in jsonio, CSV only in csvio, and the
    uniform time grid is counted out (``np.floor``) only in trace."""
    for path in sorted(Path(jsonio.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        if path.name != "trace.py":
            assert "np.floor(" not in text, path.name
        if path.name != "jsonio.py":
            assert not re.search(r"json\.(dump|load)\(", text), path.name
        if path.name != "csvio.py":
            assert not re.search(r"^\s*(import csv\b|from csv import)", text, re.M), path.name
