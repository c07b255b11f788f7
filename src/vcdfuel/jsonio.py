"""JSON documents: the one reader and writer behind every JSON file vcdfuel
reads or writes. Callers add only their own rules, as the ``parse`` function
that turns a loaded document into their object, and an ``{attribute:
json_key}`` table per type, which ``to_doc`` and ``from_doc`` both follow."""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ParseError


def write_json(path, doc) -> None:
    """``doc`` as UTF-8 JSON: one-space indent, sorted keys, final newline."""
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1, sort_keys=True)
        f.write("\n")


def read_json(path, parse):
    """``parse(doc)`` of the JSON document in ``path``.

    Text that is not UTF-8 JSON, a non-finite number, and a missing key,
    wrong type or invalid value met by ``parse`` raise ParseError naming the
    file. A missing file raises FileNotFoundError.
    """
    with open(path, encoding="utf-8") as f:
        try:
            return parse(json.load(f, parse_float=_finite, parse_constant=_finite))
        except KeyError as exc:
            raise ParseError(f"{path}: missing key {exc}") from None
        except (AttributeError, IndexError, TypeError, ValueError) as exc:
            raise ParseError(f"{path}: {exc}") from None


def _finite(text: str) -> float:
    """A JSON number or NaN/Infinity literal as a float, if it is finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def to_doc(obj, keys: dict) -> dict:
    """The attributes of ``obj`` that the ``{attribute: json_key}`` table
    ``keys`` names, under their keys; arrays and tuples are written as lists."""
    return {key: _plain(getattr(obj, attr)) for attr, key in keys.items()}


def from_doc(cls, doc: dict, keys: dict, optional=()):
    """``cls`` built from the values of ``doc`` that the same table names. A
    key absent from ``doc`` raises KeyError unless its attribute is in
    ``optional``, which leaves it at the type's default."""
    return cls(**{attr: doc[key] for attr, key in keys.items()
                  if key in doc or attr not in optional})


def _plain(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(item) for item in value]
    return value
