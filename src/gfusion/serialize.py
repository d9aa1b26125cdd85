"""JSON (de)serialization of operators, subspaces, families and control pairs,
and the one encoder of report values.

Numbers are written as Python floats (shortest round-tripping decimal, up to
17 significant digits); values survive a round trip exactly.  Every report
and instance file is compact canonical JSON (`dumps`): one line, sorted
keys, no whitespace outside strings.
"""

from __future__ import annotations

import dataclasses
import json
import math

import numpy as np

from .errors import NotInvertible, ParseError
from .frames import ControlPair, FrameFamily
from .linalg import Subspace, as_operator, frozen


# What a decoder reports as a ParseError (InvalidParameters is a ValueError)
MALFORMED = (KeyError, TypeError, ValueError)


def _size(d, key) -> int:
    n = d[key]
    if type(n) is not int or n < 0:
        raise ParseError(f"{key} must be a JSON integer >= 0, got {json.dumps(n)}")
    return n


def operator_to_dict(a) -> dict:
    a = as_operator(a)
    return {
        "rows": a.shape[0],
        "cols": a.shape[1],
        "re": a.real.ravel().tolist(),
        "im": a.imag.ravel().tolist(),
    }


def operator_from_dict(d) -> np.ndarray:
    try:
        rows, cols = _size(d, "rows"), _size(d, "cols")
        re = np.asarray(d["re"], dtype=float).reshape(rows, cols)
        im = np.asarray(d["im"], dtype=float).reshape(rows, cols)
        # assigned part by part: re + 1j * im would turn a -0.0 into 0.0
        a = np.empty((rows, cols), dtype=complex)
        a.real = re
        a.imag = im
        return frozen(as_operator(a))
    except MALFORMED as exc:
        raise ParseError(f"bad operator object: {exc}") from exc


def subspace_to_dict(m: Subspace) -> dict:
    return {"ambient_dim": m.ambient_dim, "basis": operator_to_dict(m.basis)}


def subspace_from_dict(d) -> Subspace:
    try:
        return Subspace(_size(d, "ambient_dim"), operator_from_dict(d["basis"]))
    except MALFORMED as exc:
        raise ParseError(f"bad subspace object: {exc}") from exc


def family_to_dict(fam: FrameFamily) -> dict:
    return {
        "ambient_dim": fam.ambient_dim,
        "items": [
            {
                "subspace": subspace_to_dict(sub),
                "lambda": operator_to_dict(lam),
                "weight": float(w),
            }
            for sub, lam, w in fam.items
        ],
    }


def family_from_dict(d) -> FrameFamily:
    where = "family"
    try:
        items = []
        for i, it in enumerate(d["items"]):
            where = f"family item {i}"
            sub, lam = subspace_from_dict(it["subspace"]), operator_from_dict(it["lambda"])
            items.append((sub, lam, it["weight"]))
        where = "family"
        return FrameFamily(_size(d, "ambient_dim"), items)
    except MALFORMED as exc:
        raise ParseError(f"bad {where}: {exc}") from exc


def control_pair_to_dict(cp: ControlPair) -> dict:
    return {"t": operator_to_dict(cp.t), "u": operator_to_dict(cp.u)}


def control_pair_from_dict(d) -> ControlPair:
    try:
        return ControlPair(operator_from_dict(d["t"]), operator_from_dict(d["u"]))
    except (*MALFORMED, NotInvertible) as exc:
        raise ParseError(f"bad control pair: {exc}") from exc


def to_json(value):
    """JSON-ready form of a report value, by one rule for every command.

    Operators, families and control pairs take their `*_to_dict` form (checked
    before dataclasses, which the latter two are).  A dataclass becomes the
    dict of its fields, skipping those marked `field(metadata={"report":
    False})`; a NamedTuple becomes its `_asdict()`; dicts, lists and tuples
    are encoded item by item; +-inf becomes the string "inf" or "-inf".
    """
    if isinstance(value, np.ndarray):
        return operator_to_dict(value)
    if isinstance(value, FrameFamily):
        return family_to_dict(value)
    if isinstance(value, ControlPair):
        return control_pair_to_dict(value)
    if dataclasses.is_dataclass(value):
        return {
            f.name: to_json(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.metadata.get("report", True)
        }
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        value = value._asdict()
    if isinstance(value, dict):
        return {key: to_json(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_json(item) for item in value]
    if isinstance(value, float):
        value = float(value)
        return ("inf" if value > 0 else "-inf") if math.isinf(value) else value
    if value is None or isinstance(value, (bool, int, str)):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} in a report")


def dumps(obj: dict) -> str:
    """Canonical JSON text: sorted keys, fixed separators "," and ":" with no
    whitespace, one trailing newline.

    With no `indent`, `json` encodes with its C encoder, which writes each
    float by `float.__repr__` (shortest round-tripping form).
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _not_json(token):
    raise ParseError(f"{token} is not JSON")


def load_json(path):
    """The JSON value in the file at `path`; NaN, Infinity and -Infinity are not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_not_json)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError too
        raise ParseError(f"{path}: {exc}") from exc
