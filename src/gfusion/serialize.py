"""JSON (de)serialization of operators, subspaces, families and control pairs,
and the one encoder of report values.

An operator is `{"rows", "cols", "re", "im"}`.  The writer gives each of
`re` and `im` as one base64 string (RFC 4648, standard alphabet, padded) of
the rows * cols entries as little-endian IEEE 754 binary64, row-major, so
every entry, -0.0 included, reads back bit for bit.  The reader also takes
a list of JSON numbers, row-major, for either key.  Other numbers are
written as Python floats (shortest round-tripping decimal).  Every report
and instance file is compact canonical JSON (`dumps`): one line, sorted
keys, no whitespace outside strings.
"""

from __future__ import annotations

import base64
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


# an entry's binary64 form: IEEE 754 double, little-endian
BINARY64 = np.dtype("<f8")


def _binary64(part) -> str:
    """base64 of the entries of `part`, row-major, as BINARY64."""
    return base64.b64encode(part.astype(BINARY64, copy=False).tobytes()).decode("ascii")


def _entries(d, key, count):
    """The entries under `key`: a base64 string of `count` BINARY64 values,
    or a list of numbers (its count is checked by the caller's reshape)."""
    value = d[key]
    if isinstance(value, list):
        return np.asarray(value, dtype=float)
    if not isinstance(value, str):
        raise ParseError(f"{key} must be a base64 string or a list of numbers")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:  # binascii.Error, or a character outside ASCII
        raise ParseError(f"{key} is not padded base64: {exc}") from exc
    if len(raw) != count * BINARY64.itemsize:
        raise ParseError(f"{key}: {len(raw)} bytes for {count} binary64 entries")
    return np.frombuffer(raw, dtype=BINARY64)


def operator_to_dict(a) -> dict:
    a = as_operator(a)
    return {"rows": a.shape[0], "cols": a.shape[1], "re": _binary64(a.real),
            "im": _binary64(a.imag)}


def operator_from_dict(d) -> np.ndarray:
    try:
        rows, cols = _size(d, "rows"), _size(d, "cols")
        re = _entries(d, "re", rows * cols).reshape(rows, cols)
        im = _entries(d, "im", rows * cols).reshape(rows, cols)
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
