"""JSON (de)serialization of operators, subspaces, families and control pairs,
and the one encoder of report values.

An operator is `{"rows", "cols", "re", "im"}`.  The writer gives each of
`re` and `im` as one base64 string (RFC 4648, standard alphabet, padded) of
the rows * cols entries as little-endian IEEE 754 binary64, row-major, so
every entry, -0.0 included, reads back bit for bit.  The reader also takes
a list of JSON numbers, row-major, for either key.  Other numbers are
written as Python floats (shortest round-tripping decimal).  Every report
and instance file is compact canonical JSON, written by one streamed
encoder (`chunks`; `dumps` is its joined text): one line, sorted keys, no
whitespace outside strings.
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
    or a list of JSON numbers (its count is checked by the caller's reshape)."""
    value = d[key]
    if isinstance(value, list) and {int, float}.issuperset(map(type, value)):
        return np.asarray(value, dtype=float)
    if not isinstance(value, str):  # a JSON number is an int or a float, never a bool
        raise ParseError(f"{key} must be a base64 string or a list of JSON numbers")
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


# The *_to_dict forms of subspaces, families and control pairs leave each
# operator as its array, which the encoder writes as it reaches it.
def subspace_to_dict(m: Subspace) -> dict:
    return {"ambient_dim": m.ambient_dim, "basis": m.basis}


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
                "lambda": lam,
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
            w = it["weight"]
            if type(w) not in (int, float):
                raise ParseError(f"weight must be a JSON number, got {json.dumps(w)}")
            items.append((sub, lam, w))
        where = "family"
        return FrameFamily(_size(d, "ambient_dim"), items)
    except MALFORMED as exc:
        raise ParseError(f"bad {where}: {exc}") from exc


def control_pair_to_dict(cp: ControlPair) -> dict:
    return {"t": cp.t, "u": cp.u}


def control_pair_from_dict(d) -> ControlPair:
    try:
        return ControlPair(operator_from_dict(d["t"]), operator_from_dict(d["u"]))
    except (*MALFORMED, NotInvertible) as exc:
        raise ParseError(f"bad control pair: {exc}") from exc


def fields(value) -> dict:
    """A record's report fields, by name, unencoded: a family's and a control
    pair's `*_to_dict` form (checked before dataclasses, which they are), a
    dataclass's fields but those marked `field(metadata={"report": False})`,
    a NamedTuple's `_asdict()`, a dict itself."""
    if isinstance(value, FrameFamily):
        return family_to_dict(value)
    if isinstance(value, ControlPair):
        return control_pair_to_dict(value)
    if dataclasses.is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in dataclasses.fields(value)
                if f.metadata.get("report", True)}
    if isinstance(value, tuple) and hasattr(value, "_asdict"):
        return value._asdict()
    if isinstance(value, dict):
        return value
    raise TypeError(f"cannot encode {type(value).__name__} in a report")


_string = json.encoder.encode_basestring_ascii


def _encode(value):
    """The canonical JSON text of `value`, in chunks, made as the walk
    reaches each part: an ndarray as `operator_to_dict` gives it, with its
    base64 strings written as they are (they need no escaping), lists and
    tuples as arrays, every other value but a scalar as the object of its
    `fields`, keys sorted; a float by `float.__repr__`, NaN as `NaN` and
    +-inf as the strings "inf" and "-inf"."""
    if isinstance(value, float):
        if math.isinf(value):
            yield '"inf"' if value > 0 else '"-inf"'
        else:
            yield "NaN" if value != value else float.__repr__(value)
    elif isinstance(value, str):
        yield _string(value)
    elif value is None or value is True or value is False:
        yield "null" if value is None else "true" if value else "false"
    elif isinstance(value, int):
        yield int.__repr__(value)
    elif isinstance(value, np.ndarray):
        d = operator_to_dict(value)
        yield f'{{"cols":{d["cols"]},"im":"'
        yield d["im"]
        yield '","re":"'
        yield d["re"]
        yield f'","rows":{d["rows"]}}}'
    elif isinstance(value, (list, tuple)) and not hasattr(value, "_asdict"):
        yield "["
        for i, item in enumerate(value):
            if i:
                yield ","
            yield from _encode(item)
        yield "]"
    else:
        record = fields(value)
        yield "{"
        for i, key in enumerate(sorted(record)):
            yield f'{"," if i else ""}{_string(key)}:'
            yield from _encode(record[key])
        yield "}"


def chunks(value):
    """The file text of a report value in chunks: its canonical JSON, one
    line (sorted keys, the separators "," and ":" with no whitespace outside
    strings), then a newline.  No more of the text is held at once than
    one operator's, while it is written."""
    yield from _encode(value)
    yield "\n"


def dumps(obj) -> str:
    """The file text of a report value: `chunks` joined."""
    return "".join(chunks(obj))


def _not_json(token):
    raise ParseError(f"{token} is not JSON")


def load_json(path):
    """The JSON value in the file at `path`; NaN, Infinity and -Infinity are not JSON."""
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_not_json)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: JSONDecodeError too
        raise ParseError(f"{path}: {exc}") from exc
