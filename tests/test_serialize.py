import base64
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from gfusion import cli
from gfusion.errors import ParseError
from gfusion.constructions import Certificate
from gfusion.frames import AtomicReport, ControlPair
from gfusion.linalg import SpectralInterval
from gfusion.resolution import CanonicalResolutions, ResolutionBoundsReport, ResolutionReport
from gfusion.serialize import (
    chunks,
    control_pair_from_dict,
    control_pair_to_dict,
    dumps,
    family_from_dict,
    family_to_dict,
    load_json,
    operator_from_dict,
    operator_to_dict,
    subspace_from_dict,
    subspace_to_dict,
)

from conftest import (
    as_json,
    assert_compact_canonical,
    binary64,
    complex_gaussian,
    random_family,
    random_subspace,
)


def test_operator_round_trip_exact(rng):
    a = complex_gaussian(rng, 3, 5)
    np.testing.assert_array_equal(operator_from_dict(operator_to_dict(a)), a)


def test_operator_binary64_layout():
    # little-endian binary64, row-major: 1.0 is 00 00 00 00 00 00 f0 3f
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    d = operator_to_dict(a)
    assert base64.b64decode(d["re"])[:8] == bytes.fromhex("000000000000f03f")
    assert d["re"] == binary64([1.0, 2.0, 3.0, 4.0])
    assert d["im"] == binary64([0.0] * 4) == "A" * 43 + "="
    assert operator_to_dict(a.T)["re"] == binary64([1.0, 3.0, 2.0, 4.0])


def test_operator_binary64_round_trip_is_bit_exact(rng):
    # reference: struct's binary64 of each entry, row-major; signed zeros,
    # subnormals, +-1e308 and a non-contiguous (transposed) array
    a = complex_gaussian(rng, 4, 3).T
    a[0, :4] = [-0.0 - 0.0j, 5e-324 - 1e-310j, -1e308 + 1e308j, 1e-320j]
    d = operator_to_dict(a)
    assert d == {"rows": 3, "cols": 4, "re": binary64(a.real.ravel().tolist()),
                 "im": binary64(a.imag.ravel().tolist())}
    b = operator_from_dict(json.loads(dumps(d)))
    np.testing.assert_array_equal(b.view(np.uint64), np.ascontiguousarray(a).view(np.uint64))


def test_operator_decimal_lists_are_read():
    # a hand-written operator: lists of numbers, row-major, in either key
    # and beside a binary64 string; -0.0 kept
    a = operator_from_dict({"rows": 2, "cols": 2, "re": [1, 2.5, -0.0, 4e-310],
                            "im": binary64([0.0, -1.0, 0.0, 1e308])})
    want = np.array([[1, 2.5 - 1j], [-0.0, 4e-310 + 1e308j]])
    np.testing.assert_array_equal(a.view(np.uint64), want.view(np.uint64))
    assert np.signbit(a[1, 0].real)


def test_operator_bad_entry_count():
    with pytest.raises(ParseError):
        operator_from_dict({"rows": 2, "cols": 2, "re": [1.0], "im": [0.0]})


@pytest.mark.parametrize("entries", [1.0, True, None, {"re": [1.0]}])
def test_operator_entries_are_a_string_or_a_list(entries):
    # a 1 x 1 operator too: a number is not a list of one number
    with pytest.raises(ParseError, match="base64 string or a list"):
        operator_from_dict({"rows": 1, "cols": 1, "re": entries, "im": [0.0]})


def test_operator_missing_key():
    with pytest.raises(ParseError):
        operator_from_dict({"rows": 1, "cols": 1, "re": [1.0]})


def test_subspace_round_trip(rng):
    m = random_subspace(rng, 5, 2)
    m2 = subspace_from_dict(as_json(subspace_to_dict(m)))
    np.testing.assert_array_equal(m2.basis, m.basis)
    assert m2.ambient_dim == 5


def test_subspace_rejects_non_orthonormal():
    d = {
        "ambient_dim": 2,
        "basis": {"rows": 2, "cols": 1, "re": [1.0, 1.0], "im": [0.0, 0.0]},
    }
    with pytest.raises(ParseError):
        subspace_from_dict(d)


def test_family_round_trip(rng):
    fam = random_family(rng, 4, 3)
    fam2 = family_from_dict(as_json(family_to_dict(fam)))
    assert fam2.ambient_dim == fam.ambient_dim
    assert fam2.weights == fam.weights
    for (s1, l1, _), (s2, l2, _) in zip(fam.items, fam2.items):
        np.testing.assert_array_equal(l2, l1)
        np.testing.assert_array_equal(s2.basis, s1.basis)


def test_family_bad_item_reported_with_index(rng):
    d = as_json(family_to_dict(random_family(rng, 3, 2)))
    del d["items"][1]["weight"]
    with pytest.raises(ParseError, match="item 1"):
        family_from_dict(d)


@pytest.mark.parametrize("entries", [["1.5", 0.0], [1.5, True], [[1.5], [0.0]]])
def test_decimal_entries_are_json_numbers(entries):
    # a string, a boolean or a nested list is not cast to a number
    with pytest.raises(ParseError, match="list of JSON numbers"):
        operator_from_dict({"rows": 1, "cols": 2, "re": entries, "im": [0, 0]})


@pytest.mark.parametrize("weight", ["2", True])
def test_weight_is_a_json_number(rng, weight):
    d = as_json(family_to_dict(random_family(rng, 3, 2)))
    d["items"][0]["weight"] = weight
    with pytest.raises(ParseError, match="item 0: weight must be a JSON number"):
        family_from_dict(d)


def test_control_pair_round_trip(rng):
    cp = ControlPair.scalars(3, 0.5, 2.0)
    cp2 = control_pair_from_dict(as_json(control_pair_to_dict(cp)))
    np.testing.assert_array_equal(cp2.t, cp.t)
    np.testing.assert_array_equal(cp2.u, cp.u)


def test_control_pair_rejects_singular():
    z = operator_to_dict(np.zeros((2, 2)))
    with pytest.raises(ParseError):
        control_pair_from_dict({"t": z, "u": z})


def test_dumps_deterministic(rng):
    fam = random_family(rng, 3, 2)
    d = family_to_dict(fam)
    assert dumps(d) == dumps(family_to_dict(fam))
    assert dumps(d).endswith("\n")
    # key order independent of insertion order
    assert dumps({"b": 1, "a": 2}) == dumps({"a": 2, "b": 1})


class TestCompactCanonical:
    def test_family_and_control_text(self, rng):
        fam = random_family(rng, 4, 3)
        for obj in (family_to_dict(fam), control_pair_to_dict(ControlPair.scalars(4, 0.5, 2.0))):
            text = dumps(obj)
            assert_compact_canonical(text)
            assert text.count("\n") == 1

    def test_whitespace_kept_inside_strings(self):
        text = dumps({"b": "two words\n", "a": [1, {"d": " ", "c": "x\"y"}]})
        assert text == '{"a":[1,{"c":"x\\"y","d":" "}],"b":"two words\\n"}\n'
        assert_compact_canonical(text)

    def test_fixed_point(self, rng):
        text = dumps({"family": random_family(rng, 3, 2), "lo": -math.inf})
        assert dumps(json.loads(text)) == text

    def test_floats_round_trip_exactly(self):
        values = [0.1 + 0.2, -0.0, 0.0, 5e-324, -1e-310, 2.0**-1022, math.pi,
                  -1.7976931348623157e308, 1e16, 123456789.12345679]
        back = json.loads(dumps({"x": values, "inf": [math.inf, -math.inf]}))
        assert back["inf"] == ["inf", "-inf"]
        for got, want in zip(back["x"], values, strict=True):
            assert type(got) is float
            assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want)

    def test_operator_round_trip_through_text(self, rng):
        a = complex_gaussian(rng, 3, 4)
        a[0, 0] = -0.0 + 0.0j
        a[1, 1] = complex(5e-324, -0.0)
        b = operator_from_dict(json.loads(dumps(operator_to_dict(a))))
        np.testing.assert_array_equal(b, a)
        assert np.array_equal(np.signbit(b.real), np.signbit(a.real))
        assert np.array_equal(np.signbit(b.imag), np.signbit(a.imag))

    def test_report_infinities_are_strings(self):
        back = json.loads(dumps({"lo": -math.inf, "hi": math.inf, "z": -0.0}))
        assert back == {"lo": "-inf", "hi": "inf", "z": 0.0}
        assert math.copysign(1.0, back["z"]) == -1.0
        assert float(back["lo"]) == -math.inf


def test_load_json_reports_position(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"a": 1,}')
    with pytest.raises(ParseError, match="line"):
        load_json(p)


def test_load_json_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_json(tmp_path / "nope.json")


def test_full_precision_round_trip():
    val = 0.1 + 0.2  # not exactly representable in short decimal
    a = np.array([[val + 1j * np.pi]])
    b = operator_from_dict(operator_to_dict(a))
    assert b[0, 0] == a[0, 0]


class TestToJson:
    """Report values to JSON, by the one encoder's rule."""

    def test_library_objects_use_their_dict_forms(self, rng):
        fam = random_family(rng, 3, 2)
        cp = ControlPair.identity(3)
        a = complex_gaussian(rng, 2, 3)
        assert as_json(a) == operator_to_dict(a)
        assert dumps(fam) == dumps(family_to_dict(fam))
        assert dumps(cp) == dumps(control_pair_to_dict(cp))
        assert as_json(cp) == {"t": operator_to_dict(cp.t), "u": operator_to_dict(cp.u)}
        assert as_json(fam)["items"][1]["lambda"] == operator_to_dict(fam.items[1][1])

    def test_dataclass_fields_skip_library_only(self):
        rep = AtomicReport(True, 2.0, 3.0, 0.5, lambda: np.eye(2), 1e-16, 2e-16)
        assert as_json(rep) == {
            "is_atomic": True,
            "bessel_bound": 2.0,
            "coefficient_norm_bound": 3.0,
            "lower_bound": 0.5,
            "coefficient_residual": 1e-16,
            "literal_residual": 2e-16,
        }
        res = ResolutionBoundsReport(ResolutionReport(1e-9, 3, True), 1, 2, 1, 2, True, 0.0)
        assert "resolution" not in as_json(res)
        assert as_json(res)["resolution_residual"] == 1e-9
        assert as_json(res.resolution) == {"residual": 1e-9, "term_count": 3, "converged": True}

    def test_containers_and_scalars(self):
        certs = (Certificate("a", 0.5), Certificate("b", math.inf))
        assert as_json(certs) == [{"name": "a", "residual": 0.5}, {"name": "b", "residual": "inf"}]
        assert dict(certs) == {"a": 0.5, "b": math.inf}
        assert as_json({"x": [np.float64(-math.inf), None, 3, "s", False]}) == {
            "x": ["-inf", None, 3, "s", False]
        }
        assert dumps(np.float64(0.25)) == "0.25\n"
        assert as_json(SpectralInterval(1.0, math.inf)) == {"lambda_min": 1.0, "lambda_max": "inf"}

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError, match="complex"):
            dumps({"z": 1j})


# Report values and their text, as the two-pass writer (a JSON-ready tree,
# then json.dumps) wrote it: the one encoder keeps every byte.
ENCODED = {
    "floats": ([math.nan, math.inf, -math.inf, -0.0, 5e-324, 0.1],
               '[NaN,"inf","-inf",-0.0,5e-324,0.1]'),
    "escapes": ({"k\"\\\n\u00e9/\t": "v\u2028\"\x00\U0001f600", "a": ""},
                '{"a":"","k\\"\\\\\\n\\u00e9/\\t":"v\\u2028\\"\\u0000\\ud83d\\ude00"}'),
    "empty": ({"list": [], "tuple": (), "dict": {}}, '{"dict":{},"list":[],"tuple":[]}'),
    "0 x n": (np.zeros((0, 3)), '{"cols":3,"im":"","re":"","rows":0}'),
    "n x 0": (np.zeros((3, 0), dtype=complex), '{"cols":0,"im":"","re":"","rows":3}'),
    "dataclass in a named tuple": (
        CanonicalResolutions([], [np.eye(1)], ResolutionReport(None, 0, False),
                             ResolutionReport(1e-9, 2, True)),
        '{"left_multiplied":{"converged":true,"residual":1e-09,"term_count":2},'
        '"right_multiplied":{"converged":false,"residual":null,"term_count":0},'
        '"terms_left":[{"cols":1,"im":"AAAAAAAAAAA=","re":"AAAAAAAA8D8=","rows":1}],'
        '"terms_right":[]}'),
    "true against 1": ([True, 1, False, 0, 1.0, None], '[true,1,false,0,1.0,null]'),
}


@pytest.mark.parametrize("value, text", ENCODED.values(), ids=ENCODED)
def test_encoded_text(value, text):
    assert dumps(value) == "".join(chunks(value)) == text + "\n"
    assert text == json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))


def test_grid_files_are_canonical(grid):
    """Every report and instance file of the grid is the standard library's
    compact, key-sorted text of its own JSON value."""
    reports = [outcome[2] for _, argv, outcome in grid if argv[0] != "random" and outcome[2]]
    files = [path.read_text() for _, argv, _ in grid if argv[0] == "random"
             for path in sorted(Path(argv[-1]).iterdir())]
    assert len(reports) > 200 and len(files) > 50
    for text in reports + files:
        assert_compact_canonical(text)


def test_streamed_report_holds_one_operator_text(tmp_path):
    # 64 operators of 64 x 64: the text is 64 times one operator's, which
    # is its two base64 strings of 4096 binary64 entries (about 87 KB)
    rng = np.random.default_rng(3)
    report = {"command": "terms", "terms": [complex_gaussian(rng, 64, 64) for _ in range(64)]}
    one = len(dumps(report["terms"][0]))
    out = tmp_path / "report.json"
    tracemalloc.start()
    try:
        cli._write_report(report, str(out))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 87_000 < one < 88_000
    assert peak < 4 * one
    assert out.read_text() == dumps(report)
