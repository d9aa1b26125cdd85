import base64
import contextlib
import importlib
import json
import pkgutil
import re
import struct
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

import gfusion
from gfusion import generate, serialize
from gfusion.frames import ControlPair, FrameFamily
from gfusion.linalg import Subspace, orth
from gfusion.resolution import pair_frame_operator

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "scripts"))
import report_diff  # noqa: E402


def complex_gaussian(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unit(rng, n):
    v = complex_gaussian(rng, n)
    return v / np.linalg.norm(v)


def random_subspace(rng, dim, sub_dim):
    return Subspace(dim, orth(complex_gaussian(rng, dim, sub_dim)))


def random_family(rng, dim, items, codomain=None):
    """Random family with full-rank coverage: one full-space item plus extras."""
    out = []
    for i in range(items):
        sub_dim = int(rng.integers(1, dim + 1)) if i else dim
        sub = random_subspace(rng, dim, sub_dim)
        if codomain:
            rows = codomain
        else:
            # full-rank operator on the full-space item keeps S_C invertible
            rows = dim if i == 0 else int(rng.integers(1, dim + 1))
        lam = complex_gaussian(rng, rows, dim) / np.sqrt(dim)
        weight = float(rng.uniform(0.5, 2.0))
        out.append((sub, lam, weight))
    return FrameFamily(dim, out)


def well_conditioned(rng, n):
    return np.eye(n) + 0.3 * complex_gaussian(rng, n, n) / np.sqrt(n)


def scalar_controls(rng, dim):
    alpha = float(rng.uniform(0.5, 2.0))
    beta = float(rng.uniform(0.5, 2.0))
    return ControlPair.scalars(dim, alpha, beta)


def scaled_partition_family(dim, scales):
    """Coordinate-partition family with per-block operators sqrt(c_j) P_j;
    frame operator under identity controls is block-diagonal with the given
    scales, so the bounds are exactly (min(scales), max(scales))."""
    k = len(scales)
    items = []
    for j, c in enumerate(scales):
        idx = list(range(j, dim, k))
        basis = np.zeros((dim, len(idx)), dtype=complex)
        for col, i in enumerate(idx):
            basis[i, col] = 1.0
        p = basis @ basis.conj().T
        items.append((Subspace(dim, basis), np.sqrt(c) * p, 1.0))
    return FrameFamily(dim, items)


def scaled_parseval(scale):
    """`random_instance(1, 4, 2, "parseval")`'s family, a coordinate
    partition of C^4 in two items with Lambda_j = P_j, with every Lambda_j
    times `scale`."""
    fam = generate.random_instance(1, 4, 2, "parseval").family
    return FrameFamily(4, [(sub, scale * lam, w) for sub, lam, w in fam.items])


def control_pair(kind, n, rng):
    """A control pair on C^n of kind `kind`."""
    if kind == "identity":
        return ControlPair.identity(n)
    if kind == "scalar":  # c = conj(c_t) c_u = 0.75 > 0
        return ControlPair.scalars(n, 0.5, 1.5)
    if kind == "scalar t = u":
        return ControlPair.scalars(n, 2.0, 2.0)
    if kind == "other scalar":  # c = -2, not a positive real
        return ControlPair.scalars(n, -1.0, 2.0)
    if kind == "I, I + E":  # E = 0.02 G / ||G||
        e = complex_gaussian(rng, n, n)
        return ControlPair(np.eye(n), np.eye(n) + 0.02 * e / np.linalg.norm(e, 2))
    c = well_conditioned(rng, n)
    if kind == "dense t = u":
        return ControlPair(c, c.copy())
    if kind == "dense":
        return ControlPair(c, well_conditioned(rng, n))
    d = np.diag(rng.uniform(0.5, 2.0, n))  # commutes with a coordinate partition
    return ControlPair(*{"c I, diagonal": (2.0 * np.eye(n), d),
                         "diagonal, c I": (d, 2.0 * np.eye(n))}[kind])


# Pairs on C^2 and C^3 whose direct sums ControlPair.direct_sum reads from
# the two pairs: the numbers (c_t, c_u) of scalar pairs, and kinds.
SCALAR_SUMS = [((0.5, 1.5), (0.5, 1.5)), ((2.0, 2.0), (2.0, 2.0)), ((1j, 1.0), (1.0, 1.0)),
               ((0.5, 1.5), (0.5, 2.5)), ((3.0, 3.0), (2.0, 2.0))]
KIND_SUMS = [("dense t = u", "dense t = u"), ("dense", "dense"), ("dense t = u", "scalar"),
             ("scalar", "dense"), ("dense t = u", "scalar t = u")]


def partition(rng, n, items):
    """A partition family in a random orthonormal basis: F = Q Q* = I up to
    rounding, dense in every entry."""
    q, _ = np.linalg.qr(complex_gaussian(rng, n, n))
    return FrameFamily(n, [(Subspace(n, q[:, j::items]), q[:, j::items].conj().T, 1.0)
                           for j in range(items)])


def new_operators(fam, rng):
    """A family on fam's subspaces and weights with new Gaussian operators."""
    return FrameFamily(fam.ambient_dim, [(sub, complex_gaussian(rng, *lam.shape), w)
                                         for sub, lam, w in fam.items])


def near_identity_pair(dim, eps=0.02, seed=3):
    """The pair operator of a Parseval partition under (I, I) and
    (I, I + eps E), ||E|| = 1: S is near I."""
    fam = scaled_partition_family(dim, tuple([1.0] * dim))
    e = complex_gaussian(np.random.default_rng(seed), dim, dim)
    e /= np.linalg.norm(e, 2)
    return pair_frame_operator(fam, np.eye(dim), fam, np.eye(dim) + eps * e)


# ------------------------------------------------------------ the recorder

# What the recorder always sees: numpy.linalg's decompositions, the spectral
# norm norm(x, 2) of a 2-D x (numpy takes it by an SVD), and linalg.opnorm.
RECORDED = (*(f"numpy.linalg.{name}" for name in ("svd", "eigh", "eigvalsh", "qr", "inv")),
            "numpy.linalg.norm", "gfusion.linalg.opnorm")


class Call(NamedTuple):
    routine: str  # the target's name below its module: "eigh", "FrameEvaluation.__init__"
    shape: tuple  # of the input, () where it is not an array
    input: np.ndarray | None  # a copy of the input: the first argument after any self


def resolve(dotted):
    """(owner, attribute, routine) of a dotted name: the longest prefix that
    imports is the module, and the routine is the rest."""
    parts = dotted.split(".")
    for i in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            continue
        for name in parts[i:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], ".".join(parts[i:])
    raise ValueError(dotted)


@contextlib.contextmanager
def recorded(*extra):
    """The list of `Call`s made in the block to each target of RECORDED and
    of `extra` (dotted names, such as "numpy.matmul" or
    "gfusion.frames.cross_terms"); a norm is recorded only as norm(x, 2) of
    a 2-D x.  Every gfusion module is imported first, and each target is
    rebound in its owner and in every gfusion module that holds it (as
    perfbench's tracer does), so no record depends on what was imported
    before; all are restored on leaving."""
    for info in pkgutil.iter_modules(gfusion.__path__):
        importlib.import_module(f"gfusion.{info.name}")
    calls, undo = [], []
    modules = [m for name, m in sys.modules.items() if name.startswith("gfusion") and m]
    try:
        for dotted in dict.fromkeys((*RECORDED, *extra)):
            owner, attr, routine = resolve(dotted)
            original = getattr(owner, attr)

            def wrapper(*args, _routine=routine, _original=original, **kwargs):
                inputs = args[1:] if "." in _routine else args  # a method's self is no input
                x = inputs[0] if inputs else None
                spectral = kwargs.get("ord", inputs[1] if len(inputs) > 1 else None) == 2
                if _routine != "norm" or (spectral and np.ndim(x) == 2):
                    copy = np.array(x) if isinstance(x, np.ndarray) else None
                    calls.append(Call(_routine, np.shape(copy), copy))
                return _original(*args, **kwargs)

            for holder in dict.fromkeys([owner, *modules]):
                for name, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, name, wrapper)
                        undo.append((holder, name, value))
        yield calls
    finally:
        for holder, name, value in reversed(undo):
            setattr(holder, name, value)


JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def assert_compact_canonical(text):
    """`text` is `serialize.dumps`'s form: JSON with no whitespace outside
    strings, ending in exactly one newline, and a fixed point of
    dumps(json.loads(text)) and of the standard library's compact,
    key-sorted encoder."""
    assert text.endswith("\n") and not text.endswith("\n\n")
    outside = JSON_STRING.sub('""', text[:-1])
    assert not any(c.isspace() for c in outside), outside[:200]
    value = json.loads(text)
    assert serialize.dumps(value) == text
    assert json.dumps(value, sort_keys=True, separators=(",", ":")) + "\n" == text


def as_json(value):
    """The JSON value of the text that `serialize.dumps` writes for `value`."""
    return json.loads(serialize.dumps(value))


def binary64(values) -> str:
    """The writer's form of the entries `values`: base64 of little-endian
    IEEE 754 binary64, made by `struct` (a reference that is not numpy's)."""
    return base64.b64encode(struct.pack(f"<{len(values)}d", *values)).decode("ascii")


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def grid(tmp_path_factory):
    """[(name, argv, outcome)] of one in-process pass (`report_diff.run`) over
    every run of `report_diff.grid` at its first seed, in order."""
    work = tmp_path_factory.mktemp("grid")
    report_diff.write_shared(str(work / "shared"))
    runs = report_diff.grid(str(work / "inputs"), str(work / "shared"),
                            report_diff.paired_structures(), report_diff.SEEDS[:1])
    return [(name, argv, report_diff.run(argv)) for name, argv in runs]
