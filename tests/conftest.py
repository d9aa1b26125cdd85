import json
import re
import sys

import numpy as np
import pytest

from gfusion import linalg, serialize
from gfusion.frames import ControlPair, FrameFamily
from gfusion.linalg import Subspace, orth


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


def record_svd_inputs(monkeypatch):
    """A list that receives a copy of every matrix passed to np.linalg.svd."""
    seen = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    return seen


def record_eigvalsh_inputs(monkeypatch):
    """A list that receives a copy of every matrix passed to np.linalg.eigvalsh."""
    seen = []
    eigvalsh = np.linalg.eigvalsh

    def recording(a, *args, **kwargs):
        seen.append(np.array(a))
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording)
    return seen


def record_opnorm_inputs(monkeypatch, seen=None):
    """A list (`seen`, or a new one) that receives a copy of every matrix
    passed to `linalg.opnorm`, from whichever package module calls it."""
    seen = [] if seen is None else seen
    opnorm = linalg.opnorm

    def recording(a):
        seen.append(np.array(a))
        return opnorm(a)

    for name, module in list(sys.modules.items()):
        if name.startswith("gfusion") and getattr(module, "opnorm", None) is opnorm:
            monkeypatch.setattr(module, "opnorm", recording)
    return seen


def record_spectral_inputs(monkeypatch):
    """One list that receives a copy of every matrix whose singular values
    the package measures: each input of np.linalg.svd (the gates'
    `singular_extremes`) and of `linalg.opnorm` (every other norm)."""
    return record_opnorm_inputs(monkeypatch, record_svd_inputs(monkeypatch))


JSON_STRING = re.compile(r'"(?:[^"\\]|\\.)*"')


def assert_compact_canonical(text):
    """`text` is `serialize.dumps`'s form: JSON with no whitespace outside
    strings, ending in exactly one newline, and a fixed point of
    dumps(json.loads(text)) (so its keys are sorted)."""
    assert text.endswith("\n") and not text.endswith("\n\n")
    outside = JSON_STRING.sub('""', text[:-1])
    assert not any(c.isspace() for c in outside), outside[:200]
    assert serialize.dumps(json.loads(text)) == text


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
