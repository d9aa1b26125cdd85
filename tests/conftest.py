import numpy as np
import pytest

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


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
