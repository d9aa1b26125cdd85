"""Seeded random instance generation.

All draws come from a single 64-bit-seeded PCG64 stream, so identical
(seed, dim, item_count, structure) inputs reproduce identical instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameters
from .frames import ControlPair, FrameFamily
from .linalg import Subspace, frozen, orth, seeded_rng, singular_extremes

STRUCTURES = ("generic", "scalar-controls", "parseval", "near-identity-pair")


@dataclass(frozen=True)
class Instance:
    family: FrameFamily
    control: ControlPair
    k: np.ndarray
    family2: FrameFamily | None = None
    control2: ControlPair | None = None


def _complex_gaussian(rng, rows, cols):
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def _random_subspace(rng, dim):
    d = int(rng.integers(1, dim + 1))
    return Subspace(dim, frozen(orth(_complex_gaussian(rng, dim, d))))


def _well_conditioned(rng, dim, spread=0.3):
    g = _complex_gaussian(rng, dim, dim)
    return frozen(np.eye(dim, dtype=complex) + spread * g / np.sqrt(dim))


def _partition_parseval(dim, item_count):
    """Partition of the coordinate basis; item j gets every index congruent
    to j, so every group is nonempty for item_count <= dim."""
    items = []
    for j in range(item_count):
        idx = list(range(j, dim, item_count))
        basis = np.zeros((dim, len(idx)), dtype=complex)
        for col, i in enumerate(idx):
            basis[i, col] = 1.0
        sub = Subspace(dim, frozen(basis))
        items.append((sub, frozen(basis @ basis.conj().T), 1.0))
    return FrameFamily(dim, items)


def random_instance(seed: int, dim: int, item_count: int, structure: str) -> Instance:
    if not (1 <= dim <= 64):
        raise InvalidParameters(f"dim must be in [1, 64], got {dim}")
    if not (1 <= item_count <= 32):
        raise InvalidParameters(f"item_count must be in [1, 32], got {item_count}")
    if structure not in STRUCTURES:
        raise InvalidParameters(f"unknown structure {structure!r}")
    if structure in ("parseval", "near-identity-pair") and item_count > dim:
        raise InvalidParameters("parseval partition needs item_count <= dim")
    rng = seeded_rng(seed)

    if structure == "parseval":
        fam = _partition_parseval(dim, item_count)
        return Instance(fam, ControlPair.identity(dim), np.eye(dim, dtype=complex))

    if structure == "near-identity-pair":
        fam = _partition_parseval(dim, item_count)
        eps = 0.02
        e = _complex_gaussian(rng, dim, dim)
        e *= eps / max(singular_extremes(e).sigma_max, 1e-300)
        t = frozen(np.eye(dim, dtype=complex))
        u = frozen(np.eye(dim, dtype=complex) + e)
        return Instance(
            fam,
            ControlPair(t, t),
            np.eye(dim, dtype=complex),
            family2=fam,
            control2=ControlPair(u, u),
        )

    items = []
    for _ in range(item_count):
        sub = _random_subspace(rng, dim)
        rows = int(rng.integers(1, dim + 1))
        lam = frozen(_complex_gaussian(rng, rows, dim) / np.sqrt(dim))
        weight = float(rng.uniform(0.5, 2.0))
        items.append((sub, lam, weight))
    fam = FrameFamily(dim, items)

    if structure == "scalar-controls":
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(0.5, 2.0))
        cp = ControlPair.scalars(dim, alpha, beta)
    else:
        cp = ControlPair(_well_conditioned(rng, dim), _well_conditioned(rng, dim))
    k = _complex_gaussian(rng, dim, dim) / np.sqrt(dim)
    return Instance(fam, cp, k)
