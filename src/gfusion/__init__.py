"""Numerical toolkit for controlled g-fusion frames in finite-dimensional
complex Hilbert spaces."""

from .frames import (
    AtomicReport,
    BlockVector,
    ControlPair,
    FrameFamily,
    FrameReport,
    analysis,
    atomic_check,
    atomic_wrt_frame_operator,
    controlled_frame_bounds,
    frame_operator,
    frame_sum,
    kgf_bounds,
    linear_combination_atomic,
    synthesis,
)
from .linalg import (
    SpectralInterval,
    Subspace,
    douglas_factor,
    dsum_op,
    gen_rayleigh_min,
    hermitian_extremes,
    pinv,
    positive_sqrt,
    projector,
    subspace_image,
)

__version__ = "0.1.0"

__all__ = [
    "AtomicReport",
    "BlockVector",
    "ControlPair",
    "FrameFamily",
    "FrameReport",
    "SpectralInterval",
    "Subspace",
    "analysis",
    "atomic_check",
    "atomic_wrt_frame_operator",
    "controlled_frame_bounds",
    "douglas_factor",
    "dsum_op",
    "frame_operator",
    "frame_sum",
    "gen_rayleigh_min",
    "hermitian_extremes",
    "kgf_bounds",
    "linear_combination_atomic",
    "pinv",
    "positive_sqrt",
    "projector",
    "subspace_image",
    "synthesis",
]
