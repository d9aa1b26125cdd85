"""The route table: one row per fast path of the library.

A row names the path's selector (an attribute of a module or a class), the
value that forces the general route (`LANCZOS_GATE` is forced both ways),
and the runs of `scripts/report_diff.py`'s grid that reach it (the run
names of `report_diff.grid`; None for every run).
"""

import math
from collections import namedtuple

from gfusion import constructions, frames, linalg, resolution

Route = namedtuple("Route", "route owner name general runs", defaults=(None,))

SUM_TRANSFORM = ("construct-sum-transform", "construct-sum-transform-scalar",
                 "construct-sum-transform-mixed")
ROUTES = [
    # S = c F for c = conj(c_t) c_u > 0: F's own decompositions, scaled
    Route("positive scalar pair", frames.ControlPair, "scale", property(lambda cp: None)),
    Route("diagonal blocks", linalg, "diagonal_blocks", lambda a: (0, a.shape[0])),
    # atomic-lanczos has blocks above the gate: on the Lanczos route by default
    Route("Lanczos on every block", linalg, "LANCZOS_GATE", 0),
    Route("Lanczos on no block", linalg, "LANCZOS_GATE", math.inf,
          ("atomic", "atomic-lanczos")),
    # under a self-adjoint pair the left terms are the right ones' adjoints
    Route("one-sum resolutions", resolution, "_self_adjoint", lambda ev, cp: False,
          ("resolutions", "resolutions-selfadj", "resolutions-mixed")),
    # sum_transform's r = c I as the number c
    Route("scalar sum operator", constructions, "scalar_multiple", lambda a: None,
          SUM_TRANSFORM),
    # one norm for both of sum_transform's cross terms; no ||S^-1|| in thm 4.1
    Route("number sides", frames.ControlPair, "number_sides", property(lambda cp: False),
          (*SUM_TRANSFORM, "thm-4.1")),
    # frame_sum's batched runs and stacked items: each item on its own
    Route("frame_sum batches", frames.FrameFamily, "SUM_GROUP", math.inf,
          ("fourier-demo-8", "fourier-demo-24")),
    # a control c I held as the number c
    Route("number control sides", frames, "scalar_multiple", lambda a: None),
]
