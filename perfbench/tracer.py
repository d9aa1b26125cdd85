"""Span recorder that times gfusion from the outside.

`install` replaces public functions of the gfusion modules (and the dense
kernels of `numpy.linalg`) with wrappers that record one span per call:
name, start, end, parent span and operation id.  Spans stay in memory and
are written out once, at exit.  Nothing under `src/` is modified; names that
modules bound with `from .linalg import ...` are replaced in every importing
module's namespace, so calls through those names are recorded too.

Standard library only: the orchestrator imports this module without numpy.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

# Public functions traced per module.  Each span is named "<module>.<function>".
TRACED = {
    "serialize": (
        "load_json", "dumps",
        "operator_from_dict", "subspace_from_dict", "family_from_dict",
        "control_pair_from_dict",
        "operator_to_dict", "subspace_to_dict", "family_to_dict",
        "control_pair_to_dict",
    ),
    "linalg": (
        "opnorm", "orth", "require_hermitian", "positive_sqrt", "pinv",
        "projector", "subspace_image", "condition_number", "require_invertible",
        "hermitian_extremes", "gen_rayleigh_extremes", "gen_rayleigh_min",
        "douglas_factor", "dsum_op", "dsum_subspace",
    ),
    "frames": (
        "item_cross_operator", "frame_sum", "frame_operator", "analysis",
        "synthesis_matrix", "synthesis", "controlled_frame_bounds", "kgf_bounds",
        "atomic_check", "atomic_wrt_frame_operator", "linear_combination_atomic",
    ),
    "constructions": ("sum_transform", "direct_sum_frame", "conjugate_transform"),
    "resolution": (
        "pair_frame_operator", "swapped", "canonical_resolutions",
        "inverse_commutation_check", "bessel_resolution_frame_check",
        "coercive_pair_check", "perturbation_check",
    ),
    "fourier": ("build_fourier_example", "verify_fourier"),
    "generate": ("random_instance",),
}

# Validation that runs inside constructors, traced on the class itself.
TRACED_METHODS = (
    ("linalg", "Subspace", "__post_init__", "linalg.Subspace.validate"),
    ("frames", "ControlPair", "__init__", "frames.ControlPair.validate"),
)

# Dense kernels.  `norm` is recorded only as the matrix spectral norm.
KERNELS = ("svd", "eigh", "eigvalsh", "inv")

# Per-layer metrics: name -> (unit, kind, span names).  "self" sums self
# time in ms, "calls" counts spans, "counter" sums a recorded quantity; all
# three are divided by the number of operations in the traced run.
_DECODE = ("serialize.operator_from_dict", "serialize.subspace_from_dict",
           "serialize.family_from_dict", "serialize.control_pair_from_dict")
_ENCODE = ("serialize.operator_to_dict", "serialize.subspace_to_dict",
           "serialize.family_to_dict", "serialize.control_pair_to_dict")
_NUMPY = tuple("numpy.linalg." + k for k in KERNELS + ("norm2",))


def _self(*names):
    return ("ms", "self", names)


def _calls(*names):
    return ("count", "calls", names)


LAYER_METRICS = {
    "cli.import_ms": _self("cli.import"),
    "cli.process_ms": _self("cli.process"),
    "serialize.load_ms": _self("serialize.load_json"),
    "serialize.decode_ms": _self(*_DECODE),
    "serialize.bytes_in": ("B", "counter", ("bytes_in",)),
    "serialize.encode_ms": _self(*_ENCODE),
    "serialize.dump_ms": _self("serialize.dumps", "cli._write_report"),
    "serialize.bytes_out": ("B", "counter", ("bytes_out",)),
    "linalg.Subspace.validate_ms": _self("linalg.Subspace.validate"),
    "frames.ControlPair.validate_ms": _self("frames.ControlPair.validate"),
    "frames.frame_operator.calls": _calls("frames.frame_operator"),
    "frames.item_cross_operator.calls": _calls("frames.item_cross_operator"),
    "frames.controlled_frame_bounds_ms": _self("frames.controlled_frame_bounds"),
    "frames.kgf_bounds_ms": _self("frames.kgf_bounds"),
    "frames.atomic_check_ms": _self("frames.atomic_check"),
    "frames.synthesis_matrix_ms": _self("frames.synthesis_matrix"),
    "frames.analysis_ms": _self("frames.analysis"),
    "frames.frame_sum.calls": _calls("frames.frame_sum"),
    "frames.frame_sum_ms": _self("frames.frame_sum"),
    "linalg.projector.calls": _calls("linalg.projector"),
    "linalg.positive_sqrt.calls": _calls("linalg.positive_sqrt"),
    "linalg.positive_sqrt_ms": _self("linalg.positive_sqrt"),
    "linalg.pinv_ms": _self("linalg.pinv"),
    "linalg.gen_rayleigh_extremes_ms": _self("linalg.gen_rayleigh_extremes"),
    "linalg.opnorm.calls": _calls("linalg.opnorm"),
    "linalg.opnorm_ms": _self("linalg.opnorm"),
    "linalg.require_hermitian.calls": _calls("linalg.require_hermitian"),
    "linalg.require_invertible_ms": _self("linalg.require_invertible"),
    "numpy.linalg.calls": _calls(*_NUMPY),
    "numpy.linalg_ms": _self(*_NUMPY),
    "constructions.direct_sum_frame_ms": _self("constructions.direct_sum_frame"),
    "constructions.conjugate_transform_ms": _self("constructions.conjugate_transform"),
    "constructions.sum_transform_ms": _self("constructions.sum_transform"),
    "resolution.canonical_resolutions_ms": _self("resolution.canonical_resolutions"),
    "resolution.inverse_commutation_check_ms": _self("resolution.inverse_commutation_check"),
    "resolution.pair_frame_operator.calls": _calls("resolution.pair_frame_operator"),
    "resolution.perturbation_check_ms": _self("resolution.perturbation_check"),
    "fourier.build_fourier_example.calls": _calls("fourier.build_fourier_example"),
    "fourier.verify_fourier_ms": _self("fourier.verify_fourier"),
    "generate.random_instance_ms": _self("generate.random_instance"),
}


class Recorder:
    """In-memory span store.  Spans are tuples (name, start, end, parent, op)
    with `parent` the index of the enclosing span or -1."""

    def __init__(self):
        self.spans = []
        self.counters = []  # (name, value, op)
        self.op = None
        self.enabled = True
        self._stack = []

    def wrap(self, name, fn):
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append(None)
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.op)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def add_span(self, name, start, end):
        """Record a span measured by the caller (a root span)."""
        self.spans.append((name, start, end, -1, self.op))

    def count(self, name, value):
        self.counters.append((name, value, self.op))

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counters": self.counters}, fh)


def _replace_everywhere(original, replacement):
    """Rebind `original` to `replacement` in every loaded gfusion module."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "gfusion" or modname.startswith("gfusion.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(rec: Recorder):
    """Wrap the traced functions of every gfusion module and numpy.linalg."""
    import importlib

    import numpy.linalg as npl

    for short, names in TRACED.items():
        mod = importlib.import_module("gfusion." + short)
        for fname in names:
            original = getattr(mod, fname)
            wrap = _COUNTED.get(f"{short}.{fname}")
            wrapped = wrap(rec, original) if wrap else rec.wrap(f"{short}.{fname}", original)
            _replace_everywhere(original, wrapped)

    for short, cls_name, meth, span in TRACED_METHODS:
        cls = getattr(importlib.import_module("gfusion." + short), cls_name)
        setattr(cls, meth, rec.wrap(span, getattr(cls, meth)))

    cli = sys.modules.get("gfusion.cli")
    if cli is not None:
        cli._write_report = rec.wrap("cli._write_report", cli._write_report)

    for k in KERNELS:
        setattr(npl, k, rec.wrap("numpy.linalg." + k, getattr(npl, k)))
    npl.norm = _wrap_norm(rec, npl.norm)


def _wrap_load_json(rec, load_json):
    traced = rec.wrap("serialize.load_json", load_json)

    def counted(path):
        if rec.enabled and os.path.isfile(path):
            rec.count("bytes_in", os.path.getsize(path))
        return traced(path)

    return counted


def _wrap_dumps(rec, dumps):
    traced = rec.wrap("serialize.dumps", dumps)

    def counted(obj):
        text = traced(obj)
        if rec.enabled:
            rec.count("bytes_out", len(text.encode()))
        return text

    return counted


# Wrappers that also count the bytes read or written.
_COUNTED = {"serialize.load_json": _wrap_load_json, "serialize.dumps": _wrap_dumps}


def _wrap_norm(rec, norm):
    spectral = rec.wrap("numpy.linalg.norm2", norm)

    def dispatch(x, ord=None, *args, **kwargs):
        if ord == 2 and getattr(x, "ndim", 0) == 2:
            return spectral(x, ord, *args, **kwargs)
        return norm(x, ord, *args, **kwargs)

    return dispatch


# ---------------------------------------------------------------- analysis


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _, _), c in zip(spans, child)]


class LayerTotals:
    """Sums of calls, self time and counters by span name over many ops."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.ops = 0

    def add(self, spans, counters=()):
        for (name, *_), st in zip(spans, self_times(spans)):
            self.calls[name] += 1
            self.self_s[name] += st
        for name, value, _ in counters:
            self.counters[name] += value

    def metrics(self):
        ops = max(self.ops, 1)
        out = {}
        for metric, (unit, kind, names) in LAYER_METRICS.items():
            if kind == "self":
                value = 1000.0 * sum(self.self_s[n] for n in names) / ops
            elif kind == "calls":
                value = sum(self.calls[n] for n in names) / ops
            else:
                value = sum(self.counters[n] for n in names) / ops
            out[metric] = {"value": value, "unit": unit}
        return out


def per_op_totals(spans):
    """{op: {span name: (inclusive s, self s)}}, summed over the op's spans."""
    out = defaultdict(dict)
    for (name, start, end, _, op), st in zip(spans, self_times(spans)):
        incl, own = out[op].get(name, (0.0, 0.0))
        out[op][name] = (incl + end - start, own + st)
    return out
