"""The cost-budget table: what each library call decomposes and calls.

A row runs one library call (a key of CALLS) on one instance (a key of
INSTANCES, built from conftest's builders) under a control pair of one kind
(`conftest.control_pair`), first or after an earlier call (its `order`: the
CALLS key run before, under another pair of the same kind).  Of what
`conftest.recorded` sees during the call it states:

- `counts`: the exact number of calls of each routine; any routine it does
  not list is called 0 times.  A routine is one of RECORDED's ("svd",
  "eigh", "eigvalsh", "qr", "inv", "norm" for norm(x, 2), "opnorm") or an
  extra target, named by its dotted name ("numpy.matmul");
- `largest`: the largest matrix side each routine it lists may see;
- `equal`: for each operator of NAMED, the exact number of inputs equal to
  it (up to rounding) per routine, 0 for each routine not listed;
- `shapes`: the exact input shapes of a routine, sorted;
- `holds`: a check of what the call returns.

A change that moves a cost edits its row.  `test_budgets.py` runs the table.
"""

from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from gfusion import constructions, frames, generate, linalg, resolution
from gfusion.errors import NotInvertible
from gfusion.fourier import FourierParams, build_fourier_example, verify_fourier
from gfusion.frames import ControlPair, FrameEvaluation, FrameFamily
from gfusion.linalg import Spectrum, Subspace, dsum_op

from conftest import (KIND_SUMS, SCALAR_SUMS, complex_gaussian, control_pair, near_identity_pair,
                      new_operators, partition, random_family, random_subspace,
                      scaled_partition_family, well_conditioned)


class Row(NamedTuple):
    call: str
    instance: str
    order: str  # "first", or the CALLS key run before
    control: str  # a kind of conftest.control_pair, "own" (the instance's) or "-" (none)
    counts: dict
    largest: dict = {}
    equal: dict = {}
    shapes: dict = {}
    holds: Callable | None = None

    @property
    def id(self):
        order = "first" if self.order == "first" else "later"
        return f"{self.call} | {self.instance} | {order} | {self.control}"


# ------------------------------------------------------------ instances

# The other pair of a scalar kind; any other kind draws a second pair.
OTHER = {"scalar": (2.0, 0.625), "other scalar": (1j, 1.0)}


def on(build, seed, k_scale=1.0):
    """The maker of an instance: the family build(rng) on C^n under a pair
    of a given kind (and `other`, another of that kind), a square k, a
    vector f, a family `fam_g` of new operators on its subspaces, and dense
    v and w, all from one seeded stream."""
    def make(kind):
        rng = np.random.default_rng(seed)
        x = SimpleNamespace(fam=build(rng), rng=rng)
        n = x.n = x.fam.ambient_dim
        x.k, x.f = k_scale * complex_gaussian(rng, n, n), complex_gaussian(rng, n)
        if kind != "-":
            x.cp = control_pair(kind, n, rng)
            x.other = (ControlPair.scalars(n, *OTHER[kind]) if kind in OTHER
                       else control_pair(kind, n, rng))
        x.fam_g = new_operators(x.fam, rng)
        x.v, x.w = well_conditioned(rng, n), well_conditioned(rng, n)
        return x
    return make


def generated(structure):
    """A 24-dim instance of `generate`, under its own control pair."""
    def make(kind):
        inst = generate.random_instance(7, 24, 6, structure)
        return SimpleNamespace(fam=inst.family, cp=inst.control, k=inst.k, n=24)
    return make


def items(rng, n, shapes):
    """Items on random subspaces of C^n: (rows, dim) per item, weight 1 + j."""
    return FrameFamily(n, [(random_subspace(rng, n, d) if d else Subspace.zero(n),
                            complex_gaussian(rng, r, n), 1.0 + j)
                           for j, (r, d) in enumerate(shapes)])


def fourier(nmax, m):
    return on(lambda rng: build_fourier_example(FourierParams(nmax, m, 0.5, 0.9))[0], 0)


INSTANCES = {
    **{f"random({n}, {m})": on(lambda rng, n=n, m=m: random_family(rng, n, m), seed)
       for n, m, seed in ((8, 4, 7), (5, 3, 9), (4, 3, 6), (6, 1, 1), (6, 7, 7), (6, 40, 40))},
    **{f"partition({n}, {m})": on(lambda rng, n=n, m=m: partition(rng, n, m), seed, n ** -0.5)
       for n, m, seed in ((128, 4, 24), (32, 8, 3), (16, 4, 27))},
    "scaled partition(6, 3)": on(lambda rng: scaled_partition_family(6, (1.0, 2.0, 3.0)), 2),
    "Parseval(4, 2)": on(lambda rng: scaled_partition_family(4, (1.0, 1.0)), 5),
    "scaled partition(7, 7)": on(lambda rng: scaled_partition_family(
        7, tuple(rng.uniform(0.5, 2.0, 7))), 2626),
    "items of dims 0, 2, 3, 6": on(lambda rng: items(rng, 6, [(4, d) for d in (0, 2, 3, 6)]), 4),
    "items alone": on(lambda rng: items(rng, 7, [(2 + j % 3, 1 + j % 2) for j in range(6)]), 2),
    "items alone beside runs": on(lambda rng: items(rng, 6, [
        (2, 1), (3, 2), (3, 2), (1, 1), (2, 2), (2, 2), (2, 2), (4, 3)]), 27),
    **{f"Fourier({nmax}, {m})": fourier(nmax, m) for nmax, m in ((3, 1), (16, 1), (4, 3))},
    "generic 24/6": generated("generic"),
    "near-identity-pair 24/6": generated("near-identity-pair"),
    **{f"dense {n} x {n}": lambda kind, n=n: SimpleNamespace(
        a=complex_gaussian(np.random.default_rng(30), n, n)) for n in (96, 128, 256)},
    "pair near I(5)": lambda kind: SimpleNamespace(pair=near_identity_pair(5)),
    "pairs to sum": lambda kind: SimpleNamespace(sums=[
        (ControlPair.scalars(2, *a), ControlPair.scalars(3, *b)) for a, b in SCALAR_SUMS] + [
        (control_pair(a, 2, rng), control_pair(b, 3, rng))
        for rng in [np.random.default_rng(5)] for a, b in KIND_SUMS]),
}


# ------------------------------------------------------------ calls


def evaluation(x, cp=None):
    return FrameEvaluation(x.fam, cp or x.cp)


def pair(x):
    """The pair operator of x's family with itself under (t, t) and (u, u)."""
    return resolution.pair_frame_operator(x.fam, x.cp.t, x.fam, x.cp.u)


def r(x):
    """The dense sum operator r = v + I/2 of `sum_transform, dense r`."""
    return x.v + np.eye(x.n) / 2


SPECTRUM = "Spectrum(F): extremes last"

# The operators a row may name in `equal`, formed after the call.
NAMED = {
    "S": lambda x: evaluation(x).s,
    "S'": lambda x: evaluation(x, x.other).s,
    "S (+) S'": lambda x: dsum_op(evaluation(x).s, evaluation(x, x.other).s),
    "F": lambda x: x.fam.operator,
    "S^-1": lambda x: evaluation(x).inverse,
    "S - S*": lambda x: evaluation(x).skew,
    "W": lambda x: evaluation(x).spectrum.whiten(x.k),
    "k - S": lambda x: x.k - evaluation(x).s,
    "t (+) t'": lambda x: dsum_op(x.cp.t, x.other.t),
    "r*": lambda x: r(x).conj().T,
    "conj(c) r B_j": lambda x: [np.conj(c) * r(x) @ sub.basis for sub, _, _ in x.fam.items
                                for c in (x.cp.t_side, x.cp.u_side)],
    "k3 k3*": lambda x: x.k[:3, :3] @ x.k[:3, :3].conj().T,
    "w2 w2*": lambda x: x.w[:2, :2] @ x.w[:2, :2].conj().T,
    "2v": lambda x: 2.0 * x.v,
    "v*": lambda x: x.v.conj().T,
    "w*": lambda x: x.w.conj().T,
    "pair S": lambda x: x.pair.matrix,
    **{name: lambda x, name=name: getattr(x, name) for name in ("k", "v", "w")},
    **{f"cp.{side}": lambda x, side=side: getattr(x.cp, side) for side in ("t", "u")},
}


def every_call_but_resolutions(x):
    """Each library call but canonical_resolutions, under a pair with t = u."""
    fam, cp, k, f, n = x.fam, x.cp, x.k, x.f, x.n
    frames.controlled_frame_bounds(fam, cp)
    frames.kgf_bounds(fam, cp, k)
    frames.atomic_check(fam, cp, k)
    frames.synthesis(fam, cp, frames.analysis(fam, cp, f), f_hint=f)
    frames.synthesis_matrix(fam, cp)
    resolution.inverse_commutation_check(fam, cp)
    resolution.bessel_resolution_frame_check(fam, cp.t, cp.u)
    p = pair(x)
    resolution.adjoint_check(p)
    resolution.coercive_pair_check(p)
    constructions.sum_transform(fam, fam, 0.5 * np.eye(n), 0.5 * np.eye(n), cp, k)
    constructions.direct_sum_frame(fam, cp, k, fam, cp, k)
    constructions.conjugate_transform(fam, cp, k, fam, cp, k, np.eye(n), 2.0 * np.eye(n))


def controls(x):
    """ControlPair.scalars, the zero control (refused), and (2 I, v)."""
    ControlPair.scalars(5, 3.0 - 4.0j, 2.0)
    try:
        ControlPair(np.zeros((2, 2)), np.eye(2))
    except NotInvertible:
        pass
    return ControlPair(2.0 * np.eye(x.n), x.v)


def spectrum(x):
    """x.spec: a new Spectrum of x's F."""
    x.spec = Spectrum(x.fam.operator)
    return x.spec


def readings(x, spec, extremes_first):
    if extremes_first:
        spec.extremes
    spec.whiten(x.k), spec.inverse, spec.pinv, spec.psd
    return spec.extremes


def split_matrices(x):
    """opnorm of two diagonal matrices (3 x 3 and 256 x 256), and of one with
    blocks k[:3, :3], 0.25 and w[:2, :2]."""
    split = np.zeros((6, 6), dtype=complex)
    split[:3, :3], split[3, 3], split[4:, 4:] = x.k[:3, :3], 0.25, x.w[:2, :2]
    diagonals = np.diag([0.5, -3.0 + 4.0j, 2.0]), np.diag(np.linspace(1.0, 2.0, 256) + 0j)
    return [linalg.opnorm(a) for a in (*diagonals, split)]


def direct_sum_spectrum(x):
    """The spectrum of F of x's direct sum with itself, its eigenpairs made."""
    x.spec = constructions.direct_sum_frame(x.fam, x.cp, x.k, x.fam, x.cp, x.k).family_out.spectrum
    return x.spec.eigenpairs


def load_and_perturb(x):
    """`gfusion thm perturb --lambda1 0.5 --lambda2 0` once its files are
    loaded: the control pair's gate, the pair operator, the check."""
    x.cp = ControlPair(x.cp.t, x.cp.u)
    return resolution.perturbation_check(pair(x), 0.5, 0.0)


def perturbation(x, *lambda2s):
    return [resolution.perturbation_check(x.pair, 0.05, lam, 2.0, 2.0, trials=10, seed=3)
            for lam in lambda2s]


CALLS = {
    "controlled_frame_bounds": lambda x: frames.controlled_frame_bounds(x.fam, x.cp),
    "frame bounds, analysis": lambda x: (
        frames.controlled_frame_bounds(x.fam, x.cp), frames.analysis(x.fam, x.cp, x.f)),
    "atomic_check": lambda x: frames.atomic_check(x.fam, x.cp, x.k),
    "atomic, its map twice": lambda x: (
        (rep := frames.atomic_check(x.fam, x.cp, x.k)).coefficient_map is rep.coefficient_map),
    "atomic_check, analysis": lambda x: (
        frames.atomic_check(x.fam, x.cp, x.k), frames.analysis(x.fam, x.cp, x.f)),
    "atomic, thm 4.1": lambda x: (
        frames.atomic_check(x.fam, x.cp, x.k), resolution.inverse_commutation_check(x.fam, x.cp)),
    "FrameEvaluation.norm": lambda x: evaluation(x).norm,
    "synthesis_matrix": lambda x: frames.synthesis_matrix(x.fam, x.cp),
    "thin_synthesis": lambda x: evaluation(x).thin_synthesis,
    "every call but resolutions": every_call_but_resolutions,
    "inverse_commutation_check": lambda x: resolution.inverse_commutation_check(x.fam, x.cp),
    "canonical_resolutions": lambda x: resolution.canonical_resolutions(x.fam, x.cp),
    "bessel_resolution_frame_check": lambda x: resolution.bessel_resolution_frame_check(
        x.fam, x.cp.t, x.cp.u),
    "pair_frame_operator": lambda x: setattr(x, "pair", pair(x)),
    "pair_frame_operator, adjoint_check": lambda x: resolution.adjoint_check(pair(x)),
    "coercive_pair_check, new pair": lambda x: resolution.coercive_pair_check(pair(x)),
    "coercive_pair_check": lambda x: resolution.coercive_pair_check(x.pair),
    "swapped": lambda x: resolution.swapped(x.pair),
    "perturbation_check, lambda2 = +-0": lambda x: perturbation(x, 0.0, -0.0),
    "perturbation_check, lambda2 = 0.5": lambda x: perturbation(x, 0.5),
    "thm perturb, cp loaded": load_and_perturb,
    "verify_fourier": lambda x: verify_fourier(FourierParams(6, 2, 0.5, 0.5), trials=100, seed=4),
    "direct_sum_frame": lambda x: constructions.direct_sum_frame(
        x.fam, x.cp, x.k, x.fam, x.cp, x.k),
    "direct_sum_frame, two pairs": lambda x: constructions.direct_sum_frame(
        x.fam, x.cp, x.k, x.fam, x.other, x.k),
    "direct_sum_frame, cp loaded": lambda x: constructions.direct_sum_frame(
        x.fam, ControlPair(x.cp.t, x.cp.u), x.k, x.fam, ControlPair(x.cp.t, x.cp.u), x.k),
    "conjugate_transform": lambda x: constructions.conjugate_transform(
        x.fam, x.cp, x.k, x.fam, x.cp, x.k, x.w, x.v),
    "sum_transform, r = I": lambda x: constructions.sum_transform(
        x.fam, x.fam_g, np.eye(x.n) / 2, np.eye(x.n) / 2, x.cp, x.k),
    "sum_transform, r = I, itself": lambda x: constructions.sum_transform(
        x.fam, x.fam, np.eye(x.n) / 2, np.eye(x.n) / 2, x.cp, x.k),
    "sum_transform, dense r": lambda x: constructions.sum_transform(
        x.fam, x.fam_g, x.v, np.eye(x.n) / 2, x.cp, x.k),
    "direct sum's Spectrum.eigenpairs": direct_sum_spectrum,
    "Spectrum.whiten, pinv": lambda x: (
        x.spec.whiten(complex_gaussian(x.rng, 2 * x.n, 3)), x.spec.pinv),
    "Spectrum(F).extremes": lambda x: spectrum(x).extremes,
    "Spectrum(F): extremes first": lambda x: readings(x, spectrum(x), True),
    SPECTRUM: lambda x: readings(x, spectrum(x), False),
    "Spectrum(F): scaled copies": lambda x: readings(
        x, x.spec.scaled(2.5).scaled(2.0), True),
    "opnorm": lambda x: linalg.opnorm(x.a),
    "opnorm of three shapes": lambda x: [linalg.opnorm(complex_gaussian(x.rng, *shape))
                                         for shape in ((6, 6), (3, 7), (7, 3))],
    "opnorm of diagonal and split matrices": split_matrices,
    "commutator_residual, held norms": lambda x: [
        linalg.commutator_residual(x.k, x.w, *norms)
        for norms in ((1.0, 2.0), (1.0, None), (None, 2.0), (2.0, 2.0))],
    "ControlPair(v, v), ControlPair(v, 2v)": lambda x: (ControlPair(x.v, x.v.copy()),
                                                      ControlPair(x.v, 2.0 * x.v)),
    "ControlPair.scalars, (0, I), (2 I, v)": controls,
    "ControlPair.direct_sum(cp, other)": lambda x: ControlPair.direct_sum(x.cp, x.other),
    "ControlPair.direct_sum of each pair": lambda x: [ControlPair.direct_sum(h, y)
                                                     for h, y in x.sums],
    "ControlPair.direct_sum(cp, cp)": lambda x: ControlPair.direct_sum(x.cp, x.cp),
    "ControlPair.scalars, identity": lambda x: (
        ControlPair.scalars(x.n, 2.0, 0.5), ControlPair.identity(x.n)),
    "frame_sum": lambda x: [  # of f, then of a 4-column block
        frames.frame_sum(x.fam, x.cp, f) for f in (x.f, x.k[:, :4])],
    "factors": lambda x: x.fam.factors,
    "sum_plan": lambda x: x.fam.sum_plan,
    "factor_sum": lambda x: frames.factor_sum(x.fam, x.fam, [1.0] * len(x.fam)),
}


# ------------------------------------------------------------ the table

P, DU, D = "scalar", "dense t = u", "dense"
ATOMIC_ICC = "atomic, thm 4.1"
ROWS = [
    # frames
    Row("controlled_frame_bounds", "random(5, 3)", "first", P, dict(eigvalsh=1),
        equal={"S": {}, "F": {"eigvalsh": 1}}),
    Row("controlled_frame_bounds", "random(4, 3)", "first", D, dict(eigvalsh=3, opnorm=2),
        equal={"S - S*": {"opnorm": 1}, "S": {"opnorm": 1}}),
    Row("frame bounds, analysis", "random(8, 4)", ATOMIC_ICC, P, {}),
    Row(ATOMIC_ICC, "random(8, 4)", "first", P, dict(eigh=5, eigvalsh=6, qr=4, opnorm=5),
        equal={"F": {"eigh": 1, "eigvalsh": 1}, "S": {}},
        shapes={"eigh": [(2, 2), (4, 4), (8, 8), (8, 8), (8, 8)]},  # F's, and one root per item
        holds=lambda r: r[0].is_atomic and r[1].certified),
    Row("atomic_check", "random(8, 4)", ATOMIC_ICC, P, dict(eigvalsh=4, opnorm=4),
        equal={"W": {"opnorm": 1}, "k": {"opnorm": 1}, "k - S": {"opnorm": 1}, "S": {}, "F": {}},
        holds=lambda r: r.coefficient_residual <= 1e-13),
    Row("inverse_commutation_check", "random(8, 4)", ATOMIC_ICC, P, dict(eigvalsh=1, opnorm=1),
        equal={"S": {}, "F": {}}, holds=lambda r: r.certified),
    Row("atomic_check", "random(5, 3)", "first", P,
        {"eigh": 4, "eigvalsh": 5, "qr": 3, "opnorm": 4, "gfusion.frames._expand": 0,
         "gfusion.frames._thin_gram": 1},
        equal={"k": {"opnorm": 1}, "k - S": {"opnorm": 1}}),
    # the family keeps its thin Gram T T* beside its roots: a later call under
    # another positive scalar pair forms none
    Row("atomic_check", "random(5, 3)", "atomic_check", P,
        {"eigvalsh": 4, "opnorm": 4, "gfusion.frames._thin_gram": 0},
        holds=lambda r: r.coefficient_residual <= 1e-13),
    Row("atomic, its map twice", "random(5, 3)", "first", P,
        {"eigh": 4, "eigvalsh": 5, "qr": 3, "opnorm": 4, "gfusion.frames._expand": 1},
        holds=lambda same: same),
    Row("atomic_check, analysis", "partition(32, 8)", "atomic_check", P,
        dict(eigvalsh=4, opnorm=4), holds=lambda r: r[0].is_atomic),
    Row("synthesis_matrix", "partition(32, 8)", "first", DU, dict(eigh=8, qr=8)),
    Row("synthesis_matrix", "items of dims 0, 2, 3, 6", "first", DU, dict(eigh=4, qr=4),
        shapes={"eigh": [(0, 0), (2, 2), (3, 3), (6, 6)]}),
    Row("thin_synthesis", "scaled partition(6, 3)", "first", "c I, diagonal", dict(eigh=3, qr=3)),
    Row("thin_synthesis", "scaled partition(6, 3)", "first", "diagonal, c I", dict(eigh=3, qr=3)),
    Row("FrameEvaluation.norm", "random(5, 3)", "first", P, dict(eigvalsh=1)),
    Row("FrameEvaluation.norm", "random(5, 3)", "first", "other scalar", dict(eigvalsh=1)),
    Row("every call but resolutions", "random(5, 3)", "first", DU,
        {"svd": 9, "eigh": 24, "eigvalsh": 90, "qr": 18, "inv": 1, "opnorm": 71,
         "gfusion.frames.cross_terms": 0}),
    # under a self-adjoint pair the left terms are the right terms' adjoints,
    # and their sum is not measured again; under a mixed pair it is, and the
    # left terms are cross terms of their own, under (t S^-*, u)
    Row("canonical_resolutions", "random(5, 3)", "first", DU,
        {"eigvalsh": 4, "inv": 1, "opnorm": 3, "gfusion.frames.cross_terms": 1}),
    Row("canonical_resolutions", "random(5, 3)", "canonical_resolutions", P,
        dict(eigvalsh=1, opnorm=1), equal={"S": {}, "F": {}}, holds=lambda r: r.converged),
    Row("canonical_resolutions", "scaled partition(6, 3)", "first", "c I, diagonal",
        {"opnorm": 2, "gfusion.frames.cross_terms": 2}, holds=lambda r: r.converged),
    # resolution
    Row("inverse_commutation_check", "random(5, 3)", "first", DU,
        dict(eigvalsh=8, inv=1, opnorm=6), equal={"S^-1": {"opnorm": 1}, "cp.t": {}}),
    Row("inverse_commutation_check", "random(5, 3)", "first", P,
        dict(eigh=1, eigvalsh=2, opnorm=1), equal={"S^-1": {}},
        holds=lambda r: r.commutation_residual == 0.0 and r.certified),
    Row("swapped", "random(4, 3)", "pair_frame_operator", D, {}),
    Row("coercive_pair_check", "random(4, 3)", "pair_frame_operator", D,
        {"eigvalsh": 5, "opnorm": 2, "gfusion.resolution.pair_frame_operator": 0}),
    Row("pair_frame_operator, adjoint_check", "random(4, 3)", "first", D,
        dict(svd=2, eigvalsh=2, opnorm=2)),
    Row("bessel_resolution_frame_check", "random(4, 3)", "first", D,
        dict(svd=2, eigvalsh=5, opnorm=3)),
    Row("coercive_pair_check, new pair", "random(4, 3)", "first", D,
        dict(svd=2, eigvalsh=5, opnorm=2)),
    Row("perturbation_check, lambda2 = +-0", "pair near I(5)", "first", "-",
        dict(eigvalsh=4, opnorm=2), equal={"pair S": {}}),
    Row("perturbation_check, lambda2 = 0.5", "pair near I(5)", "first", "-",
        dict(svd=1, eigvalsh=2, opnorm=1), equal={"pair S": {"svd": 1}}),
    Row("thm perturb, cp loaded", "Parseval(4, 2)", "first", "identity",
        {"opnorm": 1, "gfusion.frames.FrameEvaluation.__init__": 2}),
    Row("thm perturb, cp loaded", "Parseval(4, 2)", "first", "I, I + E",
        dict(svd=2, eigvalsh=2, opnorm=1), equal={"cp.t": {}, "cp.u": {"svd": 2}}),
    Row("verify_fourier", "Fourier(3, 1)", "first", "-",
        {"opnorm": 1, "gfusion.fourier.build_fourier_example": 1}),
    # constructions
    Row("direct_sum_frame, cp loaded", "generic 24/6", "first", "own",
        dict(svd=4, eigvalsh=14, opnorm=7), shapes={"svd": [(24, 24)] * 4}),
    Row("direct_sum_frame, cp loaded", "near-identity-pair 24/6", "first", "own",
        dict(opnorm=4)),
    # its 128 x 128 Gram blocks lie above LANCZOS_GATE: six Lanczos runs read
    # their tridiagonals, three eigvalsh see the 128 x 128 spectra
    Row("direct_sum_frame", "partition(128, 4)", "first", P, dict(eigh=3, eigvalsh=73, opnorm=4),
        largest={"eigh": 128, "eigvalsh": 128}),
    Row("direct_sum_frame, two pairs", "random(4, 3)", "first", DU,
        dict(eigh=4, eigvalsh=18, opnorm=10), equal={"t (+) t'": {}}),
    # S_out's diagonal blocks are S and S' up to rounding
    Row("direct_sum_frame, two pairs", "random(4, 3)", "first", P,
        dict(eigh=3, eigvalsh=9, opnorm=4), largest={"eigh": 4, "eigvalsh": 4},
        equal={"S": {"eigh": 1, "eigvalsh": 1}, "S'": {"eigh": 1, "eigvalsh": 1}, "S (+) S'": {}}),
    Row("conjugate_transform", "random(4, 3)", "first", DU,
        dict(svd=5, eigh=3, eigvalsh=23, opnorm=19),
        equal={"cp.t": {}, "w": {"svd": 1}, "v": {"svd": 1}, "w*": {}, "v*": {}}),
    Row("sum_transform, r = I", "random(6, 7)", "first", P,
        {"eigh": 3, "eigvalsh": 20, "opnorm": 24, "gfusion.linalg.orth": 0}),
    Row("sum_transform, r = I", "random(6, 7)", "first", DU,
        {"eigh": 3, "eigvalsh": 32, "qr": 14, "opnorm": 37, "gfusion.linalg.orth": 0}),
    # a family with itself: the items' ||C_j|| are the family's own, kept
    # from the first call, so a later call takes one opnorm per item (the
    # shared cross norm under number sides), three for the kgf readings, and
    # one eigh for the new output family's whitening
    Row("sum_transform, r = I, itself", "random(6, 7)", "sum_transform, r = I, itself", P,
        {"eigh": 1, "eigvalsh": 10, "opnorm": 10}),
    Row("sum_transform, dense r", "random(6, 7)", "first", P,
        {"svd": 8, "eigh": 3, "eigvalsh": 22, "qr": 7, "opnorm": 26, "gfusion.linalg.orth": 7}),
    Row("sum_transform, dense r", "random(6, 7)", "first", DU,
        {"svd": 8, "eigh": 3, "eigvalsh": 36, "qr": 21, "opnorm": 41, "gfusion.linalg.orth": 7},
        equal={"cp.t": {}, "r*": {}}),
    Row("sum_transform, dense r", "random(6, 7)", "first", "other scalar",
        {"svd": 8, "eigh": 3, "eigvalsh": 28, "qr": 7, "opnorm": 29, "gfusion.linalg.orth": 7},
        equal={"conj(c) r B_j": {}}),
    Row("Spectrum.whiten, pinv", "partition(16, 4)", "direct sum's Spectrum.eigenpairs", P,
        {"numpy.matmul": 4}, shapes={"numpy.matmul": [(16, 16)] * 4}),
    # linalg; the first row shows that the recorder hooks at all
    Row("Spectrum(F).extremes", "random(5, 3)", "first", "-", dict(eigvalsh=1)),
    Row("Spectrum(F): extremes first", "random(5, 3)", "first", "-",
        dict(eigh=1, eigvalsh=1)),
    Row(SPECTRUM, "random(5, 3)", "first", "-", dict(eigh=1, eigvalsh=1)),
    Row("Spectrum(F): scaled copies", "random(5, 3)", SPECTRUM, "-", {}),
    # a Gram block above LANCZOS_GATE: Lanczos, whose eigvalsh calls see only
    # its tridiagonal, read every third step, and one Cholesky that
    # certifies the Ritz value; below the gate one full eigvalsh
    Row("opnorm", "dense 256 x 256", "first", "-",
        {"opnorm": 1, "eigvalsh": 16, "numpy.linalg.cholesky": 1},
        largest={"eigvalsh": linalg.LANCZOS_CAP}),
    Row("opnorm", "dense 128 x 128", "first", "-",
        {"opnorm": 1, "eigvalsh": 14, "numpy.linalg.cholesky": 1},
        largest={"eigvalsh": linalg.LANCZOS_CAP}, shapes={"numpy.linalg.cholesky": [(128, 128)]}),
    Row("opnorm", "dense 96 x 96", "first", "-", {"opnorm": 1, "eigvalsh": 1},
        shapes={"eigvalsh": [(96, 96)], "numpy.linalg.cholesky": []}),
    Row("opnorm of three shapes", "random(5, 3)", "first", "-", dict(eigvalsh=3, opnorm=3)),
    Row("opnorm of diagonal and split matrices", "random(5, 3)", "first", "-",
        dict(eigvalsh=2, opnorm=3), equal={"k3 k3*": {"eigvalsh": 1}, "w2 w2*": {"eigvalsh": 1}},
        shapes={"eigvalsh": [(2, 2), (3, 3)]}),
    Row("commutator_residual, held norms", "random(5, 3)", "first", "-",
        dict(eigvalsh=6, opnorm=6), equal={"k": {"opnorm": 1}, "w": {"opnorm": 1}}),
    Row("ControlPair(v, v), ControlPair(v, 2v)", "random(5, 3)", "first", "-", dict(svd=3),
        equal={"v": {"svd": 2}, "2v": {"svd": 1}}),
    Row("ControlPair.scalars, (0, I), (2 I, v)", "random(5, 3)", "first", "-", dict(svd=1),
        equal={"v": {"svd": 1}}),
    Row("ControlPair.direct_sum(cp, other)", "random(5, 3)", "first", D, {}),
    Row("ControlPair.direct_sum of each pair", "pairs to sum", "first", "-",
        {"gfusion.frames.scalar_multiple": 0, "numpy.array_equal": 0}),
    # a side of the sum is a block-diagonal operator only where either
    # block's is an operator
    *(Row("ControlPair.direct_sum(cp, cp)", "random(5, 3)", "first", kind,
          {"gfusion.linalg.dsum_op": n})
      for kind, n in ((P, 0), ("scalar t = u", 0), ("c I, diagonal", 1), ("diagonal, c I", 1),
                      (DU, 1), (D, 2))),
    Row("ControlPair.scalars, identity", "random(5, 3)", "first", "-",
        {"gfusion.linalg.scalar_multiple": 0, "numpy.array_equal": 0, "numpy.eye": 0,
         "numpy.zeros": 0}),
    # sampling
    *(Row("frame_sum", f"random(6, {m})", "first", D, {"numpy.vecdot": 2}) for m in (1, 7, 40)),
    *(Row("factor_sum", f"Fourier({nmax}, 1)", "factors", "-", {"numpy.matmul": n + 1},
          shapes={"numpy.matmul": [(n, 1)] * n + [(n, n)]}) for nmax, n in ((3, 7), (16, 33))),
    Row("frame_sum", "scaled partition(7, 7)", "sum_plan", P, {"numpy.matmul": 4},
        shapes={"numpy.matmul": [(7, 7), (7, 7), (7, 7, 1), (7, 7, 1)]}),
    Row("frame_sum", "Fourier(4, 3)", "sum_plan", P, {"numpy.matmul": 8},
        shapes={"numpy.matmul": [(3, 1, 1), (3, 1, 1), (5, 1, 1), (5, 1, 1), (9, 3), (9, 3),
                                 (11, 9), (11, 9)]}),
    Row("frame_sum", "items alone", "sum_plan", P, {"numpy.matmul": 2},
        shapes={"numpy.matmul": [(18, 7)] * 2}),
    Row("frame_sum", "items alone beside runs", "frame_sum", D, {"numpy.matmul": 12},
        shapes={"numpy.matmul": sorted([(2, 3, 2), (3, 2, 2), (6, 6), (6, 6), (7, 6), (10, 6)]
                                       * 2)}),
]
