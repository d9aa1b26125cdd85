"""The mutation table, replayed by `scripts/mutate.py`: one row per fault
that the tests must catch.  A row names a file of the checkout, a text that
occurs exactly once in it (`test_mutations.py`), its replacement, and the
tests (files, or node ids) of which at least one must then fail.  A `route`
row forces a selector of `routes.ROUTES` to its general route in the source,
so that the cost rows of `budgets.py` that guard a route are guarded too.
"""

from collections import namedtuple

Mutation = namedtuple("Mutation", "id file text replacement kills")

LINALG, FRAMES = "src/gfusion/linalg.py", "src/gfusion/frames.py"
RESOLUTION, CONSTRUCTIONS = "src/gfusion/resolution.py", "src/gfusion/constructions.py"
TOLERANCES = "src/gfusion/tolerances.py"
SERIALIZE, CLI = "src/gfusion/serialize.py", "src/gfusion/cli.py"
REPORT_DIFF = "scripts/report_diff.py"
WRITE = '_write_report({"command": "-".join(words), **serialize.fields(rep)}, args.out)'


def tests(*names):
    """Test files by the stem after `test_`, or node ids as `stem::name`."""
    return tuple("tests/test_{}.py{}{}".format(*name.partition("::")) for name in names)


# the boundary tests of the identity residuals that TOL_FACTOR decides
AT_TOL_FACTOR = tests("resolution::TestAtTolFactor", "constructions::TestAtTolFactor")


def route(name, file, text, replacement):
    return Mutation(f"route: {name}", file, text, replacement, tests("budgets"))


def inverted(words):
    return Mutation(f"cli: the {' '.join(words)} verdict inverted", CLI,
                    "ok = getattr(rep, row.verdict)",
                    f"ok = getattr(rep, row.verdict) != (words == {words!r})",
                    tests("cli::test_failed_verdict_writes_report",
                          "cli::test_mutated_input_exits_with_a_verdict_or_2"))


M = Mutation
MUTATIONS = [
    # the family's algebra
    M("cross_terms drops a conjugate", FRAMES, "(c_l.conj().T @ c_r)", "(c_l.T @ c_r)",
      tests("frames")),
    M("controlled swaps t and u", FRAMES, "product(product(adjoint(t), self.operator), u)",
      "product(product(adjoint(u), self.operator), t)", tests("sampling")),
    M("F weighs by v_j", FRAMES, "factor_sum(self, self, [w * w for w in self.weights])",
      "factor_sum(self, self, list(self.weights))", tests("frames")),
    M("resolution terms weighed by v_j", FRAMES, "[w * w for w in self.fam.weights]",
      "list(self.fam.weights)", tests("resolution")),
    M("frame_sum weighs by v_j", FRAMES, "np.square(self.weights)", "np.array(self.weights)",
      tests("sampling")),
    M("frame_sum's bases unconjugated", FRAMES, "np.matmul(r, b.conj().T,", "np.matmul(r, b.T,",
      tests("sampling")),
    M("frame_sum's R_j transposed", FRAMES, 'np.linalg.qr(c, mode="r")',
      'np.linalg.qr(c, mode="r").T', tests("sampling")),
    # the values stay right: only the cost row of the first frame_sum sees it
    M("frame_sum's QR compression dropped", FRAMES,
      'c if c.shape[0] <= c.shape[1] else np.linalg.qr(c, mode="r")', "c", tests("budgets")),
    M("frame_sum's sides swapped", FRAMES, "np.vecdot(out[:, :k], out[:, k:], axis=0)",
      "np.vecdot(out[:, k:], out[:, :k], axis=0)", tests("sampling")),
    M("frame_sum's length check dropped", FRAMES, "if f.shape[0] != fam.ambient_dim:",
      "if False:", tests("sampling")),
    M("perturbation slack of the last chunk only", RESOLUTION,
      "worst = min(worst, float(slack.min()))", "worst = float(slack.min())", tests("sampling")),
    M("sample stream reordered", LINALG, "x.real, x.imag = z[:, :n], z[:, n:]",
      "x.real, x.imag = z[:, n:], z[:, :n]",
      tests("sampling::test_unit_columns_are_the_old_stream_bit_for_bit")),
    # spectra, roots and gates
    M("scaled pinv times c", LINALG, "pinv_h if self.c == 1 else pinv_h / self.c",
      "pinv_h if self.c == 1 else pinv_h * self.c", tests("frames", "routes")),
    M("inverse returns pinv", LINALG,
      "return self._inverse_on(np.ones(vals.shape, dtype=bool), vals)", "return self.pinv",
      tests("frames")),
    M("whiten ignores the null space", LINALG, "if np.linalg.norm(y[low]) > tol.TOL_RANK",
      "if 0 > tol.TOL_RANK", tests("frames")),
    M("kgf's indefinite quotient uncapped", FRAMES,
      "min(gen_rayleigh_extremes(self.hermitian, k @ k.conj().T).lambda_min, 0.0)",
      "gen_rayleigh_extremes(self.hermitian, k @ k.conj().T).lambda_min", tests("frames")),
    M("positive_sqrt's dust unclamped", LINALG, "    vals = np.clip(vals, 0.0, None)\n", "",
      tests("gates")),
    M("hermitian_extremes ungated", LINALG, "return Spectrum(require_hermitian(a)).extremes",
      "return Spectrum(as_operator(a)).extremes", tests("linalg")),
    M("factored_sqrt's bracket drops sqrt(n)", LINALG, "skew * math.sqrt(n) / max(size, 1e-300)",
      "skew / max(size, 1e-300)", tests("gates")),
    M("factored_sqrt's PSD gate drops the off-range block", LINALG, "if low - e_fro / 2 >=",
      "if low >=", tests("gates")),
    M("roots' Gram unscaled", FRAMES, "c, scale = range_scaled(c)", "scale = 1.0", tests("gates")),
    M("in_range unscaled", FRAMES, "(coeffs, ref), _ = range_scaled(np.stack([coeffs, ref]))",
      "coeffs, ref = np.stack([coeffs, ref])", tests("gates")),
    M("certifies always", LINALG, "return np.linalg.cholesky(h) is not None", "return True",
      tests("linalg")),
    M("Lanczos stops at 1e-6", LINALG, "LANCZOS_STOP = 16 * np.finfo(float).eps",
      "LANCZOS_STOP = 1e-6", tests("linalg")),
    M("times_square squares by pow", LINALG, "x = float(x)\n    sq = x * x",
      "x = float(x)\n    sq = x**2 if abs(x) < 2.0**512 else math.inf", tests("linalg")),
    # resolutions and the theorems
    M("left terms under S^-1 for S^-*", RESOLUTION, "ev.terms(product(t, adjoint(s_inv)), u)",
      "ev.terms(product(t, s_inv), u)", tests("resolution")),
    M("self-adjoint always", RESOLUTION, "return ev.scale is not None or cp.u_side is cp.t_side",
      "return True", tests("resolution", "routes")),
    M("thm 4.1's scalar bounds swapped", RESOLUTION, "lower, upper = 1.0 / b, 1.0 / a",
      "lower, upper = 1.0 / a, 1.0 / b", tests("resolution", "routes")),
    M("atomic's scalar Gram unscaled", FRAMES, "c * (gram @ x))", "(gram @ x))",
      tests("frames", "routes")),
    # the constructions
    M("conjugate's wv unadjointed", CONSTRUCTIONS, "c @ (b.conj().T @ wv.conj().T)",
      "c @ (b.conj().T @ wv)", tests("sampling::test_conjugate_transform_matches_projector_form",
                                     "acceptance::test_criterion_6_direct_sum_and_conjugation")),
    M("sum_transform's C_L + C_L", CONSTRUCTIONS, "(cL + cG) @ r_b.conj().T",
      "(cL + cL) @ r_b.conj().T", tests("constructions")),
    M("sum_transform's dimension check dropped", CONSTRUCTIONS, "if famL.ambient_dim != famG.",
      "if False and famG.", tests("constructions")),
    M("same-subspace threshold x10", CONSTRUCTIONS, "opnorm(d) > tol.TOL_SAME_SUBSPACE",
      "opnorm(d) > 10 * tol.TOL_SAME_SUBSPACE", tests("gates")),
    M("sum_transform reads famL's norms for famG", CONSTRUCTIONS,
      "zip(famL.factor_norms, famGL.factor_norms)", "zip(famL.factor_norms, famL.factor_norms)",
      tests("budgets", "routes")),
    M("sum_transform's cross norms shared under operator sides", CONSTRUCTIONS,
      "norm2 = norm1 if cp.number_sides else", "norm2 = norm1 if True else",
      tests("sampling", "budgets")),
    M("sum_transform's cross sides swap t and u", CONSTRUCTIONS,
      "for c in (cp.t_side, cp.u_side)", "for c in (cp.u_side, cp.t_side)", tests("sampling")),
    # TOL_FACTOR off its documented value, either way
    M("TOL_FACTOR x10", TOLERANCES, "TOL_FACTOR = 1e-8", "TOL_FACTOR = 1e-7", AT_TOL_FACTOR),
    M("TOL_FACTOR /10", TOLERANCES, "TOL_FACTOR = 1e-8", "TOL_FACTOR = 1e-9", AT_TOL_FACTOR),
    # reports and the CLI
    M("NaN written as null", SERIALIZE, 'yield "NaN" if value != value',
      'yield "null" if value != value', tests("serialize")),
    M("decimal entries of any JSON type", SERIALIZE,
      " and {int, float}.issuperset(map(type, value))", "", tests("serialize")),
    M("the writer drops -0.0", SERIALIZE, "part.astype(BINARY64, copy=False)",
      "(part + 0.0).astype(BINARY64)", tests("serialize")),
    M("a number side written as c * eye", FRAMES, "np.fill_diagonal(a, side)",
      "a = side * np.eye(n, dtype=complex)", tests("frames")),
    M("the report file built whole", CLI, "fh.writelines(serialize.chunks(report))",
      "fh.write(serialize.dumps(report))", tests("serialize")),
    M("compare_reports reads a move to nan as none", REPORT_DIFF,
      "None if np.isnan(d).any() else float(d.max())", "float(d.max())", tests("routes")),
    M("compare_reports leaves the structure row out of scaled", REPORT_DIFF,
      "if scaled is not None:", 'if scaled is not None and "(structure)" not in key:',
      tests("routes::test_a_reshaped_report_is_one_structure_row")),
    M("run without its flushes", CLI, "    sys.stdout.flush()\n    sys.stderr.flush()\n", "",
      tests("cli::test_process_writes_the_whole_report")),
    M("run lets SystemExit out", CLI, "except SystemExit as exc:",
      "except KeyboardInterrupt as exc:", tests("cli::test_run_exits_with_the_code_of_main")),
    M("cli: atomic's row holds atomic_check itself", CLI, "k: lib.atomic_check(f, c, k)",
      'k, call=sys.modules[__package__ + ".frames"].atomic_check: call(f, c, k)',
      tests("cli::test_library_function_called_once")),
    inverted(("check-frame",)),
    inverted(("thm", "4.2")),
    M("cli: a false construction writes no report", CLI, WRITE,
      f'if ok or row.module != "constructions":\n                {WRITE}',
      tests("cli::test_failed_verdict_writes_report")),
    M("cli: a false atomic writes no report", CLI, WRITE,
      f'if not ok and words == ("atomic",):\n                raise GFusionError('
      f'"item 0: cross operator is not Hermitian PSD")\n            {WRITE}',
      tests("cli::test_failed_verdict_writes_report")),
    # each route of routes.ROUTES forced to its general route
    route("positive scalar pair", FRAMES,
          "return c.real if c and c.imag == 0 and c.real > 0 else None", "return None"),
    route("diagonal blocks", LINALG, "if n < 2 or a[0, -1] != 0 or a[-1, 0] != 0:", "if True:"),
    route("Lanczos on every block", LINALG, "LANCZOS_GATE = 112", "LANCZOS_GATE = 0"),
    route("Lanczos on no block", LINALG, "LANCZOS_GATE = 112", "LANCZOS_GATE = math.inf"),
    route("one-sum resolutions", RESOLUTION,
          "return ev.scale is not None or cp.u_side is cp.t_side", "return False"),
    route("scalar sum operator", CONSTRUCTIONS, "r = scalar_multiple(r) or r", "r = r"),
    route("number sides", FRAMES,
          "return isinstance(self.t_side, Number) and isinstance(self.u_side, Number)",
          "return False"),
    route("number control sides", FRAMES, "(c := scalar_multiple(a)) is None",
          "(c := None) is None"),
]
