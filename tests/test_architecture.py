"""The package's architecture rules, as one table of AST guards.

Each rule finds the sites of one pattern in the package source (or, for
`one_recorder`, in the tests) that break it; the rule holds when there are
none.  Where a rule has a self-check, its pattern must find exactly the
given lines of a snippet written to contain it, so that a rule that no
longer sees its pattern fails too.
"""

import ast
from pathlib import Path
from typing import Callable, NamedTuple

import pytest

import gfusion

PACKAGE = Path(gfusion.__file__).parent


def read(module):
    return (PACKAGE / module).read_text()


def modules(skip=None):
    """The package's module files, but `skip`."""
    return [path for path in sorted(PACKAGE.glob("*.py")) if path.name != skip]


def sites(find, skip=None):
    """`module:line` of each line `find(source)` reports in a module but `skip`."""
    return [f"{path.name}:{line}" for path in modules(skip) for line in find(path.read_text())]


# ------------------------------------------------------------ patterns


def call_lines(source, names, where=lambda call: True):
    """Line numbers of the calls to a function with a name in `names` for
    which `where(call)` holds."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) in names
        and where(node)
    )


def calls(*names, where=lambda call: True):
    """The pattern `call_lines` of the calls to `names` for which `where` holds."""
    return lambda source: call_lines(source, set(names), where)


def spectral(call):
    """norm(x, 2) or norm(x, ord=2): the spectral norm, an SVD."""
    ords = call.args[1:2] + [k.value for k in call.keywords if k.arg == "ord"]
    return any(isinstance(o, ast.Constant) and o.value == 2 for o in ords)


# The functions that may take an SVD: the gates' singular extremes, and the
# bases and pseudoinverses of possibly rank-deficient matrices.
SVD_HOMES = ("singular_extremes", "orth", "pinv")


def stray_norms(source):
    """Line numbers of the spectral norms norm(x, 2), and of the svd calls
    outside the module-level functions named in SVD_HOMES."""
    homes = [
        (node.lineno, node.end_lineno) for node in ast.parse(source).body
        if isinstance(node, ast.FunctionDef) and node.name in SVD_HOMES
    ]
    svds = [line for line in call_lines(source, {"svd"})
            if not any(lo <= line <= hi for lo, hi in homes)]
    return sorted(call_lines(source, {"norm"}, spectral) + svds)


def operator_products(source):
    """Line numbers of the products `x @ y` and `matmul(x, y)` whose left
    operand names an item operator (an identifier that starts with "lam")."""

    def left(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult):
            return node.left
        if (isinstance(node, ast.Call) and node.args
                and getattr(node.func, "id", getattr(node.func, "attr", None)) == "matmul"):
            return node.args[0]
        return None

    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if (operand := left(node)) is not None
        and any(getattr(n, "id", getattr(n, "attr", "")).startswith("lam")
                for n in ast.walk(operand))
    )


def literal_thresholds(source):
    """Line numbers of the float literals 0 < |x| < 1e-3 inside comparisons,
    except the zero-division guard in `max(..., 1e-300)`."""
    tree = ast.parse(source)
    guards = {
        id(arg)
        for call in ast.walk(tree)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "max"
        for arg in call.args
        if isinstance(arg, ast.Constant) and arg.value == 1e-300
    }
    found = {}
    for cmp in ast.walk(tree):
        if not isinstance(cmp, ast.Compare):
            continue
        for node in ast.walk(cmp):
            if (
                isinstance(node, ast.Constant)
                and isinstance(node.value, float)
                and 0 < abs(node.value) < 1e-3
                and id(node) not in guards
            ):
                found[id(node)] = node.lineno
    return sorted(found.values())


def cli_verdict_sites(source):
    """Line numbers where CLI source reads a threshold (`TOL_*`, `COND_MAX`,
    by attribute or imported name) or reaches for a norm or decomposition
    (`opnorm`, `numpy.linalg`, any `linalg` import)."""
    def banned(name):
        return name.startswith("TOL_") or name in ("COND_MAX", "opnorm") or (
            "linalg" in name.split(".")
        )

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or "", *(alias.name for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        if any(banned(name) for name in names):
            found.add(node.lineno)
    return sorted(found)


def bad_input_sites(source):
    """Line numbers of `except Exception` (alone or in a tuple), a bare
    `except:`, and `raise ValueError`: bad input is an InvalidParameters."""
    def names(node):
        return [n.id for n in ast.walk(node) if isinstance(n, ast.Name)] if node else []

    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler) and (
            node.type is None or {"Exception", "BaseException"} & set(names(node.type))
        ):
            found.add(node.lineno)
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "ValueError":
                found.add(node.lineno)
    return sorted(found)


# The gates that raise on bad input instead of deciding a verdict.
INPUT_GATES = {"TOL_SAME_SUBSPACE", "TOL_UNIT_PRODUCT"}
VERDICT_MODULES = ("frames.py", "resolution.py", "constructions.py", "fourier.py")


def tolerance_comparisons(source):
    """Line numbers where a comparison reads a `tol.` attribute, other than
    an input gate's tolerance: a verdict compares through `tol.claim`."""
    return sorted({
        node.lineno
        for cmp in ast.walk(ast.parse(source))
        if isinstance(cmp, ast.Compare)
        for node in ast.walk(cmp)
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "tol"
        and node.attr not in INPUT_GATES
    })


def process_calls(source):
    """Line numbers of the calls to a function of `gc` (`gc.freeze()`) and
    to `os._exit`, which act on the whole process."""
    def acts(func):
        return (getattr(getattr(func, "value", None), "id", None) == "gc"
                or getattr(func, "attr", getattr(func, "id", None)) == "_exit")

    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call) and acts(node.func))


# ------------------------------------------------------------ the rules


def method(module, cls, name):
    """The AST node of method `name` of class `cls` in `module`."""
    body = next(
        node for node in ast.parse(read(module)).body
        if isinstance(node, ast.ClassDef) and node.name == cls
    ).body
    return next(node for node in body if isinstance(node, ast.FunctionDef) and node.name == name)


def outside(module, node, found):
    """The `module:line` sites of `found` that do not lie inside `node` of `module`."""
    return [
        site for site in found
        if not (site.split(":")[0] == module
                and node.lineno <= int(site.split(":")[1]) <= node.end_lineno)
    ]


def some_site(found, what):
    """No sites when `found` holds a site; else a note that there is none."""
    return [] if found else [f"no {what}"]


def one_site(found, what):
    """No sites when `found` holds exactly one site; else `found`, or a note
    that there is none."""
    return [] if len(found) == 1 else found or [f"no {what}"]


def item_factor_sites():
    factor_runs = method("frames.py", "FrameFamily", "factor_runs")
    found = sites(operator_products)
    return (
        some_site(found, "item operator product")
        + outside("frames.py", factor_runs, found)
        + [path.name for path in modules() if "item_factors" in path.read_text()]
    )


def inverse_sites():
    found = sites(calls("inv"))
    return one_site(found, "inv call") + outside(
        "frames.py", method("frames.py", "FrameEvaluation", "inverse"), found
    )


def root_sites():
    found = sites(calls("factored_sqrt", "positive_sqrt"), skip="linalg.py")
    return one_site(found, "factored_sqrt call") + outside(
        "frames.py", function("frames.py", "thin_roots"), found
    )


def function(module, name):
    """The AST node of module-level function `name` of `module`."""
    return next(
        node for node in ast.parse(read(module)).body
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def process_sites():
    found = sites(process_calls)
    return some_site(found, "gc or os._exit call") + outside(
        "cli.py", function("cli.py", "run"), found)


def stack_sites():
    terms = method("frames.py", "FrameEvaluation", "terms")
    found = sites(calls("cross_terms"))
    return some_site(found, "cross_terms call") + outside(
        "frames.py", function("frames.py", "item_cross_operator"),
        outside("frames.py", terms, found),
    )


# What frame_sum must not read: it is the literal sum over the items, a
# second computation beside F, S and their decompositions.
EVALUATED_FORMS = {"operator", "spectrum", "roots", "controlled", "FrameEvaluation"}


def names_read(names):
    """The pattern: line numbers of the names and attributes in `names`."""
    return lambda source: sorted({
        node.lineno for node in ast.walk(ast.parse(source))
        if getattr(node, "id", getattr(node, "attr", None)) in names
    })


def literal_sum_sites():
    found = sites(names_read(EVALUATED_FORMS))
    rest = outside("frames.py", function("frames.py", "frame_sum"), outside(
        "frames.py", method("frames.py", "FrameFamily", "sum_plan"), found))
    return [site for site in found if site not in rest]


def cholesky_sites():
    found = sites(calls("cholesky"))
    return one_site(found, "cholesky call") + outside(
        "linalg.py", function("linalg.py", "certifies"), found)


def eigh_sites():
    return one_site([f"linalg.py:{line}" for line in call_lines(read("linalg.py"), {"eigh"})],
                    "eigh call")


TESTS = Path(__file__).parent

# Patches that record calls for another purpose than a count: the refcount
# test keeps a weak reference to each family made.
TRACKING = {("FrameFamily", "__init__")}


def counting_patches(source):
    """Line numbers of the patches (`monkeypatch.setattr`, `mock.patch.object`,
    `setattr`) that rebind an attribute of numpy, or rebind any attribute
    to a recorder: a lambda, or a function of the module, that appends to a
    list or adds to a counter.  `conftest.recorded` is the one recorder."""
    tree = ast.parse(source)

    def records(node):
        return any(isinstance(n, ast.AugAssign) or getattr(getattr(n, "func", None), "attr", "")
                   == "append" for n in ast.walk(node))

    recorders = {node.name for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef) and records(node)}
    found = []
    for call in ast.walk(tree):
        func = getattr(call, "func", None)
        if not (isinstance(call, ast.Call) and len(call.args) >= 3
                and getattr(func, "attr", getattr(func, "id", None)) in ("setattr", "object")):
            continue
        target, name, value = call.args[:3]
        root = target
        while isinstance(root, ast.Attribute):
            root = root.value
        recorder = (isinstance(value, ast.Lambda) and records(value)) or (
            getattr(value, "id", None) in recorders
            and (ast.unparse(target), getattr(name, "value", None)) not in TRACKING)
        if getattr(root, "id", None) in ("np", "numpy") or recorder:
            found.append(call.lineno)
    return sorted(found)


class Rule(NamedTuple):
    sites: Callable  # () -> the sites that break the rule
    message: str
    # (pattern, snippet, the snippet's lines the pattern must find), if any
    self_check: tuple = ()


SINGULAR_SNIPPET = (
    "s = svd(a)\n"
    "t = np.linalg.svd(a, compute_uv=False)\n"
    "x = norm(a, 2)\n"
    "y = np.linalg.norm(a, ord=2)\n"
    "z = np.linalg.norm(a) + np.linalg.norm(v, axis=0)\n"
    "q = np.linalg.inv(a) @ inv(b)\n"
    "svd = inv = 1\n"
)

RULES = {
    "projector": Rule(
        lambda: sites(calls("projector"), skip="linalg.py"),
        "apply P_j through its basis, not a projector",
        ((calls("projector"),
          "p = projector(sub)\nq = linalg.projector(sub) @ x\nprojector_calls = 1\n", [1, 2]),),
    ),
    "item_factors": Rule(
        item_factor_sites,
        "read C_j = L_j B_j from FrameFamily.factors (formed in factor_runs)",
        ((operator_products,
          "c = lam @ b\n"
          "d = (lamG @ sub.basis) @ x\n"
          "e = as_operator(lam) @ b\n"
          "f = item.lam_out @ y\n"
          "g = b @ lam\n"
          "h = np.matmul(lam, b, out=c)\n"
          "i = np.matmul(b, lam)\n", [1, 2, 2, 3, 4, 6]),),
    ),
    "eigensolver": Rule(
        lambda: sites(calls("eigh", "eigvalsh"), skip="linalg.py"),
        "take spectra, roots, S^+ and norms through linalg (Spectrum, factored_sqrt, opnorm)",
        ((calls("eigh", "eigvalsh"),
          "v = eigvalsh(h)\nw, q = np.linalg.eigh(h)\neigh = 1\n", [1, 2]),),
    ),
    "singular_values": Rule(
        lambda: (sites(calls("svd"), skip="linalg.py")
                 + sites(calls("norm", where=spectral), skip="linalg.py")),
        "measure singular values through linalg (singular_extremes, opnorm)",
        ((calls("svd"), SINGULAR_SNIPPET, [1, 2]),
         (calls("norm", where=spectral), SINGULAR_SNIPPET, [3, 4]),
         (calls("inv"), SINGULAR_SNIPPET, [6, 6])),
    ),
    "one_norm": Rule(
        lambda: sites(stray_norms),
        "measure ||a||_2 with linalg.opnorm; an SVD only in " + ", ".join(SVD_HOMES),
        ((stray_norms, SINGULAR_SNIPPET, [1, 2, 3, 4]),
         (stray_norms,
          "def orth(a):\n    return svd(a)\n\n\ndef opnorm(a):\n    return svd(a)[1][0]\n", [6])),
    ),
    "inverse": Rule(
        inverse_sites,
        "form S^-1 only, in FrameEvaluation.inverse; read ||x^-1|| from singular_extremes",
    ),
    "roots": Rule(
        root_sites,
        "build the per-item roots in one place (frames.thin_roots)",
        ((calls("factored_sqrt", "positive_sqrt"),
          "w, r = factored_sqrt(x, m, y)\nroot = linalg.positive_sqrt(g)\nfactored_sqrt = 1\n",
          [1, 2]),),
    ),
    "one_eigh": Rule(eigh_sites, "gate PSD eigenpairs in one place"),
    "one_certificate": Rule(
        cholesky_sites,
        "prove a top eigenvalue in one place (linalg.certifies)",
        ((calls("cholesky"),
          "c = np.linalg.cholesky(h)\nok = certify(g) and cholesky(g)\ncholesky = 1\n", [1, 2]),),
    ),
    "literal_sum": Rule(
        literal_sum_sites,
        "frame_sum and its plan apply the items one by one: read no F, S or evaluation",
        ((names_read(EVALUATED_FORMS),
          "s = fam.operator\nev = FrameEvaluation(fam, cp)\nx = fam.controlled(t, u) @ f\n"
          "vals = fam.spectrum.extremes\nr = fam.roots\nops = fam.factors\n", [1, 2, 3, 4, 5]),),
    ),
    "stacks": Rule(
        stack_sites,
        "sum the items before the controls (FrameFamily.operator, factor_sum); "
        "stack per-item terms only for a report that lists them (FrameEvaluation.terms)",
    ),
    "literal_thresholds": Rule(
        lambda: sites(literal_thresholds, skip="tolerances.py"),
        "name these thresholds in tolerances.py",
        ((literal_thresholds,
          "ok = r <= 1e-12 * max(s, 1e-300) and x >= lo - 1e-8\nscale = max(s, 1e-300)\n",
          [1, 1]),),
    ),
    "cli_verdicts": Rule(
        # `tol.override` is the CLI's one use of the tolerance store
        lambda: [f"cli.py:{line}" for line in cli_verdict_sites(read("cli.py"))],
        "move this decision into the library",
        # the verdict code cli.py carried before the library owned every verdict
        ((cli_verdict_sites, "\n".join([
            "from .linalg import opnorm",
            "ok = rep.measured.lambda_min >= rep.predicted_lower - tol.TOL_CONSTRUCT * u",
            "scale = max(opnorm(pair.matrix), 1e-300)",
            "return report, adjoint_residual <= tol.TOL_ADJOINT",
            "ok = ok and rep.lower_lambda >= rep.lower_lambda_predicted - tol.TOL_FACTOR",
            "x = np.linalg.inv(s)",
            "import numpy.linalg as la",
            "from gfusion.tolerances import COND_MAX",
            "with tol.override(**overrides):",
            "    pass",
        ]), [1, 2, 3, 4, 5, 6, 7, 8]),),
    ),
    "bad_input": Rule(
        lambda: sites(bad_input_sites),
        "bad input is raised as InvalidParameters and caught by name",
        ((bad_input_sites, "\n".join([
            "try:",
            "    x = f()",
            "except Exception as exc:",
            "    raise ValueError('bad') from exc",
            "except (KeyError, Exception):",
            "    raise ValueError",
            "except:",
            "    raise InvalidParameters('bad')",
            "except (KeyError, TypeError, ValueError):",
            "    pass",
        ]), [3, 4, 5, 6, 7]),),
    ),
    "process_exit": Rule(
        process_sites,
        "leave the collector and the process's exit to the process entry, cli.run",
        ((process_calls, "\n".join([
            "gc.freeze()",
            "os._exit(code)",
            "gc.collect(2)",
            "sys.exit(code)",
            "hook = gc.callbacks",
            "_exit(0)",
            "exit_code = os.getpid()",
        ]), [1, 2, 3, 6]),),
    ),
    "one_recorder": Rule(
        lambda: [f"{path.name}:{line}" for path in sorted(TESTS.glob("*.py"))
                 if path.name != "conftest.py" for line in counting_patches(path.read_text())],
        "count calls with conftest.recorded and pin the counts in tests/budgets.py",
        ((counting_patches, "\n".join([
            "monkeypatch.setattr(np.linalg, 'svd', recording)",
            "monkeypatch.setattr(np, 'matmul', lambda *a: calls.append(a) or matmul(*a))",
            "monkeypatch.setattr(frames, '_expand', lambda *a: calls.append(a) or expand(*a))",
            "def counting(*args):",
            "    calls[0] += 1",
            "setattr(resolution, 'pair_frame_operator', counting)",
            "mock.patch.object(numpy.linalg, 'eigh', eigh)",
            "monkeypatch.setattr(linalg, 'SAMPLE_CHUNK', 3)",
            "monkeypatch.setattr(constructions, 'scalar_multiple', lambda a: None)",
            "mock.patch.object(tolerances, 'TOL_SANDWICH', -1.0)",
            "def tracking(self, *args):",
            "    made.append(weakref.ref(self))",
            "monkeypatch.setattr(FrameFamily, '__init__', tracking)",
            "monkeypatch.setattr(frames.FrameEvaluation, '__init__', tracking)",
        ]), [1, 2, 3, 6, 7, 14]),),
    ),
    "verdict_claims": Rule(
        lambda: [
            f"{module}:{line}" for module in VERDICT_MODULES
            for line in tolerance_comparisons(read(module))
        ],
        "compare a measured value with a threshold through tol.claim",
        # verdict code of these modules before every verdict was a claim, and
        # the two input gates, which stay comparisons
        ((tolerance_comparisons, "\n".join([
            "return AdjointReport(s, residual, residual <= tol.TOL_ADJOINT)",
            "ok = all(res <= tol.TOL_FACTOR for _, res in certs)",
            "certified = (",
            "    lower >= predicted_lower - tol.TOL_FACTOR",
            "    and upper <= predicted_upper + tol.TOL_FACTOR",
            ")",
            "ok = within_frobenius(d, s, tol.TOL_FACTOR) or r <= tol.TOL_FACTOR",
            "if self.alpha * self.beta > 1 + tol.TOL_UNIT_PRODUCT:",
            "    pass",
            "if np.linalg.norm(d) > tol.TOL_SAME_SUBSPACE:",
            "    pass",
            "c = tol.claim('adjoint', residual, '<=', 'TOL_ADJOINT')",
            "ok = c.holds and n <= TOL_LIMIT",
        ]), [1, 2, 4, 5, 7]),),
    ),
}


@pytest.mark.parametrize("name", RULES)
def test_rule_holds(name):
    rule = RULES[name]
    found = rule.sites()
    assert found == [], f"{rule.message}: {found}"


@pytest.mark.parametrize("name", [name for name, rule in RULES.items() if rule.self_check])
def test_rule_sees_its_pattern(name):
    for pattern, snippet, lines in RULES[name].self_check:
        assert pattern(snippet) == lines
