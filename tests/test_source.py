"""Checks on the package source itself."""

import ast
import importlib
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "raymoments"


def test_no_assert_statements():
    # python -O strips assert statements, so a runtime check must raise
    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/raymoments: {found}"


def test_all_names_resolve():
    stale = []
    for path in sorted(SRC.glob("*.py")):
        name = "raymoments" if path.stem == "__init__" else f"raymoments.{path.stem}"
        mod = importlib.import_module(name)
        stale += [f"{name}.{attr}" for attr in getattr(mod, "__all__", ())
                  if not hasattr(mod, attr)]
    assert not stale, f"__all__ names that do not resolve: {stale}"


def test_one_symmetrization_table():
    # the table of d_symbol is the one encoding of the symmetrization
    pattern = re.compile(r"\bitertools\.combinations\(")
    table = next(node for node in ast.walk(ast.parse((SRC / "symtensor.py").read_text()))
                 if isinstance(node, ast.FunctionDef) and node.name == "d_symbol")
    inside = {("symtensor.py", lineno) for lineno in range(table.lineno, table.end_lineno + 1)}
    hits = {(path.name, lineno) for path in sorted(SRC.rglob("*.py"))
            for lineno, line in enumerate(path.read_text().splitlines(), 1)
            if pattern.search(line)}
    assert hits & inside, "positive control: the search finds the table's own enumeration"
    assert not hits - inside, f"itertools.combinations outside d_symbol: {sorted(hits - inside)}"


def test_only_the_real_fft_pair():
    # GridSpec.rfftn/irfftn is the one grid transform; grid data is real
    pattern = re.compile(r"\bi?fftn\(")
    found = [f"{path.relative_to(SRC)}:{lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert not found, f"complex fftn/ifftn calls in src/raymoments: {found}"


def test_no_dense_solve_in_helmholtz():
    # the splitting is the top-down peel: no per-bin matrix and no solve
    pattern = re.compile(r"\blinalg\.solve\b|\blstsq\b|\bsym_mult_matrix\s*\(")
    found = [f"helmholtz.py:{lineno}"
             for lineno, line in enumerate((SRC / "helmholtz.py").read_text().splitlines(), 1)
             if pattern.search(line)]
    assert not found, f"dense solves or per-bin matrices in helmholtz: {found}"


def test_no_not_implemented():
    # accepted input must work or raise ValueError, never NotImplementedError
    def raises_not_implemented(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"

    found = [f"{path.relative_to(SRC)}:{node.lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Raise) and node.exc is not None
             and raises_not_implemented(node)]
    assert not found, f"raise NotImplementedError in src/raymoments: {found}"


def test_one_polynomial_form():
    # a GaussPolyField is its two arrays: no dict or cached second form of
    # its polynomials, and the dict algebra that is left builds only the
    # phase-space stencil tables of ray
    deleted = {"PackedPoly", "poly_scale", "poly_diff", "poly_shift_axis",
               "gauss_partial", "poly_dtype"}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    found = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr in ("comps", "packed")
             or isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in deleted]
    assert not found, f"second polynomial form in src/raymoments: {found}"
    defined = sorted(f"{name}:{node.name}" for name, tree in trees.items()
                     for node in ast.walk(tree)
                     if isinstance(node, ast.FunctionDef) and node.name in ("poly_add", "poly_mul"))
    assert defined == ["ray.py:poly_add", "ray.py:poly_mul"], f"dict algebra defined in {defined}"


def test_no_second_operator_layer():
    # grid d^k and delta^k are fields.apply_symbol with d_symbol and
    # delta_symbol, and the references that only tests read live in tests/:
    # a field is built from its two arrays or its JSON text, and a grid
    # norm is the half-spectrum power_norm
    deleted = {
        "GridField": {"inner_derivative", "divergence", "_apply_symbol", "_check_like",
                      "__add__", "__sub__", "__mul__", "__rmul__", "truncation_warning",
                      "norm"},
        "MomentData": {"line"},
        "GaussPolyField": {"envelope", "component_field", "from_components", "scalar",
                           "zero", "__mul__", "__rmul__"},
        "SliceSystem": {"y", "m", "k"},
    }
    classes = {node.name: node for path in sorted(SRC.rglob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)}
    def members(cls):
        for node in classes[cls].body:
            if isinstance(node, ast.FunctionDef):
                yield node.name
            elif isinstance(node, ast.AnnAssign):
                yield node.target.id
            elif isinstance(node, ast.Assign):
                yield from (t.id for t in node.targets if isinstance(t, ast.Name))

    found = [f"{cls}.{name}" for cls, names in deleted.items()
             for name in members(cls) if name in names]
    assert not found, f"deleted API back in src/raymoments: {found}"
    text = "\n".join(path.read_text() for path in sorted(SRC.rglob("*.py")))
    stale = [name for name in ("truncation_warning", "component_field", "_check_like")
             if name in text]
    assert not stale, f"deleted names still used in src/raymoments: {stale}"
    # options that only ever took one value are constants
    functions = {node.name: node for path in sorted(SRC.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.FunctionDef)}
    params = {name: [a.arg for a in functions[name].args.args]
              for name in ("homogeneity_residual", "random_line")}
    assert params == {"homogeneity_residual": ["fun", "degree", "x", "xi"],
                      "random_line": ["n", "rng"]}, f"one-value options back: {params}"


def test_one_line_quadrature():
    # batch_transform samples the exact oracle; Gauss-Legendre quadrature
    # lives only in QuadratureRule and its one user, moment_numeric
    pattern = re.compile(r"\.nodes\(\)|\bleggauss\b")
    owners = [node for node in ast.parse((SRC / "ray.py").read_text()).body
              if getattr(node, "name", None) in ("QuadratureRule", "moment_numeric")]
    inside = {lineno for node in owners for lineno in range(node.lineno, node.end_lineno + 1)}
    found = [f"{path.relative_to(SRC)}:{lineno}"
             for path in sorted(SRC.rglob("*.py"))
             for lineno, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line) and not (path.name == "ray.py" and lineno in inside)]
    assert not found, f"quadrature nodes outside QuadratureRule/moment_numeric: {found}"


def test_one_monomial_table():
    # symtensor.monomials is the one power table of field evaluation; no
    # term-by-term evaluator remains beside it.  The first-order table of
    # symmetric_products needs no powers
    def calls_monomials(node):
        return any(isinstance(c, ast.Call) and getattr(c.func, "id", None) == "monomials"
                   for c in ast.walk(node))

    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    found = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == "poly_eval"]
    assert not found, f"poly_eval defined in src/raymoments: {found}"
    field = next(node for node in trees["fields.py"].body
                 if getattr(node, "name", None) == "GaussPolyField")
    evaluate = next(node for node in field.body if getattr(node, "name", None) == "eval_packed")
    assert calls_monomials(evaluate), "GaussPolyField.eval_packed does not call monomials"


def test_one_symbol_applier():
    # i/j at one frequency and d^k/delta^k on the grid are the d_symbol and
    # delta_symbol tables through their one applier, all three in symtensor;
    # no dense operator, second name of the table or second applier remains
    symbols = ("apply_symbol", "d_symbol", "delta_symbol")
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    defined = sorted(f"{name}:{node.name}" for name, tree in trees.items()
                     for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
                     and node.name in symbols + ("sym_mult_operators", "_sym_mult_terms"))
    assert defined == [f"symtensor.py:{s}" for s in symbols], f"symbols defined in {defined}"
    named = {(path.name, word) for path in sorted(SRC.rglob("*.py")) for word in
             re.findall(r"\b(sym_mult_matrix|sym_mult_monomials|d_symbol)\b", path.read_text())}
    assert ("helmholtz.py", "d_symbol") in named, "positive control"
    assert {word for _, word in named} == {"d_symbol"}, f"deleted names in src: {named}"
    # src/ and tests/ import the three from symtensor; fields exports fields and grids only
    tests = (SRC.parents[1] / "tests").glob("*.py")
    trees.update((path.name, ast.parse(path.read_text())) for path in tests)
    imported = {(name, node.module) for name, tree in trees.items() for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and {a.name for a in node.names} & set(symbols)}
    assert ("helmholtz.py", "symtensor") in imported, "positive control"
    assert all(module.endswith("symtensor") for _, module in imported), imported
    assert importlib.import_module("raymoments.fields").__all__ == [
        "GaussPolyField", "GridField", "GridSpec", "random_field"]

    helm = trees["helmholtz.py"]
    parent = {child: node for node in ast.walk(helm) for child in ast.iter_child_nodes(node)}

    def name(call):
        return ast.unparse(call.func)

    stray = [f"helmholtz.py:{node.lineno}: {name(node)}" for node in ast.walk(helm)
             if isinstance(node, ast.Call)
             and (name(node) in ("d_symbol", "delta_symbol")
                  and not (isinstance(parent[node], ast.Call)
                           and name(parent[node]) == "apply_symbol")
                  or name(node).endswith(".apply_symbol")
                  or name(node) == "monomials")]
    assert not stray, f"symbols applied outside apply_symbol: {stray}"
    peel = next(node for node in helm.body if getattr(node, "name", None) == "_peel")
    assert [a.arg for a in peel.args.args] == ["r", "m", "k", "ys"], "_peel takes callables"
    assert not any(isinstance(node, ast.Lambda) for node in ast.walk(helm)), "lambda in helmholtz"


def test_one_symmetric_product_table():
    # slice rows are entries of one table of symmetric products, and the
    # slice identity's analytic side comes from the field operators; no
    # per-row sym_mult chain or private derivative remains in slices
    tree = ast.parse((SRC / "slices.py").read_text())
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    stale = (defined & {"_polarization_row", "_directional_derivative"}
             | imported & {"SymTensor", "sym_mult", "gauss_partial"})
    assert not stale, f"per-row chain left in slices.py: {sorted(stale)}"


def test_one_tensor_type():
    # the packed coefficient array is the one tensor type: no class or full
    # n^m table beside it, and the slice systems and the projector read one
    # table of symmetric products
    full_table = {"SymTensor", "symmetrize", "to_full"}
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    stale = [f"{name}:{node.lineno}" for name, tree in trees.items()
             for node in ast.walk(tree)
             if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name in full_table
             or isinstance(node, ast.ImportFrom)
             and any(alias.name in full_table for alias in node.names)
             or isinstance(node, ast.Call) and ast.unparse(node.func) == "itertools.product"]
    assert not stale, f"full-table tensor code in src/raymoments: {stale}"

    def calls(tree, name):
        return any(isinstance(node, ast.Call) and getattr(node.func, "id", None) == name
                   for node in ast.walk(tree))

    defined = [name for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and node.name == "symmetric_products"]
    assert defined == ["symtensor.py"], f"symmetric_products defined in {defined}"
    callers = {name for name, tree in trees.items() if calls(tree, "symmetric_products")}
    assert {"slices.py", "helmholtz.py"} <= callers, f"symmetric_products callers: {callers}"


def test_one_cli_exit_path():
    # subcommands and claims return their table and verdict; main alone
    # writes the CSV and the report, and alone turns an error into exit 2.
    # A claim writes no file at all
    def is_exit(node):
        if isinstance(node, ast.Name):
            return node.id == "SystemExit"
        if isinstance(node, ast.Attribute):
            return node.attr == "exit" and getattr(node.value, "id", None) == "sys"
        return (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
                and any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                        for kw in node.keywords))

    def writes(node, names=("_write_csv", "_write_report")):
        return isinstance(node, ast.Call) and ast.unparse(node.func).rsplit(".", 1)[-1] in names

    tree, claims = (ast.parse((SRC / name).read_text()) for name in ("cli.py", "claims.py"))
    funcs = [node for node in tree.body if isinstance(node, ast.FunctionDef)]
    judged = ([fn for fn in funcs if fn.name.startswith("cmd_")]
              + [fn for fn in claims.body if isinstance(fn, ast.FunctionDef)])
    exits = [f"{fn.name}:{node.lineno}" for fn in judged for node in ast.walk(fn) if is_exit(node)]
    assert not exits, f"subcommands or claims that exit or print errors themselves: {exits}"
    writers = {node.lineno for node in ast.walk(tree) if writes(node)}
    in_main = {node.lineno for fn in funcs if fn.name == "main"
               for node in ast.walk(fn) if writes(node)}
    assert in_main and writers == in_main, f"CSV/report writes outside main: {writers - in_main}"
    files = ("_write_csv", "_write_report", "open", "write", "writer", "dump", "tofile")
    found = [node.lineno for node in ast.walk(claims) if writes(node, files)]
    # the positive control: the same search finds the outputs of transform and decompose
    assert any(writes(node, files) for node in ast.walk(tree))
    assert not found, f"file writes in claims.py: lines {found}"


def test_one_implementation_per_claim():
    # each gate is a float constant of claims.py, set nowhere else; cli.py
    # judges nothing itself: no float literal below 1 and no check function.
    # Criteria 1, 2, 4, 5 and 7 judge through a claim
    checks = {"kernel_check", "rank_probe", "range_test", "moment_numeric", "slice_check",
              "chi_build", "verify_decomposition"}
    tests = Path(__file__).resolve().parent
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted([*SRC.glob("*.py"), *tests.glob("*.py")])}

    def names(tree):
        return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)}

    def stored(tree):
        return {getattr(node, "id", getattr(node, "attr", None)) for node in ast.walk(tree)
                if isinstance(getattr(node, "ctx", None), ast.Store)}

    def small_floats(tree):
        return [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                and isinstance(node.value, float) and node.value < 1]

    claims, cli = trees.pop("claims.py"), trees["cli.py"]
    gates = {node.targets[0].id for node in claims.body if isinstance(node, ast.Assign)
             and isinstance(getattr(node.value, "value", None), float)}
    assert len(gates) == 8 and small_floats(claims) and checks <= names(claims)
    again = {name: stored(tree) & gates for name, tree in trees.items() if stored(tree) & gates}
    assert not again, f"gates set outside claims.py: {again}"
    assert not small_floats(cli), f"float literals below 1 in cli.py: lines {small_floats(cli)}"
    assert not checks & names(cli), f"checks in cli.py: {checks & names(cli)}"
    claim_names = {node.name for node in claims.body if isinstance(node, ast.FunctionDef)}
    criteria = {node.name.split("_")[2]: names(node) for node in trees["test_acceptance.py"].body
                if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_")}
    bypass = [c for c in "12457" if not criteria[c] & claim_names or criteria[c] & checks]
    assert not bypass, f"criteria judged outside raymoments.claims: {bypass}"


def test_no_environment_reads_and_one_thread_pool():
    # the package reads no environment variable, and the row-slab helper of
    # helmholtz is the only place that starts threads or processes
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
    env = [f"{name}:{node.lineno}" for name, tree in trees.items() for node in ast.walk(tree)
           if isinstance(node, (ast.Attribute, ast.Name))
           and getattr(node, "attr", getattr(node, "id", None)) in ("environ", "getenv", "environb")]
    assert not env, f"environment reads in src/raymoments: {env}"
    spawners = re.compile(r"^(Thread|Process|Timer|ThreadPoolExecutor|ProcessPoolExecutor|Pool)$")
    helper = next(node for node in trees["helmholtz.py"].body
                  if getattr(node, "name", None) == "_over_slabs")
    inside = {id(node) for node in ast.walk(helper)}
    starts = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
              if isinstance(node, ast.Call)
              and spawners.match(ast.unparse(node.func).rsplit(".", 1)[-1])]
    assert any(id(node) in inside for _, node in starts), "_over_slabs starts no pool"
    found = [f"{name}:{node.lineno}" for name, node in starts if id(node) not in inside]
    assert not found, f"threads or processes started outside helmholtz._over_slabs: {found}"
