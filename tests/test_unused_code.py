"""No unused code: every import is read, and every top-level name of the
package has a caller.

No linter runs in CI, so this check is written with ``ast``.  A top-level
function, class or constant of ``src/vvrkbs`` needs a reader elsewhere in
the package, a reader in ``perfbench/*.py`` or an entry point that
``perfbench/tracing.py`` re-binds, or an entry in ``PUBLIC`` naming the test
that covers it.  ``cmd_*`` handlers (``cli.main`` looks them up by name) and
dunder names count as read.  A function's read of a name it binds itself
reads its own binding, not the module's.
"""

import ast
import pathlib

from test_bench_entry_points import _load_tracing

ROOT = pathlib.Path(__file__).resolve().parents[1]

# public API with no caller in the package or the benchmark: each name, as
# module.name, and the test that covers it
PUBLIC = {
    # reference implementations the fits are checked against
    "solver.objective": "tests/test_solver.py::test_objective_tiny_instance_by_hand",
    "operator_learning.hyper_objective":
        "tests/test_operator_learning.py::test_hyper_fit_matches_product_grid_oracle",
    # the acceptance contract
    "rkbs.rkhs_fit": "tests/test_acceptance.py::test_acceptance_10_rkhs_baseline",
    "rkbs.rkhs_predict": "tests/test_acceptance.py::test_acceptance_10_rkhs_baseline",
    "rkbs.rkhs_stationarity": "tests/test_acceptance.py::test_acceptance_10_rkhs_baseline",
    "rkbs.GaussianKernel": "tests/test_acceptance.py::test_acceptance_10_rkhs_baseline",
    "feature.simple_approx_pairing":
        "tests/test_acceptance.py::test_acceptance_03_simple_function_approximation",
    "solver.network_apply": "tests/test_acceptance.py::test_acceptance_07_network_export_identity",
    "dual_pair.dual_witness": "tests/test_acceptance.py::test_acceptance_02_twin_norm",
    # the RKBS norm bracket, the one handle on the space norm
    "rkbs.b_norm_upper": "tests/test_rkbs.py::test_norm_bracket_ordered_random",
    "rkbs.b_norm_lower": "tests/test_rkbs.py::test_norm_bracket_ordered_random",
}


def _sources(pattern: str) -> dict:
    """{file stem: source text} of the files ``pattern`` matches under the root."""
    return {path.stem: path.read_text() for path in sorted(ROOT.glob(pattern))}


def unread_imports(source: str) -> list:
    """The names a module imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
            and isinstance(n.ctx, ast.Load)}
    return sorted(imported - read)


def _own_bindings(fn) -> set:
    """The names a function or lambda binds in its own scope: its arguments,
    and what it assigns or defines outside its nested functions."""
    names = {a.arg for a in ast.walk(fn.args) if isinstance(a, ast.arg)}
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return names


def _reads(node, local=frozenset()) -> set:
    """The module-level names read under ``node``, attribute names included;
    ``local`` holds the names the enclosing functions bind."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        local = local | _own_bindings(node)
    reads = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
        reads.add(node.id)
    elif isinstance(node, ast.Attribute):
        reads.add(node.attr)
    for child in ast.iter_child_nodes(node):
        reads |= _reads(child, local)
    return reads


def _definitions(tree):
    """(name, statement) of every function, class and constant a module
    defines at its top level."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            for target in targets:
                for n in ast.walk(target):
                    if isinstance(n, ast.Name):
                        yield n.id, stmt


def uncalled_names(package: dict, bench: dict, traced=(), public=()) -> list:
    """The top-level names, as module.name, of the ``package`` sources
    ({module: source text}) that nothing reads: not another top-level
    statement of the package, not a ``bench`` source, not ``traced`` (a set
    of module.name) and not ``public``.  Sorted."""
    trees = {mod: ast.parse(src) for mod, src in package.items()}
    bench_reads = set().union(*(_reads(ast.parse(src)) for src in bench.values()))
    reads = {(mod, id(stmt)): _reads(stmt) for mod, tree in trees.items() for stmt in tree.body}
    uncalled = []
    for mod, tree in trees.items():
        for name, stmt in _definitions(tree):
            qualified = f"{mod}.{name}"
            if (name.startswith("cmd_") or (name.startswith("__") and name.endswith("__"))
                    or name in bench_reads or qualified in traced or qualified in public):
                continue
            if not any(name in r for key, r in reads.items() if key != (mod, id(stmt))):
                uncalled.append(qualified)
    return sorted(uncalled)


def _traced() -> set:
    tracing = _load_tracing()
    return {f"{mod}.{fn}" for mod, fn, _, _ in tracing["ENTRY_POINTS"]} | {".".join(tracing["PROX"])}


def test_every_import_is_read():
    unread = {f"{where}/{mod}.py": names
              for where, pattern in (("src/vvrkbs", "src/vvrkbs/*.py"), ("tests", "tests/*.py"))
              for mod, src in _sources(pattern).items() if (names := unread_imports(src))}
    assert unread == {}


def test_every_top_level_name_has_a_caller():
    package, bench = _sources("src/vvrkbs/*.py"), _sources("perfbench/*.py")
    assert uncalled_names(package, bench, _traced(), PUBLIC) == []


def test_every_public_entry_is_needed_and_covered():
    # an entry whose name gained a caller, or whose covering test is gone or
    # no longer reads it, is stale
    package, bench = _sources("src/vvrkbs/*.py"), _sources("perfbench/*.py")
    assert set(PUBLIC) <= set(uncalled_names(package, bench, _traced()))
    for name, test in PUBLIC.items():
        path, test_name = test.split("::")
        tests = {n.name: n for n in ast.parse((ROOT / path).read_text()).body
                 if isinstance(n, ast.FunctionDef)}
        assert test_name in tests, f"{name}: {test} not found"
        assert name.split(".")[1] in _reads(tests[test_name]), f"{test} does not read {name}"


SNIPPET = '''
import os
from json import dumps, loads


def objective(c):
    return c


def refit(c):
    def objective(c):
        return c + 1
    return objective(c)


def serve():
    return dumps(refit(0))
'''


def test_negative_control_flags_an_unread_import_and_an_uncalled_name():
    # os and loads are never read; objective and serve have no caller, since
    # refit reads its own objective, and refit is read by serve
    assert unread_imports(SNIPPET) == ["loads", "os"]
    assert uncalled_names({"snippet": SNIPPET}, {}) == ["snippet.objective", "snippet.serve"]
    assert uncalled_names({"snippet": SNIPPET}, {}, public={"snippet.serve": ""}) == [
        "snippet.objective"]
    assert uncalled_names({"snippet": SNIPPET}, {"bench": "snippet.objective()"},
                          public={"snippet.serve": ""}) == []
