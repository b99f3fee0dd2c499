"""The library surface is what the CLI, the benchmark and the gate call.

Every function ``mflqg`` exports must be read by the package itself
(the CLI included), the benchmark's workloads, the acceptance gate or
its fixtures; one only unit tests call belongs under ``tests/``.
Classes are exempt.  Every parameter of every function in the package
must be read by its body.  The checks parse source files and import
nothing.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mflqg"
USERS = [*PACKAGE.glob("*.py"), ROOT / "bench" / "workloads.py",
         ROOT / "tests" / "test_acceptance.py", ROOT / "tests" / "conftest.py"]

# exported functions without such a reader, each with its reason
EXCEPTIONS = {
    "build_eps_iterate": (
        "the public one-rung path the batched ladder is checked against, "
        "and the only caller of the perturbation.build_feedback and "
        "perturbation.evaluate_functional names bench/spans.py wraps"),
}

# parameters their function's body does not read, each with its reason
UNREAD_PARAMETERS = {
    ("riccati.py", "_terms", name): (
        "the map's argument order is every view's, so ``*view`` unpacks "
        "into it as into _slope")
    for name in ("A", "Q")
}


def _parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def _reads(path):
    """Names a file loads, as a bare name or an attribute, outside the
    function that defines them; definitions, imports and ``__all__``
    strings load nothing."""
    used = set()

    def visit(node, defining):
        if isinstance(node, ast.FunctionDef):
            defining = defining | {node.name}
        name = getattr(node, "id", getattr(node, "attr", None))
        if name and isinstance(getattr(node, "ctx", None), ast.Load) \
                and name not in defining:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(_parse(path), frozenset())
    return used


def test_every_exported_function_has_a_reader():
    exports = next(node.value for node in _parse(PACKAGE / "__init__.py").body
                   if isinstance(node, ast.Assign)
                   and node.targets[0].id == "__all__")
    functions = {node.name for path in PACKAGE.glob("*.py")
                 for node in _parse(path).body
                 if isinstance(node, ast.FunctionDef)}
    read = set().union(*map(_reads, USERS))
    unread = ({elt.value for elt in exports.elts} & functions) - read
    assert unread - set(EXCEPTIONS) == set(), "only unit tests call these"
    assert set(EXCEPTIONS) <= unread, "these exceptions now have a reader"


def test_every_parameter_is_read():
    unread = set()
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(_parse(path)):
            if not isinstance(node, (ast.FunctionDef, ast.Lambda)):
                continue
            args = node.args
            params = [a.arg for a in (*args.posonlyargs, *args.args,
                                      *args.kwonlyargs, args.vararg,
                                      args.kwarg) if a]
            body = node.body if isinstance(node.body, list) else [node.body]
            read = {name.id for stmt in body for name in ast.walk(stmt)
                    if isinstance(name, ast.Name)
                    and isinstance(name.ctx, ast.Load)}
            unread |= {(path.name, getattr(node, "name", "lambda"), param)
                       for param in params if param not in read}
    assert unread == set(UNREAD_PARAMETERS)
