"""Terms and maps are plain slotted classes: pin what the frozen dataclasses gave.

Each node kind equals only its own kind, hashes as the tuple of its fields
(so sets and dicts of terms iterate as they did), and has no __dict__.
Nothing enforces immutability at run time any more, so a scan of the
package's source checks that no node field is assigned outside __init__.
"""

import ast
from pathlib import Path

import pytest

import linlam
from linlam.maps import RootedMap, standard_alpha
from linlam.terms import App, FVar, Lam, Var, parse

SOURCES = sorted(Path(linlam.__file__).parent.glob("*.py"))
NODE_FIELDS = {"fun", "arg", "body", "index", "sigma", "alpha", "root"}

A = parse("\\x. x")
B = parse("\\x. \\y. y(x)")
MAP = RootedMap((1, 0), standard_alpha(1))


@pytest.mark.parametrize(
    "node, fields",
    [
        (Var(0), (0,)),
        (Var(3), (3,)),
        (FVar(2), (2,)),
        (App(A, B), (A, B)),
        (App(FVar(0), Var(1)), (FVar(0), Var(1))),
        (Lam(B), (B,)),
        (MAP, ((1, 0), (1, 0), 0)),
        (RootedMap((0, 1, 3, 2), standard_alpha(2), 3), ((0, 1, 3, 2), (1, 0, 3, 2), 3)),
    ],
)
def test_hash_is_the_field_tuples(node, fields):
    assert hash(node) == hash(fields)


@pytest.mark.parametrize("node", [Var(0), FVar(0), App(A, B), Lam(A), MAP])
def test_no_instance_dict(node):
    assert not hasattr(node, "__dict__")
    with pytest.raises(AttributeError):
        node.extra = 1


def test_equal_only_within_a_kind():
    assert Var(0) != FVar(0) and FVar(0) != Var(0)
    assert Var(0) == Var(0) and FVar(1) == FVar(1) and Var(0) != Var(1)
    assert App(Var(0), Var(0)) != Lam(Var(0))
    assert Lam(Var(0)) != (Var(0),) and Var(0) != 0
    assert App(A, B) == App(parse("\\y. y"), parse("\\a. \\b. b(a)"))
    assert App(A, B) != App(B, A)
    assert MAP == RootedMap((1, 0), (1, 0), 0) != RootedMap((1, 0), (1, 0), 1)


def test_repr_names_the_fields():
    term = App(Var(0), Lam(FVar(1)))
    assert repr(term) == "App(fun=Var(index=0), arg=Lam(body=FVar(index=1)))"
    assert repr(MAP) == "RootedMap(sigma=(1, 0), alpha=(1, 0), root=0)"


def node_field_writes(tree):
    """(line, field) for each write to a node field outside an __init__."""
    found = []

    def attributes(target):
        if isinstance(target, ast.Attribute):
            yield target
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                yield from attributes(element)
        elif isinstance(target, ast.Starred):
            yield from attributes(target.value)

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        elif isinstance(node, ast.Delete):
            targets = node.targets
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id in ("setattr", "delattr") and len(node.args) > 1
              and isinstance(node.args[1], ast.Constant) and node.args[1].value in NODE_FIELDS):
            found.append((node.lineno, node.args[1].value))
        for target in targets:
            for attr in attributes(target):
                if attr.attr in NODE_FIELDS and function != "__init__":
                    found.append((attr.lineno, attr.attr))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_the_scan_sees_writes():
    source = (
        "class N:\n    def __init__(self, fun):\n        self.fun = fun\n"
        "def bad(t, m):\n    t.fun = 1\n    t.arg, x = 2, 3\n    m.root += 1\n"
        "    del t.body\n    setattr(t, 'index', 0)\n"
    )
    assert [f for _, f in node_field_writes(ast.parse(source))] == [
        "fun", "arg", "root", "body", "index"]


def test_no_node_field_is_written_outside_init():
    assert {p.name for p in SOURCES} >= {"terms.py", "maps.py", "enumeration.py"}
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        assert node_field_writes(tree) == [], path.name
