"""Importing the package loads no layer; each command loads only the layers it runs."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import linlam
from linlam import crosscheck, enumeration, maps, names, series

ROOT = Path(__file__).resolve().parents[1]
LAYERS = {"terms", "enumeration", "exchange", "maps", "series", "crosscheck"}

# run cli.main on the arguments, then print the modules that importing the
# cli and running it loaded; the probe itself imports no json
LOADED = """
import contextlib, io, sys
before = set(sys.modules)
from linlam import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(sys.argv[1:])
    except SystemExit:
        pass
print(*sorted(set(sys.modules) - before))
"""


def fresh_python(code, *args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def modules_loaded(*argv):
    return set(fresh_python(LOADED, *argv).split())


def layers_loaded(*argv):
    return LAYERS & {m[len("linlam."):] for m in modules_loaded(*argv) if m.startswith("linlam.")}


class TestImportFootprint:
    def test_help_loads_no_layer(self):
        assert layers_loaded("--help") == set()

    def test_series_table_loads_the_series_alone(self):
        assert layers_loaded("series-table", "--family", "PB", "--max-n", "1") == {"series"}

    def test_maps_census_loads_the_maps_alone(self):
        assert layers_loaded("maps-census", "--edges", "3") == {"maps"}

    def test_enum_count_loads_no_series_maps_or_crosscheck(self):
        assert layers_loaded("count", "--family", "linear", "--max-n", "1") == {
            "terms", "enumeration"}

    # dataclasses with inspect cost each series-table start about 10 ms, and
    # json about 2.5 ms, though only --json needs json
    @pytest.mark.parametrize("extra", [(), ("--closed",)])
    def test_series_table_loads_no_dataclasses_or_json(self, extra):
        argv = ("series-table", "--family", "PB", "--max-n", "3", *extra)
        assert modules_loaded(*argv) & {"dataclasses", "inspect", "json"} == set()

    # no layer is a dataclass any more, so no command pays for dataclasses and inspect
    @pytest.mark.parametrize(
        "argv",
        [
            ("crosscheck", "--max-n", "1"),
            ("crosscheck", "--max-n", "1", "--json"),
            ("count", "--family", "classes-neutral", "--max-n", "2", "--json"),
            ("count", "--family", "classes-neutral", "--producer", "maps", "--max-n", "2"),
            ("list", "--family", "normal", "--n", "2", "--ascii"),
            ("list", "--family", "classes-normal", "--n", "2", "--json"),
            ("maps-census", "--edges", "2", "--list"),
            ("series-table", "--family", "QB", "--max-n", "3", "--json"),
        ],
    )
    def test_no_command_loads_dataclasses(self, argv):
        assert modules_loaded(*argv) & {"dataclasses", "inspect"} == set()

    def test_text_crosscheck_loads_no_json(self):
        assert "json" not in modules_loaded("crosscheck", "--max-n", "1")

    def test_help_loads_no_json(self):
        assert "json" not in modules_loaded("--help")

    # the cli imports json inside its one JSON writer, so a CSV count loads none
    @pytest.mark.parametrize("family", ["linear", "classes-normal"])
    def test_csv_count_loads_no_json(self, family):
        assert "json" not in modules_loaded("count", "--family", family, "--max-n", "2")

    def test_series_table_json_loads_json(self):
        argv = ("series-table", "--family", "PB", "--max-n", "3", "--json")
        assert "json" in modules_loaded(*argv)
        code = "import sys\nfrom linlam import cli\ncli.main(sys.argv[1:])"
        assert json.loads(fresh_python(code, *argv))["rows"] == series.solve("PB", 3).series.rows

    def test_only_the_cli_imports_json(self):
        importers = set()
        for path in sorted((ROOT / "src" / "linlam").glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    modules = [node.module]
                else:
                    continue
                if any(m.split(".")[0] == "json" for m in modules):
                    importers.add(path.name)
        assert importers == {"cli.py"}

    def test_every_private_name_is_read(self):
        defined, read = {}, set()
        for path in sorted((ROOT / "src" / "linlam").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                else:
                    continue
                for name in names:
                    if name.startswith("_") and not name.startswith("__"):
                        defined[name] = path.name
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    read.add(node.id)
                elif isinstance(node, ast.Attribute):
                    read.add(node.attr)
                elif isinstance(node, ast.ImportFrom):
                    read.update(alias.name for alias in node.names)
        unread = {name: home for name, home in defined.items() if name not in read}
        assert defined and unread == {}

    # public names that nothing in the package or perfbench reads, each with its reason
    UNREAD_PUBLIC = {
        "RootedMap.validate": "checks a map built outside the census; the census "
                              "builds only valid maps, and a bijection row will call it",
    }

    def test_every_public_name_is_read(self):
        # every public function, class, constant and class member defined in
        # the package is read outside its own definition, by the package or by
        # perfbench, whose traced.py names the functions it wraps in strings
        defined, reads = {}, {}

        def define(body, owner, path):
            for node in body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    names = [node.name]
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    names = [t.id for t in targets if isinstance(t, ast.Name)]
                    if names == ["__slots__"]:
                        names = [c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant)]
                else:
                    continue
                for name in names:
                    if not name.startswith("_"):
                        defined[owner + name] = (path, node.lineno, node.end_lineno)
                if isinstance(node, ast.ClassDef):
                    define(node.body, f"{node.name}.", path)

        package = sorted((ROOT / "src" / "linlam").glob("*.py"))
        for path in package + sorted((ROOT / "perfbench").glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            if path in package:
                define(tree.body, "", path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    names = [node.id]
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    names = [node.attr]
                elif isinstance(node, ast.ImportFrom):
                    names = [alias.name for alias in node.names]
                elif (path not in package and isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    names = [node.value]
                else:
                    continue
                for name in names:
                    reads.setdefault(name, []).append((path, node.lineno))
        unread = {
            name for name, (home, first, last) in defined.items()
            if all(where == home and first <= line <= last
                   for where, line in reads.get(name.rpartition(".")[2], []))
        }
        assert len(defined) > 100 and unread == set(self.UNREAD_PUBLIC), sorted(
            unread ^ set(self.UNREAD_PUBLIC))

    def test_one_function_says_a_row_compared_nothing(self):
        # every crosscheck row hands what it compared to one verdict, so the
        # empty-window rule is spelled in one function, docstrings aside
        tree = ast.parse((ROOT / "src" / "linlam" / "crosscheck.py").read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0]) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
            and ast.get_docstring(node) is not None
        }
        homes = []

        def visit(node, home):
            if id(node) in docstrings:
                return
            if isinstance(node, ast.FunctionDef):
                home = node.name
            if isinstance(node, ast.Constant) and "compared nothing" in str(node.value):
                homes.append(home)
            for child in ast.iter_child_nodes(node):
                visit(child, home)

        visit(tree, None)
        assert len(set(homes)) == 1 and None not in homes, homes


class TestLazyExports:
    def test_all_is_unchanged(self):
        assert linlam.__all__ == sorted(
            "App ClassCounts Classification CountTable FVar Family FamilyName"
            " FamilySolution Flavor Kind Lam ParseError RootedMap Term Var Variant"
            " canonical_code canonicalize census check_linear class_cells class_groups"
            " classify count_classes count_family default_context enum_family genus"
            " is_isomorphic local_exchanges parse render solve to_ascii"
            .split()
        )

    @pytest.mark.parametrize("name", linlam.__all__)
    def test_name_is_its_home_modules_object(self, name):
        value = getattr(linlam, name)
        home = importlib.import_module(f"linlam.{linlam._HOME[name]}")
        assert getattr(home, name) is value
        if name != "Term":  # a type alias, which names no module
            assert value.__module__ == home.__name__

    def test_dir_covers_all(self):
        assert set(dir(linlam)) >= set(linlam.__all__)

    def test_unknown_attribute(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            linlam.no_such_name  # noqa: B018

    def test_from_import_loads_submodules(self):
        code = ("import types\nfrom linlam import cli, series\n"
                "print(isinstance(cli, types.ModuleType), series.__name__)")
        assert fresh_python(code).split() == ["True", "linlam.series"]

    def test_old_import_paths_give_the_same_objects(self):
        assert enumeration.Family is names.Family
        assert enumeration.CountTable is names.CountTable
        assert enumeration.CLASS_FAMILIES is names.CLASS_FAMILIES
        assert series.FamilyName is names.FamilyName
        assert maps.Variant is names.Variant
        assert crosscheck.FAMILY_SERIES is names.FAMILY_SERIES
