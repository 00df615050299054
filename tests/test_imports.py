"""Importing the package loads no layer; each command loads only the layers it runs."""

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

    def test_enum_count_loads_no_series_maps_or_crosscheck(self):
        assert layers_loaded("count", "--family", "linear", "--max-n", "1") == {
            "terms", "enumeration"}

    # dataclasses with inspect cost each series-table start about 10 ms, and
    # json about 2.5 ms, though only --json needs json
    @pytest.mark.parametrize("extra", [(), ("--closed",)])
    def test_series_table_loads_no_dataclasses_or_json(self, extra):
        argv = ("series-table", "--family", "PB", "--max-n", "3", *extra)
        assert modules_loaded(*argv) & {"dataclasses", "inspect", "json"} == set()

    def test_help_loads_no_json(self):
        assert "json" not in modules_loaded("--help")

    # the layers import json inside their JSON writers, so a CSV count loads none
    @pytest.mark.parametrize("family", ["linear", "classes-normal"])
    def test_csv_count_loads_no_json(self, family):
        assert "json" not in modules_loaded("count", "--family", family, "--max-n", "2")

    def test_series_table_json_loads_json(self):
        argv = ("series-table", "--family", "PB", "--max-n", "3", "--json")
        assert "json" in modules_loaded(*argv)
        code = "import sys\nfrom linlam import cli\ncli.main(sys.argv[1:])"
        assert json.loads(fresh_python(code, *argv))["rows"] == series.solve("PB", 3).series.rows


class TestLazyExports:
    def test_all_is_unchanged(self):
        assert linlam.__all__ == sorted(
            "App BiSeries ClassCounts Classification CountTable FVar Family FamilyName"
            " FamilySolution Flavor Kind Lam ParseError RootedMap Term Var Variant"
            " canonical_code canonicalize census check_linear class_cells class_groups"
            " classify count_classes count_family default_context enum_family faces"
            " from_ascii genus is_isomorphic local_exchanges parse render solve to_ascii"
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
        assert enumeration.CLASS_FAMILIES is names.CLASS_FAMILIES
        assert series.FamilyName is names.FamilyName
        assert maps.Variant is names.Variant
        assert crosscheck.FAMILY_SERIES is names.FAMILY_SERIES
