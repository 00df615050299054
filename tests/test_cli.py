import argparse
import hashlib
import inspect
import json
import os
import shlex
import subprocess
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import pytest

from linlam import cli, crosscheck, enumeration, exchange, maps, names, series, terms
from linlam.crosscheck import (
    NORMAL_CLASS_GROUPS_UP_TO_SIZE_3,
    NORMAL_TERMS_UP_TO_SIZE_3,
    ReferenceSequences,
    run_crosscheck,
)
from test_series import CSV_SHA256_AT_40, ROOT

# sha256 of the crosscheck's stdout at --max-n 3, recorded before the rows
# became one list
CROSSCHECK_SHA256_AT_3 = {
    ("crosscheck", "--max-n", "3"):
        "4d6ad68fb2858cbe724cf0135031a720c44da25eef98c23325b90e247719cb2a",
    ("crosscheck", "--max-n", "3", "--json"):
        "9bd4cd55779033b361c5686dcc4cd47bece24644d1d9b85a5377af6eada5be83",
}

# sha256 of stdout, with the exit status, of each command and output format
# cli.py writes, recorded before the writers moved from the layers into cli.py
FORMAT_SHA256 = {
    ("count --family classes-neutral --max-n 3", 0):
        "0775bc069164b47d2f0cdd3eccdc197a0b648cbd8dc6eae0f2249d342e6ba978",
    ("count --family normal --max-n 3 --json", 0):
        "699f26a987753b9f56510fd7c47832db4424c45e4f75c32b530fbd170a80357c",
    ("count --family linear --closed --max-n 5 --json", 0):
        "e102efabd5618c54239685ed46e05d548e485ee0f83a0684188d614037e0b623",
    ("count --family classes-normal --labeled --max-n 3 --json", 0):
        "35ee149b61fa6d5fd272543c551cd065e3f71472de81ae7361593e0fd0d70eb4",
    ("count --family classes-neutral --producer maps --max-n 3 --json", 0):
        "ae9e48825078aa608011c0c09e540515016bfa2245f0938c9a6148d795e91a5b",
    ("count --family normal --producer series --max-n 4 --json", 0):
        "9136c0179c4cef4ec81152401b4ed7d26e84a96fec7b3682f6dfff69ccbde868",
    ("count --family linear --max-n 0 --json", 0):
        "31a864379717e7bd19f00751bd590ee5affed6cbcb374a0629bdb362fd633cc7",
    ("list --family classes-normal --n 3", 0):
        "d7637b47776716c4dd261bb99c71d8231cb6e3d86102fa6c0db1ca5854ab06d7",
    ("list --family classes-normal --n 3 --json", 0):
        "a109a28052ff45927052c8f1460166d9ddde742590072d2b8aa8932e0be17601",
    ("list --family classes-normal --n 0", 0):
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ("list --family classes-normal --n 0 --json", 0):
        "37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570",
    ("list --family normal --n 3 --ascii", 0):
        "2634ce46b3708605b9eec6d31d00339c25fe316488e51f0c1f1bf7cc9518bc18",
    ("list --family normal --n 2 --json", 0):
        "a4fa6351dda5309506aa095002a6bd18114f5dd7c1b5240f97428f4fbbf72e5e",
    ("maps-census --edges 3", 0):
        "7d4ba1a209d3504392e50babcaa05fcd07e85d7b28742cbd3c49cbaf33cd73f0",
    ("maps-census --edges 3 --json", 0):
        "388d3b6c301c1e6bdee04eec2ee1dc46bc079b44b0cc3b859de2a80c3b15c7c1",
    ("maps-census --edges 3 --list", 0):
        "0975a984c98ecaa57e141778859ce1d0821e6a13282069bc4156fbb4e68251b3",
    ("series-table --family QB --max-n 5 --json", 0):
        "6424bfb9160f0f1f655644d8cc8fe123abeddf31c010defd590b0b4f8abcf9d2",
    ("crosscheck --max-n 1 --cap-override 0", 1):
        "6cfd2a8e4107382d3277b16ba7947ddfb3609e9ef9323dc4db4925ef469c279b",
    ("crosscheck --max-n 1 --cap-override 0 --json", 1):
        "514da08b97a216f0034819aeb5e3d799cf41b7ce2aa72415976a4999134df74a",
}


def swap_free(t: terms.Term) -> terms.Term:
    # exchange free positions 0 and 1: the same class, relabeled
    if isinstance(t, terms.FVar):
        return terms.FVar(1 - t.index if t.index < 2 else t.index)
    if isinstance(t, terms.App):
        return terms.App(swap_free(t.fun), swap_free(t.arg))
    if isinstance(t, terms.Lam):
        return terms.Lam(swap_free(t.body))
    return t


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


class TestCount:
    def test_closed_normal_enum(self, capsys):
        code, out = run(capsys, "count", "--family", "normal", "--closed", "--max-n", "4")
        assert code == 0
        assert out.splitlines() == ["1", "3", "26", "367"]

    def test_closed_classes_enum(self, capsys):
        _, out = run(
            capsys, "count", "--family", "classes-normal", "--closed", "--max-n", "3"
        )
        assert out.splitlines() == ["1", "2", "10"]

    def test_empty_range(self, capsys):
        code, out = run(capsys, "count", "--family", "linear", "--closed", "--max-n", "0")
        assert code == 0
        assert out == ""

    def test_series_producer_matches_enum(self, capsys):
        _, enum_out = run(capsys, "count", "--family", "neutral", "--max-n", "3")
        _, series_out = run(
            capsys, "count", "--family", "neutral", "--max-n", "3",
            "--producer", "series",
        )
        assert enum_out == series_out

    def test_maps_producer_bivariate(self, capsys):
        _, out = run(
            capsys, "count", "--family", "classes-neutral", "--max-n", "2",
            "--producer", "maps",
        )
        lines = out.strip().splitlines()
        assert "2,2,5" in lines

    def test_labeled_classes(self, capsys):
        _, out = run(
            capsys, "count", "--family", "classes-neutral", "--labeled", "--max-n", "2"
        )
        assert "2,2,10" in out.splitlines()

    def test_maps_producer_rejects_term_families(self, capsys):
        with pytest.raises(SystemExit):
            cli.main(["count", "--family", "normal", "--producer", "maps"])

    def test_json_output(self, capsys):
        _, out = run(
            capsys, "count", "--family", "normal", "--closed", "--max-n", "3", "--json"
        )
        assert json.loads(out) == [1, 3, 26]


class TestList:
    def test_normal_size_two(self, capsys):
        _, out = run(capsys, "list", "--family", "normal", "--closed", "--n", "2")
        assert sorted(out.splitlines()) == sorted(
            ["λa.a(λb.b)", "λa.λb.a(b)", "λa.λb.b(a)"]
        )

    def test_normal_size_one(self, capsys):
        _, out = run(capsys, "list", "--family", "normal", "--closed", "--n", "1")
        assert out == "λa.a\n"

    def test_class_groups_size_three(self, capsys):
        _, out = run(capsys, "list", "--family", "classes-normal", "--closed", "--n", "3")
        groups = [g.splitlines() for g in out.strip().split("\n\n")]
        assert len(groups) == 10
        assert sorted(len(g) for g in groups) == [1, 1, 2, 2, 2, 2, 2, 2, 6, 6]
        assert sum(len(g) for g in groups) == 26

    def test_ascii_stream(self, capsys):
        _, out = run(capsys, "list", "--family", "normal", "--closed", "--n", "1", "--ascii")
        assert out == "L V0\n"

    def test_open_terms_use_context_names(self, capsys):
        _, out = run(capsys, "list", "--family", "neutral", "--n", "1", "--k", "2")
        assert sorted(out.splitlines()) == ["x(y)", "y(x)"]

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "normal", "--n", "0"),
            ("--family", "classes-normal", "--n", "0"),
            ("--family", "classes-neutral", "--n", "1", "--k", "5"),
        ],
        ids=["normal", "classes-normal", "classes-neutral"],
    )
    def test_empty_listing_prints_nothing(self, capsys, argv):
        _, out = run(capsys, "list", *argv)
        assert out == ""
        _, out = run(capsys, "list", *argv, "--json")
        assert json.loads(out) == []


class TestSeriesTable:
    def test_closed_diagonal(self, capsys):
        _, out = run(
            capsys, "series-table", "--family", "QR", "--closed", "--max-n", "6"
        )
        assert out.splitlines() == ["1", "2", "10", "74", "706", "8162"]

    def test_csv(self, capsys):
        _, out = run(capsys, "series-table", "--family", "QB", "--max-n", "2")
        assert "QB,2,2,5" in out.splitlines()

    def test_json(self, capsys):
        _, out = run(capsys, "series-table", "--family", "QB", "--max-n", "2", "--json")
        assert out == QB_2_JSON

    def test_closed_json(self, capsys):
        _, out = run(
            capsys, "series-table", "--family", "QR", "--closed", "--max-n", "6", "--json"
        )
        assert out == "[1, 2, 10, 74, 706, 8162]\n"

    @pytest.mark.parametrize("which", list(names.FamilyName))
    def test_streamed_csv_is_pinned(self, capsys, which):
        _, out = run(capsys, "series-table", "--family", which.value, "--max-n", "40")
        assert hashlib.sha256(out.encode()).hexdigest() == CSV_SHA256_AT_40[which]

    def test_csv_is_not_built_whole(self, monkeypatch):
        pieces = []

        class Spy:
            def write(self, text):
                pieces.append(text)
                return len(text)

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Spy())
        assert cli.main(["series-table", "--family", "QB", "--max-n", "2"]) == 0
        assert "".join(pieces).splitlines()[-1] == "QB,2,3,2"
        # the header, then one piece per z-row: no piece holds two rows' n
        z_rows = [{line.split(",")[1] for line in piece.splitlines()} for piece in pieces]
        assert z_rows == [{"n"}, {"0"}, {"1"}, {"2"}]


QB_2_JSON = """\
{
  "family": "QB",
  "flavor": "ogf",
  "trunc": 2,
  "rows": [
    [
      0,
      1
    ],
    [
      0,
      1,
      1
    ],
    [
      0,
      3,
      5,
      2
    ]
  ]
}
"""


ONE_EDGE_JSON = """\
{
  "variant": "all",
  "edges": 1,
  "cells": [
    [
      1,
      1,
      1
    ],
    [
      1,
      2,
      1
    ]
  ]
}
"""


class TestMapsCensus:
    def test_csv(self, capsys):
        _, out = run(capsys, "maps-census", "--edges", "2")
        assert out == "edges,vertices,count\n2,1,3\n2,2,5\n2,3,2\n"

    def test_one_edge_csv(self, capsys):
        _, out = run(capsys, "maps-census", "--edges", "1")
        assert out == "edges,vertices,count\n1,1,1\n1,2,1\n"

    def test_one_edge_json(self, capsys):
        _, out = run(capsys, "maps-census", "--edges", "1", "--json")
        assert out == ONE_EDGE_JSON

    def test_list_maps(self, capsys):
        _, out = run(capsys, "maps-census", "--edges", "1", "--list")
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("sigma=") for line in lines)

    def test_variant_planar(self, capsys):
        _, out = run(capsys, "maps-census", "--edges", "2", "--variant", "planar")
        total = sum(int(line.split(",")[2]) for line in out.strip().splitlines()[1:])
        assert total == 9


class TestClosedStdout:
    def test_a_reader_that_closes_early_ends_the_command_quietly(self):
        # the five-edge listing is over 64 KB, more than a pipe holds, so a
        # write meets the closed pipe
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        argv = [sys.executable, "-m", "linlam", "maps-census", "--edges", "5", "--list"]
        with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            first = proc.stdout.readline()
            proc.stdout.close()
            stderr = proc.stderr.read()
            status = proc.wait(timeout=120)
        assert first.startswith(b"sigma=")
        assert (stderr, status) == (b"", 141)

    def test_a_broken_pipe_elsewhere_still_raises(self, monkeypatch):
        # only a write to stdout counts as its reader closing it; a broken
        # pipe to the series check's sibling is a failure
        def broken(which, trunc=12):
            raise BrokenPipeError("the series check's sibling went away")

        monkeypatch.setattr(series, "solve", broken)
        with pytest.raises(BrokenPipeError, match="sibling"):
            cli.main(["series-table", "--family", "QB"])


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    captured = capsys.readouterr()
    assert captured.out == ""
    return exc.value.code, captured.err


class TestUsageErrors:
    def test_zero_edges(self, capsys):
        code, err = usage_error(capsys, "maps-census", "--edges", "0")
        assert code == 2
        assert "at least one edge" in err

    def test_negative_trivalent_edges(self, capsys):
        code, err = usage_error(
            capsys, "maps-census", "--edges", "-2", "--variant", "trivalent"
        )
        assert code == 2
        assert "at least one edge" in err

    def test_census_over_cap(self, capsys):
        code, err = usage_error(capsys, "maps-census", "--edges", "7")
        assert code == 2
        assert "exceeds the all cap of 6" in err

    def test_trivalent_census_over_cap(self, capsys):
        code, err = usage_error(
            capsys, "maps-census", "--edges", "15", "--variant", "trivalent"
        )
        assert code == 2
        assert "exceeds the trivalent cap of 12" in err

    def test_maps_producer_over_cap(self, capsys):
        code, err = usage_error(
            capsys, "count", "--family", "classes-neutral", "--producer", "maps",
            "--max-n", "7",
        )
        assert code == 2
        assert "exceeds the all cap of 6" in err

    def test_maps_producer_term_family(self, capsys):
        code, err = usage_error(capsys, "count", "--family", "normal", "--producer", "maps")
        assert code == 2
        assert "only counts classes-neutral" in err

    def test_negative_crosscheck_cap(self, capsys):
        code, err = usage_error(capsys, "crosscheck", "--max-n", "2", "--cap-override", "-1")
        assert code == 2
        assert "--cap-override must be non-negative" in err

    # one check for every command that takes a cap, before any other check on it:
    # a maps count over no edge never reaches the census's own cap check
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--family", "classes-neutral", "--producer", "maps", "--max-n", "0"),
            ("count", "--family", "classes-neutral", "--producer", "maps", "--max-n", "2"),
            ("count", "--family", "linear", "--max-n", "2"),
            ("maps-census", "--edges", "2"),
            ("maps-census", "--edges", "3", "--variant", "trivalent", "--list"),
            ("crosscheck", "--max-n", "1", "--json"),
        ],
    )
    def test_negative_cap_override(self, capsys, argv):
        code, err = usage_error(capsys, *argv, "--cap-override", "-1")
        assert code == 2
        assert "--cap-override must be non-negative" in err

    @pytest.mark.parametrize(
        "family, producer", [("linear", "enum"), ("classes-normal", "enum"), ("linear", "series")]
    )
    def test_cap_override_needs_maps_producer(self, capsys, family, producer):
        code, err = usage_error(
            capsys, "count", "--family", family, "--producer", producer,
            "--max-n", "2", "--cap-override", "3",
        )
        assert code == 2
        assert f"--cap-override caps the maps producer only, not {producer}" in err

    @pytest.mark.parametrize("producer", ["series", "maps"])
    def test_labeled_needs_enum_producer(self, capsys, producer):
        code, err = usage_error(
            capsys, "count", "--family", "classes-neutral", "--producer", producer,
            "--labeled", "--max-n", "2",
        )
        assert code == 2
        assert f"--labeled needs the enum producer; {producer} counts unlabeled" in err

    @pytest.mark.parametrize("family", ["normal", "planar-neutral"])
    def test_labeled_needs_a_class_family(self, capsys, family):
        code, err = usage_error(capsys, "count", "--family", family, "--labeled")
        assert code == 2
        assert f"--labeled counts class families only, not {family}" in err

    def test_negative_list_size(self, capsys):
        code, err = usage_error(capsys, "list", "--family", "normal", "--n", "-1")
        assert code == 2
        assert "must be non-negative" in err

    def test_negative_list_context(self, capsys):
        code, err = usage_error(
            capsys, "list", "--family", "normal", "--n", "2", "--k", "-1"
        )
        assert code == 2
        assert "must be non-negative" in err

    def test_closed_list_with_another_context(self, capsys):
        code, err = usage_error(
            capsys, "list", "--family", "normal", "--n", "2", "--k", "1", "--closed"
        )
        assert code == 2
        assert "--closed lists k = 0, not --k 1" in err

    def test_negative_series_table(self, capsys):
        code, err = usage_error(capsys, "series-table", "--family", "L", "--max-n", "-3")
        assert code == 2
        assert "--max-n must be at least 0" in err

    def test_negative_count(self, capsys):
        code, err = usage_error(capsys, "count", "--family", "linear", "--max-n", "-1")
        assert code == 2
        assert "--max-n must be at least 0" in err

    def test_crosscheck_below_one(self, capsys):
        code, err = usage_error(capsys, "crosscheck", "--max-n", "0")
        assert code == 2
        assert "--max-n must be at least 1" in err


def option_action(command, option):
    parser = cli._build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if option in a.option_strings)


def option_choices(command, option):
    return list(option_action(command, option).choices)


class TestParserChoices:
    """Every choice comes from linlam.names, in the order the enums list them."""

    FAMILIES = ["linear", "neutral", "normal", "planar-neutral", "planar-normal",
                "classes-neutral", "classes-normal"]

    @pytest.mark.parametrize("command", ["count", "list"])
    def test_families(self, command):
        from_names = [f.value for f in names.Family]
        from_names += [f"classes-{f.value}" for f in names.CLASS_FAMILIES]
        assert option_choices(command, "--family") == from_names == self.FAMILIES
        assert list(names.FAMILY_SERIES) == self.FAMILIES

    def test_series(self):
        from_names = [f.value for f in names.FamilyName]
        assert option_choices("series-table", "--family") == from_names
        assert from_names == ["L", "LB", "LR", "PB", "PR", "QB", "QR"]

    def test_variants(self):
        from_names = [v.value for v in names.Variant]
        assert option_choices("maps-census", "--variant") == from_names
        assert from_names == ["all", "planar", "trivalent"]


def planting(extra, at_edges=None):
    """maps.each_map, emitting extra after the all-genera census with at_edges, or every one."""
    original = maps.each_map

    def each_map(n_edges, emit, variant=maps.Variant.ALL_GENERA, cap_override=None):
        original(n_edges, emit, variant, cap_override)
        if variant is maps.Variant.ALL_GENERA and at_edges in (None, n_edges):
            emit(extra)

    return each_map


class TestCrosscheck:
    def test_small_run_passes(self, capsys):
        code, out = run(capsys, "crosscheck", "--max-n", "2")
        assert code == 0
        assert "crosscheck: PASS" in out
        assert "FAIL" not in out

    def test_bivariate_row_in_report(self):
        report = run_crosscheck(2)
        names = [c.name for c in report.checks]
        assert "series-vs-census:bivariate" in names
        assert "classes-vs-census:bivariate" in names
        assert report.ok

    def test_json_report(self, capsys):
        code, out = run(capsys, "crosscheck", "--max-n", "2", "--json")
        assert code == 0
        data = json.loads(out)
        assert data["pass"] is True
        assert all(c["ok"] for c in data["checks"])

    def test_tampered_reference_is_located(self, capsys, monkeypatch):
        bad = ReferenceSequences(quotient_closed=(1, 2, 11, 74, 706, 8162))
        monkeypatch.setattr(crosscheck, "run_crosscheck", partial(run_crosscheck, references=bad))
        code, out = run(capsys, "crosscheck", "--max-n", "2")
        assert code == 1
        bad_line = next(line for line in out.splitlines()
                        if line.startswith("[FAIL] references:series-quotient"))
        assert "n=3" in bad_line and "10 != 11" in bad_line
        assert out.endswith("crosscheck: FAIL\n")
        code, out = run(capsys, "crosscheck", "--max-n", "2", "--json")
        assert code == 1
        data = json.loads(out)
        assert data["pass"] is False
        row = next(c for c in data["checks"] if c["name"] == "references:series-quotient")
        assert list(row) == ["name", "producers", "indices", "ok", "divergence"]
        assert row["ok"] is False and bad_line.endswith(f": {row['divergence']}")

    def test_empty_sequence_fails(self):
        assert crosscheck._divergence([]) == "compared nothing"
        assert crosscheck._divergence([("n=0", 0, 0)]) == "compared nothing"
        assert crosscheck._prefix([], [1, 2]) == ("n=1..0", "compared nothing")

    @pytest.mark.parametrize("argv", list(CROSSCHECK_SHA256_AT_3))
    def test_report_is_pinned(self, capsys, argv):
        _, out = run(capsys, *argv)
        assert hashlib.sha256(out.encode()).hexdigest() == CROSSCHECK_SHA256_AT_3[argv]

    def test_series_window_reaches_the_longest_prefix(self):
        # A000698: a(n) = (2n-1)!! - sum_{k=1}^{n-1} (2k-1)!! a(n-k), from n=1
        odd_fact = [1]
        for k in range(1, 15):
            odd_fact.append(odd_fact[-1] * (2 * k - 1))
        a = [1]
        for n in range(1, 15):
            a.append(odd_fact[n] - sum(odd_fact[k] * a[n - k] for k in range(1, n)))
        quotient = tuple(a[1:])
        assert quotient[:6] == (1, 2, 10, 74, 706, 8162)
        assert quotient[12] == 7213364729026
        report = run_crosscheck(2, references=ReferenceSequences(quotient_closed=quotient))
        row = next(c for c in report.checks if c.name == "references:series-quotient")
        assert row.ok, row.divergence
        assert row.indices == "n=1..14"
        assert report.ok

    def test_zero_caps_fail(self, capsys):
        code, out = run(capsys, "crosscheck", "--max-n", "2", "--cap-override", "0")
        assert code == 1
        assert "crosscheck: FAIL" in out
        report = run_crosscheck(2, enum_cap=0, maps_cap=0)
        failing = {c.name for c in report.checks if not c.ok}
        assert {
            "classes-vs-series:normal-closed",
            "series-vs-census:bivariate",
            "classes-vs-census:bivariate",
            "classes:construction-vs-dedup",
            "maps:euler-parity",
            "maps:distinct-codes",
            "references:enum-linear",
            "references:maps-quotient",
            "enum-vs-series:linear",
            "enum-vs-series:normal",
            "enum-vs-series:planar-normal",
        } <= failing
        assert all(
            c.divergence == "compared nothing" for c in report.checks if not c.ok
        )

    def test_reference_list_window_is_what_was_enumerated(self):
        def row(report):
            return next(c for c in report.checks if c.name == "terms:embedded-list")

        empty = row(run_crosscheck(2, enum_cap=0, maps_cap=0))
        assert not empty.ok
        assert empty.divergence == "compared nothing"
        assert empty.indices == "sizes 1..0"
        assert row(run_crosscheck(2)).indices == "sizes 1..2"
        assert row(run_crosscheck(3)).indices == "sizes 1..3"

    def test_each_class_family_enumerated_once(self, monkeypatch):
        cells = []
        original = enumeration.enum_cells

        def spy(family, max_n):
            for n, k, terms in original(family, max_n):
                cells.append((family, n, k))
                yield n, k, terms

        monkeypatch.setattr(enumeration, "enum_cells", spy)
        assert run_crosscheck(3).ok
        for family in (enumeration.Family.NEUTRAL, enumeration.Family.NORMAL):
            got = [(n, k) for f, n, k in cells if f is family]
            assert got == [(n, k) for n in range(4) for k in range(n + 2)]

    @pytest.mark.parametrize(
        "family,n,k,edit,divergence",
        [
            (
                enumeration.Family.NORMAL, 3, 0, lambda reps: reps[1:],
                "normal (n=3, k=0): 9 constructed != 10 by dedup",
            ),
            (
                enumeration.Family.NEUTRAL, 1, 1, lambda reps: reps[1:],
                "neutral (n=1, k=1): 0 constructed != 1 by dedup",
            ),
            (
                enumeration.Family.NEUTRAL, 2, 1, lambda reps: reps + reps[:1],
                "neutral (n=2, k=1): a representative was constructed twice",
            ),
            (
                enumeration.Family.NEUTRAL, 2, 2, lambda reps: [swap_free(reps[0])] + reps[1:],
                "neutral (n=2, k=2): constructed and dedup representatives differ",
            ),
        ],
    )
    def test_class_construction_row_is_live(self, monkeypatch, family, n, k, edit, divergence):
        def row(report):
            return next(c for c in report.checks if c.name == "classes:construction-vs-dedup")

        assert row(run_crosscheck(3)).ok
        original = enumeration.class_cells

        def tampered(f, max_n):
            for m, j, cell in original(f, max_n):
                yield m, j, iter(edit(list(cell))) if (f, m, j) == (family, n, k) else cell

        monkeypatch.setattr(enumeration, "class_cells", tampered)
        bad = row(run_crosscheck(3))
        assert not bad.ok
        assert bad.divergence == divergence

    def test_class_construction_row_counts_every_relabeling(self, monkeypatch):
        # dedup losing a class that no constructed form stands for: only
        # the k! count can see it
        original = exchange.dedup_ledger

        def tampered(family, max_n):
            ledger = original(family, max_n)
            if family is enumeration.Family.NEUTRAL:
                groups = ledger[(2, 2)]
                swapped = [terms.FVar(1), terms.FVar(0)]
                groups.remove(
                    next(g for g in groups if list(exchange.occurrences(g[0])) == swapped)
                )
            return ledger

        monkeypatch.setattr(exchange, "dedup_ledger", tampered)
        bad = next(
            c for c in run_crosscheck(3).checks if c.name == "classes:construction-vs-dedup"
        )
        assert not bad.ok
        assert bad.divergence == "neutral (n=2, k=2): 2! x 5 constructed != 9 by dedup"

    def test_dedup_is_one_census_per_class_family(self, monkeypatch):
        # every dedup cell of a class family comes from one enum_cells call,
        # and each of its terms is canonicalized exactly once
        calls, cells, enumerated, canonicalized = [], [], [], []
        enum_cells, canonicalize = enumeration.enum_cells, exchange.canonicalize

        def cells_spy(family, max_n):
            calls.append(family)
            for n, k, cell in enum_cells(family, max_n):
                cells.append((family, n, k))
                terms_of_cell = list(cell)
                enumerated.extend(terms_of_cell)
                yield n, k, iter(terms_of_cell)

        depth = 0

        def canonicalize_spy(t):
            # canonicalize recurses through its module global: keep outermost calls
            nonlocal depth
            if not depth:
                canonicalized.append(t)
            depth += 1
            try:
                return canonicalize(t)
            finally:
                depth -= 1

        monkeypatch.setattr(enumeration, "enum_cells", cells_spy)
        monkeypatch.setattr(exchange, "canonicalize", canonicalize_spy)
        assert run_crosscheck(4).ok
        for family in enumeration.CLASS_FAMILIES:
            assert calls.count(family) == 1
            got = [(n, k) for f, n, k in cells if f is family]
            assert got == [(n, k) for n in range(4) for k in range(n + 2)]
        # the terms are kept alive in the lists, so their ids are distinct
        ids = Counter(map(id, enumerated))
        assert Counter(id(t) for t in canonicalized if id(t) in ids) == ids

    def test_each_map_census_generated_once(self, monkeypatch):
        calls = []
        original = maps.each_map

        def spy(n_edges, emit, variant=maps.Variant.ALL_GENERA, cap_override=None):
            calls.append((n_edges, variant))
            original(n_edges, emit, variant, cap_override)

        monkeypatch.setattr(maps, "each_map", spy)
        assert run_crosscheck(3).ok
        assert len(calls) == len(set(calls))
        assert [n for n, v in calls if v is maps.Variant.ALL_GENERA] == [1, 2, 3]

    def test_each_map_walked_once(self, monkeypatch):
        # one all-genera census per edge count serves every map row, the
        # planar one included, and each map's genus is computed once
        dart_counts = []
        genera = []
        sigmas, genus = maps._sigmas, maps.genus

        def sigmas_spy(dart_count, emit):
            dart_counts.append(dart_count)
            sigmas(dart_count, emit)

        def genus_spy(m):
            genera.append(m)
            return genus(m)

        monkeypatch.setattr(maps, "_sigmas", sigmas_spy)
        monkeypatch.setattr(maps, "genus", genus_spy)
        assert run_crosscheck(3).ok
        assert dart_counts == [2, 4, 6]
        assert len(genera) == 2 + 10 + 74

    def test_no_series_product_outside_solve(self, monkeypatch):
        # the equation rows report what solve checked; nothing re-derives them
        solving = []
        products = []
        solve, convolve = series.solve, series._convolve

        def solve_spy(which, trunc=12):
            solving.append(which)
            try:
                return solve(which, trunc)
            finally:
                solving.pop()

        def convolve_spy(terms, egf):
            products.append(bool(solving))
            return convolve(terms, egf)

        monkeypatch.setattr(series, "solve", solve_spy)
        monkeypatch.setattr(series, "_convolve", convolve_spy)
        assert run_crosscheck(3).ok
        assert products and all(products)

    @pytest.mark.parametrize(
        "row,equation",
        [
            ("series:quotient-route-agreement", "FIXPOINT"),
            ("series:closed-quotient-shift", "CLOSED_SHIFT"),
        ],
    )
    def test_equation_rows_read_the_solve_record(self, monkeypatch, row, equation):
        real = series._verify_quotient

        def nothing_compared(b, r, product):
            return {**real(b, r, product), getattr(series, equation): 0}

        monkeypatch.setattr(series, "_verify_quotient", nothing_compared)
        checks = {c.name: c for c in run_crosscheck(2).checks}
        assert checks[row].divergence == "compared nothing"
        assert [c.name for c in checks.values() if not c.ok] == [row]

    def test_each_equation_system_solved_once(self, monkeypatch):
        calls = []
        original = series.solve

        def spy(which, trunc=12):
            calls.append(series.FamilyName(which))
            return original(which, trunc)

        monkeypatch.setattr(series, "solve", spy)
        assert run_crosscheck(3).ok
        assert sorted(c.value for c in calls) == ["L", "LB", "PB", "QB"]

    def test_grouping_row_reports_the_first_problem(self, monkeypatch):
        monkeypatch.setattr(exchange, "is_isomorphic", lambda t, rep: False)
        report = run_crosscheck(1)
        row = next(c for c in report.checks if c.name == "classes:embedded-grouping")
        assert row.divergence == "λa.a not isomorphic to its representative"

    def test_euler_parity_reports_genus_error(self, monkeypatch):
        # one dart fixed by both permutations: Euler defect 1
        invalid = maps.RootedMap((0,), (0,))
        monkeypatch.setattr(maps, "each_map", planting(invalid))
        report = run_crosscheck(2)
        row = next(c for c in report.checks if c.name == "maps:euler-parity")
        assert not row.ok
        assert row.divergence == f"map {invalid.to_text()}: odd Euler defect: invalid map"

    def test_embedded_list_reports_a_size_out_of_range(self, monkeypatch):
        original = terms.classify

        def oversized(t):
            if t == terms.Lam(terms.Var(0)):
                return terms.Classification(terms.Kind.NORMAL_ONLY, 4)
            return original(t)

        monkeypatch.setattr(terms, "classify", oversized)
        report = run_crosscheck(2)
        row = next(c for c in report.checks if c.name == "terms:embedded-list")
        assert not row.ok
        assert row.divergence == "'λx. x' classified as size 4, not 1..3"

    def test_distinct_codes_reports_a_code_error(self, monkeypatch):
        # two one-edge maps side by side: not transitive, so no code
        disconnected = maps.RootedMap((0, 1, 2, 3), (1, 0, 3, 2))
        monkeypatch.setattr(maps, "each_map", planting(disconnected))
        report = run_crosscheck(2)
        row = next(c for c in report.checks if c.name == "maps:distinct-codes")
        assert not row.ok
        assert row.divergence == (f"map {disconnected.to_text()}: "
                                  "sigma and alpha must act transitively on the darts")

    def test_distinct_codes_reports_an_isomorphic_pair(self, monkeypatch):
        # a relabelled copy of a three-edge census map, after the census: the
        # walk keeps only codes, so it walks three edges again to name both maps
        copy = maps.conjugate(maps.census_maps(3)[7], (2, 3, 0, 1, 5, 4))
        monkeypatch.setattr(maps, "each_map", planting(copy, at_edges=3))
        report = run_crosscheck(3)
        row = next(c for c in report.checks if c.name == "maps:distinct-codes")
        assert row.divergence == (
            "maps sigma=(0)(1 2 4 5)(3) alpha=(0 1)(2 3)(4 5) root=0 and "
            "sigma=(0 5 4 3)(1)(2) alpha=(0 1)(2 3)(4 5) root=2 are isomorphic"
        )

    def test_output_is_deterministic(self, capsys):
        _, first = run(capsys, "crosscheck", "--max-n", "2")
        _, second = run(capsys, "crosscheck", "--max-n", "2")
        assert first == second


class TestEmbeddedData:
    def test_thirty_terms(self):
        assert len(NORMAL_TERMS_UP_TO_SIZE_3) == 30
        assert len(NORMAL_CLASS_GROUPS_UP_TO_SIZE_3) == 13

    def test_reference_prefixes(self):
        refs = crosscheck.REFERENCE_SEQUENCES
        assert refs.linear_closed[:3] == (1, 5, 60)
        assert refs.quotient_closed == (1, 2, 10, 74, 706, 8162)
        assert refs.oeis["quotient_closed"] == "A000698"


class TestDeterministicOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "--family", "linear", "--max-n", "3"),
            ("list", "--family", "classes-normal", "--closed", "--n", "3"),
            ("series-table", "--family", "QB", "--max-n", "4"),
            ("maps-census", "--edges", "3"),
        ],
    )
    def test_byte_identical_across_runs(self, capsys, argv):
        _, first = run(capsys, *argv)
        _, second = run(capsys, *argv)
        assert first == second
        assert first


@pytest.mark.parametrize("command, status", list(FORMAT_SHA256))
def test_every_output_format_is_pinned(capsys, command, status):
    code, out = run(capsys, *command.split())
    assert code == status
    assert hashlib.sha256(out.encode()).hexdigest() == FORMAT_SHA256[command, status]


def test_crosscheck_exercises_every_operation(monkeypatch, capsys, tmp_path):
    """One crosscheck run must touch every public operation of every module."""
    # hits go through a file, so that the series check's sibling process counts
    log = tmp_path / "hits"
    log.touch()

    def spy(owner, name, label):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            with open(log, "a") as out:
                out.write(label + "\n")
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    operations = [
        (terms, "parse"), (terms, "render"), (terms, "check_linear"),
        (terms, "classify"),
        # the crosscheck reads enumerated terms from exchange.dedup_ledger's one
        # enum_cells census, so enum_cells, not enum_family, is what it runs
        (enumeration, "enum_cells"), (enumeration, "count_family"),
        (exchange, "local_exchanges"), (exchange, "canonicalize"),
        (exchange, "is_isomorphic"), (exchange, "count_classes"),
        (series, "_square_rows"), (series, "_pair_products"), (series.BiSeries, "d_dx"),
        (series.BiSeries, "discrete_d"), (series.BiSeries, "taylor_shift"),
        (series, "solve"),
        # genus counts faces in one walk; faces itself is covered in test_maps
        (maps, "each_map"), (maps, "genus"), (maps, "canonical_code"),
        (maps, "census"),
    ]
    labels = {f"{owner.__name__}.{name}" for owner, name in operations}
    for owner, name in operations:
        spy(owner, name, f"{owner.__name__}.{name}")

    assert cli.main(["crosscheck", "--max-n", "2"]) == 0
    capsys.readouterr()
    missing = labels - set(log.read_text().split())
    assert not missing, f"operations never exercised: {sorted(missing)}"

    # the remaining command surfaces
    assert cli.main(["count", "--family", "normal", "--closed", "--max-n", "2"]) == 0
    assert cli.main(["list", "--family", "normal", "--closed", "--n", "1"]) == 0
    capsys.readouterr()


def readme_commands():
    """(argv, comment) for each `linlam` line of README's "Command line" block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        argv = shlex.split(command)
        assert argv[0] == "linlam", line
        yield argv[1:], comment.strip()


def normal_size_2_terms(out):
    found = [terms.classify(terms.parse(line)) for line in out.splitlines()]
    return len(found) == 3 and all(c.is_normal and c.normal_size == 2 for c in found)


def ten_groups_of_26_terms(out):
    groups = [g.split("\n") for g in out.strip("\n").split("\n\n")]
    return len(groups) == 10 and sum(map(len, groups)) == 26


# what each comment in README's command block says the command prints, by comment
README_CLAIMS = {
    "1 3 26 367": lambda out: out.split() == ["1", "3", "26", "367"],
    "the three size-2 terms": normal_size_2_terms,
    "10 groups, 26 terms": ten_groups_of_26_terms,
    "1 2 10 74 706 8162": lambda out: out.split() == ["1", "2", "10", "74", "706", "8162"],
    "edges,vertices,count": lambda out: out.splitlines()[0] == "edges,vertices,count",
}


def test_restated_cap_defaults_match_run_crosscheck():
    # the CLI restates the defaults, since reading them would load every
    # layer for --help; README restates them too
    params = inspect.signature(run_crosscheck).parameters
    enum_cap, maps_cap = params["enum_cap"].default, params["maps_cap"].default
    help_text = option_action("crosscheck", "--cap-override").help
    assert f"(defaults {enum_cap} and {maps_cap})" in help_text
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    assert f"enumeration to size {enum_cap} and map census to {maps_cap} edges" in readme


def test_readme_command_examples(capsys):
    seen = set()
    for argv, comment in readme_commands():
        code, out = run(capsys, *argv)
        assert code == 0, argv
        if comment in README_CLAIMS:
            assert README_CLAIMS[comment](out), (argv, out)
            seen.add(comment)
    assert seen == set(README_CLAIMS)
