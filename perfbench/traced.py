"""Run one linlam command with the public calls of every layer traced.

Usage: python3 perfbench/traced.py TRACE_JSON COMMAND_ID LINLAM_ARGS...

The program is not edited: module attributes are replaced by wrappers, the
way a test spies on them, and then ``linlam.cli.main`` runs.  Each wrapper
opens a frame on a stack; a frame's self time is its duration minus the
frames it encloses, so summing self time by layer splits the command's time
between the layers.  Coarse calls are also kept as spans (name, start, end,
parent, command id); calls made hundreds of thousands of times are only
counted and timed.  Everything stays in memory and is written to TRACE_JSON
when the command ends, including when it exits with an error.
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from time import perf_counter

LAYER, METRIC, SPAN, START, CHILD = range(5)


class Tracer:
    def __init__(self, command_id: int) -> None:
        self.command_id = command_id
        self.stack: list[list] = []
        self.spans: list[dict] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.seconds: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)

    def enter(self, layer: str, metric: str | None = None, span: str | None = None) -> list:
        span_id = None
        if span is not None:
            parent = next((f[SPAN] for f in reversed(self.stack) if f[SPAN] is not None), None)
            span_id = len(self.spans)
            self.spans.append(
                {"name": span, "parent": parent, "command": self.command_id}
            )
        frame = [layer, metric, span_id, perf_counter(), 0.0]
        self.stack.append(frame)
        if span_id is not None:
            self.spans[span_id]["start"] = frame[START]
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[START]
        self.self_s[frame[LAYER]] += duration - frame[CHILD]
        if frame[METRIC] is not None:
            self.seconds[frame[METRIC]] += duration
        if self.stack:
            self.stack[-1][CHILD] += duration
        if frame[SPAN] is not None:
            self.spans[frame[SPAN]]["end"] = end

    def wrap(self, owner, name: str, layer: str, *, metric=None, span: bool = False,
             on_result=None, top_only: bool = False) -> None:
        """Replace owner.name by a traced wrapper.

        metric names the seconds bucket, or computes it from the call's
        arguments; on_result(result, counts) runs outside the timed frames;
        top_only passes recursive calls straight through, so only outermost
        calls are counted.
        """
        original = getattr(owner, name)
        calls = f"{layer}.{name}.calls"
        span_name = f"{layer}.{name}" if span else None
        active = False

        def wrapper(*args, **kwargs):
            nonlocal active
            if top_only and active:
                return original(*args, **kwargs)
            self.counts[calls] += 1
            bucket = metric(*args, **kwargs) if callable(metric) else metric
            active = True
            frame = self.enter(layer, bucket, span_name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.exit(frame)
                active = False
            if on_result is not None:
                own = self.enter("trace")
                on_result(result, self.counts)
                self.exit(own)
            return result

        setattr(owner, name, wrapper)

    def iterate(self, items):
        """Yield from a generator, timing each step as enumeration work."""
        step = items.__next__
        while True:
            frame = self.enter("enumeration", "enumeration.gen_s")
            try:
                item = step()
            except StopIteration:
                return
            finally:
                self.exit(frame)
            self.counts["enumeration.terms"] += 1
            yield item

    def to_json(self) -> str:
        return json.dumps({
            "command": self.command_id,
            "spans": self.spans,
            "self_s": self.self_s,
            "seconds": self.seconds,
            "counts": self.counts,
        })


def _nonzero_coefficients(sol, counts) -> None:
    rows = sol.series.rows
    counts["series.coeffs"] += sum(1 for row in rows for c in row if c)


def install(tracer: Tracer) -> None:
    from linlam import cli, crosscheck, enumeration, exchange, maps, series, terms

    def traced_enum(original):
        def enum_family(*args, **kwargs):
            return tracer.iterate(original(*args, **kwargs))
        return enum_family

    # exchange imported the name, so both bindings need the wrapper
    enumeration.enum_family = traced_enum(enumeration.enum_family)
    exchange.enum_family = traced_enum(exchange.enum_family)

    tracer.wrap(enumeration, "count_family", "enumeration", span=True,
                metric=lambda family, max_n: f"enumeration.count_family.{family.value}.s")

    def add_classes(result, counts):
        counts["exchange.classes"] += sum(result.labeled.entries.values())

    def add_groups(result, counts):
        counts["exchange.classes"] += len(result)

    tracer.wrap(exchange, "count_classes", "exchange", span=True, on_result=add_classes,
                metric=lambda family, max_n: f"exchange.count_classes.{family.value}.s")
    tracer.wrap(exchange, "class_groups", "exchange", span=True, on_result=add_groups,
                metric="exchange.class_groups.s")
    # canonicalize recurses through its module global
    tracer.wrap(exchange, "canonicalize", "exchange", top_only=True)

    def solve_metric(which, trunc=12):
        return f"series.solve.{series.FamilyName(which).value}.s"

    tracer.wrap(series, "solve", "series", span=True, metric=solve_metric,
                on_result=_nonzero_coefficients)

    def census_metric(n_edges, variant=maps.Variant.ALL_GENERA, cap_override=None):
        return f"maps.census_maps.{variant.value}.s"

    def add_maps(result, counts):
        counts["maps.maps"] += len(result)

    tracer.wrap(maps, "census", "maps", span=True)
    tracer.wrap(maps, "census_maps", "maps", span=True, metric=census_metric,
                on_result=add_maps)
    tracer.wrap(maps, "canonical_code", "maps", metric="maps.canonical_code.s")

    tracer.wrap(terms, "render", "terms", metric="terms.render.s")
    tracer.wrap(terms, "parse", "terms", metric="terms.parse.s")

    def add_rows(report, counts):
        counts["crosscheck.rows"] += len(report.checks)
        counts["crosscheck.rows_failed"] += sum(1 for c in report.checks if not c.ok)

    tracer.wrap(crosscheck, "run_crosscheck", "crosscheck", span=True, on_result=add_rows)
    tracer.wrap(cli, "main", "cli", span=True)


def main() -> None:
    trace_path, command_id, argv = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
    tracer = Tracer(command_id)
    install(tracer)
    from linlam import cli

    try:
        status = cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(trace_path, "w", encoding="utf-8") as f:
            f.write(tracer.to_json())
    sys.exit(status)


if __name__ == "__main__":
    main()
