"""Benchmark of the linlam census toolkit, end to end and per layer.

Run from the root of a source checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all          # every workload, untraced and traced
  python3 perfbench/run.py --self-test    # the checker must reject bad output

Every command runs as its own fresh `python3 -m linlam` process, one at a
time (a closed loop with one client).  Each pass of a workload gets an empty
working directory, HOME and XDG_CACHE_HOME, removed afterwards, so no cache
carries work from one pass to the next.  The seed only permutes the order of
commands within a pass: every seed does the same work.

A run makes at least one pass, and starts another only while a typical
pass still ends within --seconds.
With --trace 0 it first measures set-up time, and reports a pass as the
sum of each command's median time.  With --trace 1 every command runs
through traced.py, which wraps each layer's public calls, and the run ends
with the reach probe.  The last line of stdout is a JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

from workloads import (
    HELP, MAP_CELLS, WORKLOADS, Command, a000698, a062980, reference_problems,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACED = HERE / "traced.py"
PEAK_RSS = HERE / "peak_rss.py"

SETUP_SAMPLES = 15
# Every run must end within 180 s; commands still running at this point of
# the run are killed and count as failed.
RUN_BUDGET_S = 165.0
# Reach probe: per-step time limit, including interpreter start.
REACH_BUDGET_S = 2.0

FAMILY_METRICS = {
    "enumeration.count_family": ("linear", "neutral", "normal", "planar-neutral", "planar-normal"),
    "exchange.count_classes": ("neutral", "normal"),
    "series.solve": ("L", "LB", "LR", "PB", "PR", "QB", "QR"),
    "maps.census_maps": ("all", "planar", "trivalent"),
}


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class Outcome:
    wall_s: float
    cpu_s: float
    exit_code: int | None
    timed_out: bool
    stdout: bytes
    stderr: bytes

    def failure(self, command: Command) -> str | None:
        """Why this command failed, or None when its run and output are right."""
        if self.timed_out:
            return "timed out"
        if self.exit_code != 0:
            lines = self.stderr.decode("utf-8", "replace").strip().splitlines()
            return f"exit status {self.exit_code}" + (f": {lines[-1]}" if lines else "")
        return command.judge(self.stdout)


def run_child(argv: list[str], cwd: Path, env: dict[str, str], timeout: float) -> Outcome:
    """Run one process to completion; kill its process group at the timeout."""
    out_path, err_path = cwd.parent / "stdout", cwd.parent / "stderr"
    lock = threading.Lock()
    reaped = False
    killed = False
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, start_new_session=True)

        def kill() -> None:
            nonlocal killed
            with lock:
                if not reaped:
                    killed = True
                    os.killpg(proc.pid, signal.SIGKILL)

        timer = threading.Timer(max(timeout, 0.0), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            with lock:
                reaped = True
        finally:
            timer.cancel()
            timer.join()
            if not reaped:  # interrupted while waiting: leave nothing running
                os.killpg(proc.pid, signal.SIGKILL)
                os.waitpid(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    stdout, stderr = out_path.read_bytes(), err_path.read_bytes()
    out_path.unlink()
    err_path.unlink()
    return Outcome(wall, usage.ru_utime + usage.ru_stime, proc.returncode, killed,
                   stdout, stderr)


class PassDir:
    """A fresh, empty working directory, HOME and cache for one pass."""

    def __init__(self, parent: Path) -> None:
        self.root = Path(tempfile.mkdtemp(dir=parent))
        self.cwd = self.root / "cwd"
        self.peak = self.root / "peak_kb"
        for sub in ("cwd", "home", "cache", "tmp"):
            (self.root / sub).mkdir()
        self.env = {
            "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
            "HOME": str(self.root / "home"),
            "XDG_CACHE_HOME": str(self.root / "cache"),
            "TMPDIR": str(self.root / "tmp"),
            "PYTHONPATH": str(SRC),
            "PYTHONUTF8": "1",
        }

    def __enter__(self) -> PassDir:
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.root)


def linlam_argv(command: Command, box: PassDir) -> list[str]:
    """`python3 -m linlam ARGS`, recording its peak RSS in the pass directory."""
    return [sys.executable, str(PEAK_RSS), str(box.peak), *command.args]


# ---------------------------------------------------------------------------
# Passes


@dataclass
class Pass:
    walls: dict[str, float]  # command key -> spawn-to-exit seconds
    peak_rss_mb: float
    cpu_s: float
    output_bytes: int
    traces: list[dict]

    @property
    def wall_s(self) -> float:
        return sum(self.walls.values())


def median_pass_s(passes: list[Pass]) -> float:
    """Sum over the commands of each one's median time among the passes.

    On a shared host a command's time has a long tail on both sides: other
    tenants slow it, and now and then it runs alone on its core.  The median
    of each command ignores both tails; a minimum would follow the rare fast
    moments and vary more from run to run.
    """
    keys = {k for p in passes for k in p.walls}
    return sum(statistics.median(p.walls[k] for p in passes if k in p.walls) for k in keys)


class Run:
    """Bookkeeping shared by every pass of one run."""

    def __init__(self, workdir: Path, deadline: float) -> None:
        self.workdir = workdir
        self.deadline = deadline
        self.attempted = 0
        self.failures: list[str] = []

    def execute(self, command: Command, argv: list[str], box: PassDir) -> Outcome | None:
        self.attempted += 1
        try:
            outcome = run_child(argv, box.cwd, box.env, self.deadline - time.monotonic())
        except OSError as e:
            self.failures.append(f"{command.key}: could not start: {e}")
            return None
        problem = outcome.failure(command)
        if problem is not None:
            self.failures.append(f"{command.key}: {problem}")
        return outcome

    def one_pass(self, commands: list[Command], traced: bool) -> Pass:
        walls, rss, cpu, size, traces = {}, [], [], 0, []
        with PassDir(self.workdir) as box:
            for i, command in enumerate(commands):
                trace_path = box.root / f"trace{i}.json"
                argv = ([sys.executable, str(TRACED), str(trace_path), str(i), *command.args]
                        if traced else linlam_argv(command, box))
                outcome = self.execute(command, argv, box)
                if outcome is None:
                    continue
                walls[command.key] = outcome.wall_s
                cpu.append(outcome.cpu_s)
                if box.peak.exists():
                    rss.append(int(box.peak.read_text()) / 1024)
                    box.peak.unlink()
                size += len(outcome.stdout)
                if traced and trace_path.exists():
                    traces.append(json.loads(trace_path.read_text()))
        return Pass(walls, max(rss, default=0.0), sum(cpu), size, traces)

    def setup_s(self) -> float:
        """Median wall time of a fresh `linlam --help`, after one warm-up."""
        samples = []
        with PassDir(self.workdir) as box:
            for i in range(SETUP_SAMPLES + 1):
                outcome = self.execute(HELP, linlam_argv(HELP, box), box)
                if outcome is not None and i:
                    samples.append(outcome.wall_s)
        return statistics.median(samples) if samples else 0.0


# ---------------------------------------------------------------------------
# Per-layer metrics from traces


def layer_metrics(passes: list[Pass]) -> dict[str, float]:
    """Per-layer figures from the fastest traced pass; counts repeat exactly."""
    p = min(passes, key=lambda q: q.wall_s)
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    for trace in p.traces:
        for key, value in trace["seconds"].items():
            seconds[key] += value
        for key, value in trace["counts"].items():
            counts[key] += value
        for key, value in trace["self_s"].items():
            self_s[key] += value

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    terms = counts["enumeration.terms"]
    coeffs = counts["series.coeffs"]
    kept = counts["maps.maps"]
    classes = counts["exchange.classes"]
    m = {
        "enumeration.terms": terms,
        "enumeration.gen_s": seconds["enumeration.gen_s"],
        "enumeration.terms_per_s": ratio(terms, seconds["enumeration.gen_s"]),
        "exchange.class_groups.s": seconds["exchange.class_groups.s"],
        "exchange.self_s": self_s["exchange"],
        "exchange.canonicalize.calls": counts["exchange.canonicalize.calls"],
        "exchange.classes": classes,
        "exchange.keep_ratio": ratio(classes, counts["exchange.canonicalize.calls"]),
        "series.coeffs": coeffs,
        "series.coeffs_per_s": ratio(
            coeffs, sum(seconds[f"series.solve.{f}.s"] for f in FAMILY_METRICS["series.solve"])),
        "maps.census_maps.calls": counts["maps.census_maps.calls"],
        "maps.canonical_code.calls": counts["maps.canonical_code.calls"],
        "maps.canonical_code.s": seconds["maps.canonical_code.s"],
        "maps.maps": kept,
        "maps.keep_ratio": ratio(kept, counts["maps.canonical_code.calls"]),
        "maps.maps_per_s": ratio(
            kept, sum(seconds[f"maps.census_maps.{v}.s"] for v in FAMILY_METRICS["maps.census_maps"])),
        "terms.render.calls": counts["terms.render.calls"],
        "terms.render.s": seconds["terms.render.s"],
        "terms.parse.calls": counts["terms.parse.calls"],
        "terms.parse.s": seconds["terms.parse.s"],
        "crosscheck.rows": counts["crosscheck.rows"],
        "crosscheck.rows_failed": counts["crosscheck.rows_failed"],
        "crosscheck.self_s": self_s["crosscheck"],
        "cli.self_s": self_s["cli"],
        "cli.output_bytes": p.output_bytes,
        "cli.cpu_s": p.cpu_s,
        "trace.wall_s": median_pass_s(passes),
    }
    for prefix, names in FAMILY_METRICS.items():
        for name in names:
            m[f"{prefix}.{name}.s"] = seconds[f"{prefix}.{name}.s"]
    return m


def print_spans(p: Pass) -> None:
    """The coarse spans the traced commands wrote, one line each."""
    for trace in p.traces:
        spans = trace["spans"]
        for span in spans:
            parent = "-" if span["parent"] is None else spans[span["parent"]]["name"]
            print(f"  span command={trace['command']} {span['name']} "
                  f"{span['end'] - span['start']:.4f} s (in {parent})")


# ---------------------------------------------------------------------------
# Reach probe (diagnostic: reach moves in whole steps, so it is never gated)

ENUM_PROBE = (
    "import sys\n"
    "from linlam.enumeration import Family, enum_family\n"
    "print(sum(1 for _ in enum_family(Family.LINEAR, int(sys.argv[1]), 0)))\n"
)


def reach(run: Run, steps, probe) -> int:
    """Largest step whose probe finishes, correctly, within REACH_BUDGET_S.

    probe(step) gives the linlam arguments (or a full argv) and a predicate
    on the decoded stdout.
    """
    best = 0
    with PassDir(run.workdir) as box:
        for step in steps:
            argv, correct = probe(step)
            try:
                outcome = run_child(argv, box.cwd, box.env, REACH_BUDGET_S)
            except OSError:
                break
            if outcome.timed_out or outcome.exit_code != 0 or not correct(outcome.stdout.decode()):
                break
            best = step
    return best


def reach_metrics(run: Run) -> dict[str, int]:
    linear = a062980(12)
    maps_total = a000698(12)

    def enum_probe(n):
        argv = [sys.executable, "-c", ENUM_PROBE, str(n)]
        return argv, lambda text: text == f"{linear[n - 1]}\n"

    def maps_probe(e):
        def correct(text):
            counts = [int(line.rsplit(",", 1)[1]) for line in text.splitlines()[1:]]
            return sum(counts) == maps_total[e + 1]
        args = ["maps-census", "--edges", str(e), "--cap-override", str(e)]
        return [sys.executable, "-m", "linlam", *args], correct

    def series_probe(t):
        args = ["series-table", "--family", "L", "--closed", "--max-n", str(t)]
        want = "".join(f"{a}\n" for a in a062980(t))
        return [sys.executable, "-m", "linlam", *args], lambda text: text == want

    return {
        "enumeration.reach_n": reach(run, range(1, 10), enum_probe),
        "maps.reach_edges": reach(run, range(1, 10), maps_probe),
        "series.reach_trunc": reach(run, range(10, 310, 10), series_probe),
    }


# ---------------------------------------------------------------------------
# Self-test of the checker


def self_test(workdir: Path) -> bool:
    """Feed the checker good and corrupted inputs; print what it gets wrong."""
    missed = [f"holds reference data that {p}" for p in reference_problems()]
    census = WORKLOADS["maps-census"][0]
    good = "n,k,count\n" + "".join(
        f"{n},{k},{MAP_CELLS.get(n, {}).get(k, 0)}\n" for n in range(5) for k in range(n + 2))
    if census.judge(good.encode()) is not None:
        missed.append("rejected the correct census")
    bad = good.replace("4,3,234\n", "4,3,235\n")
    if bad == good or census.judge(bad.encode()) is None:
        missed.append("accepted a census with one cell off by one")

    crosscheck = WORKLOADS["crosscheck"][0]
    rows = [{"name": "a", "ok": True, "divergence": None},
            {"name": "b", "ok": True, "divergence": None}]
    if crosscheck.judge(json.dumps({"pass": True, "checks": rows}).encode()) is not None:
        missed.append("rejected a passing crosscheck report")
    failed_row = [rows[0], dict(rows[1], ok=False, divergence="1 != 2")]
    if crosscheck.judge(json.dumps({"pass": True, "checks": failed_row}).encode()) is None:
        missed.append("accepted a crosscheck report with one row failed")
    if crosscheck.judge(json.dumps({"pass": True, "checks": []}).encode()) is None:
        missed.append("accepted a crosscheck report with zero rows")

    probe = Run(workdir, time.monotonic() + 10)
    exits = Command(("exit-probe",), lambda text: None, hashed=False)
    with PassDir(workdir) as box:
        nonzero = probe.execute(exits, [sys.executable, "-c", "raise SystemExit(3)"], box)
        if nonzero is None or nonzero.failure(exits) is None:
            missed.append("accepted a non-zero exit")
        probe.deadline = time.monotonic() + 0.5
        hung = probe.execute(exits, [sys.executable, "-c", "import time; time.sleep(60)"], box)
        if hung is None or not hung.timed_out or hung.failure(exits) is None:
            missed.append("accepted a timeout")
    if len(probe.failures) != 2:
        missed.append("did not count one failure per bad command")
    for item in missed:
        print(f"self-test: the checker {item}")
    return not missed


# ---------------------------------------------------------------------------
# Entry points


def machine_facts() -> str:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return f"machine: cores={os.cpu_count()} python={platform.python_version()} cpu={cpu}"


def run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path) -> dict:
    started = time.monotonic()
    run = Run(workdir, started + RUN_BUDGET_S)
    checker_ok = self_test(workdir)
    rng = random.Random(seed)
    commands = list(WORKLOADS[name])
    setup = None if traced else run.setup_s()
    passes: list[Pass] = []
    measure_start = time.monotonic()
    while True:
        rng.shuffle(commands)
        passes.append(run.one_pass(commands, traced))
        # Start another pass only if a typical one still ends within --seconds
        # (and the longest one within the run's budget).
        now = time.monotonic()
        typical = statistics.median(p.wall_s for p in passes)
        longest = max(p.wall_s for p in passes)
        if now - measure_start + typical > seconds or now + longest > run.deadline:
            break
    if traced:
        print_spans(passes[0])
        values = {**layer_metrics(passes), **reach_metrics(run)}
        units = per_layer_units()
        metrics = {k: {"value": values[k], "unit": units[k]} for k in units}
    else:
        metrics = {
            "wall_s": {"value": median_pass_s(passes), "unit": "s"},
            "setup_s": {"value": setup, "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(p.peak_rss_mb for p in passes),
                            "unit": "MB"},
        }
    print("  passes (s):", " ".join(f"{p.wall_s:.3f}" for p in passes))
    for failure in run.failures:
        print(f"failed: {failure}")
    failed_frac = len(run.failures) / run.attempted
    print(machine_facts())
    print(f"workload {name}: seed={seed} passes={len(passes)} traced={int(traced)} "
          f"elapsed={time.monotonic() - started:.1f}s")
    for key, entry in metrics.items():
        print(f"  {key} = {entry['value']:.6g} {entry['unit']}")
    print(f"  failed_frac = {failed_frac:.6g} ratio ({len(run.failures)}/{run.attempted})")
    return {
        "correct": checker_ok and not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": metrics,
    }


def per_layer_units() -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def run_all(seed: int, seconds: float, workdir: Path) -> dict:
    """Every workload untraced and traced, with the tracing overhead."""
    summary = {}
    for name in WORKLOADS:
        plain = run_workload(name, seed, seconds, False, workdir)
        traced = run_workload(name, seed, seconds, True, workdir)
        overhead = traced["metrics"]["trace.wall_s"]["value"] - plain["metrics"]["wall_s"]["value"]
        print(f"  trace overhead = {overhead:.4g} s (traced wall_s - untraced wall_s)")
        summary[name] = {
            "correct": plain["correct"] and traced["correct"],
            "failed_frac": (plain["failed"] + traced["failed"])
            / (plain["attempted"] + traced["attempted"]),
            "trace_overhead_s": overhead,
            **{k: v["value"] for k, v in plain["metrics"].items()},
        }
    print()
    print(f"{'workload':<15} {'wall_s (s)':>11} {'setup_s (s)':>12} {'peak_rss_mb (MB)':>17} "
          f"{'failed_frac':>12} {'overhead (s)':>13}")
    for name, s in summary.items():
        print(f"{name:<15} {s['wall_s']:>11.4f} {s['setup_s']:>12.4f} {s['peak_rss_mb']:>17.2f} "
              f"{s['failed_frac']:>12.4g} {s['trace_overhead_s']:>13.4f}")
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(WORKLOADS))
    mode.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    mode.add_argument("--self-test", action="store_true", help="check that the checker rejects bad output")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "linlam" / "__init__.py").is_file():
        print(f"linlam sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        if args.self_test:
            checker_ok = self_test(workdir)
            print("self-test:", "ok" if checker_ok else "FAIL")
            return 0 if checker_ok else 1
        if args.all:
            result = run_all(args.seed, args.seconds, workdir)
        else:
            result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
