#!/usr/bin/env python3
"""coopjam benchmark: one closed-loop workload per run, end to end or traced.

    python3 bench/run.py --workload {sweep,verify,cli,all} \
        --seed N --seconds S --trace {0,1}

Run from anywhere; it uses the coopjam sources in `src/` next to this
directory and refuses any other copy.  One caller thread sends each request
after the previous one returns.  The workloads, and why each exists, are
listed in BENCHMARK.json.

--trace 0 measures the end-to-end metrics of BENCHMARK.json with tracing
off.  --trace 1 replays a fixed slice of the same requests, alternating
untraced and traced passes, and reports the per-layer metrics; the gap
between the two kinds of pass is the tracing overhead.  Every run checks
the program's outputs, prints every metric with its unit, writes a record
to .bench_out/, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from array import array
from bisect import bisect_left
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import coopjam  # noqa: E402
import coopjam.verify  # noqa: E402
from tracer import Tracer, layer_names  # noqa: E402

CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
CHILD_TIMEOUT_S = 120
WINDOWS = 16  # measuring windows per end-to-end run
SOUNDNESS_TOL = 1e-9
GAIN_DECADES = (-2.0, 2.0)  # log10 range of the gains a and b
BUDGET_DECADES = (-1.0, 2.0)  # log10 range of the budgets and powers

# Which end-to-end metric each layer metric should move, and on which
# workload, written with every result so a later change can be held to it.
MOVES = {
    "model.ctor": "items_per_s and latency_ms on sweep, latency_ms on verify",
    "achievable.rate, achievable.branch.*": "items_per_s and latency_ms on sweep, latency_ms on verify",
    "power.optimal, power.closed_form_ratio": "items_per_s and latency_ms on sweep, latency_ms on verify",
    "power.grid": "latency_ms on verify and cli (power --check-grid); nothing on sweep",
    "bound.sato": "items_per_s and latency_ms on sweep, latency_ms on verify",
    "bound.oracle, bound.f": "latency_ms on verify only",
    "sweep.run, sweep.render": "items_per_s on sweep; the small-sweep share of cli fig2",
    "verify.*": "latency_ms on verify",
    "cli.*_ms": "latency_ms on cli and setup_s on every workload; nothing else",
}


class OutputMismatch(Exception):
    """A request returned a result that fails the benchmark's output check."""


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def check_source() -> None:
    found = Path(coopjam.__file__).resolve().parent
    if found != SRC / "coopjam":
        raise SystemExit(f"coopjam was imported from {found}, not from {SRC}")


def _python(args: list[str], check: bool = True) -> subprocess.CompletedProcess:
    """Run the current interpreter on coopjam's sources and wait for it to exit."""
    proc = subprocess.run(
        [sys.executable, *args],
        env=CHILD_ENV,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
    )
    if check and proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}: {proc.stderr.strip()}")
    return proc


def _wall_ms(args: list[str]) -> float:
    t0 = time.perf_counter()
    _python(args)
    return (time.perf_counter() - t0) * 1e3


def _log_uniform(rng: np.random.Generator, decades: tuple[float, float], shape) -> np.ndarray:
    return 10.0 ** rng.uniform(decades[0], decades[1], shape)


class Latencies:
    """Request latencies in ns.

    Values under 1 ms go into 10 ns bins and longer ones into a list, so a
    stream of millions of short requests takes fixed memory and does not
    move peak_rss_mb when the program gets faster.
    """

    BIN_NS = 10
    BINS = 100_000

    def __init__(self) -> None:
        self.bins = array("q", bytes(8 * self.BINS))
        self.long: list[int] = []
        self.n = 0
        self.total_ns = 0

    def add(self, ns: int) -> None:
        self.n += 1
        self.total_ns += ns
        k = ns // self.BIN_NS
        if k < self.BINS:
            self.bins[k] += 1
        else:
            self.long.append(ns)

    def merge(self, other: "Latencies") -> None:
        self.n += other.n
        self.total_ns += other.total_ns
        self.bins = array("q", map(sum, zip(self.bins, other.bins)))
        self.long += other.long

    def quantile(self, q: float) -> float:
        """Nearest-rank quantile in ns (bin midpoint for short requests)."""
        if self.n == 0:
            return math.nan
        rank = max(1, math.ceil(q * self.n))
        cumulative = list(itertools.accumulate(self.bins))
        k = bisect_left(cumulative, rank)
        if k < self.BINS:
            return (k + 0.5) * self.BIN_NS
        return float(sorted(self.long)[rank - cumulative[-1] - 1])


@dataclass
class Loop:
    """What a closed loop or a fixed pass saw."""

    lat: Latencies = field(default_factory=Latencies)
    items: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def absorb(self, other: "Loop") -> None:
        self.items += other.items
        self.attempted += other.attempted
        self.failed += other.failed
        self.errors += other.errors[: 5 - len(self.errors)]


class Workload:
    """A seeded request stream: inputs() -> call(*args) -> check(output)."""

    name = ""
    trace_requests = 1  # requests in one traced pass
    in_process = True  # False when requests run in child processes
    setup_call = ""  # source run after `import coopjam` in a set-up child

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.sizes: dict[str, int] = {}  # constructor arguments a worker repeats

    def inputs(self, part: int = 0, parts: int = 1) -> Iterator[tuple]:
        """The seeded request stream; worker `part` of `parts` gets its own share."""
        raise NotImplementedError

    def call(self, *args: Any) -> Any:
        raise NotImplementedError

    def check(self, out: Any) -> int:
        """Raise OutputMismatch on a wrong result; return the items done."""
        raise NotImplementedError

    def record(self, args: tuple, ns: int) -> None:
        """Hook for per-kind latencies of successful requests."""

    def traced(self, tracer: Tracer):
        return tracer.installed()

    def details(self, loop: Loop) -> dict[str, tuple[float, str]]:
        return {}


FIG_BUDGET = (2.0, 2.0)
SWEEP_STEPS = 800
# (tag, swept gain, fixed gain, symmetric) of the fig2/fig3/fig4 presets.
PRESETS = (
    ("fig2-symmetric", "a", 0.0, True),
    ("fig3-a0.6", "b", 0.6, False),
    ("fig3-a1.2", "b", 1.2, False),
    ("fig4-b0.2", "a", 0.2, False),
    ("fig4-b1.2", "a", 1.2, False),
)
# sha256 of render_csv(run_sweep(preset)) over [0, 4] at SWEEP_STEPS steps.
PRESET_SHA256 = {
    "fig2-symmetric": "23c50739cc0d1eaa5da56da2ce4f4726c27b411367f0984d3b1273229ea0249c",
    "fig3-a0.6": "8883fd25c15277e4f844e26f532444c680ba0236b5df3c38a9f8379cd5bfcf36",
    "fig3-a1.2": "ed4387f38604aef710cb51fbffa0c8c9ca00f7e2e1f72ef3c584129783617638",
    "fig4-b0.2": "eb0014d13e31fe75d9f74452d0e2799881c584c76587aa983353c11e284ad527",
    "fig4-b1.2": "d2179d3634d59bb190956870916001be2850beeb8bc714b594f73f6d913589ed",
}


class Sweep(Workload):
    """The five preset curves, then seeded curves, cycled; one curve per request."""

    name = "sweep"
    trace_requests = 25
    setup_call = (
        "coopjam.render_csv(coopjam.run_sweep(coopjam.SweepSpec("
        "'a', 0.0, 4.0, 400, coopjam.PowerBudget(2.0, 2.0), symmetric=True)))"
    )

    def __init__(self, seed: int, steps: int = SWEEP_STEPS, seeded_curves: int = 120) -> None:
        super().__init__(seed)
        self.sizes = {"steps": steps, "seeded_curves": seeded_curves}
        budget = coopjam.PowerBudget(*FIG_BUDGET)
        self.curves = [
            (tag, coopjam.SweepSpec(param, 0.0, 4.0, steps, budget, fixed, symmetric))
            for tag, param, fixed, symmetric in PRESETS
        ]
        # Latin-hypercube draws: each quantity takes one value per stratum,
        # in seeded order, so the branch mix, and with it the cost of a
        # pass, barely moves with the seed.
        rng = np.random.default_rng(seed)
        n = seeded_curves

        def strata(lo: float, hi: float) -> list[float]:
            return (lo + (hi - lo) * (rng.permutation(n) + rng.uniform(size=n)) / n).tolist()

        for k, (fixed, p1, p2) in enumerate(zip(strata(0.05, 3.0), strata(0.5, 10.0), strata(0.5, 10.0))):
            spec = coopjam.SweepSpec("ab"[k % 2], 0.0, 4.0, steps, coopjam.PowerBudget(p1, p2), fixed)
            self.curves.append((f"seeded-{k}", spec))
        self.check_digests = steps == SWEEP_STEPS

    def inputs(self, part: int = 0, parts: int = 1) -> Iterator[tuple]:
        start = part * len(self.curves) // parts
        return itertools.islice(itertools.cycle(self.curves), start, None)

    def call(self, tag: str, spec: coopjam.SweepSpec) -> Any:
        rows = coopjam.run_sweep(spec)
        return tag, spec, rows, coopjam.render_csv(rows)

    def check(self, out: Any) -> int:
        tag, spec, rows, csv = out
        budget = spec.budget
        for r in rows:
            if r.achievable.value > r.upper_bound.value + SOUNDNESS_TOL:
                raise OutputMismatch(f"{tag}: rate {r.achievable.value} > bound at x={r.x}")
            if r.p1 > budget.p1_max or r.p2 > budget.p2_max:
                raise OutputMismatch(f"{tag}: allocation ({r.p1}, {r.p2}) over budget at x={r.x}")
        expected = PRESET_SHA256.get(tag) if self.check_digests else None
        if expected is not None and hashlib.sha256(csv.encode()).hexdigest() != expected:
            raise OutputMismatch(f"{tag}: CSV bytes differ from the committed digest")
        return len(rows)

    def details(self, loop: Loop) -> dict[str, tuple[float, str]]:
        return {
            "sweep.rows_per_s": (loop.items / (loop.lat.total_ns / 1e9), "1/s"),
            "sweep.curve_p50_ms": (loop.lat.quantile(0.5) / 1e6, "ms"),
            "sweep.curves": (loop.lat.n, "count"),
        }


VERIFY_SAMPLES = 2000


class Verify(Workload):
    """verify.run_all at VERIFY_SAMPLES, a fresh seed per request."""

    name = "verify"
    setup_call = "import coopjam.verify\ncoopjam.verify.run_all(1, 0)"

    def __init__(self, seed: int, samples: int = VERIFY_SAMPLES) -> None:
        super().__init__(seed)
        self.samples = samples
        self.sizes = {"samples": samples}

    def inputs(self, part: int = 0, parts: int = 1) -> Iterator[tuple]:
        return ((self.seed * 1_000_000 + part * 1000 + k,) for k in itertools.count())

    def call(self, seed: int) -> Any:
        return coopjam.verify.run_all(self.samples, seed)

    def check(self, out: Any) -> int:
        bad = [f"{r.name}: {r.violations[0]}" for r in out if r.violations]
        if bad:
            raise OutputMismatch("; ".join(bad))
        return sum(r.samples for r in out)

    def details(self, loop: Loop) -> dict[str, tuple[float, str]]:
        return {
            "verify.wall_s": (loop.lat.quantile(0.5) / 1e9, "s"),
            "verify.runs": (loop.lat.n, "count"),
        }


# sha256 of the stdout of `coopjam fig2` at its default 400 steps.
FIG2_STDOUT_SHA256 = "d656414c8ed4e10a3c07a11fc60d305cd7fc651a5348aad7693079c736b8252b"


class Cli(Workload):
    """One coopjam process per request: rate, power --check-grid, bound, fig2 in turn."""

    name = "cli"
    trace_requests = 4
    in_process = False
    setup_call = (
        "import contextlib, io, coopjam.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    coopjam.cli.main(['rate', '--a', '4', '--b', '0.5', '--p1', '2', '--p2', '2'])"
    )
    commands = ("rate", "power", "bound", "fig2")

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.tracer: Tracer | None = None
        self.times: dict[str, list[int]] = {c: [] for c in self.commands}

    def inputs(self, part: int = 0, parts: int = 1) -> Iterator[tuple]:
        """(command, argv, expected stdout lines or sha256) from seeded points."""
        rng = np.random.default_rng(self.seed)
        while True:
            a, b = _log_uniform(rng, GAIN_DECADES, 2).tolist()
            p1, p2 = _log_uniform(rng, BUDGET_DECADES, 2).tolist()
            gains = coopjam.ChannelGains(a, b)
            budget = coopjam.PowerBudget(p1, p2)
            g = ["--a", repr(a), "--b", repr(b)]
            rate, branch = coopjam.achievable_rate(gains, coopjam.PowerAllocation(p1, p2))
            yield "rate", ["rate", *g, "--p1", repr(p1), "--p2", repr(p2)], [
                f"secrecy_rate = {rate.value:.12g} bit/channel use",
                f"branch = {branch}",
            ]
            best = coopjam.optimal_allocation(gains, budget)
            b_args = ["--pbar1", repr(p1), "--pbar2", repr(p2)]
            yield "power", ["power", *g, *b_args, "--check-grid"], [
                f"p1 = {best.alloc.p1:.12g}  p2 = {best.alloc.p2:.12g}",
                f"secrecy_rate = {best.rate.value:.12g} bit/channel use",
            ]
            bound = coopjam.sato_upper_bound(gains, budget).final_bound
            yield "bound", ["bound", *g, *b_args], [
                f"final_bound = {bound.value:.12g} bit/channel use"
            ]
            yield "fig2", ["fig2"], FIG2_STDOUT_SHA256

    def call(self, command: str, argv: list[str], expected: Any) -> Any:
        if self.tracer is None:
            return command, _python(["-m", "coopjam.cli", *argv], check=False), expected, None
        spans = OUT / f"cli-child-{os.getpid()}.json"
        proc = _python([str(BENCH / "traced_cli.py"), str(spans), *argv], check=False)
        return command, proc, expected, spans

    def check(self, out: Any) -> int:
        command, proc, expected, spans = out
        if spans is not None and spans.exists():
            self.tracer.absorb(json.loads(spans.read_text()), self.tracer.run_id)
            spans.unlink()
        if proc.returncode != 0:
            raise OutputMismatch(f"{command} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        if isinstance(expected, str):
            if hashlib.sha256(proc.stdout.encode()).hexdigest() != expected:
                raise OutputMismatch(f"{command}: stdout differs from the committed digest")
        else:
            missing = set(expected) - set(proc.stdout.splitlines())
            if missing:
                raise OutputMismatch(f"{command}: missing {sorted(missing)} in {proc.stdout!r}")
        return 1

    def record(self, args: tuple, ns: int) -> None:
        self.times[args[0]].append(ns)

    @contextmanager
    def traced(self, tracer: Tracer):
        OUT.mkdir(exist_ok=True)
        self.tracer = tracer
        try:
            yield tracer
        finally:
            self.tracer = None

    def details(self, loop: Loop) -> dict[str, tuple[float, str]]:
        out = {
            f"cli.{c}_ms": (statistics.median(t) / 1e6 if t else math.nan, "ms")
            for c, t in self.times.items()
        }
        # The highest of p90 and p80 with at least ten processes beyond it.
        q = 0.9 if loop.lat.n * 0.1 >= 10 else 0.8
        out[f"cli.p{q * 100:.0f}_ms"] = (loop.lat.quantile(q) / 1e6, "ms")
        out["cli.processes"] = (loop.lat.n, "count")
        return out


WORKLOADS = {w.name: w for w in (Sweep, Verify, Cli)}


def run_requests(
    wl: Workload,
    inputs: Iterator[tuple],
    deadline_ns: int | None = None,
    tracer: Tracer | None = None,
) -> Loop:
    """Closed loop over `inputs`; stops when they run out or at the deadline.

    Only the call is timed.  The output check runs after it, and a request
    that raises or fails its check counts as failed, not as a latency.
    """
    loop = Loop()
    clock = time.perf_counter_ns
    for run_id, args in enumerate(inputs, 1):
        loop.attempted += 1
        if tracer is not None:
            tracer.run_id = run_id
        t0 = clock()
        try:
            out = wl.call(*args)
            t1 = clock()
            loop.items += wl.check(out)
        except Exception as exc:  # a failed request is counted, never fatal
            loop.failed += 1
            if len(loop.errors) < 5:
                loop.errors.append(f"{type(exc).__name__}: {exc}")
        else:
            loop.lat.add(t1 - t0)
            wl.record(args, t1 - t0)
        if deadline_ns is not None and clock() >= deadline_ns:
            break
    return loop


def warm_up(wl: Workload) -> None:
    """Make the set-up call first, so imports and lazy set-up finish before timing."""
    exec(wl.setup_call, {"coopjam": coopjam})


def setup_seconds(wl: Workload) -> float:
    """`import coopjam` plus the first call, timed inside a fresh process."""
    source = (
        "import time\nt0 = time.perf_counter()\nimport coopjam\n"
        f"{wl.setup_call}\nprint(time.perf_counter() - t0)"
    )
    return float(_python(["-c", source]).stdout)


def interpreter_ms(repeats: int) -> float:
    """The floor under every CLI time: wall time of `python -c pass`."""
    return statistics.median(_wall_ms(["-c", "pass"]) for _ in range(repeats))


def import_probes(repeats: int) -> dict[str, float]:
    """What `import coopjam.cli` costs, whole and split by -X importtime."""
    timed = "import time\nt0 = time.perf_counter()\nimport coopjam.cli\nprint(time.perf_counter() - t0)"
    whole = [float(_python(["-c", timed]).stdout) * 1e3 for _ in range(repeats)]
    numpy_ms, own_ms = [], []
    for _ in range(repeats):
        proc = _python(["-X", "importtime", "-c", "import coopjam.cli"])
        numpy_us = own_us = 0
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[1].strip().isdigit():
                continue
            package = parts[2].strip()
            if package == "numpy":
                numpy_us = int(parts[1])
            if package == "coopjam" or package.startswith("coopjam."):
                own_us += int(parts[0].rsplit(":", 1)[1])
        numpy_ms.append(numpy_us / 1e3)
        own_ms.append(own_us / 1e3)
    return {
        "cli.interpreter_ms": interpreter_ms(repeats),
        "cli.import_ms": statistics.median(whole),
        "cli.import.numpy_ms": statistics.median(numpy_ms),
        "cli.import.coopjam_self_ms": statistics.median(own_ms),
    }


def peak_rss_mb(wl: Workload) -> float:
    who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    return resource.getrusage(who).ru_maxrss / 1024.0


@dataclass
class Report:
    metrics: dict[str, tuple[float, str]]
    loop: Loop
    floor_ms: float
    spans: Tracer | None = None


def summarize(loop: Loop, rss_mb: float) -> dict[str, Any]:
    """The figures of one measuring window, in the form a worker prints them."""
    return {
        "items_per_s": loop.items / (loop.lat.total_ns / 1e9) if loop.lat.n else 0.0,
        "latency_ms": loop.lat.quantile(0.5) / 1e6,
        "peak_rss_mb": rss_mb,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
    }


def worker(name: str, seed: int, sizes: dict, part: int, parts: int, seconds: float) -> None:
    """Body of one measuring process: warm up, run its share, print a summary."""
    wl = WORKLOADS[name](seed, **sizes)
    warm_up(wl)
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    loop = run_requests(wl, wl.inputs(part, parts), deadline)
    print(json.dumps({**summarize(loop, peak_rss_mb(wl)), "details": wl.details(loop)}))


def measure_e2e(
    wl: Workload, seconds: float, repeats: int = 5, parts: int = WINDOWS
) -> Report:
    """Set-up time and the closed loop, untraced, in `parts` windows.

    The in-process workloads run each window in a fresh worker process, one
    after another: the speed of one interpreter process varies by about a
    tenth (standard deviation) from one process to the next.  The cli
    workload starts a process per request already, so its windows are
    consecutive slices of one loop in this process.

    Before each window one set-up process is timed, so the set-up samples
    are spread over the run like the windows.  One unmeasured set-up
    process runs first so byte-code is compiled once, as for an installed
    package.  setup_s, items_per_s and latency_ms are medians over the
    windows, so that a window caught in a slow spell of a shared machine
    does not move them.
    """
    floor = interpreter_ms(repeats)
    window_s = seconds / parts
    setup_seconds(wl)
    setups, summaries, total = [], [], Loop()
    if not wl.in_process:
        warm_up(wl)
        inputs = wl.inputs()
    for part in range(parts):
        setups.append(setup_seconds(wl))
        if wl.in_process:
            code = (
                f"import sys; sys.path.insert(0, {str(BENCH)!r}); import run; "
                f"run.worker({wl.name!r}, {wl.seed}, {wl.sizes!r}, {part}, {parts}, {window_s})"
            )
            summaries.append(json.loads(_python(["-c", code]).stdout.splitlines()[-1]))
        else:
            loop = run_requests(wl, inputs, time.perf_counter_ns() + int(window_s * 1e9))
            summaries.append(summarize(loop, peak_rss_mb(wl)))
            total.lat.merge(loop.lat)
    if wl.in_process:
        details = {}
        for key, (_, unit) in summaries[0]["details"].items():
            values = [s["details"][key][0] for s in summaries]
            details[key] = (sum(values) if unit == "count" else statistics.fmean(values), unit)
    else:
        details = wl.details(total)
    total = Loop()
    for summary in summaries:
        total.attempted += summary["attempted"]
        total.failed += summary["failed"]
        total.errors += summary["errors"][: 5 - len(total.errors)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in summaries), "MB"),
        "items_per_s": (statistics.median(s["items_per_s"] for s in summaries), "1/s"),
        "latency_ms": (statistics.median(s["latency_ms"] for s in summaries), "ms"),
        "failed_frac": (total.failed / total.attempted, "ratio"),
        "windows": (len(summaries), "count"),
        **details,
    }
    return Report(metrics, total, floor)


def branch_labels() -> list[str]:
    labels = []
    for regime in coopjam.Regime:
        for sub in range(1, 5):
            try:
                labels.append(str(coopjam.BranchLabel(regime, sub)))
            except ValueError:
                pass
    return labels


def measure_layers(wl: Workload, seconds: float, repeats: int = 5) -> Report:
    """Alternate untraced and traced passes over the first trace_requests
    requests until `seconds` pass (at least one pair), then report the
    per-pass layer figures.  The passes are identical, so counts are exact
    for a seed; times are means over the traced passes."""
    probes = import_probes(repeats)
    warm_up(wl)
    inputs = list(itertools.islice(wl.inputs(), wl.trace_requests))
    total = Loop()
    plain_ns, traced_ns = [], []
    stats: dict[str, list[int]] = {}
    edges: Counter = Counter()
    counters: Counter = Counter()
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    passes = 0
    while passes == 0 or time.perf_counter_ns() < deadline:
        plain = run_requests(wl, iter(inputs))
        tracer = Tracer()
        with wl.traced(tracer):
            traced = run_requests(wl, iter(inputs), tracer=tracer)
        total.absorb(plain)
        total.absorb(traced)
        plain_ns.append(plain.lat.total_ns)
        traced_ns.append(traced.lat.total_ns)
        pass_stats, pass_edges = tracer.layers()
        for name, (calls, tot, own) in pass_stats.items():
            entry = stats.setdefault(name, [0, 0, 0])
            entry[0] += calls
            entry[1] += tot
            entry[2] += own
        edges.update(pass_edges)
        counters.update(tracer.counters)
        passes += 1

    def count(n: float) -> float:
        per = n / passes
        return int(per) if per == int(per) else per

    metrics: dict[str, tuple[float, str]] = {}
    for name in layer_names():
        calls, tot, own = stats.get(name, (0, 0, 0))
        metrics[f"{name}.calls"] = (count(calls), "count")
        metrics[f"{name}.s"] = (tot / passes / 1e9, "s")
        metrics[f"{name}.self_s"] = (own / passes / 1e9, "s")
    for label in branch_labels():
        key = f"achievable.branch.{label}"
        metrics[key] = (count(counters[key]), "count")
    closed = counters["power.source.closed_form"]
    fallbacks = counters["power.source.grid_oracle"]
    grid_s = stats.get("power.grid", (0, 0, 0))[1] / 1e9
    render_s = stats.get("sweep.render", (0, 0, 0))[1] / 1e9
    metrics.update(
        {
            "power.optimal.grid_fallbacks": (count(fallbacks), "count"),
            "power.closed_form_ratio": (closed / (closed + fallbacks) if closed + fallbacks else 0.0, "ratio"),
            "power.grid.computed_cells_per_s": (counters["power.grid.cells"] / grid_s if grid_s else 0.0, "1/s"),
            "bound.oracle.f_evals": (count(edges["bound.f", "bound.oracle"]), "count"),
            "sweep.render.bytes_per_s": (counters["sweep.render.bytes"] / render_s if render_s else 0.0, "B/s"),
            "verify.violations": (count(counters["verify.violations"]), "count"),
            "trace.overhead_frac": (statistics.median(traced_ns) / statistics.median(plain_ns) - 1.0, "ratio"),
            "trace.spans": (count(sum(s[0] for s in stats.values())), "count"),
            "trace.passes": (passes, "count"),
        }
    )
    metrics.update({k: (v, "ms") for k, v in probes.items()})
    return Report(metrics, total, probes["cli.interpreter_ms"], tracer)


def environment(floor_ms: float) -> dict[str, Any]:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "cli.interpreter_ms": floor_ms,
    }


def run_one(args: argparse.Namespace, spec: dict) -> int:
    check_source()
    wl = WORKLOADS[args.workload](args.seed)
    if args.trace:
        report, group = measure_layers(wl, args.seconds), spec["per_layer"]
    else:
        report, group = measure_e2e(wl, args.seconds), spec["end_to_end"]
    env = environment(report.floor_ms)
    print(f"# {wl.name} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, (value, unit) in report.metrics.items():
        print(f"{name:40s} {value:.6g} {unit}")
    loop = report.loop
    print(f"# attempted={loop.attempted} failed={loop.failed}")
    for err in loop.errors:
        print(f"# failure: {err}")
    OUT.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    if report.spans is not None:
        report.spans.write_spans(OUT / f"{wl.name}.spans.csv")
    record = {
        "workload": wl.name,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == wl.name),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()},
        "moves": MOVES,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "errors": loop.errors,
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {
            m["name"]: {"value": report.metrics[m["name"]][0], "unit": report.metrics[m["name"]][1]}
            for m in group
        },
    }
    print(json.dumps(result))
    return 0


def run_every(args: argparse.Namespace, spec: dict) -> int:
    """Each workload in its own process; the last line merges their results."""
    merged: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in spec["workloads"]:
        argv = [sys.executable, __file__, "--workload", w["name"], "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True, check=True)
        sys.stdout.write(proc.stdout)
        last = json.loads(proc.stdout.splitlines()[-1])
        merged["correct"] = merged["correct"] and last["correct"]
        merged["attempted"] += last["attempted"]
        merged["failed"] += last["failed"]
        merged["metrics"].update({f"{w['name']}.{k}": v for k, v in last["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_every(args, spec)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
