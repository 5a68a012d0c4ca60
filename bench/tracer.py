"""In-memory span tracer that wraps coopjam's public functions from outside.

Every wrapped call records one span: (id, parent id, name, run id, start ns,
end ns).  Spans of one benchmark request share a run id.  A layer's self
time is the duration of its spans minus the time their direct child spans
cover.  coopjam itself is not edited: the tracer replaces the module
attributes that a calling module looks up at call time (for example
`coopjam.sweep.optimal_allocation` or `coopjam.bound.sato_f`) and the value
types' `__post_init__`, and puts the originals back on exit.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Iterator

import coopjam
import coopjam.bound
import coopjam.cli
import coopjam.power
import coopjam.sweep
import coopjam.verify

_FIELDS = 6  # id, parent, name index, run id, start ns, end ns

Observer = Callable[[Counter, tuple, dict, Any], None]


def _branch(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"achievable.branch.{result[1]}"] += 1


def _source(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts[f"power.source.{result.source.value}"] += 1


def _grid_cells(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    # Computed from n_steps: the lattice is (n_steps + 1)^2 before the
    # critical powers are appended.
    n_steps = args[2] if len(args) > 2 else kwargs["n_steps"]
    counts["power.grid.cells"] += (n_steps + 1) ** 2


def _csv_bytes(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["sweep.render.bytes"] += len(result.encode())


def _violations(counts: Counter, args: tuple, kwargs: dict, result: Any) -> None:
    counts["verify.violations"] += sum(len(r.violations) for r in result)


def _targets() -> list[tuple[Any, str, str, Observer | None]]:
    """(owner, attribute, span name, observer) for every traced entry point."""
    cj, power, sweep, verify, cli, bound = (
        coopjam, coopjam.power, coopjam.sweep, coopjam.verify, coopjam.cli, coopjam.bound
    )
    targets: list[tuple[Any, str, str, Observer | None]] = [
        (cls, "__post_init__", "model.ctor", None)
        for cls in (cj.ChannelGains, cj.PowerBudget, cj.PowerAllocation, cj.RateValue)
    ]
    for owner in (power, sweep, verify, cli):
        targets.append((owner, "achievable_rate", "achievable.rate", _branch))
    for owner in (cj, sweep, verify, cli):
        targets.append((owner, "optimal_allocation", "power.optimal", _source))
        targets.append((owner, "sato_upper_bound", "bound.sato", None))
    for owner in (power, verify, cli):
        targets.append((owner, "grid_search_allocation", "power.grid", _grid_cells))
    targets += [
        (verify, "rho_min_oracle", "bound.oracle", None),
        (bound, "sato_f", "bound.f", None),
        (verify, "sato_f", "bound.f", None),
        (cj, "run_sweep", "sweep.run", None),
        (cli, "run_sweep", "sweep.run", None),
        (cj, "render_csv", "sweep.render", _csv_bytes),
        (cli, "render_csv", "sweep.render", _csv_bytes),
        (verify, "run_all", "verify.run_all", _violations),
        (cli, "run_all", "verify.run_all", _violations),
        (cli, "main", "cli.main", None),
    ]
    for name in verify.__all__:
        if name.endswith("_check"):
            targets.append((verify, name, f"verify.{name[: -len('_check')]}", None))
    return targets


def layer_names() -> list[str]:
    """Every span name the tracer can record, in a fixed order."""
    return list(dict.fromkeys(name for _, _, name, _ in _targets()))


class Tracer:
    """Collects spans and counters while installed; see the module docstring."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.counters: Counter = Counter()
        self.run_id = 0
        self._next_id = 1
        self._stack = [0]

    def _name_index(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        index = self._name_index(name)
        spans, stack, counters, clock = self.spans, self._stack, self.counters, time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.extend((sid, parent, index, self.run_id, t0, t1))
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target that exists; missing ones are skipped."""
        patched = []
        for owner, attr, name, observe in _targets():
            original = getattr(owner, attr, None)
            if original is None:
                continue
            patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(name, original, observe))
        try:
            yield self
        finally:
            for owner, attr, original in reversed(patched):
                setattr(owner, attr, original)

    def absorb(self, data: dict, run_id: int) -> None:
        """Merge spans dumped by another traced process under `run_id`."""
        index = [self._name_index(n) for n in data["names"]]
        base = self._next_id - 1
        flat = data["spans"]
        for i in range(0, len(flat), _FIELDS):
            sid, parent, name, _, t0, t1 = flat[i : i + _FIELDS]
            self.spans.extend(
                (sid + base, parent + base if parent else 0, index[name], run_id, t0, t1)
            )
            self._next_id = max(self._next_id, sid + base + 1)
        self.counters.update(data["counters"])

    def dump(self, path: Path) -> None:
        path.write_text(
            json.dumps(
                {"names": self.names, "spans": list(self.spans), "counters": self.counters}
            )
        )

    def write_spans(self, path: Path) -> None:
        """Write one CSV line per span, times relative to the first span."""
        origin = min(self.spans[4::_FIELDS], default=0)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("span,parent,name,run,start_ns,end_ns\n")
            for sid, parent, name, run, t0, t1 in zip(*[iter(self.spans)] * _FIELDS):
                fh.write(f"{sid},{parent},{self.names[name]},{run},{t0 - origin},{t1 - origin}\n")

    def layers(self) -> tuple[dict[str, list[int]], Counter]:
        """Per span name [calls, total ns, self ns], and (name, parent name) call counts."""
        records = list(zip(*[iter(self.spans)] * _FIELDS))
        name_of = {r[0]: r[2] for r in records}
        covered: Counter = Counter()
        for _, parent, _, _, t0, t1 in records:
            if parent:
                covered[parent] += t1 - t0
        stats: dict[str, list[int]] = {}
        edges: Counter = Counter()
        for sid, parent, name, _, t0, t1 in records:
            key = self.names[name]
            entry = stats.setdefault(key, [0, 0, 0])
            entry[0] += 1
            entry[1] += t1 - t0
            entry[2] += t1 - t0 - covered[sid]
            if parent in name_of:
                edges[key, self.names[name_of[parent]]] += 1
        return stats, edges
