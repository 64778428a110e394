"""Span tracing of llg_lab from outside the package.

Public functions and methods are replaced, for the length of a traced pass,
by wrappers that record a span (name, start, end, parent, task id). Each name
is patched where it is looked up at call time: experiments.py imports most
library functions into its own namespace, so those are patched there;
gradient_row_sums is looked up in attack.py, make_batch also in fl.py, and
layer methods on their classes. Spans stay in memory in flat arrays and are
written out when the run ends.

A task is the stretch of run_experiment between two progress callbacks (the
first starts with run_experiment). Task spans sit between the
run_experiment span and the library calls, so the self times of the spans of
one task sum to the task's duration.
"""

from __future__ import annotations

import functools
import json
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

ROOT = "experiments.run_experiment"
TASK = "task"
COUNT = "trace.count"  # bookkeeping done by the tracer itself; in no layer


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.tasks = array("q")
        self.counts: dict[int, dict] = {}
        self._stack: list[int] = []
        self._task = -1
        self._task_span: int | None = None
        self._next_task = 0
        self._root: int | None = None
        self._task_start: float | None = None  # set when the next task may begin

    def _push(self, name: str, start: float) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(math.nan)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.tasks.append(self._task)
        self._stack.append(sid)
        return sid

    def open(self, name: str) -> int:
        if (self._task_start is not None and self._stack
                and self._stack[-1] == self._root):
            # the first call of a task opens its span, dated back to the
            # previous boundary so the gap (seeding, model build) is inside
            self._task = self._next_task
            self._next_task += 1
            self._task_span = self._push(TASK, self._task_start)
            self._task_start = None
        return self._push(name, self.clock())

    def close(self, sid: int, end: float | None = None) -> None:
        self.ends[sid] = self.clock() if end is None else end
        top = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {self.names[sid]} closed out of order")

    def task_boundary(self) -> None:
        """Progress-callback hook: the current task ends now."""
        now = self.clock()
        if self._task_span is not None:
            self.close(self._task_span, now)
            self._task_span = None
            self._task = -1
        self._task_start = now

    def run_root(self, fn, *args, **kwargs):
        self._root = self.open(ROOT)
        self._task_start = self.starts[self._root]
        try:
            return fn(*args, **kwargs)
        finally:
            if self._task_span is not None:  # run_experiment raised mid-task
                self.close(self._task_span)
                self._task_span = None
                self._task = -1
            self._task_start = None
            self.close(self._root)
            self._root = None

    def __len__(self) -> int:
        return len(self.names)


def _wrap(tracer: Tracer, name: str, fn, counter=None, costly: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if counter is not None:
            if costly:
                cid = tracer.open(COUNT)
                tracer.counts[sid] = counter(args, result)
                tracer.close(cid)
            else:
                tracer.counts[sid] = counter(args, result)
        return result

    return wrapper


def _rows(args, result):
    return {"rows": len(args[1])}


def _probe_rows(args, result):
    batch = np.asarray(args[1])
    flat = batch.reshape(len(batch), -1)
    return {"rows": len(batch), "distinct": len({row.tobytes() for row in flat})}


def _defense_entries(args, result):
    update, spec = args[0], args[1]
    entries = sum(a.size for a in update.gradients.arrays())
    counts = {"entries": entries}
    if spec.kind == "compress":
        counts["compress_entries"] = entries
        counts["emitted"] = sum(int(np.count_nonzero(a)) for a in result.gradients.arrays())
    return counts


# (module or class path inside llg_lab, attribute, span name, counter, costly)
PATCHES = [
    ("experiments", "synth_generate", "data.synth_generate", None, False),
    ("experiments", "partition_clients", "data.partition_clients", None, False),
    ("experiments", "make_batch", "fl.make_batch", None, False),
    ("fl", "make_batch", "fl.make_batch", None, False),
    ("experiments", "local_train_fedsgd", "fl.local_train_fedsgd", None, False),
    ("experiments", "local_train_fedavg", "fl.local_train_fedavg", None, False),
    ("experiments", "server_aggregate", "fl.server_aggregate", None, False),
    ("experiments", "apply_defense", "defenses.apply_defense", _defense_entries, True),
    ("experiments", "estimate_impact_shared", "attack.estimate_impact_shared", None, False),
    ("experiments", "estimate_params_whitebox", "attack.estimate_params_whitebox", None, False),
    ("experiments", "estimate_params_auxiliary", "attack.estimate_params_auxiliary", None, False),
    ("attack", "gradient_row_sums", "attack.gradient_row_sums", _probe_rows, True),
    ("experiments", "llg_extract", "attack.llg_extract", None, False),
    ("experiments", "random_guess", "attack.random_guess", None, False),
    ("experiments", "test_accuracy", "metrics.test_accuracy", _rows, False),
    ("experiments", "attack_success_rate", "metrics.attack_success_rate", None, False),
    ("experiments", "hellinger", "metrics.hellinger", None, False),
    ("experiments", "pearson", "metrics.pearson", None, False),
    ("nn.Network", "forward", "nn.Network.forward", _rows, False),
    ("nn.Network", "backward", "nn.Network.backward", None, False),
    ("nn.Network", "sgd_step", "nn.Network.sgd_step", None, False),
    ("nn.Dense", "forward", "nn.Dense.forward", None, False),
    ("nn.Dense", "backward", "nn.Dense.backward", None, False),
    ("nn.Conv2D", "forward", "nn.Conv2D.forward", None, False),
    ("nn.Conv2D", "backward", "nn.Conv2D.backward", None, False),
    ("nn.Activation", "forward", "nn.Activation.forward", None, False),
    ("nn.Activation", "backward", "nn.Activation.backward", None, False),
    ("", "emit_csv", "experiments.emit_csv", None, False),
]


def _owner(lab, path: str):
    owner = lab
    for part in filter(None, path.split(".")):
        owner = getattr(owner, part)
    return owner


@contextmanager
def installed(tracer: Tracer, lab):
    """Patch every traced name for the body of the with block, then put the
    original objects back, also when the body raises."""
    saved = []
    try:
        for path, attr, name, counter, costly in PATCHES:
            owner = _owner(lab, path)
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(tracer, name, original, counter, costly))
        original_run = vars(lab)["run_experiment"]
        saved.append((lab, "run_experiment", original_run))
        setattr(lab, "run_experiment",
                functools.wraps(original_run)(
                    lambda *a, **k: tracer.run_root(original_run, *a, **k)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(tracer: Tracer) -> list[float]:
    """Duration of each span minus the part of its interval that its child
    spans cover; overlapping children count once.

    Span ids follow start order, so one pass visits every parent's children
    in start order and merges their intervals as it goes.
    """
    n = len(tracer)
    starts, ends, parents = tracer.starts, tracer.ends, tracer.parents
    covered = [0.0] * n
    # the merged child interval still open per parent; empty at its start
    run_lo, run_hi = list(starts), list(starts)
    for sid in range(n):
        parent = parents[sid]
        if parent < 0:
            continue
        lo = max(starts[sid], starts[parent])
        hi = min(ends[sid], ends[parent])
        if hi <= lo:
            continue
        if lo > run_hi[parent]:
            covered[parent] += run_hi[parent] - run_lo[parent]
            run_lo[parent], run_hi[parent] = lo, hi
        elif hi > run_hi[parent]:
            run_hi[parent] = hi
    return [(ends[sid] - starts[sid]) - covered[sid] - (run_hi[sid] - run_lo[sid])
            for sid in range(n)]


def task_sum_error(tracer: Tracer, selfs: list[float]) -> float:
    """Largest gap, in seconds, between a task's duration and the sum of the
    self times of the spans recorded inside it."""
    sums: dict[int, float] = {}
    durations: dict[int, float] = {}
    for sid, name in enumerate(tracer.names):
        task = tracer.tasks[sid]
        if name == TASK:
            durations[task] = tracer.ends[sid] - tracer.starts[sid]
        if task >= 0:
            sums[task] = sums.get(task, 0.0) + selfs[sid]
    return max((abs(sums[t] - durations[t]) for t in durations), default=0.0)


SELF_METRICS = {
    "nn.dense.forward_s": ("nn.Dense.forward",),
    "nn.dense.backward_s": ("nn.Dense.backward",),
    "nn.conv2d.forward_s": ("nn.Conv2D.forward",),
    "nn.conv2d.backward_s": ("nn.Conv2D.backward",),
    "nn.activation.forward_s": ("nn.Activation.forward",),
    "nn.activation.backward_s": ("nn.Activation.backward",),
    "nn.sgd_step_s": ("nn.Network.sgd_step",),
    "attack.estimate_s": ("attack.estimate_params_whitebox", "attack.estimate_params_auxiliary",
                          "attack.estimate_impact_shared"),
    "attack.extract_s": ("attack.llg_extract", "attack.random_guess"),
    "fl.local_train_s": ("fl.local_train_fedsgd", "fl.local_train_fedavg"),
    "fl.make_batch_s": ("fl.make_batch",),
    "fl.server_aggregate_s": ("fl.server_aggregate",),
    "defenses.apply_s": ("defenses.apply_defense",),
    "metrics.score_s": ("metrics.attack_success_rate", "metrics.hellinger", "metrics.pearson"),
    "data.generate_s": ("data.synth_generate", "data.partition_clients"),
    "experiments.self_s": (ROOT, TASK),
    "experiments.emit_csv_s": ("experiments.emit_csv",),
}
INCLUSIVE_METRICS = {
    "attack.probe_s": ("attack.gradient_row_sums",),
    "metrics.test_accuracy_s": ("metrics.test_accuracy",),
}
CALL_METRICS = {
    "nn.forward_calls": ("nn.Network.forward",),
    "nn.sgd_steps": ("nn.Network.sgd_step",),
    "attack.probe_calls": ("attack.gradient_row_sums",),
    "attack.extract_calls": ("attack.llg_extract", "attack.random_guess"),
    "fl.client_updates": ("fl.local_train_fedsgd", "fl.local_train_fedavg"),
    "defenses.apply_calls": ("defenses.apply_defense",),
}
# metric -> (span name, counter key)
COUNT_METRICS = {
    "nn.forward_rows": ("nn.Network.forward", "rows"),
    "attack.probe_rows": ("attack.gradient_row_sums", "rows"),
    "defenses.entries": ("defenses.apply_defense", "entries"),
    "metrics.eval_rows": ("metrics.test_accuracy", "rows"),
}
# Network.forward + backward, inclusive, by the nearest enclosing context
CONTEXTS = {
    "attack.gradient_row_sums": "nn.probe_s",
    "fl.local_train_fedsgd": "nn.train_s",
    "fl.local_train_fedavg": "nn.train_s",
    "metrics.test_accuracy": "nn.eval_s",
}
UNITS = {"rows_per_s": "rows/s", "_s": "s", "_calls": "count", "_rows": "count", "_steps": "count",
         "_updates": "count", "entries": "count", "_ratio": "ratio"}


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


def layer_metrics(tracer: Tracer, selfs: list[float], passes: int) -> dict[str, float]:
    """Per-layer metrics per pass: summed self (or inclusive) seconds, call
    and row counts, and the two useful-work ratios."""
    names, starts, ends, parents = tracer.names, tracer.starts, tracer.ends, tracer.parents
    by_name: dict[str, list[int]] = {}
    for sid, name in enumerate(names):
        by_name.setdefault(name, []).append(sid)

    def spans(span_names):
        return [sid for name in span_names for sid in by_name.get(name, ())]

    def counted(span_name, key):
        return sum(tracer.counts.get(sid, {}).get(key, 0) for sid in by_name.get(span_name, ()))

    out = {m: sum(selfs[s] for s in spans(n)) for m, n in SELF_METRICS.items()}
    out.update({m: sum(ends[s] - starts[s] for s in spans(n))
                for m, n in INCLUSIVE_METRICS.items()})
    out.update({m: float(len(spans(n))) for m, n in CALL_METRICS.items()})
    out.update({m: float(counted(*spec)) for m, spec in COUNT_METRICS.items()})
    for metric in set(CONTEXTS.values()):
        out[metric] = 0.0
    for sid in spans(("nn.Network.forward", "nn.Network.backward")):
        parent = parents[sid]
        while parent >= 0 and names[parent] not in CONTEXTS:
            parent = parents[parent]
        if parent >= 0:
            out[CONTEXTS[names[parent]]] += ends[sid] - starts[sid]
    scaled = {m: v / passes for m, v in out.items()}
    probe_rows = counted("attack.gradient_row_sums", "rows")
    compress_entries = counted("defenses.apply_defense", "compress_entries")
    scaled["attack.probe_distinct_ratio"] = (
        counted("attack.gradient_row_sums", "distinct") / probe_rows if probe_rows else 0.0)
    scaled["defenses.emitted_ratio"] = (
        counted("defenses.apply_defense", "emitted") / compress_entries
        if compress_entries else 0.0)
    return scaled


def write_spans(tracer: Tracer, path) -> None:
    """One JSON object per span, times in seconds from the first span."""
    origin = tracer.starts[0] if len(tracer) else 0.0
    with open(path, "w", encoding="utf-8") as handle:
        for sid, name in enumerate(tracer.names):
            record = {"id": sid, "name": name,
                      "start": tracer.starts[sid] - origin, "end": tracer.ends[sid] - origin,
                      "parent": tracer.parents[sid], "task": tracer.tasks[sid]}
            record.update(tracer.counts.get(sid, {}))
            handle.write(json.dumps(record) + "\n")


def span_table(tracer: Tracer, selfs: list[float]) -> str:
    """Calls, summed self time and summed inclusive time per span name."""
    rows: dict[str, list[float]] = {}
    for sid, name in enumerate(tracer.names):
        row = rows.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += selfs[sid]
        row[2] += tracer.ends[sid] - tracer.starts[sid]
    total = sum(selfs) or 1.0
    lines = [f"{'span':<36} {'calls':>9} {'self_s':>10} {'self%':>6} {'incl_s':>10}"]
    for name, (calls, self_s, incl_s) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<36} {calls:>9} {self_s:>10.4f} {100 * self_s / total:>6.1f} "
                     f"{incl_s:>10.4f}")
    return "\n".join(lines)
