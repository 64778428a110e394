"""Correctness gate for benchmark passes.

Every check maps a defect to the tasks it spoils, so failures are counted in
tasks, the same unit as attempts. Rows appear in task order with one row per
attack, so row i belongs to task i // len(attacks).
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
from pathlib import Path

from harness import CSV_HEADER, config_key, labels_per_row, rows_per_task, tasks_per_pass


def _records(csv_text: str) -> list[list[str]]:
    return list(csv.reader(io.StringIO(csv_text)))[1:]


def _group(record: list[str]) -> str:
    return f"{record[5]}|{record[2]}|{record[4]}"  # defense|attack|batch_size


def check_pass(raw: dict, csv_text: str, callbacks: int) -> tuple[set[int], list[str]]:
    """Header, callback and row counts, and value ranges of one pass.

    Returns the indices of failed tasks and a message per failed check.
    """
    n_tasks = tasks_per_pass(raw)
    per_task = rows_per_task(raw)
    everything = set(range(n_tasks))
    header = csv_text.split("\n", 1)[0]
    if header != CSV_HEADER:
        return everything, [f"CSV header {header!r} differs from {CSV_HEADER!r}"]
    records = _records(csv_text)
    if callbacks != n_tasks or len(records) != n_tasks * per_task:
        return everything, [
            f"expected {n_tasks} tasks x {per_task} rows, got {callbacks} "
            f"progress callbacks and {len(records)} rows"
        ]
    failed, messages = set(), []
    for i, record in enumerate(records):
        try:
            values = [float(record[k]) for k in (7, 8, 9)]  # asr, hellinger, accuracy
        except (ValueError, IndexError):
            values = [math.nan]
        if not all(0.0 <= v <= 1.0 for v in values):
            failed.add(i // per_task)
            messages.append(f"row {i + 1}: score outside [0, 1] in {record}")
    return failed, messages


def asr_means(csv_text: str) -> dict[str, list]:
    """Mean ASR and row count per 'defense|attack|batch_size' group."""
    groups: dict[str, list[float]] = {}
    for record in _records(csv_text):
        groups.setdefault(_group(record), []).append(float(record[7]))
    return {key: [sum(v) / len(v), len(v)] for key, v in groups.items()}


def check_reference(raw: dict, csv_text: str, reference: dict) -> tuple[set[int], list[str]]:
    """Compare each group's mean ASR with the recorded reference.

    The tolerance is one extracted label flipped in the group: a summation
    order change may tip a near tie, a broken attack moves many labels.
    """
    observed = asr_means(csv_text)
    per_task = rows_per_task(raw)
    bad = set()
    messages = []
    for key in sorted(set(observed) | set(reference)):
        if key not in observed or key not in reference:
            bad.add(key)
            messages.append(f"group {key} is missing from the "
                            f"{'run' if key not in observed else 'reference'}")
            continue
        mean, n = observed[key]
        ref_mean, ref_n = reference[key]
        tolerance = 1.0 / (labels_per_row(raw, int(key.rsplit('|', 1)[1])) * n) + 1e-12
        if n != ref_n or abs(mean - ref_mean) > tolerance:
            bad.add(key)
            messages.append(f"group {key}: mean ASR {mean!r} over {n} rows, reference "
                            f"{ref_mean!r} over {ref_n} (tolerance {tolerance:.3g})")
    failed = {
        i // per_task for i, record in enumerate(_records(csv_text))
        if _group(record) in bad
    }
    if bad and not failed:
        failed = set(range(tasks_per_pass(raw)))
    return failed, messages


def agrees_with_record(path: Path, key: str, digest: str) -> bool:
    """True when no earlier run recorded a different CSV digest under key.

    The first digest seen for a key is recorded; the file lives in the
    checkout, so all runs of one source tree and seed are compared.
    """
    try:
        record = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        record = {}
    if key in record:
        return record[key] == digest
    record[key] = digest
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(record, indent=1, sort_keys=True), encoding="utf-8")
    os.replace(tmp, path)
    return True


class Gate:
    """Counts attempted and failed tasks over all passes of a run.

    source names the program's source tree; digest_file holds the CSV digests
    that earlier runs in this checkout saw (see agrees_with_record).
    """

    def __init__(self, source: str, digest_file: Path):
        self.source = source
        self.digest_file = digest_file
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.digests: dict[str, str] = {}

    def _fail(self, failed: set[int], messages: list[str]) -> None:
        self.failed += len(failed)
        for message in messages[:20]:
            self.messages.append(message)
            print(f"gate: {message}", file=sys.stderr, flush=True)

    def record(self, raw: dict, result, reference: dict | None = None) -> None:
        """Count one pass's tasks; result None means the pass raised.

        Besides check_pass (and check_reference when a reference is given),
        every pass of one source tree, config and seed must emit the same
        CSV digest, within the run and across runs.
        """
        n_tasks = tasks_per_pass(raw)
        self.attempted += n_tasks
        if result is None:
            self._fail(set(range(n_tasks)), ["the pass raised"])
            return
        failed, messages = check_pass(raw, result.csv, result.callbacks)
        if reference is not None and not failed:
            more, extra = check_reference(raw, result.csv, reference)
            failed |= more
            messages += extra
        key = f"{self.source}:{config_key(raw)}"
        if key not in self.digests:
            self.digests[key] = result.digest
            if not agrees_with_record(self.digest_file, key, result.digest):
                failed = set(range(n_tasks))
                messages.append("CSV digest differs from an earlier run of this source and seed")
        elif self.digests[key] != result.digest:
            failed = set(range(n_tasks))
            messages.append("CSV digest differs from an earlier pass of this run")
        self._fail(failed, messages)
