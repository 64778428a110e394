"""Tests of the benchmark's own arithmetic, gate and tracer.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import gate  # noqa: E402
import llg_lab  # noqa: E402
import tracing  # noqa: E402
from harness import CSV_HEADER, percentile, run_pass, tasks_per_pass  # noqa: E402

TINY = {
    "experiment": "asr_vs_batchsize", "attacks": ["llg", "llg_plus", "random"],
    "batch_sizes": [2, 8], "trials": 2, "samples_per_class": 40, "master_seed": 3,
    "workers": 1,
}


class ScriptedClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_of_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds a1 [2, 3]) and b [5, 9]
    tracer = tracing.Tracer(ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    root = tracer.open("root")
    a = tracer.open("a")
    a1 = tracer.open("a1")
    tracer.close(a1)
    tracer.close(a)
    b = tracer.open("b")
    tracer.close(b)
    tracer.close(root)
    selfs = tracing.self_times(tracer)
    assert [selfs[s] for s in (root, a, a1, b)] == [3, 2, 1, 4]
    assert sum(selfs) == 10


def test_overlapping_and_overhanging_children_count_once():
    tracer = tracing.Tracer()
    # parent [0, 10]; children [1, 5] and [3, 7] overlap, [8, 12] overhangs
    for start, end, parent in [(0, 10, -1), (1, 5, 0), (3, 7, 0), (8, 12, 0)]:
        tracer.names.append("s")
        tracer.starts.append(start)
        tracer.ends.append(end)
        tracer.parents.append(parent)
        tracer.tasks.append(-1)
    assert tracing.self_times(tracer)[0] == pytest.approx(10 - 6 - 2)


def test_p95_is_flagged_below_ten_samples_beyond_it():
    value, ok = percentile(range(1, 201), 0.95)
    assert (value, ok) == (190, True)  # ten samples, 191..200, lie beyond
    value, ok = percentile(range(1, 200), 0.95)
    assert (value, ok) == (190, False)
    assert percentile([5.0, 1.0, 3.0], 0.5) == (3.0, False)


@pytest.fixture(scope="module")
def tiny_pass():
    return run_pass(llg_lab, dict(TINY))


def test_gate_accepts_a_correct_pass(tiny_pass):
    assert tiny_pass.csv.split("\n", 1)[0] == CSV_HEADER
    assert gate.check_pass(TINY, tiny_pass.csv, tiny_pass.callbacks) == (set(), [])
    reference = gate.asr_means(tiny_pass.csv)
    assert gate.check_reference(TINY, tiny_pass.csv, reference) == (set(), [])


def test_gate_rejects_a_wrong_row_count(tiny_pass):
    short = tiny_pass.csv[:tiny_pass.csv.rstrip("\n").rfind("\n") + 1]
    failed, messages = gate.check_pass(TINY, short, tiny_pass.callbacks)
    assert failed == set(range(tasks_per_pass(TINY))) and messages
    failed, _ = gate.check_pass(TINY, tiny_pass.csv, tiny_pass.callbacks - 1)
    assert failed == set(range(tasks_per_pass(TINY)))


def test_gate_rejects_a_bad_header(tiny_pass):
    renamed = tiny_pass.csv.replace("asr,", "score,", 1)
    failed, _ = gate.check_pass(TINY, renamed, tiny_pass.callbacks)
    assert failed == set(range(tasks_per_pass(TINY)))


def test_gate_tolerates_rounding_but_not_a_perturbed_asr(tiny_pass):
    reference = gate.asr_means(tiny_pass.csv)
    key = "none|llg_plus|8"
    mean, n = reference[key]
    rounded = dict(reference, **{key: [mean + 1e-14, n]})
    assert gate.check_reference(TINY, tiny_pass.csv, rounded) == (set(), [])
    # two labels flipped out of 8 * n exceeds the one-label tolerance
    perturbed = dict(reference, **{key: [mean - 2.0 / (8 * n), n]})
    failed, messages = gate.check_reference(TINY, tiny_pass.csv, perturbed)
    assert failed == {2, 3}  # the B=8 cells are tasks 2 and 3
    assert len(messages) == 1 and key in messages[0]


def test_digest_record_flags_a_changed_output(tmp_path):
    record = tmp_path / "digests.json"
    assert gate.agrees_with_record(record, "k", "abc")
    assert gate.agrees_with_record(record, "k", "abc")
    assert not gate.agrees_with_record(record, "k", "abd")
    assert json.loads(record.read_text()) == {"k": "abc"}


def test_gate_counts_a_changed_digest_as_failed_tasks(tiny_pass, tmp_path):
    counter = gate.Gate("src", tmp_path / "digests.json")
    counter.record(TINY, tiny_pass)
    counter.record(TINY, tiny_pass)
    assert (counter.attempted, counter.failed) == (8, 0)
    changed = type(tiny_pass)(tiny_pass.seconds, tiny_pass.csv.replace(",0.1,", ",0.2,", 1),
                              tiny_pass.task_s, tiny_pass.callbacks)
    counter.record(TINY, changed)
    counter.record(TINY, None)  # the pass raised
    assert (counter.attempted, counter.failed) == (16, 8)
    later = gate.Gate("src", tmp_path / "digests.json")  # a later run, same checkout
    later.record(TINY, changed)
    assert later.failed == 4 and "earlier run" in later.messages[-1]


def _patched_objects():
    return [vars(tracing._owner(llg_lab, path))[attr] for path, attr, *_ in tracing.PATCHES]


def test_traced_pass_sums_per_task_and_restores_wrappers(tiny_pass):
    before = _patched_objects() + [llg_lab.run_experiment]
    tracer = tracing.Tracer()
    with tracing.installed(tracer, llg_lab):
        assert (llg_lab.experiments.estimate_params_auxiliary
                is not llg_lab.attack.estimate_params_auxiliary)
        traced = run_pass(llg_lab, dict(TINY), tracer.task_boundary)
    assert _patched_objects() + [llg_lab.run_experiment] == before
    assert traced.digest == tiny_pass.digest  # tracing leaves results alone
    assert tracer.names.count(tracing.TASK) == tasks_per_pass(TINY)
    selfs = tracing.self_times(tracer)
    assert tracing.task_sum_error(tracer, selfs) < 1e-9
    layers = tracing.layer_metrics(tracer, selfs, 1)
    assert layers["attack.probe_calls"] > 0 and layers["nn.conv2d.forward_s"] == 0
    assert layers["defenses.apply_calls"] == 0
    assert layers["fl.client_updates"] == tasks_per_pass(TINY)


def test_wrappers_are_restored_when_the_traced_pass_raises():
    before = _patched_objects() + [llg_lab.run_experiment]
    tracer = tracing.Tracer()

    class Stop(Exception):
        pass

    def fail_after_first_task():
        tracer.task_boundary()
        raise Stop

    with pytest.raises(Stop):
        with tracing.installed(tracer, llg_lab):
            run_pass(llg_lab, dict(TINY), fail_after_first_task)
    assert _patched_objects() + [llg_lab.run_experiment] == before
    assert all(end == end for end in tracer.ends)  # every span was closed


def test_run_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    child = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fedavg_rounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
