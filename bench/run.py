"""llg-lab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload mlp_attack_grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
./src. With --trace 0 it prints the end-to-end metrics, with --trace 1 the
per-layer metrics of a traced run. The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; everything before
it (machine facts, sample counts, gate messages) is for people. Outputs go to
.bench_out/ in the checkout. See bench/README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import gate as checks
from harness import REFERENCE_SEED, WORKLOADS, percentile, run_pass, workload_config

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
MIN_TASK_INTERVALS = 200  # p95 then has ten samples beyond it
TRACE_PASSES = 3  # spans are held in memory; three passes bound them
END_TO_END_UNITS = {"rows_per_s": "rows/s", "task_ms_p50": "ms", "task_ms_p95": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


class FirstTask(Exception):
    """Raised from the progress hook to stop a setup probe after one task."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def load_program():
    """Import llg_lab from ./src of this checkout and nowhere else."""
    src = ROOT / "src"
    if not (src / "llg_lab" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {src / 'llg_lab'}; "
                         "run from the root of an llg-lab checkout")
    sys.path.insert(0, str(src))
    import llg_lab

    if not Path(llg_lab.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"error: llg_lab was imported from {llg_lab.__file__}, not {src}")
    return llg_lab


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one; never a parent repo's."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads(np) -> str:
    """Thread count the loaded OpenBLAS reports, when numpy bundles one."""
    import ctypes

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("libscipy_openblas*")):
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            try:
                getter = getattr(ctypes.CDLL(str(lib)), symbol)
            except (OSError, AttributeError):
                continue
            getter.restype = ctypes.c_int
            return str(getter())
    return "unknown"


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas_name, "blas_threads": blas_threads(np),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_sha": git_sha(), "source_sha256": source_digest(), "seed": seed,
    }


def setup_probe(lab, workload: str, seed: int) -> int:
    """Child side of setup_s: run until the first progress callback and print
    its CLOCK_MONOTONIC time."""
    def stop():
        raise FirstTask(time.monotonic())

    try:
        lab.run_experiment(lab.ExperimentConfig.from_dict(workload_config(workload, seed)),
                           progress=stop)
    except FirstTask as reached:
        print(repr(reached.args[0]))
        return 0
    log("error: the setup probe finished without a progress callback")
    return 1


def measure_setup(workload: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to the end of its first task."""
    start = time.monotonic()
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, env=os.environ.copy(), capture_output=True, text=True,
        timeout=SETUP_TIMEOUT_S, check=False)
    if child.returncode != 0:
        raise RuntimeError(f"setup probe failed ({child.returncode}): {child.stderr}")
    return float(child.stdout.strip().splitlines()[-1]) - start


def guarded_pass(lab, raw: dict, on_task=None):
    try:
        return run_pass(lab, raw, on_task)
    except Exception:  # a failing pass is counted, the run goes on
        log(traceback.format_exc())
        return None


def warm_up(lab, gate: checks.Gate, workload: str) -> None:
    """Untimed first pass at the reference seed: fills lazy state and checks
    ASR means against bench/reference.json."""
    raw = workload_config(workload, REFERENCE_SEED)
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]
    gate.record(raw, guarded_pass(lab, raw), reference)


def rows_per_s(results) -> float:
    """CSV rows per second of run_experiment + emit_csv over all passes: the
    time average, which a host's slow spells move less than a median of
    passes does."""
    return sum(r.rows for r in results) / sum(r.seconds for r in results)


def end_to_end(lab, args, gate: checks.Gate) -> tuple[dict, dict]:
    """Timed passes until --seconds of pass time are measured and p95 has ten
    task intervals beyond it, but no longer than 1.5 x --seconds. The setup
    probes run between passes, spread over the run, because the host's speed
    drifts over tens of seconds."""
    warm_up(lab, gate, args.workload)
    raw = workload_config(args.workload, args.seed)
    results, setup = [], []
    measured = 0.0
    intervals = 0
    while measured < args.seconds or (intervals < MIN_TASK_INTERVALS
                                      and measured < 1.5 * args.seconds):
        if len(setup) < SETUP_REPEATS and measured >= len(setup) * args.seconds / SETUP_REPEATS:
            setup.append(measure_setup(args.workload, args.seed))
        start = time.perf_counter()
        result = guarded_pass(lab, raw)
        measured += time.perf_counter() - start
        gate.record(raw, result)
        if result is not None:
            results.append(result)
            intervals += len(result.task_s)
    while len(setup) < SETUP_REPEATS:
        setup.append(measure_setup(args.workload, args.seed))
    if not results:
        raise RuntimeError("every pass failed")
    tasks_ms = [1000.0 * s for r in results for s in r.task_s]
    p95, p95_ok = percentile(tasks_ms, 0.95)
    metrics = {
        "rows_per_s": rows_per_s(results),
        # Per pass, then averaged: when the host flips between a fast and a
        # slow speed, a median of all intervals jumps between the two modes.
        "task_ms_p50": statistics.mean(1000.0 * percentile(r.task_s, 0.50)[0] for r in results),
        "task_ms_p95": p95,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    samples = {
        "passes": len(results), "measured_s": measured,
        "rows": sum(r.rows for r in results), "task_intervals": len(tasks_ms),
        "task_ms_p95_has_10_beyond": p95_ok, "setup_samples_s": setup,
        "pass_s": [r.seconds for r in results], "task_ms": tasks_ms,
    }
    if not p95_ok:
        log(f"warning: task_ms_p95 rests on fewer than ten samples beyond it "
            f"({len(tasks_ms)} task intervals)")
    return {m: (v, END_TO_END_UNITS[m]) for m, v in metrics.items()}, samples


def traced(lab, args, gate: checks.Gate) -> tuple[dict, dict]:
    """Alternate untraced and traced passes until --seconds have passed or
    TRACE_PASSES passes were traced. Per-layer metrics are per traced pass;
    the overhead is traced over untraced rows/s."""
    import tracing  # imports numpy, so only after BLAS is pinned

    warm_up(lab, gate, args.workload)
    raw = workload_config(args.workload, args.seed)
    tracer = tracing.Tracer()
    plain, with_spans = [], []
    rounds = 0
    start = time.perf_counter()
    while rounds == 0 or (rounds < TRACE_PASSES and time.perf_counter() - start < args.seconds):
        rounds += 1
        result = guarded_pass(lab, raw)
        gate.record(raw, result)
        if result is not None:
            plain.append(result)
        with tracing.installed(tracer, lab):
            result = guarded_pass(lab, raw, tracer.task_boundary)
        gate.record(raw, result)
        if result is not None:
            with_spans.append(result)
    if not plain or not with_spans:
        raise RuntimeError("every pass failed")
    selfs = tracing.self_times(tracer)
    layers = tracing.layer_metrics(tracer, selfs, len(with_spans))
    layers["trace.rows_per_s"] = rows_per_s(with_spans)
    layers["trace.untraced_rows_per_s"] = rows_per_s(plain)
    layers["trace.overhead_ratio"] = layers["trace.rows_per_s"] / layers["trace.untraced_rows_per_s"]
    trace_dir = OUT / "trace"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracing.write_spans(tracer, trace_dir / f"{args.workload}.spans.jsonl")
    error = tracing.task_sum_error(tracer, selfs)
    table = tracing.span_table(tracer, selfs)
    metric_lines = "\n".join(f"{m:<32} {v:>14.6g} {tracing.unit_of(m)}"
                             for m, v in sorted(layers.items()))
    (trace_dir / f"{args.workload}.layers.txt").write_text(
        f"per traced pass ({len(with_spans)} passes, {len(tracer)} spans)\n"
        f"max |task duration - sum of its self times| = {error:.3g} s\n\n"
        f"{metric_lines}\n\n{table}\n", encoding="utf-8")
    samples = {"traced_passes": len(with_spans), "untraced_passes": len(plain),
               "spans": len(tracer), "task_sum_error_s": error}
    return {m: (v, tracing.unit_of(m)) for m, v in layers.items()}, samples


def record_reference(lab) -> int:
    """Rewrite bench/reference.json from one pass per workload at the
    reference seed. Run only when the program's results change on purpose."""
    reference = {}
    for name in WORKLOADS:
        reference[name] = checks.asr_means(run_pass(lab, workload_config(name, REFERENCE_SEED)).csv)
        log(f"recorded {len(reference[name])} groups for {name}")
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                         encoding="utf-8")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite bench/reference.json and exit")
    args = parser.parse_args(argv)
    if not args.record_reference and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    for name in BLAS_ENV:  # before numpy loads; children inherit it
        os.environ[name] = "1"
    lab = load_program()
    if args.setup_probe:
        return setup_probe(lab, args.workload, args.seed)
    if args.record_reference:
        return record_reference(lab)
    facts = machine_facts(args.seed)
    gate = checks.Gate(source_digest(), OUT / "digests.json")
    measure = traced if args.trace else end_to_end
    metrics, samples = measure(lab, args, gate)
    correct = gate.failed == 0
    report = {"workload": args.workload, "trace": args.trace, "facts": facts,
              "samples": samples, "attempted": gate.attempted, "failed": gate.failed,
              "gate_messages": gate.messages,
              "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()}}
    (OUT / "results").mkdir(parents=True, exist_ok=True)
    (OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1), encoding="utf-8")
    for key, value in facts.items():
        print(f"# {key}: {value}")
    for key, value in samples.items():
        if key not in ("pass_s", "task_ms"):  # raw series stay in the result file
            print(f"# samples.{key}: {value}")
    print(f"# tasks: {gate.failed} failed of {gate.attempted} attempted")
    for metric, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {metric} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
                      "metrics": report["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
