"""teameq benchmark.

    python3 perfbench/run.py --workload nf-psro --seed 500 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics with tracing off:
set-up time in fresh interpreters, then passes of the workload until
``--seconds`` is used up.  ``--trace 1`` runs a traced, an untraced and a
second traced pass, prints the per-module metrics, and fails (exit 3) if a
deterministic count differs between the traced passes.  The last line of
standard output is one JSON object; README.md explains every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import timing

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench")

SETUP_RUNS = 7  # fresh interpreters per run; one more runs first as a warm-up
EXIT_NO_PROGRAM = 2
EXIT_NONDETERMINISTIC = 3


def _parse_args(argv, workload_names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workload_names)
    parser.add_argument("--seed", type=int, default=500)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line})
        lib = ctypes.CDLL(paths[0])
    except (OSError, IndexError):
        return None
    for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            return int(fn())
    return None


# ---------------------------------------------------------------------------
# Set-up time


# Appended to a workload's set-up code: the CPU time the fresh interpreter
# has used once ready, then three reference samples taken in that process.
_SETUP_PROBE = """
import sys, time
cpu = time.process_time()
sys.path.insert(0, {here!r})
import timing
refs = []
for _ in range(3):
    c0 = time.thread_time()
    timing.reference_work()
    refs.append(time.thread_time() - c0)
print(cpu, sorted(refs)[1])
"""


def measure_setup(code: str) -> tuple[float, float]:
    """Median over fresh interpreters, started one at a time, of the CPU
    time from spawn until ``code`` (import plus game building) has run,
    each normalised by reference samples taken in the same interpreter
    (set-up is mostly kernel work in another process, which the workload's
    sampler does not see).  Returns ``(normalised s, raw cpu s)``."""
    env = dict(os.environ, PYTHONPATH=SRC)
    child = code + _SETUP_PROBE.format(here=os.path.dirname(os.path.abspath(__file__)))
    samples = []
    for i in range(SETUP_RUNS + 1):
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=60, check=True,
        )
        if i > 0:  # the first run only warms the file cache and bytecode
            cpu, ref = (float(x) for x in proc.stdout.split()[-2:])
            samples.append((cpu * timing.REF_NOMINAL_S / ref, cpu))
    return statistics.median(s for s, _ in samples), statistics.median(c for _, c in samples)


# ---------------------------------------------------------------------------
# Passes


class PassRecord:
    """One pass: per operation ``(op, cpu s, wall s)`` of its fastest repeat."""

    def __init__(self, ops, ctx, ref_s):
        self.ops = ops
        self.ctx = ctx
        self.ref_s = ref_s  # mean reference time over the pass
        self.failures: list[tuple[str, str, str | None]] = []

    def total(self, kind=None) -> float:
        """Normalised seconds of the pass's operations of ``kind`` (all if None)."""
        cpu = sum(c for op, c, _ in self.ops if kind is None or op.kind == kind)
        return cpu * timing.REF_NOMINAL_S / self.ref_s

    def raw_cpu(self) -> float:
        return sum(cpu for _, cpu, _ in self.ops)

    def raw_wall(self) -> float:
        return sum(wall for _, _, wall in self.ops)


def run_pass(workload, seed, out_dir, single_shot, tracer=None):
    from workloads import PassContext

    ctx = PassContext(seed=seed, out_dir=out_dir)
    os.makedirs(out_dir, exist_ok=True)
    timed = []
    with timing.Sampler() as sampler:
        for op in workload.ops(ctx):
            if tracer is not None:
                tracer.begin_op(op.name, out_dir)
            repeats = 1 if single_shot else op.repeats
            (cpu, wall), outcome = timing.time_call(sampler, op.prepare, op.call, repeats)
            if tracer is not None:
                tracer.end_op()
            ctx.results[op.name] = outcome
            timed.append((op, cpu, wall))
    return PassRecord(timed, ctx, sampler.ref_s())


def check_pass(workload, record, oracle) -> None:
    from workloads import known_failure

    for op, *_ in record.ops:
        result, error = record.ctx.results[op.name]
        note = workload.check(op, result, error, record.ctx, oracle)
        if note is not None:
            record.failures.append((op.name, note, known_failure(op, error, note)))


def _scale(record) -> float:
    return timing.REF_NOMINAL_S / record.ref_s


# ---------------------------------------------------------------------------
# Output


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _print_failures(records) -> bool:
    """Print each failed operation; True when all belong to known defects."""
    all_known = True
    for k, record in enumerate(records):
        for name, note, known in record.failures:
            all_known &= known is not None
            tag = f"known: {known}" if known else "UNEXPECTED"
            print(f"  failed  pass {k}  {name}: {note[:160]}  [{tag}]")
    return all_known


def _result_line(correct, attempted, failed, metrics) -> str:
    return json.dumps(
        {"correct": bool(correct), "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def timed_run(workload, args, seed, scratch) -> int:
    from workloads import Oracle

    setup_s, setup_raw = measure_setup(workload.setup_code)
    records = []
    start = time.perf_counter()
    while True:
        records.append(run_pass(
            workload, seed, os.path.join(scratch, f"pass-{len(records)}"), False))
        elapsed = time.perf_counter() - start
        if elapsed * (len(records) + 1) / len(records) > args.seconds:
            break
    ref_s = statistics.mean(r.ref_s for r in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    oracle = Oracle()
    for record in records:
        check_pass(workload, record, oracle)

    def median_of(kind=None):
        return statistics.median(r.total(kind) for r in records)

    attempted = sum(len(r.ops) for r in records)
    failed = sum(len(r.failures) for r in records)
    sums = {kind: median_of(kind) for kind in ("psro", "exploit", "solve")}
    print(f"workload {workload.name}  seed {args.seed}  passes {len(records)}  "
          f"ops/pass {len(records[0].ops)}  blas_threads {_blas_threads()}  "
          f"cpus {os.cpu_count()}")
    print(f"  setup_s      {setup_s:.4f} s   median of {SETUP_RUNS} fresh interpreters")
    print(f"  wall_s       {median_of():.4f} s   median over passes")
    for kind, value in sums.items():
        if any(entry[0].kind == kind for entry in records[0].ops):
            print(f"  {kind + '_s':12s} {value:.4f} s")
    print(f"  peak_rss_mb  {peak_rss_mb:.1f} MB")
    print(f"  error_rate   {failed / attempted:.4f} ratio   {failed} failed / {attempted} attempted")
    print(f"  bench.raw_wall_s {statistics.median(r.raw_wall() for r in records):.4f} s   "
          f"raw cpu {statistics.median(r.raw_cpu() for r in records):.4f} s   "
          f"bench.ref_s {ref_s:.6f} s   setup raw cpu {setup_raw:.4f} s")
    all_known = _print_failures(records)
    print(_result_line(all_known, attempted, failed, {
        "setup_s": _metric(setup_s, "s"),
        "wall_s": _metric(median_of(), "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }))
    return 0


def _percentile_line(name, durations) -> str | None:
    """p50 and p90, each only when at least 10 samples lie beyond it."""
    ordered = sorted(durations)
    if not ordered:
        return None
    parts = []
    for label, q in (("p50", 0.5), ("p90", 0.9)):
        value = ordered[min(len(ordered) - 1, int(q * len(ordered)))]
        if sum(d > value for d in ordered) >= 10:
            parts.append(f"{label} {value:.6f} s")
    if not parts:
        return None
    return f"  {name}: " + ", ".join(parts) + f"  (n={len(ordered)})"


def traced_run(workload, args, seed, scratch) -> int:
    from tracing import DETERMINISTIC, PER_LAYER, Tracer
    from workloads import Oracle

    t0 = time.perf_counter()

    def traced_pass(k):
        tracer = Tracer().install()
        try:
            record = run_pass(workload, seed, os.path.join(scratch, f"traced-{k}"), True, tracer)
        finally:
            tracer.uninstall()
        return record, tracer, tracer.metrics(_scale(record))

    # The first pass of a process runs slower (warm-up), so the untraced
    # pass sits between the two traced ones and is compared with the second.
    traced = [traced_pass(0)]
    plain = run_pass(workload, seed, os.path.join(scratch, "plain"), True)
    traced.append(traced_pass(1))
    oracle = Oracle()
    for record in [plain] + [r for r, _, _ in traced]:
        check_pass(workload, record, oracle)

    (rec_a, _, m_a), (rec_b, tr_b, m_b) = traced
    mismatches = [
        f"{name}: {m_a.get(name)} != {m_b.get(name)}"
        for name in DETERMINISTIC if m_a.get(name) != m_b.get(name)
    ]
    outcomes = [[(n, note) for n, note, _ in r.failures] for r in (plain, rec_a, rec_b)]
    if outcomes[0] != outcomes[1] or outcomes[1] != outcomes[2]:
        mismatches.append("failed operations differ between passes")
    if mismatches:
        print("determinism check failed:", *mismatches, sep="\n  ", file=sys.stderr)
        return EXIT_NONDETERMINISTIC

    spans = f"spans-{workload.name}-seed{args.seed}.jsonl"
    tr_b.write_spans(os.path.join(os.path.dirname(scratch), spans), t0)
    plain_wall = plain.total()
    traced_wall = rec_b.total()
    attempted = sum(len(r.ops) for r in (plain, rec_a, rec_b))
    failed = sum(len(r.failures) for r in (plain, rec_a, rec_b))
    values = {name: m_b[name] for name, _, _ in PER_LAYER if not name.startswith("bench.")}
    values["bench.raw_wall_s"] = plain.raw_wall()
    values["bench.ref_s"] = plain.ref_s
    values["bench.trace_overhead_s"] = traced_wall - plain_wall
    values["bench.ops"] = len(plain.ops)
    values["bench.error_rate"] = failed / attempted

    print(f"workload {workload.name}  seed {args.seed}  traced run: traced, untraced and "
          f"traced passes, {len(plain.ops)} ops each  blas_threads {_blas_threads()}")
    print(f"  untraced wall_s {plain_wall:.4f} s   traced wall_s {traced_wall:.4f} s")
    for name, unit, _ in PER_LAYER:
        print(f"  {name:52s} {values[name]:.6g} {unit}")
    for name in ("oracles.solve_matrix_maxmin", "psro.run_psro"):
        line = _percentile_line(name, tr_b.durations(name, _scale(rec_b)))
        if line:
            print(line)
    print("  per operation (second traced pass):")
    for op_name, entry in tr_b.per_op.items():
        extra = "".join(f"  {k} {v}" for k, v in entry.items() if v)
        if extra:
            print(f"    {op_name}:{extra}")
    all_known = _print_failures([plain, rec_a, rec_b])
    print(_result_line(all_known, attempted, failed, {
        name: _metric(values[name], unit) for name, unit, _ in PER_LAYER
    }))
    return 0


def main(argv=None) -> int:
    if not os.path.isfile(os.path.join(SRC, "teameq", "__init__.py")):
        print(f"error: no teameq sources under {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS, program_seed

    args = _parse_args(argv, sorted(WORKLOADS))
    workload = WORKLOADS[args.workload]
    scratch = os.path.join(SCRATCH, f"run-{os.getpid()}")
    os.makedirs(scratch, exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        return run(workload, args, program_seed(args.seed), scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
