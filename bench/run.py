"""raymoments benchmark: one workload, one seed, every metric with its unit.

Run from the repository root:

    python3 bench/run.py --workload range --seed 1 --seconds 30 --trace 0

Workloads are ``range``, ``grid`` and ``lines`` (see ``workloads.py`` and
``expectations.json``).  The run is one process and one client in a closed
loop: jobs run one at a time, round-robin over the workload's
configurations, for one whole cycle and then for as long as the next job
still ends within ``--seconds``.  A workload's ``untimed`` configurations run
once after that loop; their verdicts count, their times are only recorded.
Each job checks its own verdict.

``--trace 0`` reports the end-to-end metrics of that untraced run.  The
timing metrics weigh each configuration once, by its median job time:
``job_s_p50`` is their geometric mean, ``job_s_tail`` the slowest of them,
and ``jobs_per_s`` the jobs of one cycle over their sum.  ``pass_ratio`` is
the share of verdict checks passed, again weighing each configuration once;
the share of failed jobs is ``fail_ratio`` in the info line.
``--trace 1`` runs the first cycle untraced and then traced, and reports the
per-layer metrics derived from the spans, the tracing overhead, and the exact
counts, which must repeat for the same seed and source tree.

The last line of standard output is the result object; the line before it
records the seed, machine, library versions and thread caps.  A fuller
report, and the spans of a traced run, are written under ``bench/out/``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import asdict, dataclass
from pathlib import Path

from spans import EXACT_COUNTS, NullRecorder, Recorder, layer_metrics

NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# BLAS and OpenMP read these once, when numpy is first imported
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_REPEATS = 7


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    p.add_argument("--workload", required=True, choices=("range", "grid", "lines"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_library():
    """Import raymoments from this checkout's src/, never from elsewhere."""
    if not (SRC / "raymoments" / "__init__.py").is_file():
        sys.exit(f"bench: no raymoments sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import raymoments
    if Path(raymoments.__file__).resolve().parent != SRC / "raymoments":
        sys.exit(f"bench: imported raymoments from {raymoments.__file__}, "
                 f"not from {SRC}")


# Imports happen once per process, so set-up repeats them in fresh interpreters.
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path[:0] = sys.argv[1:]; "
                "import numpy, scipy, workloads; print(time.perf_counter() - t)")


def import_seconds() -> float:
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(BENCH)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def source_digest() -> str:
    """Digest of the library and the benchmark sources, which fix the counts."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "raymoments").glob("*.py"), *BENCH.glob("*.py"),
                        BENCH / "expectations.json"]):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


@dataclass
class Outcome:
    cycle: int
    config: tuple
    seconds: float
    cpu_seconds: float
    failed: tuple              # failed checks; ("raised",) when the job raised
    residual: float | None     # None when the job raised
    error: str | None
    detail: str

    @property
    def passed(self) -> bool:
        return not self.failed


def run_job(wl, cycle, cfg, inp, rec) -> Outcome:
    start, cpu = time.perf_counter(), time.process_time()
    try:
        v = wl.run(cfg, inp, rec)
        result = (v.failed, v.residual, None, v.detail)
    except Exception as exc:            # a failed job is counted, not fatal
        result = (("raised",), None, f"{type(exc).__name__}: {exc}", "")
    return Outcome(cycle, cfg, time.perf_counter() - start,
                   time.process_time() - cpu, *result)


def run_jobs(wl, seed, rec, *, seconds=None, cycles=None):
    """Closed loop, one job at a time, round-robin over the timed configurations.

    With ``cycles`` it runs exactly that many whole cycles.  With ``seconds``
    it runs one whole cycle, so that every configuration has a time, and then
    goes on in the same order while the next job, at the time its
    configuration took last, still ends within ``seconds``.
    """
    outcomes, last = [], {}
    t0 = time.perf_counter()
    cycle = 0
    while cycles is None or cycle < cycles:
        for cfg, inp in wl.inputs(seed, cycle):
            if cfg in wl.untimed:
                continue
            if (cycles is None and cycle > 0
                    and time.perf_counter() - t0 + last[cfg] > seconds):
                return outcomes
            rec.job = len(outcomes)
            outcomes.append(run_job(wl, cycle, cfg, inp, rec))
            last[cfg] = outcomes[-1].seconds
        cycle += 1
    return outcomes


def set_up(wl, seed):
    """Input generation plus one warm-up job per configuration, untimed."""
    errors = []
    for cfg, inp in wl.inputs(seed, 0):
        try:
            wl.run(cfg, inp, NullRecorder(), warm=True)
        except Exception as exc:        # recorded; the warm-up verdict is unused
            errors.append(f"{cfg}: {type(exc).__name__}: {exc}")
    return errors


def by_config(outcomes) -> dict:
    """The outcomes of each configuration, in the order they ran."""
    groups = {}
    for o in outcomes:
        groups.setdefault(o.config, []).append(o)
    return groups


def check_counts(workload, seed, counts) -> str | None:
    """Compare exact counts with earlier traced runs of this seed and source."""
    ledger_path = OUT / "exact_counts.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    key = f"{workload}/seed={seed}/src={source_digest()}"
    before = ledger.setdefault(key, counts)
    ledger_path.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    if before != counts:
        return f"exact counts changed for {key}: before {before}, now {counts}"
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    import_library()
    import numpy as np
    import scipy

    import workloads

    import_s = time.perf_counter() - T_START
    OUT.mkdir(exist_ok=True)
    expectations = json.loads((BENCH / "expectations.json").read_text())
    # config -> the checks whose failure is expected
    expected_fail = {tuple(e["config"]): set(e["checks"])
                     for e in expectations["expected_failures"]
                     if e["workload"] == args.workload}

    def expected(o: Outcome) -> bool:
        return set(o.failed) <= expected_fail.get(o.config, set())

    with tempfile.TemporaryDirectory(dir=OUT) as io_dir:
        wl = workloads.make(args.workload, io_dir)
        setup_times, warm_errors = [], []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            warm_errors = set_up(wl, args.seed)
            setup_times.append(time.perf_counter() - t0)
        import_runs = [import_s] + [import_seconds()
                                    for _ in range(SETUP_REPEATS - 1)]
        setup_s = statistics.median(import_runs) + statistics.median(setup_times)

        count_error = None
        if args.trace:
            t0 = time.perf_counter()
            untraced = run_jobs(wl, args.seed, NullRecorder(), cycles=1)
            wall_plain = time.perf_counter() - t0
            rec = Recorder()
            t0 = time.perf_counter()
            traced = run_jobs(wl, args.seed, rec, cycles=1)
            wall_traced = time.perf_counter() - t0
            outcomes = untraced + traced
            timed_s = wall_plain + wall_traced
            metrics = layer_metrics(rec.spans)
            metrics["trace.overhead_ratio"] = wall_traced / wall_plain - 1.0
            counts = {name: metrics[name] for name in EXACT_COUNTS}
            count_error = check_counts(args.workload, args.seed, counts)
            (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
                json.dumps({"fields": ["name", "start", "end", "parent", "job",
                                       "units", "error"],
                            "spans": [sp.as_list() for sp in rec.spans]}))
        else:
            t0 = time.perf_counter()
            outcomes = run_jobs(wl, args.seed, NullRecorder(), seconds=args.seconds)
            timed_s = time.perf_counter() - t0
        outcomes += [run_job(wl, 0, cfg, inp, NullRecorder())
                     for cfg, inp in wl.inputs(args.seed, 0) if cfg in wl.untimed]

    units = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}
    failures = [o for o in outcomes if not o.passed]
    unexpected = [o for o in failures if not expected(o)]
    groups = by_config(outcomes)
    # Jobs of different configurations differ by up to 1000x in time and a
    # run holds 8 to 45 of them, ending wherever the time runs out, so the
    # metrics weigh every configuration once: a pooled median, percentile or
    # share would jump between configurations with the stopping point.
    per_config = {c: statistics.median(o.seconds for o in g)
                  for c, g in groups.items() if c not in wl.untimed}

    def share(pred) -> float:
        return statistics.fmean(sum(map(pred, g)) / len(g)
                                for g in groups.values())

    fail_ratio = share(lambda o: not o.passed)
    # share of the verdict checks that failed; a job that raised fails all
    check_fails = share(lambda o: 1.0 if o.error else len(o.failed) / len(wl.checks))
    if not args.trace:
        cycle_s = sum(per_config.values())
        metrics = {
            "setup_s": setup_s,
            # jobs of one cycle of the mix, without an unexpected failure,
            # per second of that cycle
            "jobs_per_s": (len(per_config)
                           * share(expected) / cycle_s),
            "job_s_p50": math.exp(statistics.fmean(
                math.log(t) for t in per_config.values())),
            "job_s_tail": max(per_config.values()),
            "pass_ratio": 1.0 - check_fails,
            "accuracy_digits": workloads.accuracy_digits(
                [o.residual for o in outcomes if o.residual is not None]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    result_metrics = {name: {"value": value, "unit": units[name]}
                      for name, value in metrics.items()}
    info = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "nproc": NPROC,
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__,
        "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
        "jobs": len(outcomes),
        "fail_ratio": fail_ratio,
        "expected_failure_checks": {str(c): sorted(checks)
                                    for c, checks in expected_fail.items()},
        "config_job_s_p50": {str(c): t for c, t in per_config.items()},
        "untimed_job_s": {str(o.config): o.seconds for o in outcomes
                          if o.config in wl.untimed},
        "config_jobs": {str(c): len(g) for c, g in groups.items()},
        "timed_s": timed_s,
        "setup_runs_s": setup_times, "import_runs_s": import_runs,
        "warm_up_errors": warm_errors,
        "failures": [dict(asdict(o), expected=expected(o)) for o in failures],
        "count_check": count_error or "ok",
    }
    result = {"correct": not unexpected and count_error is None,
              "attempted": len(outcomes), "failed": len(unexpected),
              "metrics": result_metrics}
    report = dict(info, result=result, jobs_detail=[asdict(o) for o in outcomes])
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    if count_error:
        print(f"bench: EXACT-COUNT SELF-CHECK FAILED: {count_error}", file=sys.stderr)
    for o in unexpected:
        print(f"bench: unexpected failure {o.config}: {o.error or o.detail}",
              file=sys.stderr)
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
