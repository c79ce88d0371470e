"""chowlab benchmark: closed-loop CLI workloads, timed and checked from outside.

    python3 perfbench/run.py --workload symbolic --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

One client runs one job at a time, each a fresh `python -m chowlab ...`
process, so every job starts with cold caches as it does for a user.  The
seed picks a pass of jobs (pool.py); the run repeats that pass as often
as fits in --seconds and reports, per metric, the sum over the pass of
each job's median.  Timings are scaled to reference seconds by a
calibration job timed in the same run (README.md, "Calibration").  With
--trace 1 it alternates untraced passes with passes run under tracer.py
and reports the per-layer metrics instead, in raw seconds.

The last stdout line is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  Run metadata (sha, load, every job's argv, exit
code, wall, CPU and RSS) goes to .bench_build/perfbench/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from jobs import child_env, run_job, spawn
from pool import WORKLOADS, is_check, make_pass
from tracer import job_metrics

HERE = Path(__file__).resolve().parent
PROBES = 4  # of each kind before the first pass; untraced runs also probe after every job

# A job that runs no repository code: interpreter start-up, the stdlib
# imports chowlab makes, and a product of two dict polynomials as in BiPoly.
# Its wall time tracks how fast the machine runs at the moment; see
# README.md, "Calibration".
CALIBRATION = """
import argparse, dataclasses, fractions, functools, itertools, json
a = {(i % 15, i // 15): 7919 * i + 1 for i in range(150)}
b = {(i % 13, i // 13): 104729 * i + 3 for i in range(150)}
out = {}
for (qa, ta), ca in a.items():
    for (qb, tb), cb in b.items():
        out[qa + qb, ta + tb] = out.get((qa + qb, ta + tb), 0) + ca * cb
print(len(out), sum(out.values()) % 1000003)
"""
CALIBRATION_OUTPUT = b"561 139345\n"
# Its median wall on 2 vCPU (Python 3.11.7) with the host quiet.
CALIBRATION_REF_S = 0.060

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "checks_run": "count",
}

# Per-layer metric -> unit.  Metrics a workload never reaches read 0.
PER_LAYER = {
    "bipoly.mul.calls": "count",
    "bipoly.mul.self_s": "s",
    "bipoly.mul.term_pairs": "count",
    "bipoly.mul.max_terms": "count",
    "bipoly.coeff_bits.max": "bits",
    "bipoly.add.calls": "count",
    "bipoly.add.self_s": "s",
    "bipoly.divexact.self_s": "s",
    "bipoly.render.self_s": "s",
    "bipoly.gauss_binomial.hit_ratio": "ratio",
    "qrat.new.calls": "count",
    "qrat.new.self_s": "s",
    "series.self_s": "s",
    "det.fraction_free.self_s": "s",
    "det.rational.self_s": "s",
    "permstat.members.calls": "count",
    "permstat.members.self_s": "s",
    "permstat.enumerated": "count",
    "permstat.kept": "count",
    "permstat.keep_ratio": "ratio",
    "permstat.statistic_sum.self_s": "s",
    "qeuler.recurrence.self_s": "s",
    "qeuler.definition.self_s": "s",
    "chow.chain_sum.self_s": "s",
    "chow.recurrence.self_s": "s",
    "chow.closed_form.self_s": "s",
    "chow.oracle.self_s": "s",
    "charney.tangent_secant.self_s": "s",
    "charney.cd_determinant.self_s": "s",
    "flats.build_explicit.self_s": "s",
    "flats.elements": "count",
    "ordercx.fvector.self_s": "s",
    **{
        f"cli.suite.{name}.self_s": "s"
        for name in ("route-agreement", "oracle", "telescoping", "palindromicity", "wachs", "egf",
                     "tangent-secant", "conjecture")
    },
    "cli.emit.self_s": "s",
    **{
        f"layer.{layer}.self_s": "s"
        for layer in ("exactalg.bipoly", "exactalg.qrat", "exactalg.det", "permstat", "qeuler", "flats",
                      "chow", "charney", "ordercx", "cli")
    },
    "trace.overhead": "ratio",
}
HIGHEST = ("bipoly.mul.max_terms", "bipoly.coeff_bits.max")
NO_SPANS = {"spans": [], "counters": {}, "gauss_binomial": [0, 0]}


def load_average():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def git_sha(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(root):
    """SHA-256 over src/ (path and bytes of every .py file): the code measured,
    also where the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def probe(root, record, kind, counted=True):
    """(wall, cpu) of one probe process: `setup` is a chowlab process that
    imports and parses but computes nothing; `calibration` runs CALIBRATION."""
    argv, expect = {
        "setup": (["-m", "chowlab", "--help"], b"usage: chowlab"),
        "calibration": (["-c", CALIBRATION], CALIBRATION_OUTPUT),
    }[kind]
    code, wall, cpu, rss, out = spawn([sys.executable, *argv], child_env(root), root)
    ok = code == 0 and out.startswith(expect)
    record({"argv": [kind], "exit_code": code, "wall_s": wall, "cpu_s": cpu, "maxrss_kb": rss,
            "error": "" if ok else f"{kind} output wrong"}, counted)
    return wall, cpu


def per_job_median(passes, value):
    """Sum over pass positions of the median over passes of value(result)."""
    return sum(statistics.median(value(p[i]) for p in passes) for i in range(len(passes[0])))


def layer_metrics(traced, untraced, spans_dir):
    """Per-layer metrics of the traced passes, each job's median summed over the pass."""
    def spans(path):  # a job killed on timeout wrote none
        return json.loads(path.read_text()) if path.exists() else NO_SPANS

    per_job = [  # per position: one metric dict per traced pass
        [job_metrics(spans(spans_dir / f"{k}-{position}.json")) for k in range(len(traced))]
        for position in range(len(traced[0]))
    ]
    totals = {}
    for runs in per_job:
        for key in set().union(*runs):
            value = statistics.median(r.get(key, 0) for r in runs)
            totals[key] = max(totals.get(key, 0), value) if key in HIGHEST else totals.get(key, 0) + value
    hits, misses = totals.get("bipoly.gauss_binomial.hits", 0), totals.get("bipoly.gauss_binomial.misses", 0)
    enumerated = totals.get("permstat.enumerated", 0)
    totals["bipoly.gauss_binomial.hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    totals["permstat.keep_ratio"] = totals.get("permstat.kept", 0) / enumerated if enumerated else 0.0
    totals["trace.overhead"] = per_job_median(traced, lambda r: r.wall_s) / per_job_median(untraced, lambda r: r.wall_s)
    return {name: {"value": totals.get(name, 0), "unit": unit} for name, unit in PER_LAYER.items()}


def run_workload(root, reference, workload, seed, seconds, trace):
    out_dir = root / ".bench_build" / "perfbench"
    spans_dir = out_dir / f"spans-{workload}"
    spans_dir.mkdir(parents=True, exist_ok=True)
    for old in spans_dir.glob("*.json"):
        old.unlink()
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "git_sha": git_sha(root), "source_sha256": source_digest(root),
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)), "loadavg_before": load_average(), "jobs": [],
    }
    counts = {"attempted": 0, "failed": 0}

    def record(entry, counted=True):
        meta["jobs"].append(entry)
        if counted:
            counts["attempted"] += 1
            counts["failed"] += bool(entry["error"])

    def run_pass(index, traced):
        results = []
        for position, argv in enumerate(plan):
            prefix = None
            if traced:
                spans = spans_dir / f"{index}-{position}.json"
                prefix = [sys.executable, str(HERE / "tracer.py"), str(spans), f"{index}-{position}", "--"]
            r = run_job(argv, root, reference, prefix)
            record({"pass": index, "traced": traced, "argv": list(argv), "exit_code": r.exit_code,
                    "wall_s": r.wall_s, "cpu_s": r.cpu_s, "maxrss_kb": r.maxrss_kb, "error": r.error})
            if r.failed:
                print(f"FAILED {' '.join(argv)}: {r.error}", file=sys.stderr)
            results.append(r)
            if not trace:
                for kind in probes:
                    probes[kind].append(probe(root, record, kind))
        return results

    plan = make_pass(workload, seed)
    probe(root, record, "setup", counted=False)  # warm-up: compiles bytecode on a fresh checkout
    probes = {kind: [] if trace else [probe(root, record, kind) for _ in range(PROBES)]
              for kind in ("setup", "calibration")}
    untraced, traced = [], []
    start, elapsed, rounds = time.perf_counter(), 0.0, 0
    # Run whole rounds while the next one, at the mean round time so far,
    # still ends within --seconds; always at least one.
    while rounds == 0 or elapsed * (rounds + 1) / rounds <= seconds:
        # With tracing, untraced and traced passes run in ABBA order so that a
        # steady drift in machine speed cancels out of trace.overhead.
        order = ((False, True) if len(traced) % 2 == 0 else (True, False)) if trace else (False,)
        for is_traced in order:
            passes = traced if is_traced else untraced
            passes.append(run_pass(len(passes), is_traced))
        rounds += 1
        elapsed = time.perf_counter() - start
    meta["measured_s"] = elapsed
    meta["loadavg_after"] = load_average()

    if trace:
        metrics = layer_metrics(traced, untraced, spans_dir)
    else:
        # (median wall, median cpu) of each probe kind
        median = {kind: [statistics.median(x) for x in zip(*samples)] for kind, samples in probes.items()}
        raw = {
            "setup_s": median["setup"][0],
            "wall_s": per_job_median(untraced, lambda r: r.wall_s),
            "cpu_s": per_job_median(untraced, lambda r: r.cpu_s),
        }
        meta["raw"], meta["probes"] = raw, median
        # Wall times scale by the calibration's wall, CPU time by its CPU time.
        wall_speed, cpu_speed = (CALIBRATION_REF_S / x for x in median["calibration"])
        values = {
            "setup_s": raw["setup_s"] * wall_speed,
            "wall_s": raw["wall_s"] * wall_speed,
            "cpu_s": raw["cpu_s"] * cpu_speed,
            "peak_rss_mb": max(r.maxrss_kb for p in untraced for r in p) / 1024,
            "checks_run": sum(r.checks if is_check(r.argv) else 1 for r in untraced[0] if not r.failed),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    meta["passes"] = len(untraced)
    meta["metrics"] = metrics
    meta["failed_frac"] = counts["failed"] / counts["attempted"]
    (out_dir / f"{workload}-seed{seed}-trace{trace}.json").write_text(json.dumps(meta, indent=1))
    for name, m in metrics.items():
        print(f"{workload:12s} {name:40s} {m['value']:>14.6g} {m['unit']}", file=sys.stderr)
    print(f"{workload:12s} {'failed_frac':40s} {meta['failed_frac']:>14.6g} "
          f"({counts['failed']}/{counts['attempted']} jobs, {len(untraced)} passes)", file=sys.stderr)
    return {"correct": counts["failed"] == 0, **counts, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "chowlab" / "__init__.py").is_file():
        print(f"error: no chowlab sources under {root / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    reference = json.loads((HERE / "reference.json").read_text())
    workloads = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for workload in workloads:
        result = run_workload(root, reference, workload, args.seed, args.seconds, args.trace)
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
