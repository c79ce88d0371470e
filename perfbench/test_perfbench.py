"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import jobs
import pool
import run
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = json.loads((HERE / "reference.json").read_text())


def test_same_seed_same_pass_and_other_seed_other_pass():
    for workload in pool.WORKLOADS:
        assert pool.make_pass(workload, 7) == pool.make_pass(workload, 7)
        assert pool.make_pass(workload, 7) != pool.make_pass(workload, 8)


def test_every_pooled_query_has_a_reference():
    for workload in pool.WORKLOADS:
        for argv in pool.pool(workload):
            if pool.is_check(argv):
                assert argv[argv.index("--nmax") + 1] in REFERENCE["checks"]
            else:
                assert " ".join(argv) in REFERENCE["digests"]


def test_wrong_digest_and_wrong_exit_code_count_as_failed(monkeypatch):
    good = "hilbert --family vector --n 3 --r 3 --format text"
    wrong_digest = "qeulerian --n 3 --format text"
    wrong_exit = "hilbert --family vector --n 3 --r 5 --format text"  # domain error, exit 2
    reference = {
        "checks": {},
        "digests": {
            good: _digest(good),
            wrong_digest: "0" * 64,
            wrong_exit: _digest(good),
        },
    }
    monkeypatch.setitem(pool.WORKLOADS, "selftest", [[[good]], [[wrong_digest]], [[wrong_exit]]])
    result = run.run_workload(ROOT, reference, "selftest", 1, 0, 0)
    assert result["failed"] == 2
    assert result["correct"] is False
    meta = json.loads((ROOT / ".bench_build" / "perfbench" / "selftest-seed1-trace0.json").read_text())
    errors = {" ".join(j["argv"]): j["error"] for j in meta["jobs"] if j.get("pass") == 0}
    assert errors[good] == ""
    assert errors[wrong_digest].startswith("stdout digest")
    assert errors[wrong_exit] == "exit code 2"
    assert meta["failed_frac"] == 2 / result["attempted"]


def _digest(query):
    _, _, _, _, out = jobs.spawn([sys.executable, "-m", "chowlab", *query.split()], jobs.child_env(ROOT), ROOT)
    return hashlib.sha256(out).hexdigest()


def _report(checks, fmt):
    if fmt == "json":
        suites = [{"name": "oracle", "passed": True, "checks": checks, "entries": []}]
        return json.dumps({"n_max": 8, "suites": suites, "ok": True}).encode()
    return f"PASS  oracle  ({checks} checks)\nOK  (nmax=8)\n".encode()


def test_zero_check_suite_fails():
    minimum = {"8": {"oracle": 37}}
    for fmt in ("json", "text"):
        argv = ("check", "--suite", "oracle", "--nmax", "8", "--format", fmt)
        assert jobs.verify_check(argv, _report(37, fmt), minimum) == ("", 37)
        assert jobs.verify_check(argv, _report(0, fmt), minimum)[0]
        assert jobs.verify_check(argv, _report(36, fmt), minimum)[0]
        assert jobs.verify_check(argv, _report(0, fmt), {"8": {"oracle": 0}})[0]


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        ("root", 0.0, 10.0, -1, "j"),
        ("a", 1.0, 4.0, 0, "j"),
        ("b", 3.0, 6.0, 0, "j"),  # overlaps a: the root loses the union 1..6
        ("a.leaf", 2.0, 3.0, 1, "j"),
        ("b.late", 5.0, 7.0, 2, "j"),  # runs past its parent: clipped at 6
    ]
    assert tracer.self_times(spans) == [5.0, 2.0, 2.0, 1.0, 2.0]


def test_tracer_leaves_stdout_byte_identical(tmp_path):
    for query in (
        "hilbert --family vector --n 4 --r 3 --format json",
        "cd --family vector --n 5 --r 5 --method det --format csv",
        "delta --n 5 --r 2 --format text",
        "check --suite all --nmax 3 --format json",
    ):
        spans = tmp_path / "spans.json"
        env = jobs.child_env(ROOT)
        plain = jobs.spawn([sys.executable, "-m", "chowlab", *query.split()], env, ROOT)
        traced = jobs.spawn([sys.executable, str(HERE / "tracer.py"), str(spans), "j", "--", *query.split()], env, ROOT)
        assert traced[0] == plain[0] == 0
        assert traced[4] == plain[4]
        record = json.loads(spans.read_text())
        assert record["spans"] and all(s[4] == "j" for s in record["spans"])
        assert tracer.job_metrics(record)["cli.main.calls"] == 1


def test_benchmark_json_names_the_metrics_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(pool.WORKLOADS)
