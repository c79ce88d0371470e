"""Run one chowlab job in a fresh process, time it from outside, check it.

A query job passes when it exits 0 and the SHA-256 of its stdout equals the
committed reference digest.  A check job is not pinned by digest, so the
report text may change; it passes when it exits 0, the report says OK,
every suite passed, and no suite ran fewer checks than the reference
records (a suite that runs nothing always fails).
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from pool import is_check

JOB_TIMEOUT_S = 60
CHECK_LINE = re.compile(r"^(PASS|FAIL)  (\S+)  \((\d+) checks\)$")


@dataclass
class JobResult:
    argv: tuple
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    stdout: bytes = field(repr=False)
    error: str = ""
    checks: int = 0

    @property
    def failed(self):
        return bool(self.error)


def child_env(root):
    """The environment of every job: the checkout's src first on the path,
    and no inherited setting that changes what chowlab computes or loads."""
    env = {k: v for k, v in os.environ.items() if not k.startswith(("PYTHON", "CHOWLAB_"))}
    env["PYTHONPATH"] = str(Path(root) / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(cmd, env, cwd):
    """Run `cmd` to completion; return (exit code, wall, cpu, maxrss kB, stdout).

    Timing is from outside: wall around spawn-to-reap and the child's own
    rusage from wait4, so nothing is added inside the measured process.
    """
    with open(os.devnull, "wb") as devnull:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=devnull, env=env, cwd=cwd)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            proc.stdout.close()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss, out


def run_job(argv, root, reference, prefix=None):
    """Run `python -m chowlab ARGV` (or PREFIX + ARGV) and verify its output."""
    cmd = list(prefix) if prefix else [sys.executable, "-m", "chowlab"]
    code, wall, cpu, rss, out = spawn(cmd + list(argv), child_env(root), root)
    result = JobResult(tuple(argv), code, wall, cpu, rss, out)
    verify(result, reference)
    return result


def verify(result, reference):
    """Set result.error (and result.checks for check jobs); '' means passed."""
    if result.exit_code != 0:
        result.error = f"exit code {result.exit_code}"
    elif is_check(result.argv):
        result.error, result.checks = verify_check(result.argv, result.stdout, reference["checks"])
    else:
        key = " ".join(result.argv)
        want = reference["digests"].get(key)
        got = hashlib.sha256(result.stdout).hexdigest()
        if want is None:
            result.error = "no reference digest"
        elif got != want:
            result.error = f"stdout digest {got[:12]} != reference {want[:12]}"


def parse_check_report(argv, stdout):
    """(ok, {suite: (passed, checks)}) from a check report in either format."""
    text = stdout.decode()
    if "json" in argv:
        report = json.loads(text)
        suites = {s["name"]: (s["passed"], s["checks"]) for s in report["suites"]}
        return report["ok"] is True, suites
    lines = text.splitlines()
    suites = {}
    for line in lines:
        m = CHECK_LINE.match(line)
        if m:
            suites[m.group(2)] = (m.group(1) == "PASS", int(m.group(3)))
    return bool(lines) and lines[-1].startswith("OK  "), suites


def verify_check(argv, stdout, minimum_checks):
    """(error, total checks) for one check job against the recorded minima."""
    try:
        ok, suites = parse_check_report(argv, stdout)
    except (ValueError, KeyError, TypeError) as e:
        return f"unreadable check report: {e}", 0
    nmax = argv[argv.index("--nmax") + 1]
    total = sum(checks for _, checks in suites.values())
    if not ok:
        return "report is not OK", total
    if not suites:
        return "report lists no suites", total
    expected = minimum_checks[nmax]
    suite = argv[argv.index("--suite") + 1]
    for name in expected if suite == "all" else [suite]:
        if name not in suites:
            return f"suite {name} missing", total
    for name, (passed, checks) in suites.items():
        if not passed:
            return f"suite {name} failed", total
        if checks == 0 or checks < expected.get(name, 1):
            return f"suite {name} ran {checks} checks, reference {expected.get(name, 1)}", total
    return "", total
