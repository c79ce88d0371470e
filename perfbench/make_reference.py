"""Regenerate perfbench/reference.json from the sources in this checkout.

    python3 perfbench/make_reference.py

Records the SHA-256 of stdout for every query job in the pool and the
number of checks each suite runs.  Before a digest is recorded the value
is checked against a second CLI route, so no digest pins a value that only
one route produced:

* hilbert (recurrence) against `--method chain`; at full rank of the vector
  family against `qeulerian` instead, because the chain sum is exponential
  in r (r = 16 alone takes about 30 s);
* hilbert `--method closed` against the recurrence;
* qeulerian against the full-rank hilbert recurrence;
* every cd (n, r) by direct, chain and det, plus the job's own method;
* delta (n, r) against hilbert(n, r+1) - hilbert(n, r) of the vector family.

secant has no second CLI route; the command itself requires its series,
recurrence and determinant routes to agree before it prints.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from jobs import child_env, spawn
from pool import WORKLOADS, is_check, pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
from chowlab.exactalg import BiPoly  # noqa: E402


def cli(argv):
    code, _, _, _, out = spawn([sys.executable, "-m", "chowlab", *argv], child_env(ROOT), ROOT)
    if code != 0:
        raise SystemExit(f"chowlab {' '.join(argv)} exited {code}")
    return out


class Routes:
    """Memoized JSON results of CLI queries, compared as polynomials."""

    def __init__(self):
        self.cache = {}

    def json(self, query):
        if query not in self.cache:
            self.cache[query] = json.loads(cli(query.split() + ["--format", "json"]))
        return self.cache[query]

    def poly(self, query):
        return BiPoly.from_json_terms(self.json(query)["result"]["terms"])

    def agree(self, label, left, right):
        if left != right:
            raise SystemExit(f"route disagreement for {label}: {left} != {right}")


def options(argv):
    out, i = {}, 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            out[argv[i]] = argv[i + 1]
            i += 2
        else:
            out[argv[i]] = True
            i += 1
    return out


def cross_check(routes, argv):
    o = options(argv)
    if argv[0] == "hilbert":
        base = f"hilbert --family {o['--family']} --n {o['--n']} --r {o['--r']}"
        if o.get("--method") == "closed":
            routes.agree(base, routes.poly(base + " --method closed"), routes.poly(base))
        elif o["--family"] == "vector" and o["--n"] == o["--r"]:
            routes.agree(base, routes.poly(base), routes.poly(f"qeulerian --n {o['--n']}"))
        else:
            routes.agree(base, routes.poly(base), routes.poly(base + " --method chain"))
    elif argv[0] == "qeulerian":
        n = o["--n"]
        routes.agree(f"qeulerian {n}", routes.poly(f"qeulerian --n {n}"),
                     routes.poly(f"hilbert --family vector --n {n} --r {n}"))
    elif argv[0] == "cd":
        base = f"cd --family vector --n {o['--n']} --r {o['--r']} --method "
        direct = routes.json(base + "direct")
        for method in sorted({"chain", "det", o["--method"]}):
            other = routes.json(base + method)
            for key in ("unsigned", "signed"):
                routes.agree(f"{base}{method} {key}", direct[key], other[key])
    elif argv[0] == "delta":
        n, r = int(o["--n"]), int(o["--r"])
        upper = routes.poly(f"hilbert --family vector --n {n} --r {r + 1}")
        lower = routes.poly(f"hilbert --family vector --n {n} --r {r}")
        routes.agree(f"delta {n} {r}", routes.poly(f"delta --n {n} --r {r}"), upper - lower)


def main():
    routes = Routes()
    digests, checks = {}, {}
    for workload in WORKLOADS:
        for argv in pool(workload):
            key = " ".join(argv)
            print(key, file=sys.stderr, flush=True)
            if is_check(argv):
                o = options(argv)
                report = json.loads(cli(list(argv[: argv.index("--format")]) + ["--format", "json"]))
                if not report["ok"]:
                    raise SystemExit(f"{key}: report is not OK")
                checks.setdefault(o["--nmax"], {}).update({s["name"]: s["checks"] for s in report["suites"]})
                continue
            cross_check(routes, argv)
            digests[key] = hashlib.sha256(cli(list(argv))).hexdigest()
    out = {"digests": dict(sorted(digests.items())), "checks": checks}
    (HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
