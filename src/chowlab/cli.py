"""Command-line front end: argument parsing, output encodings and the
text/JSON check report.  The identities and suites live in `chowlab.checks`.

Exit codes: 0 success; 1 a cross-route disagreement (a query aborts with a
diff of the two polynomials, a check run reports a FAIL entry); 2 usage or
domain error; 3 resource bound exceeded (a check run with a SKIPPED entry
and no FAIL); 4 any other exception, an internal error reported in one
line on stderr; 141 (128 + SIGPIPE) the reader closed stdout before the
output was written, with nothing on stderr.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import charney, chow, ordercx, qeuler
from .checks import SUITES, check_suites, suite_status  # the registry's dict itself: wrap a suite there to wrap `check`
from .errors import ResourceBoundError, RouteDisagreementError
from .exactalg import BiPoly
from .flats import FamilySpec

FORMATS = ("text", "json", "csv")


class RunConfig(argparse.Namespace):
    """The parsed options.  A subcommand sets only the options it takes;
    the class attributes stand in for the others."""

    family = n = r = method = prime = bound = None
    q1 = unsigned = False
    fmt = "text"
    suite = "all"
    n_max = 6

    def validate(self):
        vector_oracle = self.command == "hilbert" and self.method == "oracle" and self.family == "vector"
        if self.prime is not None and not vector_oracle:
            raise ValueError("--p is only meaningful with `hilbert --method oracle --family vector`")
        if vector_oracle and self.prime is None:
            raise ValueError("oracle method on the vector family requires --p")
        if self.command == "secant" and self.n < 0:
            raise ValueError(f"n must be nonnegative, got {self.n}")
        if self.command == "check" and self.n_max < 2:
            raise ValueError(f"--nmax must be at least 2, got {self.n_max}")
        if self.bound is not None and self.bound < 0:
            raise ValueError(f"--bound must be nonnegative, got {self.bound}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowlab",
        description="Exact Hilbert series and Charney-Davis quantities of Chow "
        "rings of uniform and finite-vector-space matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family=True, rank=True, formats=FORMATS):
        if family:
            p.add_argument("--family", choices=("uniform", "vector"), required=True)
        p.add_argument("--n", type=int, required=True)
        if rank:
            p.add_argument("--r", type=int, required=True)
        p.add_argument("--format", dest="fmt", choices=formats, default="text")

    p = sub.add_parser("hilbert", help="Hilbert series of a Chow ring")
    add_common(p)
    p.add_argument("--method", choices=("chain", "recurrence", "closed", "oracle"), default="recurrence")
    p.add_argument("--p", dest="prime", type=int, default=None, help="prime for the oracle method")

    p = sub.add_parser("cd", help="Charney-Davis quantity")
    add_common(p)
    p.add_argument("--method", choices=("direct", "chain", "det", "qsecant"), default="direct")
    p.add_argument("--unsigned", action="store_true")

    p = sub.add_parser("qeulerian", help="q-Eulerian polynomial")
    add_common(p, family=False, rank=False)
    p.add_argument("--q1", action="store_true", help="classical specialization")

    p = sub.add_parser("secant", help="q-tangent-secant number")
    add_common(p, family=False, rank=False)
    p.add_argument("--q1", action="store_true", help="classical specialization")

    p = sub.add_parser("delta", help="difference series between consecutive ranks")
    add_common(p, family=False)

    p = sub.add_parser("conjecture", help="order-complex identity report")
    add_common(p, family=False, formats=("text", "json"))  # a report, not one polynomial: no CSV

    p = sub.add_parser("check", help="run the cross-validation suites")
    p.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    p.add_argument("--nmax", dest="n_max", type=int, default=6)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--bound", type=int, default=None, help="enumeration bound override")
    return parser


def main(argv=None):
    config = build_parser().parse_args(argv, RunConfig())
    try:
        config.validate()
        code = run(config)
        sys.stdout.flush()  # so a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # What is left in the buffer goes to devnull, so the final flush stays silent.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except RouteDisagreementError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 1
    except ResourceBoundError as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 4


def run(config):
    handler = {
        "hilbert": _run_hilbert,
        "cd": _run_cd,
        "qeulerian": _run_qeulerian,
        "secant": _run_secant,
        "delta": _run_delta,
        "conjecture": _run_conjecture,
        "check": _run_check,
    }[config.command]
    return handler(config)


# -- polynomial output -----------------------------------------------------


# One term of a polynomial's JSON term list, as `json.dumps(..., indent=2)`
# writes it two levels below the top.
_JSON_TERM = '      {\n        "q": %d,\n        "t": %d,\n        "c": "%s"\n      }'


def _print_json(payload):
    """Print the dict `payload`, with each BiPoly value as {"terms": its
    `to_json_terms()` list}, byte for byte as `json.dumps(..., indent=2)`.

    A term list is one join of `_JSON_TERM` over the polynomial's
    `to_csv_rows()`, the same terms in the same order: degrees and the
    decimal string of an integer, so nothing needs escaping.  Every other
    value goes through `json.dumps` and is indented one level deeper.
    """
    import json  # imported here so that text and CSV output never load it

    items = []
    for key, value in payload.items():
        if isinstance(value, BiPoly):
            rows = value.to_csv_rows()
            body = ",\n".join(_JSON_TERM % (qd, td, c) for td, qd, c in rows)
            value = '{\n    "terms": [\n%s\n    ]\n  }' % body if rows else '{\n    "terms": []\n  }'
        else:
            value = json.dumps(value, indent=2).replace("\n", "\n  ")
        items.append(f"  {json.dumps(key)}: {value}")
    print("{\n%s\n}" % ",\n".join(items))


def emit_poly(poly, config, meta):
    if config.fmt == "text":
        print(poly.to_text())
    elif config.fmt == "json":
        _print_json({**meta, "result": poly})
    else:
        print("t,q,c")
        for td, qd, c in poly.to_csv_rows():
            print(f"{td},{qd},{c}")
    return 0


def _run_hilbert(config):
    spec = FamilySpec(config.family, config.n, config.r)
    poly = chow.hilbert(spec, config.method, p=config.prime)
    meta = {
        "command": "hilbert",
        "family": config.family,
        "n": config.n,
        "r": config.r,
        "method": config.method,
    }
    if config.prime is not None:
        meta["p"] = config.prime
    return emit_poly(poly, config, meta)


def _run_cd(config):
    spec = FamilySpec(config.family, config.n, config.r)
    result = charney.cd(spec, config.method)
    if config.fmt == "json":
        payload = {
            "command": "cd",
            "family": config.family,
            "n": config.n,
            "r": config.r,
            "method": config.method,
            "parity": result.parity,
            "unsigned": result.unsigned,
            "signed": result.signed,
        }
        _print_json(payload)
        return 0
    poly = result.unsigned if config.unsigned else result.signed
    return emit_poly(poly, config, {})


def _run_qeulerian(config):
    poly = qeuler.classical_eulerian(config.n) if config.q1 else qeuler.q_eulerian_by_recurrence(config.n)
    return emit_poly(poly, config, {"command": "qeulerian", "n": config.n, "q1": config.q1})


def _run_secant(config):
    table = charney.tangent_secant(config.n)
    poly = BiPoly.const(table.classical[config.n]) if config.q1 else table[config.n]
    return emit_poly(poly, config, {"command": "secant", "n": config.n, "q1": config.q1})


def _run_delta(config):
    poly = chow.delta_series(config.n, config.r)
    return emit_poly(poly, config, {"command": "delta", "n": config.n, "r": config.r})


def _run_conjecture(config):
    report = ordercx.conjecture_check(config.n, config.r)
    bivariate = ordercx.bivariate_check(config.n)
    if config.fmt == "json":
        payload = {
            "command": "conjecture",
            "n": config.n,
            "r": config.r,
            "lhs": report["lhs"],
            "lhs_proper": report["lhs_proper"],
            "rhs": report["rhs"],
            "equal": report["equal"],
            "equal_proper": report["equal_proper"],
            "bivariate_equal": bivariate["equal"],
        }
        _print_json(payload)
        return 0
    print(f"conjecture n={config.n} r={config.r}")
    print(f"  lhs (full lattice):  {report['lhs'].to_text()}")
    print(f"  lhs (proper part):   {report['lhs_proper'].to_text()}")
    print(f"  rhs:                 {report['rhs'].to_text()}")
    print(f"  equal (full): {report['equal']}   equal (proper): {report['equal_proper']}")
    print(f"  bivariate restatement at n={config.n}: {bivariate['equal']}")
    return 0


# -- check report ------------------------------------------------------------


def _run_check(config):
    report = check_suites(config.n_max, config.suite, config.bound)
    statuses = [suite_status(suite["entries"]) for suite in report["suites"]]
    code = 1 if "FAIL" in statuses else 3 if "SKIPPED" in statuses else 0
    overall = {0: "OK", 1: "FAILED", 3: "SKIPPED"}[code]
    if config.fmt == "json":
        _print_json(report)
    else:
        for status, suite in zip(statuses, report["suites"]):
            print(f"{status}  {suite['name']}  ({suite['checks']} checks)")
            for e in suite["entries"]:
                if not e["ok"]:
                    print(f"      {'SKIPPED' if e.get('skipped') else 'FAIL'} {e['name']}: {e['detail']}")
        print(f"{overall}  (nmax={report['n_max']})")
    return code


if __name__ == "__main__":
    sys.exit(main())
