"""Command-line front end: the option table, the two parses of argv that
read it, output encodings and the text/JSON check report.  The identities
and suites live in `chowlab.checks`.

Every option of every subcommand is declared once, in `COMMANDS`.
`parse_canonical` reads argv in canonical form straight from that table
(defaults included), without argparse; any other argv (`--help`, an
abbreviation, `--n=5`, a usage error) goes to `build_parser`, the
argparse parser built from the same table, whose help text, messages and
exit code 2 are argparse's own.

Exit codes: 0 success; 1 a cross-route disagreement (a query aborts with a
diff of the two polynomials, a check run reports a FAIL entry); 2 usage or
domain error; 3 resource bound exceeded (a check run with a SKIPPED entry
and no FAIL); 4 any other exception, an internal error reported in one
line on stderr; 141 (128 + SIGPIPE) the reader closed stdout before the
output was written, with nothing on stderr.  Identical invocations produce
byte-identical output.
"""

from __future__ import annotations

import os
import sys

from . import charney, chow, ordercx, qeuler
from .checks import SUITES, check_suites, suite_status  # the registry's dict itself: wrap a suite there to wrap `check`
from .errors import ResourceBoundError, RouteDisagreementError
from .exactalg import BiPoly
from .flats import FamilySpec

FORMATS = ("text", "json", "csv")
FLAG = "flag"  # an option that takes no value: True when present

# Each subcommand's help line and options, in the order `--help` lists
# them.  An option is (option string, dest, kind, required, default, help),
# where kind is `int`, a tuple of choices or FLAG.
_FAMILY = ("--family", "family", ("uniform", "vector"), True, None, None)
_N = ("--n", "n", int, True, None, None)
_R = ("--r", "r", int, True, None, None)
_FORMAT = ("--format", "fmt", FORMATS, False, "text", None)
_REPORT_FORMAT = ("--format", "fmt", ("text", "json"), False, "text", None)  # a report, not one polynomial: no CSV
_Q1 = ("--q1", "q1", FLAG, False, False, "classical specialization")
COMMANDS = {
    "hilbert": ("Hilbert series of a Chow ring", (
        _FAMILY, _N, _R, _FORMAT,
        ("--method", "method", ("chain", "recurrence", "closed", "oracle"), False, "recurrence", None),
        ("--p", "prime", int, False, None, "prime for the oracle method"),
    )),
    "cd": ("Charney-Davis quantity", (
        _FAMILY, _N, _R, _FORMAT,
        ("--method", "method", ("direct", "chain", "det", "qsecant"), False, "direct", None),
        ("--unsigned", "unsigned", FLAG, False, False, None),
    )),
    "qeulerian": ("q-Eulerian polynomial", (_N, _FORMAT, _Q1)),
    "secant": ("q-tangent-secant number", (_N, _FORMAT, _Q1)),
    "delta": ("difference series between consecutive ranks", (_N, _R, _FORMAT)),
    "conjecture": ("order-complex identity report", (_N, _R, _REPORT_FORMAT)),
    "check": ("run the cross-validation suites", (
        ("--suite", "suite", ("all", *SUITES), False, "all", None),
        ("--nmax", "n_max", int, False, 6, None),
        _REPORT_FORMAT,
        ("--bound", "bound", int, False, None, "enumeration bound override"),
    )),
}


class RunConfig:
    """The parsed options: the command and every option of its subcommand,
    set to their `COMMANDS` defaults by `parse_canonical` when absent, and
    by the subparsers `build_parser` makes from that table under argparse.
    The class attributes stand in for the options a subcommand does not
    take, which `validate` reads."""

    prime = bound = None

    def __init__(self, **options):
        self.__dict__.update(options)

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


def parse_canonical(argv):
    """The RunConfig of `argv` if it is in canonical form, else None.

    Canonical: a subcommand, then its options spelled exactly as in
    `COMMANDS`, each at most once, each value in a token of its own that
    starts with `-` only as a negative integer, every value an `int` or
    one of its choices as the option's kind asks, and every required
    option present.  argparse reads such an argv to the same options.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {option[0]: option for option in COMMANDS[argv[0]][1]}
    config = RunConfig(command=argv[0], **{dest: default for _, dest, _, _, default, _ in options.values()})
    tokens = iter(argv[1:])
    seen = set()
    for token in tokens:
        if token not in options or token in seen:
            return None
        seen.add(token)
        _, dest, kind, _, _, _ = options[token]
        if kind is FLAG:
            value = True
        else:
            value = next(tokens, "")  # a missing value reads as "", which no kind accepts
            value = _canonical_int(value) if kind is int else value if value in kind else None
            if value is None:
                return None
        setattr(config, dest, value)
    if any(required and option not in seen for option, _, _, required, _, _ in options.values()):
        return None
    return config


def _canonical_int(token):
    """int(token) if argparse reads `token` as a value and converts it, else None."""
    if token.startswith("-") and not (token[1:].isascii() and token[1:].isdigit()):
        return None  # argparse takes it for an option
    try:
        return int(token)
    except ValueError:
        return None


def build_parser():
    """The argparse parser of `COMMANDS`: help, abbreviations, `=` forms
    and every usage message."""
    import argparse  # imported here so that a canonical argv never loads it

    parser = argparse.ArgumentParser(
        prog="chowlab",
        description="Exact Hilbert series and Charney-Davis quantities of Chow "
        "rings of uniform and finite-vector-space matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, options) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for option, dest, kind, required, default, help in options:
            how = {"action": "store_true"} if kind is FLAG else {"type": int} if kind is int else {"choices": kind}
            p.add_argument(option, dest=dest, required=required, default=default, help=help, **how)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    config = parse_canonical(argv)
    if config is None:
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
        sys.stdout.write("".join(["t,q,c\n", *(f"{td},{qd},{c}\n" for td, qd, c in poly.to_csv_rows())]))
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
