"""Command-line front end: the command table, the two parses of argv that
read it, output encodings and the text/JSON check report.  Each runner
imports the modules its command runs; the suites live in `chowlab.checks`.

Every subcommand is one row of `COMMANDS`: (help line, options, runner).
`parse_canonical` reads argv in canonical form straight from that table
(defaults included), without argparse; any other argv (`--help`, an
abbreviation, `--n=5`, a usage error) goes to `build_parser`, the argparse
parser built from the same table, whose help text, messages and exit code
2 are argparse's own.  `main` calls the row's runner, which checks the
options it reads (a domain error exits 2), computes and prints.  JSON is
written byte for byte as `json.dumps(..., indent=2)` without the `json`
module, which only a string outside printable ASCII loads; a query's JSON
echoes its inputs first (`_echo`).

Exit codes: 0 success; 1 a cross-route disagreement (a query aborts with a
diff of the two polynomials, a check run reports a FAIL entry); 2 usage or
domain error; 3 resource bound exceeded (a check run with a SKIPPED entry
and no FAIL); 4 any other exception, an internal error reported in one
line on stderr; 141 (128 + SIGPIPE) the reader closed stdout before the
output was written, with nothing on stderr.  Identical invocations produce
byte-identical output.

`entry` is the process entry of `python -m chowlab` and of the `chowlab`
console script: it freezes the start-up heap, lifts the limit on the
digits of a printed `int`, runs `main`, flushes stdout and stderr and ends
by `os._exit` with `main`'s code, without the interpreter's teardown.
`main` itself changes no process-wide state, so a library caller can run
it in-process.
"""

import gc
import os
import sys
from collections.abc import Sequence
from types import SimpleNamespace

from .errors import ResourceBoundError, RouteDisagreementError
from .exactalg import BiPoly


def __getattr__(name):
    """`SUITES`, `check_suites` and `suite_status`: `checks`' own, loaded on first use."""
    if name not in ("SUITES", "check_suites", "suite_status"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import checks

    return getattr(checks, name)


class _Choices(Sequence):
    """An option's choices: `first`, then the names in the dict `<table>` of
    `chowlab.<module>`, read when an argv naming the option or the argparse
    parser asks for them, so no other command loads the module."""

    def __init__(self, module, table, *first):
        self.module, self.table, self.first = module, table, first

    def __getitem__(self, index):
        names = getattr(__import__(f"{__package__}.{self.module}", fromlist=[self.table]), self.table)
        return (*self.first, *names)[index]

    def __len__(self):
        return len(self[:])


# -- output ----------------------------------------------------------------


# One term of a polynomial's JSON term list, as `json.dumps(..., indent=2)`
# writes it two levels below the top.
_JSON_TERM = '      {\n        "q": %d,\n        "t": %d,\n        "c": "%s"\n      }'


def _print_json(payload):
    """Print the dict `payload`, with each BiPoly value as {"terms": a list
    of {"q", "t", "c"} dicts, sorted by (t, q), each coefficient a string},
    byte for byte as `json.dumps(..., indent=2)`.

    A term list is one join of `_JSON_TERM` over the polynomial's
    `to_csv_rows()`: degrees and the decimal string of an integer, so
    nothing needs escaping.  Every other value is written by `_json`, one
    level deep.
    """
    items = []
    for key, value in payload.items():
        if isinstance(value, BiPoly):
            rows = value.to_csv_rows()
            body = ",\n".join(_JSON_TERM % (qd, td, c) for td, qd, c in rows)
            value = '{\n    "terms": [\n%s\n    ]\n  }' % body if rows else '{\n    "terms": []\n  }'
        else:
            value = _json(value, "  ")
        items.append(f"  {_json_str(key)}: {value}")
    print("{\n%s\n}" % ",\n".join(items) if items else "{}")


def _json(value, indent):
    """`value` (None, a bool, an int, a str, or a list, tuple or str-keyed
    dict of those) as `json.dumps(value, indent=2)` writes it on a line
    that starts with `indent`."""
    if isinstance(value, str):
        return _json_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{inner}{_json_str(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{\n%s\n%s}" % (",\n".join(items), indent) if items else "{}"
    if isinstance(value, (list, tuple)):
        items = [inner + _json(v, inner) for v in value]
        return "[\n%s\n%s]" % (",\n".join(items), indent) if items else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_str(s):
    """The JSON string of `s` as `json.dumps` writes it: printable ASCII
    with `"` and `\\` backslashed here, any other string by `json.dumps`
    itself, which only such a string loads."""
    if s.isascii() and s.isprintable():  # only ' '..'~'
        return '"%s"' % s.replace("\\", "\\\\").replace('"', '\\"')
    import json

    return json.dumps(s)


def _echo(config):
    """The leading JSON keys of a query: the command, then each option of
    its `COMMANDS` row that is set, in row order, under its name without
    `--`, but for `--format` and `--unsigned`: they choose how a value is
    written, not which value."""
    echo = {"command": config.command}
    for option, dest, *_ in COMMANDS[config.command][1]:
        value = getattr(config, dest)
        if value is not None and option not in ("--format", "--unsigned"):
            echo[option[2:]] = value
    return echo


def emit_poly(poly, config):
    if config.fmt == "text":
        print(poly.to_text())
    elif config.fmt == "json":
        _print_json({**_echo(config), "result": poly})
    else:
        sys.stdout.write("".join(["t,q,c\n", *(f"{td},{qd},{c}\n" for td, qd, c in poly.to_csv_rows())]))
    return 0


# -- runners: each checks its own options, then computes and prints ----------


def _run_hilbert(config):
    vector_oracle = config.method == "oracle" and config.family == "vector"
    if config.prime is not None and not vector_oracle:
        raise ValueError("--p is only meaningful with `hilbert --method oracle --family vector`")
    if vector_oracle and config.prime is None:
        raise ValueError("oracle method on the vector family requires --p")
    from . import chow, flats

    spec = flats.FamilySpec(config.family, config.n, config.r)
    return emit_poly(chow.hilbert(spec, config.method, p=config.prime), config)


def _run_cd(config):
    from . import charney, flats

    result = charney.cd(flats.FamilySpec(config.family, config.n, config.r), config.method)
    if config.fmt == "json":
        _print_json({**_echo(config), "parity": result.parity, "unsigned": result.unsigned, "signed": result.signed})
        return 0
    return emit_poly(result.unsigned if config.unsigned else result.signed, config)


def _run_qeulerian(config):
    from . import qeuler

    poly = qeuler.classical_eulerian(config.n) if config.q1 else qeuler.q_eulerian_by_recurrence(config.n)
    return emit_poly(poly, config)


def _run_secant(config):
    if config.n < 0:
        raise ValueError(f"n must be nonnegative, got {config.n}")
    from . import charney

    return emit_poly(charney.tangent_secant(config.n, config.q1)[config.n], config)


def _run_delta(config):
    from . import chow

    return emit_poly(chow.delta_series(config.n, config.r), config)


def _run_conjecture(config):
    from . import ordercx

    report = ordercx.conjecture_check(config.n, config.r)
    bivariate = ordercx.bivariate_check(config.n)
    if config.fmt == "json":
        _print_json({"command": config.command, **report, "bivariate_equal": bivariate["equal"]})
        return 0
    print(f"conjecture n={config.n} r={config.r}")
    print(f"  lhs (full lattice):  {report['lhs'].to_text()}")
    print(f"  lhs (proper part):   {report['lhs_proper'].to_text()}")
    print(f"  rhs:                 {report['rhs'].to_text()}")
    print(f"  equal (full): {report['equal']}   equal (proper): {report['equal_proper']}")
    print(f"  bivariate restatement at n={config.n}: {bivariate['equal']}")
    return 0


def _run_check(config):
    if config.n_max < 2:
        raise ValueError(f"--nmax must be at least 2, got {config.n_max}")
    if config.bound is not None and config.bound < 0:
        raise ValueError(f"--bound must be nonnegative, got {config.bound}")
    from .checks import check_suites, suite_status

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


# -- the command table and the two parses of argv ----------------------------


FORMATS = ("text", "json", "csv")
FLAG = "flag"  # an option that takes no value: True when present

# Each subcommand's row: its help line, its options in the order `--help`
# lists them, and its runner.  An option is (option string, dest, kind,
# required, default, help), where kind is `int`, a tuple of choices or FLAG.
_FAMILY = ("--family", "family", ("uniform", "vector"), True, None, None)
_N = ("--n", "n", int, True, None, None)
_R = ("--r", "r", int, True, None, None)
_FORMAT = ("--format", "fmt", FORMATS, False, "text", None)
_REPORT_FORMAT = ("--format", "fmt", ("text", "json"), False, "text", None)  # a report, not one polynomial: no CSV
_Q1 = ("--q1", "q1", FLAG, False, False, "classical specialization")
COMMANDS = {
    "hilbert": ("Hilbert series of a Chow ring", (
        _FAMILY, _N, _R, _FORMAT,
        ("--method", "method", _Choices("chow", "ROUTES"), False, "recurrence", None),
        ("--p", "prime", int, False, None, "prime for the oracle method"),
    ), _run_hilbert),
    "cd": ("Charney-Davis quantity", (
        _FAMILY, _N, _R, _FORMAT,
        ("--method", "method", _Choices("charney", "ROUTES"), False, "direct", None),
        ("--unsigned", "unsigned", FLAG, False, False, None),
    ), _run_cd),
    "qeulerian": ("q-Eulerian polynomial", (_N, _FORMAT, _Q1), _run_qeulerian),
    "secant": ("q-tangent-secant number", (_N, _FORMAT, _Q1), _run_secant),
    "delta": ("difference series between consecutive ranks", (_N, _R, _FORMAT), _run_delta),
    "conjecture": ("order-complex identity report", (_N, _R, _REPORT_FORMAT), _run_conjecture),
    "check": ("run the cross-validation suites", (
        ("--suite", "suite", _Choices("checks", "SUITES", "all"), False, "all", None),
        ("--nmax", "n_max", int, False, 6, None),
        _REPORT_FORMAT,
        ("--bound", "bound", int, False, None, "enumeration bound override"),
    ), _run_check),
}


def parse_canonical(argv):
    """The options of `argv`, as a namespace with `command` and every
    option of its subcommand (absent ones at their `COMMANDS` default), if
    `argv` is in canonical form, else None.

    Canonical: a subcommand, then its options spelled exactly as in
    `COMMANDS`, each at most once, each value in a token of its own that
    starts with `-` only as a negative integer, every value an `int` or
    one of its choices as the option's kind asks, and every required
    option present.  argparse reads such an argv to the same options.
    """
    if not argv or argv[0] not in COMMANDS:
        return None
    options = {option[0]: option for option in COMMANDS[argv[0]][1]}
    config = SimpleNamespace(command=argv[0], **{dest: default for _, dest, _, _, default, _ in options.values()})
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
    for command, (summary, options, _) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for option, dest, kind, required, default, help in options:
            how = {"action": "store_true"} if kind is FLAG else {"type": int} if kind is int else {"choices": kind}
            p.add_argument(option, dest=dest, required=required, default=default, help=help, **how)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    config = parse_canonical(argv) or build_parser().parse_args(argv)
    try:
        code = COMMANDS[config.command][2](config)
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


def entry():
    """Run `main` and end the process at its last byte of output.

    What start-up loaded lives to the end, so it is frozen: no collection
    during the run traverses it.  `check` collects often, so its start-up
    loads every module.  A value of any size prints: CPython's limit on the
    digits of an `int` turned into a string is lifted.  `os._exit` then
    skips the teardown, which would clear every module and free every cache
    and big `int` the run built.  The exit code is `main`'s, or argparse's
    for `--help` and a usage error, or 141 when the reader closed stdout
    before the final flush; what is left in the buffer dies."""
    if sys.argv[1:2] == ["check"]:
        from . import checks  # frozen with the rest of start-up
    gc.freeze()
    getattr(sys, "set_int_max_str_digits", lambda limit: None)(0)  # absent before 3.10.7: no limit
    try:
        code = main()
    except SystemExit as e:  # argparse's, with its int code
        code = e.code
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = 141
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
