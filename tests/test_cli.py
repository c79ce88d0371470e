"""CLI behavior: outputs, formats, exit codes, determinism, fault isolation."""

import ast
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chowlab.charney as charney_module
import chowlab.checks as checks_module
import chowlab.chow as chow_module
import chowlab.ordercx as ordercx_module
import chowlab.permstat as permstat_module
import chowlab.qeuler as qeuler_module
from chowlab.cli import COMMANDS, FLAG, RunConfig, build_parser, check_suites, main, parse_canonical
from chowlab.exactalg import BiPoly, ONE, Q, T
from chowlab.flats import FamilySpec
from chowlab.ordercx import FVector


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hilbert_text(capsys):
    code, out, _ = run_cli(capsys, "hilbert", "--family", "vector", "--n", "3", "--r", "3")
    assert code == 0
    assert out == "1 + (2 + q + q^2)*t + t^2\n"


def test_cd_reference_value(capsys):
    code, out, _ = run_cli(capsys, "cd", "--family", "vector", "--n", "5", "--r", "5")
    assert code == 0
    assert out == "q^2 + 2*q^3 + 3*q^4 + 4*q^5 + 3*q^6 + 2*q^7 + q^8\n"


def test_cd_unsigned_and_json(capsys):
    code, out, _ = run_cli(
        capsys, "cd", "--family", "uniform", "--n", "3", "--r", "3", "--unsigned"
    )
    assert code == 0 and out == "-2\n"
    code, out, _ = run_cli(
        capsys, "cd", "--family", "uniform", "--n", "3", "--r", "3", "--format", "json"
    )
    payload = json.loads(out)
    assert BiPoly.from_json_terms(payload["signed"]["terms"]) == BiPoly.const(2)
    assert BiPoly.from_json_terms(payload["unsigned"]["terms"]) == BiPoly.const(-2)


@pytest.mark.parametrize("method", ["chain", "det", "qsecant"])
def test_cd_at_even_rank(capsys, method):
    # the direct route prints H(-1) signed as 0; the formula routes need odd rank
    assert run_cli(capsys, "cd", "--family", "vector", "--n", "4", "--r", "4") == (0, "0\n", "")
    code, out, err = run_cli(capsys, "cd", "--family", "vector", "--n", "4", "--r", "4", "--method", method)
    assert (code, out) == (2, "")
    assert "rank 4 is even; this formula needs odd rank" in err


def test_hilbert_json_roundtrip(capsys):
    code, out, _ = run_cli(
        capsys, "hilbert", "--family", "vector", "--n", "4", "--r", "3", "--format", "json"
    )
    payload = json.loads(out)
    parsed = BiPoly.from_json_terms(payload["result"]["terms"])
    code2, text, _ = run_cli(capsys, "hilbert", "--family", "vector", "--n", "4", "--r", "3")
    assert parsed.to_text() + "\n" == text


def test_csv_format(capsys):
    code, out, _ = run_cli(
        capsys, "hilbert", "--family", "uniform", "--n", "4", "--r", "3", "--format", "csv"
    )
    assert out.splitlines() == ["t,q,c", "0,0,1", "1,0,7", "2,0,1"]


def test_csv_is_one_write(monkeypatch):
    writes = []

    class Stdout:
        def write(self, text):
            writes.append(text)

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", Stdout())
    assert main(["hilbert", "--family", "vector", "--n", "4", "--r", "3", "--format", "csv"]) == 0
    assert len(writes) == 1 and writes[0].startswith("t,q,c\n0,0,1\n1,0,") and writes[0].endswith("2,0,1\n")


def test_qeulerian_and_secant(capsys):
    _, out, _ = run_cli(capsys, "qeulerian", "--n", "3")
    assert out == "1 + (2 + q + q^2)*t + t^2\n"
    _, out, _ = run_cli(capsys, "qeulerian", "--n", "4", "--q1")
    assert out == "1 + 11*t + 11*t^2 + t^3\n"
    code, out, _ = run_cli(capsys, "qeulerian", "--n", "13", "--q1")
    assert code == 0 and out.startswith("1 + 8178*t + 1479726*t^2 + ")  # <13 over 1> = 2^13 - 14
    _, out, _ = run_cli(capsys, "secant", "--n", "4")
    assert out == "q + 2*q^2 + q^3 + q^4\n"
    _, out, _ = run_cli(capsys, "secant", "--n", "7", "--q1")
    assert out == "-272\n"


def test_delta_and_conjecture(capsys):
    _, out, _ = run_cli(capsys, "delta", "--n", "3", "--r", "2")
    assert out == "(1 + q + q^2)*t + t^2\n"
    code, out, _ = run_cli(capsys, "conjecture", "--n", "4", "--r", "2", "--format", "json")
    payload = json.loads(out)
    assert payload["equal"] is True
    assert payload["equal_proper"] is False
    assert payload["bivariate_equal"] is True


def test_oracle_method(capsys):
    code, out, _ = run_cli(
        capsys,
        "hilbert", "--family", "vector", "--n", "3", "--r", "3",
        "--method", "oracle", "--p", "2",
    )
    assert code == 0 and out == "1 + 8*t + t^2\n"


def test_oracle_past_the_old_caps(capsys):
    # p = 5, and uniform n = 9: both small lattices, both refused before the size bound
    code, out, _ = run_cli(capsys, "hilbert", "--family", "vector", "--n", "3", "--r", "3", "--method", "oracle", "--p", "5")
    assert (code, out) == (0, "1 + 32*t + t^2\n")
    argv = ("hilbert", "--family", "uniform", "--n", "9", "--r", "3", "--method")
    assert run_cli(capsys, *argv, "oracle") == run_cli(capsys, *argv, "recurrence") == (0, "1 + 37*t + t^2\n", "")


def test_deterministic_output(capsys):
    argv = ("hilbert", "--family", "vector", "--n", "5", "--r", "4", "--format", "json")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_usage_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "cd", "--family", "vector", "--n", "4", "--r", "2", "--method", "chain")
    assert code == 2 and "even" in err
    code, _, err = run_cli(capsys, "hilbert", "--family", "vector", "--n", "3", "--r", "3", "--method", "oracle")
    assert code == 2 and "--p" in err
    code, _, err = run_cli(capsys, "hilbert", "--family", "vector", "--n", "3", "--r", "3", "--p", "2")
    assert code == 2
    code, _, err = run_cli(capsys, "hilbert", "--family", "vector", "--n", "2", "--r", "3")
    assert code == 2


def test_negative_n_exits_2(capsys):
    # the message names the CLI's own --n, not a library parameter
    for argv in (("secant", "--n", "-1"), ("qeulerian", "--n", "-1"), ("qeulerian", "--n", "-1", "--q1")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", "error: n must be nonnegative, got -1\n"), argv


def test_report_commands_have_no_csv(capsys):
    # CSV is one polynomial's t,q,c rows; the conjecture and check reports are not one
    for argv in (("conjecture", "--n", "4", "--r", "2"), ("check", "--nmax", "2")):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--format", "csv"])
        assert exit_info.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "" and "invalid choice: 'csv'" in captured.err, argv


def test_check_nmax_below_two_exits_2(capsys):
    for n_max in ("1", "0", "-2"):
        code, out, err = run_cli(capsys, "check", "--nmax", n_max)
        assert code == 2 and out == "" and "--nmax" in err, n_max


def test_resource_errors_exit_3(capsys):
    code, _, err = run_cli(capsys, "hilbert", "--family", "uniform", "--n", "9", "--r", "9", "--method", "oracle")
    assert code == 3 and "bound" in err


def test_bound_override(capsys):
    code, _, _ = run_cli(capsys, "check", "--suite", "wachs", "--nmax", "4", "--bound", "3")
    assert code == 3
    code, _, _ = run_cli(capsys, "check", "--suite", "wachs", "--nmax", "4", "--bound", "4")
    assert code == 0


def test_negative_bound_exits_2(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "wachs", "--nmax", "3", "--bound", "-5")
    assert code == 2 and out == "" and "--bound" in err


def test_environment_does_not_move_the_bound(capsys, monkeypatch):
    monkeypatch.setenv("CHOWLAB_NMAX", "3")
    code, _, _ = run_cli(capsys, "check", "--suite", "wachs", "--nmax", "4")
    assert code == 0
    assert permstat_module.statistic_sum(4, lambda s: (0, s.exc)) == ONE + 11 * T + 11 * T**2 + T**3


def test_library_reads_no_environment():
    src = Path(__file__).resolve().parents[1] / "src" / "chowlab"
    reads = []
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)
            if name in ("environ", "getenv"):  # os.environ, os.getenv, or either imported by name
                reads.append(f"{path.name}:{node.lineno}")
    assert reads == []


def test_huge_p_exits_3_at_once(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "hilbert", "--family", "vector", "--n", "1", "--r", "1", "--method", "oracle", "--p", "1000000000000000003"
    )
    assert (code, out) == (3, "") and "has over 200 points" in err
    assert time.perf_counter() - start < 5  # trial division stops at 10^6, not at sqrt(p) = 10^9


@pytest.mark.parametrize("argv", [
    ("--family", "uniform", "--n", "1000000000", "--r", "1"),
    ("--family", "vector", "--n", "1000000000", "--r", "1", "--p", "2"),
    ("--family", "vector", "--n", "1", "--r", "1", "--p", "1000000000000000003"),
])
def test_huge_oracle_inputs_exit_3_at_once(capsys, argv):
    # the points are bounded before p^n or any Gaussian binomial is computed
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "hilbert", *argv, "--method", "oracle")
    assert (code, out) == (3, "") and err.endswith("has over 200 points\n")
    assert time.perf_counter() - start < 1


def test_bound_is_a_check_option_only(capsys):
    for argv in (("delta", "--n", "4", "--r", "2"), ("hilbert", "--family", "vector", "--n", "3", "--r", "3")):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, "--bound", "10"])
        assert exit_info.value.code == 2, argv
        assert "--bound" in capsys.readouterr().err


QUERIES = [
    ("delta", "--n", "12", "--r", "5"),
    ("hilbert", "--family", "vector", "--n", "12", "--r", "6", "--method", "closed"),
    ("hilbert", "--family", "uniform", "--n", "12", "--r", "6", "--method", "closed"),
    ("hilbert", "--family", "vector", "--n", "3", "--r", "3", "--method", "oracle", "--p", "2"),
    ("qeulerian", "--n", "12"),
    ("secant", "--n", "10"),
    ("cd", "--family", "vector", "--n", "9", "--r", "7", "--method", "det"),
    ("conjecture", "--n", "4", "--r", "2"),
]


def test_queries_do_not_enumerate(capsys, monkeypatch):
    monkeypatch.setattr(permstat_module, "DEFAULT_ENUM_BOUND", 0)  # any walk of S_n with n >= 1 would exit 3
    for argv in QUERIES:
        code, out, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv


def test_check_all_passes(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "all", "--nmax", "4")
    assert code == 0
    lines = out.splitlines()
    assert all(line.startswith(("PASS", "OK")) for line in lines)
    assert lines[-1].startswith("OK")


def test_check_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--suite", "egf", "--nmax", "4", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["suites"][0]["name"] == "egf"


def _terms(poly):
    return {"terms": poly.to_json_terms()}


def _cd_payload(family, n, r):
    result = charney_module.cd(FamilySpec(family, n, r))
    return {"command": "cd", "family": family, "n": n, "r": r, "method": "direct", "parity": result.parity,
            "unsigned": _terms(result.unsigned), "signed": _terms(result.signed)}


def _conjecture_payload(n, r):
    report, bivariate = ordercx_module.conjecture_check(n, r), ordercx_module.bivariate_check(n)
    return {"command": "conjecture", "n": n, "r": r, "lhs": _terms(report["lhs"]),
            "lhs_proper": _terms(report["lhs_proper"]), "rhs": _terms(report["rhs"]), "equal": report["equal"],
            "equal_proper": report["equal_proper"], "bivariate_equal": bivariate["equal"]}


# Each JSON query with the payload the stdlib encoder was once given for it:
# the same values, with every polynomial as {"terms": to_json_terms()}.
JSON_PAYLOADS = {
    "hilbert --family vector --n 7 --r 5": lambda: {
        "command": "hilbert", "family": "vector", "n": 7, "r": 5, "method": "recurrence",
        "result": _terms(chow_module.hilbert_recurrence(FamilySpec.vector(7, 5)))},
    "hilbert --family vector --n 3 --r 3 --method oracle --p 2": lambda: {
        "command": "hilbert", "family": "vector", "n": 3, "r": 3, "method": "oracle", "p": 2,
        "result": _terms(chow_module.hilbert(FamilySpec.vector(3, 3), "oracle", p=2))},
    "cd --family vector --n 7 --r 7": lambda: _cd_payload("vector", 7, 7),
    "cd --family uniform --n 5 --r 3": lambda: _cd_payload("uniform", 5, 3),
    "cd --family vector --n 6 --r 6": lambda: _cd_payload("vector", 6, 6),
    "conjecture --n 6 --r 3": lambda: _conjecture_payload(6, 3),
    "qeulerian --n 6": lambda: {
        "command": "qeulerian", "n": 6, "q1": False, "result": _terms(qeuler_module.q_eulerian_by_recurrence(6))},
    "check --nmax 6": lambda: check_suites(6),
}


@pytest.mark.parametrize("query", JSON_PAYLOADS)
def test_json_output_is_the_stdlib_encoding(capsys, query):
    # the writer's own term-list template against json.dumps, byte for byte;
    # the cd cases have negative coefficients and, at even rank, empty lists
    code, out, _ = run_cli(capsys, *query.split(), "--format", "json")
    assert code == 0
    assert out == json.dumps(JSON_PAYLOADS[query](), indent=2) + "\n"


def test_injected_fault_fails_with_localized_diff(capsys, monkeypatch):
    real = chow_module.hilbert_closed_form

    def tampered(spec):
        poly = real(spec)
        if (spec.kind, spec.n, spec.r) == ("vector", 3, 2):
            return poly + ONE  # flip one coefficient
        return poly

    monkeypatch.setattr(chow_module, "hilbert_closed_form", tampered)
    code, out, _ = run_cli(capsys, "check", "--suite", "route-agreement", "--nmax", "3")
    assert code == 1
    assert "FAIL" in out
    assert "vector(3,2)" in out
    assert "diff" in out


def test_check_suites_report_shape():
    report = check_suites(3, "palindromicity")
    assert report["ok"] is True
    assert report["suites"][0]["checks"] >= 1


def test_suite_that_runs_nothing_fails():
    report = check_suites(1, "conjecture")
    assert report["suites"][0]["checks"] == 0
    assert report["suites"][0]["passed"] is False
    assert report["ok"] is False


def _tamper(first_args, bump):
    """Wrap a route so that its value at calls starting with `first_args` is bumped."""

    def tamper(real):
        def tampered(*args, **kwargs):
            value = real(*args, **kwargs)
            return bump(value) if args[: len(first_args)] == first_args else value

        return tampered

    return tamper


# One route of each two-route suite off by one coefficient at one instance
# (route-agreement has its own test above).
V32, V43, U53, U42 = FamilySpec.vector(3, 2), FamilySpec.vector(4, 3), FamilySpec.uniform(5, 3), FamilySpec.uniform(4, 2)
TAMPERS = [
    ("oracle", chow_module, "hilbert_recurrence", _tamper((V32,), lambda h: h + ONE), "vector(3,2)"),
    ("telescoping", chow_module, "delta_series", _tamper((4, 2), lambda d: d + ONE), "n=4"),
    ("palindromicity", chow_module, "hilbert_recurrence", _tamper((V43,), lambda h: h + Q), "vector(4,3)"),
    ("wachs", permstat_module, "group_by_derangement_part", _tamper((4,), lambda f: {**f, (2, 1): f[(2, 1)] + Q}), "n=4"),
    ("egf", qeuler_module, "q_eulerian_by_recurrence", _tamper((3,), lambda a: a + Q), "x^5"),
    ("tangent-secant", charney_module, "cd_direct",
     _tamper((U53,), lambda c: c._replace(unsigned=c.unsigned + ONE)), "uniform 5,3"),
    ("conjecture", ordercx_module, "order_complex_fvector",
     _tamper((U42,), lambda f: FVector((f.f[0] + 1,) + f.f[1:])), "uniform 4,2"),
]
# Each of the three D_n routes of the wachs suite, off by one coefficient at n = 4.
DN_ROUTES = [(qeuler_module, "derangement_polynomial"), (qeuler_module, "q_eulerian_by_recurrence"),
             (permstat_module, "statistic_sum")]
IDS = [t[0] for t in TAMPERS] + [f"wachs-{name}" for _, name in DN_ROUTES]
TAMPERS += [("wachs", module, name, _tamper((4,), lambda d: d + Q), "n=4") for module, name in DN_ROUTES]
# Each side of the two identities that compare the tangent-secant table with
# the Hilbert series: cd telescoping with the table's E_4 off by q, and the
# odd entries with the unsigned quantity of vector(5, 5) off by one.
V55 = FamilySpec.vector(5, 5)
SECANT_TAMPERS = [
    ("telescoping", charney_module, "tangent_secant",
     _tamper((4,), lambda e: e._replace(entries=e.entries[:4] + (e.entries[4] + Q,))), "n=5, r=5"),
    ("tangent-secant", charney_module, "cd_direct",
     _tamper((V55,), lambda c: c._replace(unsigned=c.unsigned + ONE)), "n=5"),
]
# The table's q = 1 row against the Seidel-Entringer triangle, with z_7 off by one.
SECANT_TAMPERS.append(("tangent-secant", checks_module, "zigzag_numbers",
                       _tamper((), lambda z: z[:7] + [z[7] + 1] + z[8:]), "Seidel-Entringer"))
IDS += [f"{suite}-{name}" for suite, _, name, *_ in SECANT_TAMPERS]
TAMPERS += SECANT_TAMPERS


@pytest.mark.parametrize("suite, module, name, tamper, instance", TAMPERS, ids=IDS)
def test_tampered_route_fails_its_suite(capsys, monkeypatch, suite, module, name, tamper, instance):
    real = getattr(module, name)
    monkeypatch.setattr(module, name, tamper(real))
    try:
        code, out, _ = run_cli(capsys, "check", "--suite", suite, "--nmax", "5")
    finally:
        if hasattr(real, "cache_clear"):
            real.cache_clear()  # drop values the real route computed from the tampered one
    lines = out.splitlines()
    assert code == 1 and lines[0].startswith(f"FAIL  {suite}") and lines[-1] == "FAILED  (nmax=5)"
    assert any(line.startswith("      FAIL") and instance in line for line in lines), out


def test_tangent_secant_suite_covers_odd_entries_to_nmax():
    # E_n = unsigned cd(vector(n, n)) at odd n is checked as far as --nmax reaches
    report = check_suites(9, "tangent-secant")
    names = [e["name"] for e in report["suites"][0]["entries"] if e["name"].startswith("odd entry")]
    assert report["ok"] is True
    assert names == [f"odd entry = unsigned full-rank cd (n={n})" for n in (1, 3, 5, 7, 9)]


def test_resource_bound_skips_one_identity(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "route-agreement", "--nmax", "4", "--bound", "3")
    assert code == 3 and err == ""
    skipped = "enumeration of size 4 exceeds bound 3; pass a larger bound (check --bound)"
    assert out.splitlines() == [
        "SKIPPED  route-agreement  (15 checks)",
        f"      SKIPPED q_eulerian_definition: {skipped}",
        f"      SKIPPED permutation_sum_ranks: {skipped}",
        "SKIPPED  (nmax=4)",
    ]
    names = [e["name"] for e in check_suites(4, "route-agreement", 3)["suites"][0]["entries"]]
    # each walk runs up to the bound; the identities without one run in full
    assert {"q-Eulerian definition vs recurrence (n=3)", "corank-one Hilbert series = derangement sum (n=3)"} <= set(names)
    assert names[:2] == [f"hilbert routes agree ({kind}, n <= 4)" for kind in ("uniform", "vector")]
    assert names[-1] == "cd routes agree (odd r <= n <= 4)"


def test_explicit_lattice_ranges_need_no_cap(capsys):
    # the f-vectors are counted, not enumerated: nothing in these runs is bounded
    for argv in (("check", "--suite", "all", "--nmax", "9"), ("conjecture", "--n", "9", "--r", "5")):
        code, _, err = run_cli(capsys, *argv)
        assert (code, err) == (0, ""), argv
    # each explicit-lattice range runs while the full-rank lattice passes the size bound
    oracle = check_suites(8, "oracle")["suites"][0]
    assert oracle["passed"] and [e["name"] for e in oracle["entries"]] == [
        f"monomial oracle {kind}({n},{r}) at q={q}"
        for kind, q, top in (("uniform", 1, 7), ("vector", 2, 4), ("vector", 3, 3))
        for n in range(1, top + 1)
        for r in range(1, n + 1)
    ]
    assert oracle["checks"] == 44
    conjecture = check_suites(8, "conjecture")["suites"][0]
    names = [e["name"] for e in conjecture["entries"]]
    assert conjecture["passed"] and conjecture["checks"] == 69
    assert [name for name in names if name.startswith("f-vector")] == [
        f"f-vector routes (uniform {n},{r})" for n in range(2, 8) for r in range(1, n + 1)
    ]
    assert names[:7] == [f"full-rank h-polynomial anchor (n={n})" for n in range(2, 9)]


def test_route_disagreement_is_contained(monkeypatch):
    monkeypatch.setattr(chow_module, "delta_series", _tamper((3, 2), lambda d: d + ONE)(chow_module.delta_series))
    entries = check_suites(4, "telescoping")["suites"][0]["entries"]
    failed = [e for e in entries if not e["ok"]]
    assert [e["name"] for e in failed] == ["rank telescoping to full rank (n=3)", "delta_assembly"]
    assert "difference series (n=3, r=2)" in failed[-1]["detail"]
    assert entries[-1]["name"] == "cd telescoping (n=4, r=3)"  # the next identity still ran


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])  # buffered fails at the flush
def test_closed_stdout_pipe_exits_141(unbuffered):
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader leaves before the CLI writes
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    if unbuffered:
        env["PYTHONUNBUFFERED"] = unbuffered
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "chowlab", "check", "--suite", "egf", "--nmax", "5", "--format", "json"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")


# Modules a text query must not load: `dataclasses` drags in `inspect`, and
# `json` and `fractions` (with `decimal`) serve only one output path or one
# check.  `typing` is loaded by some interpreters' `site`, hence the
# comparison with what was there before the import.
COLD_START_UNUSED = ("dataclasses", "inspect", "json", "fractions", "decimal", "typing")
COLD_START_PROBE = """
import sys
before = set(sys.modules)
from chowlab.cli import main
codes = [main(["hilbert", "--family", "vector", "--n", "4", "--r", "3"])]
text = sorted(set(sys.modules) - before)
codes.append(main(["hilbert", "--family", "vector", "--n", "4", "--r", "3", "--format", "json"]))
print(repr((codes, text, "json" in sys.modules)))
"""


def _child_env(**extra):
    """The environment of a child `python` that imports this checkout's chowlab."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra)


def test_closed_form_at_low_rank_needs_no_full_rank_table():
    # the closed form sums D_0, ..., D_(r-1) only: at rank 2 it is 1 + t at
    # once, whatever n, with no A_60 and no D_59 built first
    proc = subprocess.run(
        [sys.executable, "-m", "chowlab", *"hilbert --family vector --n 60 --r 2 --method closed".split()],
        capture_output=True, text=True, env=_child_env(), timeout=10,
    )
    assert (proc.returncode, proc.stdout) == (0, "1 + t\n")


def test_cold_start_loads_only_what_the_command_uses():
    proc = subprocess.run(
        [sys.executable, "-c", COLD_START_PROBE], capture_output=True, text=True, env=_child_env(), timeout=60, check=True
    )
    codes, text_added, json_loaded = ast.literal_eval(proc.stdout.splitlines()[-1])
    assert codes == [0, 0]
    assert "chowlab.cli" in text_added
    assert [m for m in COLD_START_UNUSED if m in text_added] == []
    assert json_loaded


# A canonical argv is parsed from `cli.COMMANDS` alone: a fresh process that
# runs two of them must never import argparse, and prints what they print
# in this process.
CANONICAL_QUERIES = (["secant", "--n", "5"], ["hilbert", "--family", "vector", "--n", "4", "--r", "3", "--format", "csv"])
ARGPARSE_PROBE = """
import sys
from chowlab.cli import main
codes = [main(argv) for argv in %r]
print(repr((codes, "argparse" in sys.modules)))
"""


def test_canonical_argv_never_loads_argparse(capsys):
    proc = subprocess.run(
        [sys.executable, "-c", ARGPARSE_PROBE % (CANONICAL_QUERIES,)],
        capture_output=True, text=True, env=_child_env(), timeout=60, check=True,
    )
    *out, last = proc.stdout.splitlines(keepends=True)
    assert ast.literal_eval(last) == ([0, 0], False)
    assert "".join(out) == "".join(run_cli(capsys, *argv)[1] for argv in CANONICAL_QUERIES)


def _argparse_vars(parser, argv):
    """vars() of argparse's namespace for `argv`, or None on a usage error."""
    try:
        return vars(parser.parse_args(argv, RunConfig()))
    except SystemExit:
        return None


@pytest.fixture(scope="module")
def parser():
    return build_parser()


def _pool_argv(workload):
    spec = importlib.util.spec_from_file_location("pool", Path(__file__).resolve().parents[1] / "perfbench" / "pool.py")
    pool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pool)
    return [list(argv) for argv in pool.pool(workload)]


def _readme_argv():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    return [line.split("#")[0].split()[1:] for line in readme.splitlines() if line.startswith("chowlab ")]


# Every job the benchmark runs and every README example takes the canonical
# parse, to the namespace argparse makes of it.
@pytest.mark.parametrize("source", ["symbolic", "enumerative", "rational", "check-sweep", "README"])
def test_benchmark_and_readme_argv_parse_canonically(parser, source):
    argvs = _readme_argv() if source == "README" else _pool_argv(source)
    assert argvs
    for argv in argvs:
        config = parse_canonical(argv)
        assert config is not None, argv
        assert vars(config) == _argparse_vars(parser, argv), argv


JUNK_TOKENS = ("--fam", "--n=5", "-h", "--help", "-1", "-x", "", "frobnicate", "--", "-0", "+3", " 4", "1_0", "-1_0", "--bogus")


@st.composite
def token_sequences(draw):
    """Half the time a canonical argv; else a subcommand (or junk) and its
    options in any order, each zero to two times, with valid or junk
    values, and junk tokens anywhere."""
    messy = draw(st.booleans())
    command = draw(st.sampled_from([*COMMANDS, "frobnicate", "-h"] if messy else list(COMMANDS)))
    argv = [command]
    for option, _, kind, required, _, _ in draw(st.permutations(COMMANDS.get(command, (None, ()))[1])):
        for _ in range(draw(st.sampled_from((0, 1, 1, 2) if messy else (1,) if required else (0, 1)))):
            argv.append(option)
            if kind is not FLAG:
                valid = st.integers(-3, 9).map(str) if kind is int else st.sampled_from(kind)
                argv.append(draw(st.one_of(valid, st.sampled_from(JUNK_TOKENS)) if messy else valid))
    for _ in range(draw(st.integers(0, 2)) if messy else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(JUNK_TOKENS)))
    return argv


@settings(max_examples=300, deadline=None)
@given(token_sequences())
def test_canonical_parse_declines_or_agrees_with_argparse(parser, argv):
    config = parse_canonical(argv)
    if config is not None:
        assert vars(config) == _argparse_vars(parser, argv)


# Stdout of `chowlab --help` and of each `chowlab COMMAND --help` at 80
# columns, captured from the hand-written parser that `COMMANDS` replaced
# (the same on Python 3.10 to 3.13): building the parser from the table
# changed no help text.  The benchmark's setup probe runs `--help`.
HELP_TEXT = json.loads(Path(__file__).with_name("cli_help.json").read_text())


@pytest.mark.parametrize("command", ["", *COMMANDS])
def test_help_text_is_pinned(command):
    proc = subprocess.run(
        [sys.executable, "-m", "chowlab", *command.split(), "--help"],
        capture_output=True, text=True, env=_child_env(COLUMNS="80"), timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, HELP_TEXT[command], "")


@pytest.mark.parametrize("argv, canonical", [
    ("hilbert --fam vector --n 3 --r 3", "hilbert --family vector --n 3 --r 3"),
    ("check --nm 3 --suite wachs", "check --nmax 3 --suite wachs"),
    ("secant --n=5 --q", "secant --n 5 --q1"),
])
def test_abbreviated_and_equals_forms_run_like_the_canonical_argv(capsys, argv, canonical):
    assert parse_canonical(argv.split()) is None
    expected = run_cli(capsys, *canonical.split())
    assert expected[0] == 0
    assert run_cli(capsys, *argv.split()) == expected


def test_unexpected_exception_exits_4(capsys, monkeypatch):
    def broken(spec):
        raise TypeError("injected")

    monkeypatch.setattr(chow_module, "hilbert_recurrence", broken)
    code, out, err = run_cli(capsys, "hilbert", "--family", "vector", "--n", "3", "--r", "3")
    assert (code, out, err) == (4, "", "internal error: TypeError: injected\n")


# One small query per production route, and the benchmark's largest Bareiss
# jobs, pinned to the stdout digests the benchmark verifies; the file is only
# read.
BENCHMARK_REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


@pytest.mark.parametrize(
    "query",
    [
        "hilbert --family vector --n 18 --r 13 --format text",
        "hilbert --family vector --n 8 --r 6 --method closed --format csv",
        "cd --family vector --n 17 --r 17 --method direct --format text",
        "cd --family vector --n 19 --r 19 --method chain --format csv",
        "cd --family vector --n 11 --r 11 --method det --format json",
        "cd --family vector --n 15 --r 15 --method det --format json",
        "cd --family vector --n 13 --r 11 --method qsecant --format text",
        "qeulerian --n 16 --format json",
        "secant --n 12 --format text",
        "secant --n 16 --format text",
        "delta --n 8 --r 4 --format text",
    ],
)
def test_stdout_matches_the_benchmark_reference(capsys, query):
    digests = json.loads(BENCHMARK_REFERENCE.read_text())["digests"]
    code, out, _ = run_cli(capsys, *query.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digests[query]


# Stdout of the two largest secant queries, pinned at the table's previous
# build (recurrence, two eliminations and a series point), so the two-route
# build prints the same bytes.
@pytest.mark.parametrize(
    "n, digest",
    [
        (30, "278fd10f550b516eb1c84a344274ae5a1d010c926b7e0a4c05b02993a650b293"),
        (36, "b199249e3cdc0d11e233413d8fca5bfd66978a5930cfd9f75531ea1c88d2bd2c"),
    ],
)
def test_large_secant_stdout_is_pinned(capsys, n, digest):
    code, out, _ = run_cli(capsys, "secant", "--n", str(n))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest
