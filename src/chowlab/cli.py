"""Command-line front end and the cross-validation suite runner.

Exit codes: 0 success, 1 internal invariant violation (any cross-route
disagreement aborts with a diff of the two polynomials), 2 usage or domain
error, 3 resource-bound error.  Identical invocations produce byte-identical
output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional

from . import charney, chow, ordercx, qeuler
from .errors import ResourceBoundError, RouteDisagreementError
from .exactalg import BiPoly, diff_terms, gauss_binomial
from .flats import FamilySpec, build_explicit, chains_above, level_size
from .permstat import PermClass, group_by_derangement_part, statistic_sum, w_maj_exc_offset

FORMATS = ("text", "json", "csv")


@dataclass
class RunConfig:
    command: str
    family: Optional[str] = None
    n: Optional[int] = None
    r: Optional[int] = None
    method: Optional[str] = None
    prime: Optional[int] = None
    q1: bool = False
    unsigned: bool = False
    fmt: str = "text"
    suite: str = "all"
    n_max: int = 6
    bound: Optional[int] = None

    def validate(self):
        if self.prime is not None and not (
            self.command == "hilbert" and self.method == "oracle" and self.family == "vector"
        ):
            raise ValueError("--p is only meaningful with `hilbert --method oracle --family vector`")
        if (
            self.command == "hilbert"
            and self.method == "oracle"
            and self.family == "vector"
            and self.prime is None
        ):
            raise ValueError("oracle method on the vector family requires --p")
        if self.command == "check" and self.n_max < 2:
            raise ValueError(f"--nmax must be at least 2, got {self.n_max}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="chowlab",
        description="Exact Hilbert series and Charney-Davis quantities of Chow "
        "rings of uniform and finite-vector-space matroids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, family=True, rank=True):
        if family:
            p.add_argument("--family", choices=("uniform", "vector"), required=True)
        p.add_argument("--n", type=int, required=True)
        if rank:
            p.add_argument("--r", type=int, required=True)
        p.add_argument("--format", dest="fmt", choices=FORMATS, default="text")
        p.add_argument("--bound", type=int, default=None, help="enumeration bound override")

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
    add_common(p, family=False)

    p = sub.add_parser("check", help="run the cross-validation suites")
    p.add_argument("--suite", default="all", choices=("all",) + tuple(SUITES))
    p.add_argument("--nmax", dest="n_max", type=int, default=6)
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    p.add_argument("--bound", type=int, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    config = RunConfig(**vars(args))
    try:
        config.validate()
        return run(config)
    except RouteDisagreementError as e:
        print(f"internal invariant violation: {e}", file=sys.stderr)
        return 1
    except ResourceBoundError as e:
        print(f"resource bound exceeded: {e}", file=sys.stderr)
        return 3
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


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


def emit_poly(poly, config, meta):
    if config.fmt == "text":
        print(poly.to_text())
    elif config.fmt == "json":
        payload = dict(meta)
        payload["result"] = {"terms": poly.to_json_terms()}
        print(json.dumps(payload, indent=2))
    else:
        print("t,q,c")
        for td, qd, c in poly.to_csv_rows():
            print(f"{td},{qd},{c}")
    return 0


def _run_hilbert(config):
    spec = FamilySpec(config.family, config.n, config.r)
    poly = chow.hilbert(spec, config.method, bound=config.bound, p=config.prime)
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
    if spec.kind == "uniform":
        result = charney.uniform_cd(result)
    if config.fmt == "json":
        payload = {
            "command": "cd",
            "family": config.family,
            "n": config.n,
            "r": config.r,
            "method": config.method,
            "parity": result.parity,
            "unsigned": {"terms": result.unsigned.to_json_terms()},
            "signed": {"terms": result.signed.to_json_terms()},
        }
        print(json.dumps(payload, indent=2))
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
    poly = chow.delta_series(config.n, config.r, config.bound)
    return emit_poly(poly, config, {"command": "delta", "n": config.n, "r": config.r})


def _run_conjecture(config):
    report = ordercx.conjecture_check(config.n, config.r)
    bivariate = ordercx.bivariate_check(config.n)
    if config.fmt == "json":
        payload = {
            "command": "conjecture",
            "n": config.n,
            "r": config.r,
            "lhs": {"terms": report["lhs"].to_json_terms()},
            "lhs_proper": {"terms": report["lhs_proper"].to_json_terms()},
            "rhs": {"terms": report["rhs"].to_json_terms()},
            "equal": report["equal"],
            "equal_proper": report["equal_proper"],
            "bivariate_equal": bivariate["equal"],
        }
        print(json.dumps(payload, indent=2))
        return 0
    print(f"conjecture n={config.n} r={config.r}")
    print(f"  lhs (full lattice):  {report['lhs'].to_text()}")
    print(f"  lhs (proper part):   {report['lhs_proper'].to_text()}")
    print(f"  rhs:                 {report['rhs'].to_text()}")
    print(f"  equal (full): {report['equal']}   equal (proper): {report['equal_proper']}")
    print(f"  bivariate restatement at n={config.n}: {bivariate['equal']}")
    return 0


# -- cross-validation suites -----------------------------------------------


def _entry(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _poly_mismatch(name, left, right):
    return _entry(
        name,
        False,
        f"left {left.to_text()} != right {right.to_text()}; diff {diff_terms(left, right)}",
    )


def _compare(name, left, right):
    return _entry(name, True) if left == right else _poly_mismatch(name, left, right)


def suite_route_agreement(n_max, bound):
    entries = []
    for kind in ("uniform", "vector"):
        mismatches = []
        for n in range(1, n_max + 1):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                by_chain = chow.hilbert_chain_sum(spec)
                for route, poly in (
                    ("recurrence", chow.hilbert_recurrence(spec)),
                    ("closed", chow.hilbert_closed_form(spec, bound)),
                ):
                    if poly != by_chain:
                        mismatches.append(_poly_mismatch(f"hilbert {spec} chain vs {route}", by_chain, poly))
        entries.extend(mismatches)
        entries.append(_entry(f"hilbert routes agree ({kind}, n <= {n_max})", not mismatches))
    for n in range(min(n_max, 8) + 1):
        entries.append(
            _compare(
                f"q-Eulerian definition vs recurrence (n={n})",
                qeuler.q_eulerian_by_definition(n, bound),
                qeuler.q_eulerian_by_recurrence(n),
            )
        )
    for n in range(1, n_max + 1):
        entries.append(
            _compare(
                f"full-rank Hilbert series = q-Eulerian (n={n})",
                chow.hilbert_chain_sum(FamilySpec.vector(n, n)),
                qeuler.q_eulerian_by_recurrence(n),
            )
        )
        if n >= 2:
            entries.append(
                _compare(
                    f"corank-one Hilbert series = derangement sum (n={n})",
                    chow.hilbert_recurrence(FamilySpec.vector(n, n - 1)),
                    statistic_sum(PermClass.Derangements(n), w_maj_exc_offset(-1), bound),
                )
            )
    cd_mismatches = []
    table = charney.tangent_secant(n_max)
    for n in range(1, n_max + 1):
        for r in range(1, n + 1, 2):
            direct = charney.cd_direct(FamilySpec.vector(n, r))
            for route, result in (
                ("chain", charney.cd(FamilySpec.vector(n, r), "chain")),
                ("det", charney.cd_determinant(n, r)),
                ("qsecant", charney.cd_qsecant(n, r, table)),
            ):
                if result.unsigned != direct.unsigned or result.signed != direct.signed:
                    cd_mismatches.append(_poly_mismatch(f"cd({n},{r}) direct vs {route}", direct.unsigned, result.unsigned))
    entries.extend(cd_mismatches)
    entries.append(_entry(f"cd routes agree (odd r <= n <= {n_max})", not cd_mismatches))
    return entries


def suite_oracle(n_max, bound):
    entries = []
    cases = [("uniform", None, min(n_max, 6))]
    cases += [("vector", 2, min(n_max, 4)), ("vector", 3, min(n_max, 3))]
    for kind, p, top_n in cases:
        for n in range(1, top_n + 1):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                lat = build_explicit(spec, p)
                q_value = 1 if p is None else p
                counts = lat.level_counts()
                sizes_ok = all(
                    counts[i] == level_size(spec, i).eval(q_value, 1) for i in range(r + 1)
                )
                if not sizes_ok:
                    entries.append(_entry(f"level sizes {spec} at q={q_value}", False, str(counts)))
                dims = chow.basis_monomial_oracle(lat, r)
                symbolic = chow.hilbert_recurrence(spec).subs_q_int(q_value)
                entries.append(_compare(f"monomial oracle {spec} at q={q_value}", dims.to_poly(), symbolic))
                chains = lat.count_maximal_chains()
                product_rule = 1
                for i in range(1, r + 1):
                    product_rule *= chains_above(spec, i - 1, i).eval(q_value, 1)
                if chains != product_rule:
                    entries.append(
                        _entry(f"maximal chains {spec}", False, f"enumerated {chains} != product {product_rule}")
                    )
    return entries


def suite_telescoping(n_max, bound):
    entries = []
    for n in range(1, n_max + 1):
        acc = chow.hilbert_recurrence(FamilySpec.vector(n, 1))
        for j in range(1, n):
            acc = acc + chow.delta_series(n, j, bound)
        entries.append(
            _compare(f"rank telescoping to full rank (n={n})", acc, qeuler.q_eulerian_by_recurrence(n))
        )
    for n in range(1, min(n_max, 6) + 1):
        ok = True
        for r in range(1, n + 1):
            for k in range(r + 1):
                chow.delta_coefficient(n, r, k, bound)  # raises on disagreement
        entries.append(_entry(f"difference-coefficient assembly (n={n})", ok))
    for n in range(1, n_max + 1):
        for r in range(3, n + 1, 2):
            lhs = charney.cd_determinant(n, r).unsigned - charney.cd_determinant(n, r - 2).unsigned
            entries.append(_compare(f"cd telescoping (n={n}, r={r})", lhs, charney.t_term(n, (r - 1) // 2)))
    return entries


def suite_palindromicity(n_max, bound):
    entries = []
    for kind in ("uniform", "vector"):
        for n in range(1, n_max + 1):
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                poly = chow.hilbert_recurrence(spec)
                if not poly.is_palindromic_in_t(r - 1):
                    entries.append(_entry(f"palindromicity {spec}", False, poly.to_text()))
                for k in (0, r - 1):
                    if poly.coefficient_in_t(k) != BiPoly.const(1):
                        entries.append(_entry(f"unit end coefficients {spec}", False, poly.to_text()))
                if r % 2 == 0:
                    cd_value = charney.cd_direct(spec)
                    if cd_value.unsigned != BiPoly():
                        entries.append(_entry(f"even-rank cd vanishing {spec}", False, cd_value.unsigned.to_text()))
    entries.append(_entry(f"palindromicity + even-rank vanishing (n <= {n_max})", not entries))
    for n in range(1, min(n_max + 2, 8) + 1):
        poly = qeuler.q_eulerian_by_recurrence(n)
        if not poly.is_palindromic_in_t(n - 1):
            entries.append(_entry(f"q-Eulerian palindromicity (n={n})", False, poly.to_text()))
    return entries


def suite_wachs(n_max, bound):
    entries = []
    top = min(n_max, 7)
    for n in range(top + 1):
        fibers = group_by_derangement_part(n, bound)
        ok = True
        detail = ""
        for k in range(min(n, 5) + 1):
            for gamma in PermClass.Derangements(k).members(bound):
                expected = BiPoly.term(1, gamma.stats().maj, 0) * gauss_binomial(n, k)
                got = fibers.get(gamma.values, BiPoly())
                if got != expected:
                    ok = False
                    detail = f"dp fiber of {gamma.values}: {got.to_text()} != {expected.to_text()}"
        entries.append(_entry(f"derangement-part fiber identity (n={n})", ok, detail))
    for n in range(top + 1):
        by_exc_fix = {}
        count_by_fix = {}
        for p in PermClass.All(n).members(bound):
            s = p.stats()
            key = (s.exc, s.fix)
            by_exc_fix[key] = by_exc_fix.get(key, BiPoly()) + BiPoly.term(1, s.maj - s.exc, 0)
            count_by_fix[s.fix] = count_by_fix.get(s.fix, 0) + 1
        ok = True
        for i in range(n + 1):
            for k in range(n + 1):
                lhs = BiPoly()
                for g in PermClass.Derangements(n - i).members(bound):
                    s = g.stats()
                    if s.exc == k:
                        lhs = lhs + BiPoly.term(1, s.maj - s.exc, 0)
                lhs = lhs * gauss_binomial(n, n - i)
                if lhs != by_exc_fix.get((k, i), BiPoly()):
                    ok = False
        entries.append(_entry(f"derangement/fixed-point refinement (n={n})", ok))
        entries.append(
            _entry(f"fixed-point partition of n! (n={n})", sum(count_by_fix.values()) == factorial(n))
        )
    return entries


def suite_egf(n_max, bound):
    entries = [
        _entry(f"q-exponential identity through x^{n_max}", qeuler.egf_identity_check(n_max)),
        _entry(
            f"classical exponential identity through x^{min(n_max + 2, 8)}",
            qeuler.egf_identity_check(min(n_max + 2, 8), q_one=True),
        ),
    ]
    return entries


def _classical_tangent_secant(n_max):
    """Independent oracle: Taylor coefficients of tanh + sech over Fractions."""
    order = n_max + 1
    cosh = [Fraction(1 if k % 2 == 0 else 0, factorial(k)) for k in range(order)]
    sinh = [Fraction(1 if k % 2 == 1 else 0, factorial(k)) for k in range(order)]
    sech = [Fraction(1)]
    for m in range(1, order):
        sech.append(-sum(cosh[k] * sech[m - k] for k in range(1, m + 1)))
    tanh = [sum(sinh[k] * sech[m - k] for k in range(m + 1)) for m in range(order)]
    return [int((tanh[m] + sech[m]) * factorial(m)) for m in range(n_max + 1)]


def suite_tangent_secant(n_max, bound):
    entries = []
    top = max(n_max, 10)
    try:
        table = charney.tangent_secant(top)
    except RouteDisagreementError as e:
        return [_entry("tangent-secant three-route agreement", False, str(e))]
    entries.append(_entry(f"tangent-secant three-route agreement (n <= {top})", True))
    oracle = _classical_tangent_secant(top)
    entries.append(
        _entry(
            f"classical values match series oracle (n <= {top})",
            list(table.classical) == oracle,
            f"table {list(table.classical)} vs oracle {oracle}",
        )
    )
    for m in range((min(n_max, 7) - 1) // 2 + 1):
        entries.append(
            _compare(
                f"odd entry = unsigned full-rank cd (n={2 * m + 1})",
                table[2 * m + 1],
                charney.cd_determinant(2 * m + 1, 2 * m + 1).unsigned,
            )
        )
    ok = all(charney.t_term(2 * a, a).eval(1, 1) == oracle[2 * a] for a in range(5))
    entries.append(_entry("classical secant determinant (n <= 4)", ok))
    for n in range(1, n_max + 1):
        for r in range(1, n + 1, 2):
            classical = sum(comb(n, 2 * k) * oracle[2 * k] for k in range((r - 1) // 2 + 1))
            unsigned = charney.cd_direct(FamilySpec.uniform(n, r)).unsigned
            entries.append(
                _entry(
                    f"secant-sum formula vs unsigned cd (uniform {n},{r})",
                    BiPoly.const(classical) == unsigned,
                    f"{classical} vs {unsigned.to_text()}",
                )
            )
    for n in range(1, max(n_max, 9) + 1, 2):
        total = sum(comb(n, 2 * k) * oracle[2 * k] for k in range((n - 1) // 2 + 1))
        entries.append(_entry(f"odd-row secant sum collapses to E_{n}", total == oracle[n]))
    for n in range(min(n_max, 6) + 1):
        report = charney.alternating_probe(n, table, bound)
        summary = ", ".join(
            f"{conv}: sum={data['sum']} exact={data['matches']} up_to_sign={data['matches_up_to_sign']}"
            for conv, data in report["conventions"].items()
        )
        entries.append(_entry(f"alternating probe (n={n})", True, f"target={report['target']}; {summary}"))
    return entries


def suite_conjecture(n_max, bound):
    entries = []
    for n in range(2, n_max + 1):
        ok, h = ordercx.full_rank_h_check(n)
        entries.append(
            _entry(f"full-rank h-polynomial anchor (n={n})", ok, "" if ok else h.to_text())
        )
    for n in range(2, min(n_max, 6) + 1):
        for r in range(1, n + 1):
            spec = FamilySpec.uniform(n, r)
            by_profiles = ordercx.order_complex_fvector(spec)
            by_chains = ordercx.order_complex_fvector(build_explicit(spec))
            entries.append(
                _entry(
                    f"f-vector routes (uniform {n},{r})",
                    by_profiles == by_chains,
                    f"{by_profiles} vs {by_chains}",
                )
            )
    for n in range(2, n_max + 1):
        for r in range(1, n):
            report = ordercx.conjecture_check(n, r)
            entries.append(
                _entry(
                    f"conjecture report (n={n}, r={r})",
                    True,
                    f"equal_full={report['equal']} equal_proper={report['equal_proper']}",
                )
            )
        bivariate = ordercx.bivariate_check(n)
        entries.append(
            _entry(f"bivariate restatement report (n={n})", True, f"equal={bivariate['equal']}")
        )
    return entries


SUITES = {
    "route-agreement": suite_route_agreement,
    "oracle": suite_oracle,
    "telescoping": suite_telescoping,
    "palindromicity": suite_palindromicity,
    "wachs": suite_wachs,
    "egf": suite_egf,
    "tangent-secant": suite_tangent_secant,
    "conjecture": suite_conjecture,
}


def check_suites(n_max, suite="all", bound=None):
    """Run the named suite (or all) and return a JSON-ready report."""
    names = list(SUITES) if suite == "all" else [suite]
    report = {"n_max": n_max, "suites": [], "ok": True}
    for name in names:
        try:
            entries = SUITES[name](n_max, bound)
        except RouteDisagreementError as e:
            entries = [_entry(f"{name}: aborted by invariant violation", False, str(e))]
        passed = bool(entries) and all(e["ok"] for e in entries)
        report["suites"].append(
            {"name": name, "passed": passed, "checks": len(entries), "entries": entries}
        )
        if not passed:
            report["ok"] = False
    return report


def _run_check(config):
    report = check_suites(config.n_max, config.suite, config.bound)
    if config.fmt == "json":
        print(json.dumps(report, indent=2))
    else:
        for suite in report["suites"]:
            status = "PASS" if suite["passed"] else "FAIL"
            print(f"{status}  {suite['name']}  ({suite['checks']} checks)")
            for e in suite["entries"]:
                if not e["ok"]:
                    print(f"      FAIL {e['name']}: {e['detail']}")
        print(f"{'OK' if report['ok'] else 'FAILED'}  (nmax={report['n_max']})")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    sys.exit(main())
