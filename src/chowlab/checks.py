"""The cross-route identities, each declared once, and the suites that run them.

An identity is a generator function of its parameter range (a `range` of
n, or an order) that yields report entries ``{"name", "ok", "detail"}``.
The `check` subcommand and the tests run the same functions; a test pins
a range and asserts the entry names, so a range cannot shrink silently.

A suite is the ordered list of its identities, with ranges derived from
``n_max``; an explicit-lattice range stops before `build_explicit`'s size
bound (which only CLI oracle queries meet), so SKIPPED comes only from a
permutation walk past ``bound``.  Running a suite contains each identity
on its own: a `ResourceBoundError` ends it with a SKIPPED entry (``"ok":
false, "skipped": true``), a `RouteDisagreementError` with a FAIL entry,
either named after the identity's function; the entries it yielded
before stay, and the suite's other identities still run.
"""

from collections import Counter
from itertools import accumulate, combinations
from math import comb, factorial

from . import charney, chow, ordercx, permstat, qeuler
from .errors import ResourceBoundError, RouteDisagreementError, require_equal
from .exactalg import ONE, T, ZERO, BiPoly, diff_terms, gauss_binomial, leading_principal_minors
from .flats import FamilySpec, build_explicit, count_above, explicit_size
from .permstat import is_alternating, permutations_of, stats, statistic_sum


def _entry(name, ok, detail=""):
    return {"name": name, "ok": bool(ok), "detail": detail}


def _mismatch(name, left, right):
    detail = f"left {left.to_text()} != right {right.to_text()}; diff {diff_terms(left, right)}"
    return _entry(name, False, detail)


def _compare(name, left, right):
    return _entry(name, True) if left == right else _mismatch(name, left, right)


def _top(ns):
    return max(ns, default=0)


def classical_tangent_secant(n_max):
    """[E_0, ..., E_{n_max}] at q = 1: n! [x^n](tanh + sech), no q-route.

    As exponential generating functions sech * cosh = 1 and tanh = sinh *
    sech, so the coefficients are integer convolutions with binomials:
    s_0 = 1, s_m = -sum over even k >= 2 of C(m, k) s_{m-k}, and E_m is s_m
    plus the sum over odd k of C(m, k) s_{m-k}.
    """
    sech = [1]
    for m in range(1, n_max + 1):
        sech.append(-sum(comb(m, k) * sech[m - k] for k in range(2, m + 1, 2)))
    return [sech[m] + sum(comb(m, k) * sech[m - k] for k in range(1, m + 1, 2)) for m in range(n_max + 1)]


def _values(routes, spec, skip=None):
    """(names, value at `spec`) of each distinct route of a route table, in
    its order, under the names that share it joined by "/", `skip` left out."""
    names = {}
    for name, route in routes.items():
        if name != skip:
            names.setdefault(route, []).append(name)
    return [("/".join(shared), route(spec)) for route, shared in names.items()]


def hilbert_routes(kind, ns):
    """Every route of `chow.ROUTES` but the oracle = the first (the chain
    sum), for every 1 <= r <= n in ns."""
    mismatches = []
    for n in ns:
        for r in range(1, n + 1):
            spec = FamilySpec(kind, n, r)
            (first, base), *others = _values(chow.ROUTES, spec, skip=chow.ORACLE)
            for name, poly in others:
                if poly != base:
                    mismatches.append(_mismatch(f"hilbert {spec} {first} vs {name}", base, poly))
    yield from mismatches
    yield _entry(f"hilbert routes agree ({kind}, n <= {_top(ns)})", not mismatches)


def q_eulerian_definition(ns, bound=None):
    """A_n(q,t) as the maj-exc sum over all permutations = its recurrence."""
    for n in ns:
        yield _compare(
            f"q-Eulerian definition vs recurrence (n={n})",
            qeuler.q_eulerian_by_definition(n, bound),
            qeuler.q_eulerian_by_recurrence(n),
        )


def permutation_sum_ranks(ns, bound=None):
    """H at full rank is A_n(q,t); at corank one, a sum over derangements."""
    for n in ns:
        yield _compare(
            f"full-rank Hilbert series = q-Eulerian (n={n})",
            chow.hilbert_chain_sum(FamilySpec.vector(n, n)),
            qeuler.q_eulerian_by_recurrence(n),
        )
        if n >= 2:
            yield _compare(
                f"corank-one Hilbert series = derangement sum (n={n})",
                chow.hilbert_recurrence(FamilySpec.vector(n, n - 1)),
                statistic_sum(n, lambda s: (s.maj - s.exc, s.exc - 1) if s.fix == 0 else None, bound),
            )


def monomial_oracle(kind, p, ns):
    """Explicit lattice (level sizes, basis monomials, maximal chains) vs the series at q = p."""
    q_value = 1 if p is None else p
    for n in ns:
        for r in range(1, n + 1):
            spec = FamilySpec(kind, n, r)
            lat = build_explicit(spec, p)
            counts = lat.level_counts()
            if not all(counts[i] == count_above(spec, 0, i, q_value) for i in range(r + 1)):
                yield _entry(f"level sizes {spec} at q={q_value}", False, str(counts))
            dims = chow.basis_monomial_oracle(lat, r)
            symbolic = chow.hilbert_recurrence(spec).subs_q_int(q_value)
            yield _compare(f"monomial oracle {spec} at q={q_value}", dims, symbolic)
            chains = lat.count_maximal_chains()
            product_rule = 1
            for i in range(1, r + 1):
                product_rule *= count_above(spec, i - 1, i, q_value)
            if chains != product_rule:
                yield _entry(f"maximal chains {spec}", False, f"enumerated {chains} != product {product_rule}")


def rank_telescoping(ns):
    """H(vector(n, 1)) plus the difference series up to rank n is A_n(q,t)."""
    for n in ns:
        acc = chow.hilbert_recurrence(FamilySpec.vector(n, 1))
        for j in range(1, n):
            acc = acc + chow.delta_series(n, j)
        yield _compare(f"rank telescoping to full rank (n={n})", acc, qeuler.q_eulerian_by_recurrence(n))


def delta_assembly(ns, bound=None):
    """Difference series assembled from derangement polynomials = the sums over
    permutations with at least n - r fixed points, every r <= n.

    S_n is summed once, q^(maj-exc) t^(n-exc) grouped by fixed points, and
    the groups are added from n fixed points down: with those of at least
    n - r added, the sum is t^(n-r) times the one at r, whose terms carry
    t^(r-exc), so it is held to t^(n-r) times the difference series."""
    for n in ns:
        by_fix = permstat.statistic_sums(n, lambda s: s.fix, lambda s: (s.maj - s.exc, n - s.exc), bound)
        direct = by_fix[n]  # the identity
        for r in range(1, n + 1):
            direct += by_fix.get(n - r, ZERO)
            require_equal(f"difference series (n={n}, r={r})", T ** (n - r) * chow.delta_series(n, r), direct)
        yield _entry(f"difference-coefficient assembly (n={n})", True)


def hilbert_palindromicity(ns):
    """H(t) is palindromic with unit ends, and its Charney-Davis quantity vanishes at even r."""
    failures = []
    for kind in ("uniform", "vector"):
        for n in ns:
            for r in range(1, n + 1):
                spec = FamilySpec(kind, n, r)
                poly = chow.hilbert_recurrence(spec)
                if not poly.is_palindromic_in_t(r - 1):
                    failures.append(_entry(f"palindromicity {spec}", False, poly.to_text()))
                for k in (0, r - 1):
                    if poly.coefficient_in_t(k) != BiPoly.const(1):
                        failures.append(_entry(f"unit end coefficients {spec}", False, poly.to_text()))
                if r % 2 == 0:
                    cd_value = charney.cd_direct(spec)
                    if cd_value.unsigned != BiPoly():
                        failures.append(_entry(f"even-rank cd vanishing {spec}", False, cd_value.unsigned.to_text()))
    yield from failures
    yield _entry(f"palindromicity + even-rank vanishing (n <= {_top(ns)})", not failures)


def q_eulerian_palindromicity(ns):
    """A_n(q,t) is palindromic in t; only a failure is reported."""
    for n in ns:
        poly = qeuler.q_eulerian_by_recurrence(n)
        if not poly.is_palindromic_in_t(n - 1):
            yield _entry(f"q-Eulerian palindromicity (n={n})", False, poly.to_text())


def wachs_fibers(ns, bound=None):
    """The derangement-part fiber over gamma in D_k sums to q^maj(gamma) [n over k]_q, k <= 5.

    Each D_k is listed with its maj once, the first time an n needs it."""
    derangements = []  # derangements[k]: (gamma, maj(gamma)) for gamma in D_k
    for n in ns:
        fibers = permstat.group_by_derangement_part(n, bound)
        while len(derangements) <= min(n, 5):
            walk = permutations_of(len(derangements), bound)
            derangements.append([(gamma, s.maj) for gamma in walk for s in [stats(gamma)] if not s.fix])
        ok, detail = True, ""
        for k in range(min(n, 5) + 1):
            binomial = gauss_binomial(n, k).terms.items()
            for gamma, maj in derangements[k]:
                expected = BiPoly({(qd + maj, 0): c for (qd, _), c in binomial})  # q^maj(gamma) [n over k]_q
                got = fibers.get(gamma, BiPoly())
                if got != expected:
                    ok = False
                    detail = f"dp fiber of {gamma}: {got.to_text()} != {expected.to_text()}"
        yield _entry(f"derangement-part fiber identity (n={n})", ok, detail)


def wachs_refinement(ns, bound=None):
    """sum q^(maj-exc) over (exc = k, fix = i) is [n over i]_q times that over D_(n-i), exc = k.

    Each S_m is summed once, grouped by (exc, fix), the first time an n
    needs it."""
    tables = {}

    def by_exc_fix(m):
        if m not in tables:
            tables[m] = permstat.statistic_sums(m, lambda s: (s.exc, s.fix), lambda s: (s.maj - s.exc, 0), bound)
        return tables[m]

    for n in ns:
        ok, total, table = True, 0, by_exc_fix(n)
        for i in range(n + 1):
            derangements = by_exc_fix(n - i)
            for k in range(n + 1):
                rhs = table.get((k, i), ZERO)
                ok = ok and derangements.get((k, 0), ZERO) * gauss_binomial(n, n - i) == rhs
                total += sum(rhs.terms.values())
        yield _entry(f"derangement/fixed-point refinement (n={n})", ok)
        yield _entry(f"fixed-point partition of n! (n={n})", total == factorial(n))


def derangement_routes(ns, bound=None):
    """D_n(q,t) by its q-EGF recurrence = by fiber inversion of A_n = sum_k [n over k]_q D_k
    = by the sum over permutations without fixed points."""
    by_fibers = []
    for m in range(_top(ns) + 1):
        lower = sum((gauss_binomial(m, k) * by_fibers[k] for k in range(m)), ZERO)
        by_fibers.append(qeuler.q_eulerian_by_recurrence(m) - lower)
    for n in ns:
        by_egf = qeuler.derangement_polynomial(n)
        by_sum = permstat.statistic_sum(n, lambda s: (s.maj - s.exc, s.exc) if s.fix == 0 else None, bound)
        ok = by_egf == by_fibers[n] == by_sum
        detail = f"egf {by_egf.to_text()}, fibers {by_fibers[n].to_text()}, enumeration {by_sum.to_text()}"
        yield _entry(f"derangement polynomial routes (n={n})", ok, "" if ok else detail)


def egf_identity(order, q_one=False):
    """The q-exponential (or, with q_one, classical) generating function through x^order.

    Multiplying the generating function through by its denominator series
    turns the identity at x^m into an identity of polynomials:

        sum_a [m over a]_q A_a(q,t) (t - t^(m-a)) == t - 1        (q-version)
        t*A_m(t) == sum_a C(m,a) A_a(t) (t-1)^(m-a), m >= 1       (q = 1)
    """
    if q_one:
        ok = all(
            sum((comb(m, a) * qeuler.classical_eulerian(a) * (T - ONE) ** (m - a) for a in range(m + 1)), ZERO)
            == T * qeuler.classical_eulerian(m)
            for m in range(1, order + 1)
        )
    else:
        ok = all(
            sum(
                (gauss_binomial(m, a) * qeuler.q_eulerian_by_recurrence(a) * (T - T ** (m - a)) for a in range(m + 1)),
                ZERO,
            )
            == T - ONE
            for m in range(order + 1)
        )
    kind = "classical exponential" if q_one else "q-exponential"
    yield _entry(f"{kind} identity through x^{order}", ok)


def cd_routes(ns):
    """Charney-Davis quantity: each distinct route of `charney.ROUTES` = the
    first (direct) = the printed Hilbert series at t = -1, odd r <= n."""
    mismatches = []
    for n in ns:
        for r in range(1, n + 1, 2):
            spec = FamilySpec.vector(n, r)
            (first, base), *others = _values(charney.ROUTES, spec)
            for name, result in others:
                if result != base:
                    mismatches.append(_mismatch(f"cd({n},{r}) {first} vs {name}", base.unsigned, result.unsigned))
            series = chow.hilbert_recurrence(spec).subs_t_int(-1)
            if series != base.unsigned:
                mismatches.append(_mismatch(f"cd({n},{r}) {first} vs Hilbert series at t = -1", base.unsigned, series))
    yield from mismatches
    yield _entry(f"cd routes agree (odd r <= n <= {_top(ns)})", not mismatches)


def cd_telescoping(ns):
    """Consecutive odd-rank quantities of the Hilbert series differ by one
    T-term of the tangent-secant table."""
    for n in ns:
        for r in range(3, n + 1, 2):
            upper, lower = (charney.cd_direct(FamilySpec.vector(n, k)).unsigned for k in (r, r - 2))
            yield _compare(f"cd telescoping (n={n}, r={r})", upper - lower, charney.t_term(n, (r - 1) // 2))


def tangent_secant_table(top):
    """E_0 .. E_top by the build's two routes, at q and at q = 1, and both
    q = 1 rows, the q-table's values there and the table built there,
    against the tanh + sech oracle."""
    classical = [e.eval(1, 1) for e in charney.tangent_secant(top, False)]
    at_q_one = [e.eval(1, 1) for e in charney.tangent_secant(top, True)]
    yield _entry(f"tangent-secant recurrence = q-Seidel-Entringer triangle (n <= {top})", True)
    oracle = classical_tangent_secant(top)
    yield _entry(
        f"classical values match series oracle (n <= {top})",
        classical == at_q_one == oracle,
        f"table {classical} vs oracle {oracle}" + ("" if at_q_one == classical else f"; built at q = 1 {at_q_one}"),
    )


def secant_determinants(top):
    """The paper's determinants: E_1 .. E_top as the leading minors of two
    Bareiss eliminations, one per parity, = the table.

    The k x k matrix of parity p (0 even, 1 odd) has ones in its first
    column, [2i - p over 2j - 2 - p]_q at 2 <= j <= i + 1 (1-indexed) and
    zeros above the superdiagonal; then E_(2k - p) = (-1)^(k - p) M_k for
    its leading minors M_k.  The even matrix is the paper's T(2a, 2a)
    matrix reflected through its anti-diagonal, and the odd one the
    Hessenberg determinant of tanh_q with its rows scaled by (q;q)_(2i-1).
    Every minor is some +-E_n, so the slots need hold only the largest norm
    bound of `charney._secant_norm_bounds` (`bound=`), not the Hadamard
    bound.  A minor aliased by a bound too small, or missing past a zero
    pivot, is a FAIL entry.
    """
    table = charney.tangent_secant(top, False)
    bound = max(charney._secant_norm_bounds(top))
    by_det = {}
    for odd in (0, 1):
        size = (top + odd) // 2
        matrix = [
            [ONE] + [gauss_binomial(2 * i - odd, 2 * j - 2 - odd) if j <= i + 1 else ZERO for j in range(2, size + 1)]
            for i in range(1, size + 1)
        ]
        for k, minor in enumerate(leading_principal_minors(matrix, bound) if size else [], 1):
            by_det[2 * k - odd] = -minor if (k - odd) % 2 else minor
    for n in range(1, top + 1):
        name = f"E_{n} by determinant"
        if n in by_det:
            yield _compare(name, by_det[n], table[n])
        else:
            yield _entry(name, False, "no minor: zero pivot before it")


def odd_secant_entries(ns):
    """E_{n,q} at odd n is the unsigned full-rank quantity of vector(n, n)."""
    table = charney.tangent_secant(_top(ns), False)
    for n in ns:
        full_rank = charney.cd_direct(FamilySpec.vector(n, n)).unsigned
        yield _compare(f"odd entry = unsigned full-rank cd (n={n})", table[n], full_rank)


def zigzag_numbers(top):
    """[z_0, ..., z_top], the row ends of the Seidel-Entringer (boustrophedon)
    triangle, whose row n is 0 and the partial sums of row n - 1 reversed."""
    row, zigzags = [1], [1]
    for _ in range(top):
        row = list(accumulate(reversed(row), initial=0))
        zigzags.append(row[-1])
    return zigzags


def classical_zigzag_triangle(top):
    """The table's q = 1 row is (-1)^(n // 2) z_n, with z_n from the Seidel-Entringer triangle.

    The table's own triangle route is this triangle with q-weights, so at
    q = 1 this is a check of the same substance; `classical_tangent_secant`
    stays the independent q = 1 oracle."""
    classical = [e.eval(1, 1) for e in charney.tangent_secant(top, False)]
    signed = [(-1) ** (n // 2) * z for n, z in enumerate(zigzag_numbers(top))]
    yield _entry(f"classical values match Seidel-Entringer triangle (n <= {top})", classical == signed,
                 f"table {classical} vs triangle {signed}")


def secant_sums(ns):
    """The unsigned quantity of uniform(n, r), odd r, is sum_k C(n, 2k) E_{2k}."""
    oracle = classical_tangent_secant(_top(ns))
    for n in ns:
        for r in range(1, n + 1, 2):
            classical = sum(comb(n, 2 * k) * oracle[2 * k] for k in range((r - 1) // 2 + 1))
            unsigned = charney.cd_direct(FamilySpec.uniform(n, r)).unsigned
            yield _entry(
                f"secant-sum formula vs unsigned cd (uniform {n},{r})",
                BiPoly.const(classical) == unsigned,
                f"{classical} vs {unsigned.to_text()}",
            )


def odd_secant_collapse(ns):
    """At odd n the full secant sum collapses to E_n: the package's sum
    `charney.cd_qsecant(n, n, q_one=True)`, from the table built at q = 1,
    against the tanh + sech oracle's E_n."""
    oracle = classical_tangent_secant(_top(ns))
    for n in ns:
        yield _entry(f"odd-row secant sum collapses to E_{n}",
                     charney.cd_qsecant(n, n, q_one=True).unsigned == BiPoly.const(oracle[n]))


def alternating_probes(ns, bound=None):
    """Stanley's q-analogue of sec + tan: the sum of q^inv over the up-down
    permutations of [n], walked, is (-1)^(n // 2) E_{n,q}, the table's
    entry, which the build computes by the q-Seidel-Entringer triangle."""
    table = charney.tangent_secant(_top(ns), False)
    for n in ns:
        up_down = (v for v in permutations_of(n, bound) if is_alternating(v))
        walked = BiPoly(Counter((sum(a > b for a, b in combinations(v, 2)), 0) for v in up_down))
        yield _compare(f"alternating probe (n={n})", walked, (-1) ** (n // 2) * table[n])


def full_rank_h_anchor(ns):
    """h of the proper part of the Boolean lattice of [n] is A_n(t)."""
    for n in ns:
        h = ordercx.h_polynomial(ordercx.order_complex_fvector(FamilySpec.uniform(n, n)))
        ok = h == qeuler.classical_eulerian(n)
        yield _entry(f"full-rank h-polynomial anchor (n={n})", ok, "" if ok else h.to_text())


def fvector_routes(ns):
    """Order-complex f-vectors of uniform(n, r): by rank profiles = by lattice chains."""
    for n in ns:
        for r in range(1, n + 1):
            spec = FamilySpec.uniform(n, r)
            by_profiles = ordercx.order_complex_fvector(spec)
            by_chains = ordercx.order_complex_fvector(build_explicit(spec))
            yield _entry(
                f"f-vector routes (uniform {n},{r})", by_profiles == by_chains, f"{by_profiles} vs {by_chains}"
            )


def conjecture_reports(ns):
    """The order-complex identity (r < n) under its full-lattice reading,
    and its bivariate restatement, each checked; the proper-part reading
    is only reported.  A FAIL is a counterexample at that (n, r)."""
    for n in ns:
        for r in range(1, n):
            report = ordercx.conjecture_check(n, r)
            detail = f"equal_full={report['equal']} equal_proper={report['equal_proper']}"
            yield _entry(f"conjecture report (n={n}, r={r})", report["equal"], detail)
        bivariate = ordercx.bivariate_check(n)
        yield _entry(f"bivariate restatement report (n={n})", bivariate["equal"], f"equal={bivariate['equal']}")


# -- suites --------------------------------------------------------------------------


def _contained(identities):
    """The entries of `identities` in order, each identity contained under
    its function's name; SKIPPED means a permutation walk past ``bound``."""
    entries = []
    for identity in identities:
        try:
            for e in identity:
                entries.append(e)
        except ResourceBoundError as e:
            entries.append({"name": identity.__name__, "ok": False, "detail": str(e), "skipped": True})
        except RouteDisagreementError as e:
            entries.append(_entry(identity.__name__, False, str(e)))
    return entries


def _explicit_top(kind, p, n_max):
    """The largest n <= n_max whose full-rank lattice, and so every lattice
    up to it, passes `explicit_size`: 7 for uniform, 4 for p = 2, 3 for p = 3."""
    for n in range(1, n_max + 1):
        try:
            explicit_size(FamilySpec(kind, n, n), p)
        except ResourceBoundError:
            return n - 1
    return n_max


# Each suite runs its identities in report order, with ranges derived from n_max.
SUITES = {
    "route-agreement": lambda n_max, bound=None: _contained([
        hilbert_routes("uniform", range(1, n_max + 1)),
        hilbert_routes("vector", range(1, n_max + 1)),
        q_eulerian_definition(range(min(n_max, 8) + 1), bound),
        permutation_sum_ranks(range(1, n_max + 1), bound),
        cd_routes(range(1, n_max + 1)),
    ]),
    "oracle": lambda n_max, bound=None: _contained([
        monomial_oracle("uniform", None, range(1, _explicit_top("uniform", None, n_max) + 1)),
        monomial_oracle("vector", 2, range(1, _explicit_top("vector", 2, n_max) + 1)),
        monomial_oracle("vector", 3, range(1, _explicit_top("vector", 3, n_max) + 1)),
    ]),
    "telescoping": lambda n_max, bound=None: _contained([
        rank_telescoping(range(1, n_max + 1)),
        delta_assembly(range(1, min(n_max, 6) + 1), bound),
        cd_telescoping(range(1, n_max + 1)),
    ]),
    "palindromicity": lambda n_max, bound=None: _contained([
        hilbert_palindromicity(range(1, n_max + 1)),
        q_eulerian_palindromicity(range(1, n_max + 3)),
    ]),
    "wachs": lambda n_max, bound=None: _contained([
        wachs_fibers(range(min(n_max, 7) + 1), bound),
        wachs_refinement(range(min(n_max, 7) + 1), bound),
        derangement_routes(range(min(n_max, 7) + 1), bound),
    ]),
    "egf": lambda n_max, bound=None: _contained([
        egf_identity(n_max),
        egf_identity(n_max + 2, q_one=True),
    ]),
    "tangent-secant": lambda n_max, bound=None: _contained([
        tangent_secant_table(max(n_max, 10)),
        secant_determinants(max(n_max, 12)),
        odd_secant_entries(range(1, n_max + 1, 2)),
        classical_zigzag_triangle(max(n_max, 10)),
        secant_sums(range(1, n_max + 1)),
        odd_secant_collapse(range(1, max(n_max, 9) + 1, 2)),
        alternating_probes(range(min(n_max, 6) + 1), bound),
    ]),
    "conjecture": lambda n_max, bound=None: _contained([
        full_rank_h_anchor(range(2, n_max + 1)),
        fvector_routes(range(2, _explicit_top("uniform", None, n_max) + 1)),
        conjecture_reports(range(2, n_max + 1)),
    ]),
}


def suite_status(entries):
    """FAIL when a suite ran no check or an entry failed, else SKIPPED when
    an entry was skipped, else PASS."""
    if not entries or any(not e["ok"] and not e.get("skipped") for e in entries):
        return "FAIL"
    return "SKIPPED" if any(e.get("skipped") for e in entries) else "PASS"


def check_suites(n_max, suite="all", bound=None):
    """Run the named suite (or all) and return a JSON-ready report.

    A suite passes when its `suite_status` is PASS.
    """
    names = list(SUITES) if suite == "all" else [suite]
    report = {"n_max": n_max, "suites": [], "ok": True}
    for name in names:
        entries = SUITES[name](n_max, bound)
        passed = suite_status(entries) == "PASS"
        report["suites"].append({"name": name, "passed": passed, "checks": len(entries), "entries": entries})
        if not passed:
            report["ok"] = False
    return report
