"""The committed job pool of each workload and the seeded pass generator.

A workload is a list of slots.  A slot lists interchangeable variants and
each variant is a list of CLI queries, as long as every other variant of
the slot and of about the same total cost (measured on 2 vCPU, Python
3.11).  A pass takes one variant per slot and gives every query an output
format, all drawn from the seed, then shuffles the order.  Because the
variants of a slot cost about the same, the seed changes which inputs run
without moving the cost of a pass by much, so runs with different seeds
stay comparable.

The program only ever sees the generated argv.
"""

from __future__ import annotations

import random

QUERY_FORMATS = ("text", "json", "csv")
CHECK_FORMATS = ("text", "json")


def _hilbert(n, r, method=None, family="vector"):
    argv = f"hilbert --family {family} --n {n} --r {r}"
    return argv + (f" --method {method}" if method else "")


def _cd(n, r, method):
    return f"cd --family vector --n {n} --r {r} --method {method}"


WORKLOADS = {
    # BiPoly multiplies of large operands (recurrence and chain routes).
    "symbolic": [
        [[_hilbert(20, 20), _hilbert(18, 13)], [_hilbert(19, 19), _hilbert(18, 18)]],
        [
            [_hilbert(21, 14), _hilbert(19, 13)],
            [_hilbert(20, 14), _hilbert(21, 13)],
            [_hilbert(19, 14), _hilbert(20, 13)],
        ],
        [
            [_cd(19, 19, "chain"), _cd(17, 17, "direct")],
            [_cd(19, 17, "direct"), _cd(17, 17, "direct")],
        ],
        [["qeulerian --n 16", "qeulerian --n 18"], ["qeulerian --n 17", "qeulerian --n 17"]],
    ],
    # n! enumeration: exactly one n = 9 job per pass, the rest at n = 8.
    "enumerative": [
        [[f"delta --n 9 --r {r}"] for r in range(3, 9)]
        + [[_hilbert(9, 8, "closed", family)] for family in ("uniform", "vector")],
    ]
    + [
        [[f"delta --n 8 --r {r}"] for r in range(1, 8)]
        + [[_hilbert(8, r, "closed", family)] for r in range(5, 8) for family in ("uniform", "vector")]
    ]
    * 4,
    # QRat normalisation: the tangent-secant series and rational determinants.
    "rational": [
        [["secant --n 16"], ["secant --n 16 --q1"]],
        [["secant --n 15"], ["secant --n 15 --q1"]],
        [["secant --n 14"], ["secant --n 14 --q1"]],
        [["secant --n 13"], ["secant --n 13 --q1"]],
        [
            ["secant --n 12"],
            ["secant --n 12 --q1"],
            [_cd(15, 15, "det")],
            [_cd(13, 13, "qsecant")],
            [_cd(15, 13, "qsecant")],
        ],
        [
            [_cd(11, 11, "det")],
            [_cd(11, 11, "qsecant")],
            [_cd(13, 11, "det")],
            [_cd(13, 11, "qsecant")],
            [_cd(15, 13, "det")],
            [_cd(15, 11, "qsecant")],
        ],
    ],
    # The suite runner at small sizes: flats, the monomial oracle, ordercx.
    "check-sweep": [
        [["check --suite all --nmax 6 --format text"]],
        [["check --suite all --nmax 6 --format json"]],
        [["check --suite oracle --nmax 8"]],
        [["check --suite conjecture --nmax 8"]],
        [["check --suite palindromicity --nmax 8"]],
        [["check --suite egf --nmax 8"]],
    ],
}


def is_check(argv):
    return argv[0] == "check"


def _formats(query):
    return CHECK_FORMATS if query.startswith("check") else QUERY_FORMATS


def make_pass(workload, seed):
    """The pass of `workload` for `seed`: a list of argv tuples."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    for slot in WORKLOADS[workload]:
        for query in rng.choice(slot):
            if "--format" not in query:
                query += f" --format {rng.choice(_formats(query))}"
            jobs.append(tuple(query.split()))
    rng.shuffle(jobs)
    return jobs


def pool(workload):
    """Every argv a pass of `workload` can contain, without repeats."""
    jobs = {}
    for slot in WORKLOADS[workload]:
        for variant in slot:
            for query in variant:
                formats = ("",) if "--format" in query else [f" --format {f}" for f in _formats(query)]
                for suffix in formats:
                    argv = tuple((query + suffix).split())
                    jobs[argv] = None
    return list(jobs)
