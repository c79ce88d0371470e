"""Per-layer spans for one chowlab job, recorded from outside the package.

    PYTHONPATH=src python perfbench/tracer.py SPANS.json JOB_ID -- ARGV...

runs `chowlab ARGV` exactly as `python -m chowlab ARGV` would, after
wrapping the public functions of each package module.  Every wrapped call
records a span (name, start, end, parent, job id) in memory; the spans and
the counters are written to SPANS.json when the job ends.  Nothing is
written to stdout, so the job's stdout must match the untraced digest.

Three details keep the wrapping faithful:

* a name bound by `from ... import` lives in every importing namespace,
  so each wrapped function is rebound wherever any chowlab module holds it;
* `BiPoly.__rmul__` is `__mul__` and `__radd__` is `__add__`: both names
  are rebound to the one wrapper;
* `PermClass.members` is a generator.  The traced version drains it inside
  its span and returns an iterator over the drained list, so the span
  nests inside its caller's; `permstat.enumerated` adds n! per call
  instead of counting `Perm.stats` calls, which would cost more than the
  enumeration it measures.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from math import factorial

# Layer of each span-name prefix; a layer's self time is the sum over its spans.
LAYERS = {
    "bipoly": "exactalg.bipoly",
    "qrat": "exactalg.qrat",
    "series": "exactalg.qrat",
    "det": "exactalg.det",
    "permstat": "permstat",
    "qeuler": "qeuler",
    "flats": "flats",
    "chow": "chow",
    "charney": "charney",
    "ordercx": "ordercx",
    "cli": "cli",
}


class Tracer:
    """In-memory spans and counters of one job."""

    def __init__(self, job):
        self.job = job
        self.spans = []  # (name, start, end, parent index or -1, job)
        self.stack = []
        self.counters = {}

    def wrap(self, name, fn, after=None):
        """`fn` recording a span per call; `after(args, result)` updates counters
        once the span has ended, so counting is not charged to the span."""
        spans, stack, clock, job = self.spans, self.stack, time.perf_counter, self.job

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, job)
            if after is not None:
                after(args, result)
            return result

        return traced

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def high(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0), value)

    def write(self, path, extra):
        with open(path, "w") as f:
            json.dump({"job": self.job, "spans": self.spans, "counters": self.counters, **extra}, f)


def _rebind(original, wrapper, namespaces):
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is original:
                setattr(ns, attr, wrapper)


# Wrapped methods (span, module under chowlab, class, methods) and functions
# (span, module, function).  A name that a later version of the package no
# longer has is skipped, and its metrics read 0.
METHODS = [
    ("bipoly.mul", "exactalg.bipoly", "BiPoly", ("__mul__",)),
    ("bipoly.add", "exactalg.bipoly", "BiPoly", ("__add__",)),
    ("bipoly.divexact", "exactalg.bipoly", "BiPoly", ("divexact",)),
    ("bipoly.render", "exactalg.bipoly", "BiPoly", ("to_text", "to_json_terms", "to_csv_rows")),
    ("bipoly.subs", "exactalg.bipoly", "BiPoly", ("subs_t_int", "subs_q_int", "subs_q_poly", "eval")),
    ("qrat.new", "exactalg.qrat", "QRat", ("__init__",)),
    ("qrat.arith", "exactalg.qrat", "QRat",
     ("__add__", "__neg__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "inverse")),
    ("series", "exactalg.series", "QSeries", ("__init__", "__add__", "__sub__", "__mul__", "scale", "inverse")),
]
FUNCTIONS = [
    ("bipoly.gauss_binomial", "exactalg.bipoly", "gauss_binomial"),
    ("bipoly.q_factorial", "exactalg.bipoly", "q_factorial"),
    ("bipoly.q_pochhammer", "exactalg.bipoly", "q_pochhammer"),
    ("series", "exactalg.series", "cosh_q"),
    ("series", "exactalg.series", "sinh_q"),
    ("series", "exactalg.series", "q_exponential"),
    ("det.fraction_free", "exactalg.det", "det_fraction_free"),
    ("det.rational", "exactalg.det", "det_rational"),
    ("permstat.statistic_sum", "permstat", "statistic_sum"),
    ("permstat.group_by_derangement_part", "permstat", "group_by_derangement_part"),
    ("qeuler.recurrence", "qeuler", "q_eulerian_by_recurrence"),
    ("qeuler.definition", "qeuler", "q_eulerian_by_definition"),
    ("qeuler.classical", "qeuler", "classical_eulerian"),
    ("qeuler.egf", "qeuler", "egf_identity_check"),
    ("flats.build_explicit", "flats", "build_explicit"),
    ("chow.chain_sum", "chow", "hilbert_chain_sum"),
    ("chow.recurrence", "chow", "hilbert_recurrence"),
    ("chow.closed_form", "chow", "hilbert_closed_form"),
    ("chow.oracle", "chow", "basis_monomial_oracle"),
    ("chow.delta", "chow", "delta_series"),
    ("chow.delta_coefficient", "chow", "delta_coefficient"),
    ("chow.q_derangement", "chow", "q_derangement_number"),
    ("charney.cd_direct", "charney", "cd_direct"),
    ("charney.cd_chain", "charney", "cd_chain_alternating"),
    ("charney.cd_determinant", "charney", "cd_determinant"),
    ("charney.cd_qsecant", "charney", "cd_qsecant"),
    ("charney.t_term", "charney", "t_term"),
    ("charney.tangent_secant", "charney", "tangent_secant"),
    ("charney.alternating_probe", "charney", "alternating_probe"),
    ("ordercx.fvector", "ordercx", "order_complex_fvector"),
    ("ordercx.h_polynomial", "ordercx", "h_polynomial"),
    ("ordercx.report", "ordercx", "full_rank_h_check"),
    ("ordercx.report", "ordercx", "conjecture_check"),
    ("ordercx.report", "ordercx", "bivariate_check"),
    ("cli.emit", "cli", "emit_poly"),
    ("cli.main", "cli", "main"),
]


def _module(name):
    try:
        return importlib.import_module(f"chowlab.{name}")
    except ImportError:
        return None


def install(tracer):
    """Wrap the package's public functions; return (cli module, gauss_binomial)."""
    for _, module, *_ in METHODS + FUNCTIONS:
        _module(module)
    modules = [m for name, m in sys.modules.items() if name == "chowlab" or name.startswith("chowlab.")]

    def count_mul(args, result):
        a, b = args
        tracer.add("bipoly.mul.term_pairs", len(a.terms) * (len(b.terms) if hasattr(b, "terms") else 1))
        tracer.high("bipoly.mul.max_terms", len(result.terms))
        tracer.high("bipoly.coeff_bits.max", max((abs(c).bit_length() for c in result.terms.values()), default=0))

    def count_members(args, result):
        tracer.add("permstat.enumerated", factorial(args[0].n))
        tracer.add("permstat.kept", len(result))

    def count_lattice(args, result):
        tracer.add("flats.elements", len(result))

    after = {"bipoly.mul": count_mul, "permstat.members": count_members, "flats.build_explicit": count_lattice}

    for name, module, cls_name, attrs in METHODS:
        cls = getattr(_module(module), cls_name, None)
        for attr in attrs:
            original = vars(cls).get(attr) if cls else None
            if original is not None:
                _rebind(original, tracer.wrap(name, original, after.get(name)), [cls])

    perm_class = getattr(_module("permstat"), "PermClass", None)
    members = getattr(perm_class, "members", None)
    if members is not None:
        drain = tracer.wrap(
            "permstat.members", lambda self, bound=None: list(members(self, bound)), after["permstat.members"]
        )
        perm_class.members = lambda self, bound=None: iter(drain(self, bound))

    gauss_binomial = getattr(_module("exactalg.bipoly"), "gauss_binomial", None)
    for name, module, attr in FUNCTIONS:
        original = getattr(_module(module), attr, None)
        if original is not None:
            _rebind(original, tracer.wrap(name, original, after.get(name)), modules)
    cli = _module("cli")
    for suite, original in list(getattr(cli, "SUITES", {}).items()):
        cli.SUITES[suite] = tracer.wrap(f"cli.suite.{suite}", original)
    # Output the command prints itself (cd and check reports) counts as emit too.
    cli.print = tracer.wrap("cli.emit", print)
    return cli, gauss_binomial


def self_times(spans):
    """Self time of each span: its duration minus the part of it that its
    children cover (the union of the child intervals, clipped to the span)."""
    children = {}
    for name, start, end, parent, job in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for index, (name, start, end, parent, job) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def job_metrics(record):
    """Per-name self time and call count, per-layer self time, and the
    counters of one traced job, as flat metric names."""
    spans = [tuple(s) for s in record["spans"]]
    metrics = dict(record["counters"])
    for (name, *_), self_s in zip(spans, self_times(spans)):
        metrics[f"{name}.self_s"] = metrics.get(f"{name}.self_s", 0.0) + self_s
        metrics[f"{name}.calls"] = metrics.get(f"{name}.calls", 0) + 1
        layer = f"layer.{LAYERS[name.split('.')[0]]}.self_s"
        metrics[layer] = metrics.get(layer, 0.0) + self_s
    metrics["bipoly.gauss_binomial.hits"], metrics["bipoly.gauss_binomial.misses"] = record["gauss_binomial"]
    return metrics


def main(argv):
    spans_path, job, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json JOB_ID -- ARGV...")
    tracer = Tracer(job)
    cli, gauss_binomial = install(tracer)
    try:
        return cli.main(args)
    finally:
        sys.stdout.flush()
        info = gauss_binomial.cache_info() if hasattr(gauss_binomial, "cache_info") else None
        tracer.write(spans_path, {"gauss_binomial": [info.hits, info.misses] if info else [0, 0]})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
