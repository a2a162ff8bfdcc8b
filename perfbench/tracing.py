"""Outside-in tracing of pgflift: timing wrappers installed from here.

The library is not edited. `Tracer.install` replaces each traced function
where its callers look it up: every pgflift module attribute bound to the
function (so `pgflift.cli.pgf_of_Y` and `pgflift.conditioning.pgf_of_Y` are
both wrapped), and class attributes for methods such as `Multinomial.pgf`
and `TruncatedSeries.__mul__`. `uninstall` puts the originals back.

A span is (name, start, end, parent index, job id, meta). Spans are kept in
memory and written out by `write_spans` when the run ends. A span's self
time is its duration minus the durations of its direct children, so the
self times of one job add up to the job's traced wall time.

`layer_metrics` turns the spans into the per-layer metrics listed in
BENCHMARK.json; README.md says which end-to-end metric each should move.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import Counter, defaultdict

import pgflift
from pgflift import cli, conditioning, core, distributions, oracle, series, transform
from pgflift.distributions import Multinomial, Poisson, Table
from pgflift.series import TruncatedSeries

MODULES = (pgflift, core, series, transform, distributions, conditioning, oracle, cli)


def _terms_out(args, kwargs, result):
    return len(result.terms) if result is not None else 0


def _init_terms(args, kwargs, result):
    terms = args[3] if len(args) > 3 else kwargs.get("terms")
    return len(terms) if terms else 0


def _mul_meta(args, kwargs, result):
    # (term pairs tried, terms in the product); scalar products try no pairs
    left, right = args[0], args[1]
    if result is None or not isinstance(right, TruncatedSeries):
        return (0, 0)
    return (len(left.terms) * len(right.terms), len(result.terms))


def _terms_in_out(args, kwargs, result):
    return (len(args[0].terms), len(result.terms) if result is not None else 0)


def _len_result(args, kwargs, result):
    return len(result) if result is not None else 0


# (span name, owner, attribute, meta extractor)
SPANNED = (
    ("cli.main", cli, "main", None),
    ("cli.parse_config", cli, "parse_config", None),
    ("cli.run", cli, "run", None),
    ("cli.render_machine", cli, "render_machine", None),
    ("cli.render_human", cli, "render_human", None),
    ("conditioning.pgf_of_Y", conditioning, "pgf_of_Y", None),
    ("conditioning.conditional_factorial_moment", conditioning,
     "conditional_factorial_moment", None),
    ("conditioning.closed_form_moment", conditioning, "closed_form_moment", None),
    ("conditioning.poisson_conditional_moment", conditioning,
     "poisson_conditional_moment", None),
    ("conditioning.multinomial_conditional_moment", conditioning,
     "multinomial_conditional_moment", None),
    ("conditioning.conditional_pmf", conditioning, "conditional_pmf", None),
    ("distributions.Poisson.pgf", Poisson, "pgf", _terms_out),
    ("distributions.Multinomial.pgf", Multinomial, "pgf", _terms_out),
    ("distributions.Table.pgf", Table, "pgf", _terms_out),
    ("series.init", TruncatedSeries, "__init__", _init_terms),
    ("series.mul", TruncatedSeries, "__mul__", _mul_meta),
    ("series.partial_derivative", TruncatedSeries, "partial_derivative", None),
    ("series.exp_truncated", series, "exp_truncated", None),
    ("transform.joint_pgf", transform, "joint_pgf", _terms_in_out),
    ("transform.monomial_substitute", transform, "monomial_substitute", _terms_in_out),
    ("oracle.enumerate_fiber", oracle, "enumerate_fiber", _len_result),
    ("oracle.oracle_conditional_moment", oracle, "oracle_conditional_moment", None),
)

# called too often for a span each: counted only, their time stays in the caller
COUNTED = (
    ("core.check_exponents", core, "check_exponents"),
    ("core.monomial_image", core, "monomial_image"),
    ("distributions.pmf", Poisson, "pmf"),
    ("distributions.pmf", Multinomial, "pmf"),
    ("distributions.pmf", Table, "pmf"),
)

PGF_SPANS = ("distributions.Poisson.pgf", "distributions.Multinomial.pgf",
             "distributions.Table.pgf")
CLOSED_FORM_SPANS = ("conditioning.closed_form_moment",
                     "conditioning.poisson_conditional_moment",
                     "conditioning.multinomial_conditional_moment")


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.job = -1
        self._stack = []
        self._restore = []

    def _span(self, name, fn, meta):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.job,
                                meta(args, kwargs, result) if meta else None)

        return traced

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch(self, owner, attr, make_wrapper):
        original = owner.__dict__[attr]
        wrapper = make_wrapper(original)
        owners = [owner]
        if not isinstance(owner, type):
            owners = [m for m in MODULES if getattr(m, attr, None) is original]
        for target in owners:
            setattr(target, attr, wrapper)
            self._restore.append((target, attr, original))

    def install(self):
        for name, owner, attr, meta in SPANNED:
            self._patch(owner, attr, lambda fn, n=name, m=meta: self._span(n, fn, m))
        for name, owner, attr in COUNTED:
            self._patch(owner, attr, lambda fn, n=name: self._counter(n, fn))

    def uninstall(self):
        while self._restore:
            target, attr, original = self._restore.pop()
            setattr(target, attr, original)


def write_spans(spans, path):
    """One JSON line per span, times in microseconds from the first span."""
    origin = spans[0][1] if spans else 0.0
    with gzip.open(path, "wt", encoding="utf-8") as out:
        for name, start, end, parent, job, meta in spans:
            out.write(json.dumps([name, round((start - origin) * 1e6, 1),
                                  round((end - origin) * 1e6, 1), parent, job, meta]))
            out.write("\n")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rows_per_job, untraced_s, traced_s) -> tuple:
    """(per-layer metrics as {name: (value, unit)}, problems that make the run
    incorrect). Times and counts are per job.

    rows_per_job[j] holds the parsed report rows of traced job j, which say
    which queries were answered. untraced_s and traced_s are the summed wall
    times of the same jobs run without and with the wrappers.
    """
    spans, jobs = tracer.spans, len(rows_per_job)
    self_s = defaultdict(float)
    incl_s = defaultdict(float)
    calls = Counter()
    meta_sum = defaultdict(lambda: [0, 0])
    for name, start, end, parent, job, meta in spans:
        duration = end - start
        self_s[name] += duration
        incl_s[name] += duration
        calls[name] += 1
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
        if meta is not None:
            pair = meta if isinstance(meta, tuple) else (meta, 0)
            meta_sum[name][0] += pair[0]
            meta_sum[name][1] += pair[1]

    # Per-query figures come from the clean jobs, those whose every query was
    # answered: there, a job's builds and fiber points belong to its queries
    # whatever order the CLI does its work in.
    clean = {job for job, rows in enumerate(rows_per_job)
             if rows and all(row["error"] is None for row in rows)}
    clean_queries = sum(len(rows_per_job[job]) for job in clean)
    clean_fiber_points = sum(row["fiber_size"] for job in clean
                             for row in rows_per_job[job])
    clean_builds = clean_terms = 0
    for name, start, end, parent, job, meta in spans:
        if name in PGF_SPANS and job in clean:
            clean_builds += 1
            clean_terms += meta
    problems = [] if clean else ["trace: no job had every query answered, so "
                                 "pgf_calls_per_query and fiber_hit_ratio are undefined"]

    def per_job(value):
        return value / jobs

    pgf_terms = sum(meta_sum[n][0] for n in PGF_SPANS)
    generic_incl = incl_s["conditioning.conditional_factorial_moment"]
    oracle_incl = incl_s["oracle.oracle_conditional_moment"]
    mul_pairs, mul_out = meta_sum["series.mul"]
    m = {
        "distributions.pgf_s": (per_job(sum(self_s[n] for n in PGF_SPANS)), "s/job"),
        "distributions.pgf_terms": (per_job(pgf_terms), "count/job"),
        "distributions.pgf_calls_per_query": (_ratio(clean_builds, clean_queries), "count"),
        "distributions.pmf_calls": (per_job(tracer.counts["distributions.pmf"]), "count/job"),
        "series.mul_s": (per_job(self_s["series.mul"]), "s/job"),
        "series.mul_term_pairs": (per_job(mul_pairs), "count/job"),
        "series.mul_yield": (_ratio(mul_out, mul_pairs), "ratio"),
        "series.exp_s": (per_job(self_s["series.exp_truncated"]), "s/job"),
        "series.exp_calls": (per_job(calls["series.exp_truncated"]), "count/job"),
        "series.derivative_s": (per_job(self_s["series.partial_derivative"]), "s/job"),
        "series.init_s": (per_job(self_s["series.init"]), "s/job"),
        "series.init_terms": (per_job(meta_sum["series.init"][0]), "count/job"),
        "transform.joint_s": (per_job(self_s["transform.joint_pgf"]), "s/job"),
        "transform.joint_terms_in": (per_job(meta_sum["transform.joint_pgf"][0]), "count/job"),
        "transform.joint_terms_out": (per_job(meta_sum["transform.joint_pgf"][1]), "count/job"),
        "transform.substitute_s": (per_job(self_s["transform.monomial_substitute"]), "s/job"),
        "transform.substitute_terms_in": (
            per_job(meta_sum["transform.monomial_substitute"][0]), "count/job"),
        "conditioning.generic_s": (
            per_job(self_s["conditioning.conditional_factorial_moment"]), "s/job"),
        "conditioning.generic_incl_s": (per_job(generic_incl), "s/job"),
        "conditioning.closed_form_s": (
            per_job(sum(self_s[n] for n in CLOSED_FORM_SPANS)), "s/job"),
        "conditioning.pgf_of_Y_s": (per_job(self_s["conditioning.pgf_of_Y"]), "s/job"),
        "conditioning.pgf_of_Y_calls": (per_job(calls["conditioning.pgf_of_Y"]), "count/job"),
        "conditioning.pmf_s": (per_job(self_s["conditioning.conditional_pmf"]), "s/job"),
        "conditioning.fiber_hit_ratio": (_ratio(clean_fiber_points, clean_terms), "ratio"),
        "oracle.enumerate_s": (per_job(self_s["oracle.enumerate_fiber"]), "s/job"),
        "oracle.fiber_points": (per_job(meta_sum["oracle.enumerate_fiber"][0]), "count/job"),
        "oracle.moment_s": (per_job(self_s["oracle.oracle_conditional_moment"]), "s/job"),
        "oracle.moment_incl_s": (per_job(oracle_incl), "s/job"),
        "oracle.pipeline_ratio": (_ratio(generic_incl, oracle_incl), "ratio"),
        "cli.parse_s": (per_job(self_s["cli.parse_config"]), "s/job"),
        "cli.run_self_s": (per_job(self_s["cli.run"]), "s/job"),
        "cli.render_s": (
            per_job(self_s["cli.render_machine"] + self_s["cli.render_human"]), "s/job"),
        "cli.pmf_rows": (
            per_job(sum(len(r["pmf"] or ()) for rows in rows_per_job for r in rows)),
            "count/job"),
        "core.check_exponents_calls": (
            per_job(tracer.counts["core.check_exponents"]), "count/job"),
        "core.monomial_image_calls": (
            per_job(tracer.counts["core.monomial_image"]), "count/job"),
        "trace.untraced_job_s": (per_job(untraced_s), "s/job"),
        "trace.traced_job_s": (per_job(traced_s), "s/job"),
        "trace.overhead_frac": (_ratio(traced_s - untraced_s, untraced_s), "ratio"),
    }
    return m, problems
