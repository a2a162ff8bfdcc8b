"""Correctness gate: every CLI answer against an independent reference.

Runs outside the timed loop. Exact workloads must equal the brute-force
oracle (`oracle_conditional_moment`, `oracle_conditional_pmf`) exactly.
Float Poisson jobs are checked against a log-space fiber sum computed here
(`math.lgamma` plus log-sum-exp over `enumerate_fiber`), because the
library oracle prices outcomes with `exp(-rate) * rate**x`, which underflows
or overflows at the probe rates. A typed error counts as a correct answer
only when the reference raises the same class.

Outcome of one query:
  ok      the row carries the reference's value or its predicted error,
  failed  anything else: NaN or inf, a value off the reference, or a typed
          error the reference does not predict,
  wrong   (a subset of failed) the program printed a value that is not the
          reference's, instead of refusing with an error.
"""

from __future__ import annotations

import io
import json
import math
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

from pgflift import cli
from pgflift.conditioning import ConditionalQuery
from pgflift.core import EmptyFiber, FiberError
from pgflift.oracle import enumerate_fiber, oracle_conditional_moment, oracle_conditional_pmf

FLOAT_REL_TOL = 1e-9  # the CLI prints 12 significant digits
GOLDENS = ("golden_multinomial", "golden_poisson", "golden_table")


class QueryCheck:
    __slots__ = ("failed", "wrong", "why")

    def __init__(self, failed=False, wrong=False, why=""):
        self.failed, self.wrong, self.why = failed, wrong, why


def _exact_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _poisson_reference(rates, fiber, orders):
    """(P(Y = k), E[falling factorials | Y = k]) over the fiber of k, in log space."""
    logs = [
        math.fsum(x * math.log(rate) - rate - math.lgamma(x + 1)
                  for x, rate in zip(j, rates))
        for j in fiber
    ]
    top = max(logs)
    weights = [math.exp(v - top) for v in logs]
    mass = math.fsum(weights)
    moment = math.fsum(
        w * math.prod(math.perm(x, s) for x, s in zip(j, orders))
        for w, j in zip(weights, fiber)
    ) / mass
    return math.exp(top + math.log(mass)), moment


def _float_matches(text, want) -> bool:
    if text is None:
        return False
    got = float(text)
    return math.isfinite(got) and math.isclose(got, want, rel_tol=FLOAT_REL_TOL,
                                               abs_tol=1e-300)


def _image(matrix, j):
    return tuple(sum(a * x for a, x in zip(row, j)) for row in matrix.rows)


def _lattice_count(matrix, target, caps):
    """Points 0 <= j <= caps with image(j) == target, counted by a dynamic
    program over the coordinates rather than by the oracle's walk."""
    counts = Counter({tuple(target): 1})
    for r in range(matrix.num_sources):
        column = matrix.column(r)
        step = Counter()
        for residual, ways in counts.items():
            for v in range(caps[r] + 1):
                rest = tuple(x - v * a for x, a in zip(residual, column))
                if min(rest) < 0:
                    break
                step[rest] += ways
        counts = step
    return counts[(0,) * matrix.num_targets]


def _exact_mass(dist, matrix, target, caps):
    """P(Y = target) from the distribution's own pmf, without series code."""
    entries = getattr(dist, "entries", None)
    if entries is not None:  # a table: one pass over its outcomes
        return sum((p for j, p in entries.items() if _image(matrix, j) == target),
                   Fraction(0))
    return sum((dist.pmf(j) for j in enumerate_fiber(matrix, target, caps)), Fraction(0))


def _reference(job, query, dist, matrix):
    """(expected row fields, or the FiberError class the reference raises)."""
    k, s = tuple(query["k"]), tuple(query["s"])
    if "poisson" in job["distribution"]:
        rates = job["distribution"]["poisson"]["lambdas"]
        fiber = enumerate_fiber(matrix, k)
        if not fiber:
            return None, EmptyFiber
        prob, moment = _poisson_reference(rates, fiber, s)
        return {"prob_Y": prob, "moment": moment, "fiber_size": len(fiber)}, None
    try:
        moment = oracle_conditional_moment(dist, matrix, ConditionalQuery(k, s))
        pmf = (oracle_conditional_pmf(dist, matrix, k)
               if query.get("include_pmf") else None)
    except FiberError as err:
        return None, type(err)
    caps = dist.support_bound()
    return {"prob_Y": _exact_mass(dist, matrix, k, caps), "moment": moment,
            "pmf": pmf, "fiber_size": _lattice_count(matrix, k, caps)}, None


def _check_row(row, want, want_error, exact):
    if want_error is not None:
        if row["error"] is not None and row["error"].startswith(want_error.__name__ + ":"):
            return QueryCheck()
        if row["error"] is None:
            return QueryCheck(True, True, f"value where the reference raises "
                                          f"{want_error.__name__}")
        return QueryCheck(True, False, f"{row['error']!r}, reference raises "
                                       f"{want_error.__name__}")
    if row["error"] is not None:
        # a refusal where a value exists: failed, but nothing wrong was printed
        return QueryCheck(True, False, f"unpredicted error {row['error']!r}")
    moments = [row["moment_generic"], row["moment_closed_form"], row["moment_oracle"]]
    moments = [m for m in moments if m is not None] or [None]
    if exact:
        good = (row["prob_Y"] == _exact_text(want["prob_Y"])
                and all(m == _exact_text(want["moment"]) for m in moments))
        if want.get("pmf") is not None:
            listed = [[list(j), _exact_text(p)] for j, p in sorted(want["pmf"].items())]
            good = good and row["pmf"] == listed
    else:
        good = (_float_matches(row["prob_Y"], want["prob_Y"])
                and all(_float_matches(m, want["moment"]) for m in moments))
    good = good and row["fiber_size"] == want["fiber_size"]
    if row["agree"] is not None:
        good = good and row["agree"] is True
    if good:
        return QueryCheck()
    return QueryCheck(True, True, f"row {row} disagrees with reference {want}")


def check_job(job: dict, report: str) -> list:
    """One QueryCheck per query of `job`, judging the CLI's json-like report."""
    parsed = cli.parse_config(json.dumps(job))
    rows = [json.loads(line) for line in report.splitlines() if line]
    if len(rows) != len(job["queries"]):
        return [QueryCheck(True, True, "report has the wrong number of rows")
                for _ in job["queries"]]
    checks = []
    for query, row in zip(job["queries"], rows):
        want, want_error = _reference(job, query, parsed.distribution, parsed.matrix)
        checks.append(_check_row(row, want, want_error, parsed.mode == "exact"))
    return checks


def run_cli(argv) -> tuple:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


def check_goldens(data_dir: Path) -> list:
    """Problems found re-running the golden jobs with --verify (empty if none).

    A golden with an `.expected.jsonl` file must reproduce it byte for byte;
    one without must report agreement on every query.
    """
    problems = []
    for name in GOLDENS:
        _, out = run_cli(["--config", str(data_dir / f"{name}.json"), "--verify"])
        expected = data_dir / f"{name}.expected.jsonl"
        if expected.exists():
            if out != expected.read_text(encoding="utf-8"):
                problems.append(f"{name}: report differs from {expected.name}")
        elif not all(json.loads(line)["agree"] is True for line in out.splitlines()):
            problems.append(f"{name}: a query lacks agree: true")
    return problems

