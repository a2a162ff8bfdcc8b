"""Config-driven command line front end.

A job is a JSON file: one matrix, one distribution, a list of conditioning
queries. The report goes to stdout either as aligned human-readable text or
as machine-readable JSON lines (one record per query, keys sorted, exact
coefficients as "num/den" strings), so runs are reproducible byte for byte
in exact mode. Each query is answered from one per-query solve (see `run`).
Computational failures are reported per query and never abort the
siblings; config problems abort before any computation.

Exit status: 0 all queries succeeded, 1 at least one query failed,
2 the config itself was rejected.
"""

import argparse
import json
import math
import sys
from fractions import Fraction

from .conditioning import ConditionalQuery, FiberSolve
from .core import EXACT, FLOAT, Frozen, TransformMatrix
from .distributions import Multinomial, Poisson, Table
from .oracle import oracle_conditional_moment

FLOAT_DIGITS = 12  # significant digits in emitted floats


class ConfigError(ValueError):
    """The job file is malformed or internally inconsistent."""


class JobConfig(Frozen):
    """A validated job, as `parse_config` returns it."""

    __slots__ = ("matrix", "distribution", "queries", "include_pmf", "mode", "output")


def _require(condition, message):
    if not condition:
        raise ConfigError(message)


def _parse_exponents(value, length, what):
    _require(isinstance(value, list), f"{what} must be a list of integers")
    _require(
        all(isinstance(x, int) and not isinstance(x, bool) and x >= 0 for x in value),
        f"{what} must contain nonnegative integers",
    )
    if length is not None:
        _require(len(value) == length, f"{what} must have length {length}")
    return tuple(value)


def _require_numbers(values, what):
    # float(True) and Fraction(True) are 1, so a JSON boolean would pass as one
    _require(not any(isinstance(v, bool) for v in values), f"{what} must be numbers")


def _parse_distribution(node, mode):
    _require(
        isinstance(node, dict) and len(node) == 1,
        'distribution must be an object with exactly one of the keys '
        '"poisson", "multinomial", "table"',
    )
    (tag, body), = node.items()
    if tag == "poisson":
        _require(isinstance(body, dict) and set(body) == {"lambdas"},
                 'poisson takes exactly the field "lambdas"')
        _require(isinstance(body["lambdas"], list), 'poisson "lambdas" must be a list')
        _require_numbers(body["lambdas"], 'poisson "lambdas"')
        _require(
            mode != EXACT,
            'mode "exact" is incompatible with a Poisson distribution: its '
            "generating-function coefficients involve exp(-lambda), which is "
            'irrational; use mode "float"',
        )
        try:
            return Poisson(body["lambdas"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad poisson distribution: {err}") from err
    if tag == "multinomial":
        _require(isinstance(body, dict) and set(body) == {"N", "probs"},
                 'multinomial takes exactly the fields "N" and "probs"')
        _require(isinstance(body["probs"], list), 'multinomial "probs" must be a list')
        _require_numbers(body["probs"], 'multinomial "probs"')
        try:
            return Multinomial(body["N"], body["probs"])
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad multinomial distribution: {err}") from err
    if tag == "table":
        _require(isinstance(body, dict) and set(body) == {"entries"},
                 'table takes exactly the field "entries"')
        _require(isinstance(body["entries"], dict), "table entries must be an object")
        _require_numbers(body["entries"].values(), "table entries")
        entries = {}
        for key, prob in body["entries"].items():
            try:
                outcome = tuple(int(part) for part in key.split(","))
            except ValueError:
                raise ConfigError(
                    f'bad table outcome {key!r}: keys are comma-separated '
                    'exponents like "1,0"'
                ) from None
            entries[outcome] = prob
        try:
            return Table(entries, mode)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"bad table distribution: {err}") from err
    raise ConfigError(f"unknown distribution family {tag!r}")


def parse_config(text: str, mode_override=None, output_override=None) -> JobConfig:
    """Validate the whole job before running any of it."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(f"config is not valid JSON: {err}") from err
    _require(isinstance(raw, dict), "config must be a JSON object")
    allowed = {"matrix", "distribution", "queries", "mode", "output"}
    unknown = set(raw) - allowed
    _require(not unknown, f"unknown config fields: {sorted(unknown)}")
    for key in ("matrix", "distribution", "queries"):
        _require(key in raw, f'config is missing the "{key}" field')

    try:
        matrix = TransformMatrix(raw["matrix"])
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad matrix: {err}") from err

    mode = mode_override or raw.get("mode")
    dist_node = raw["distribution"]
    if mode is None:
        # default by family: Poisson needs floats, everything else is exact
        mode = FLOAT if isinstance(dist_node, dict) and "poisson" in dist_node else EXACT
    _require(mode in (EXACT, FLOAT), f'mode must be "exact" or "float", got {mode!r}')
    output = output_override or raw.get("output") or "human"
    _require(
        output in ("human", "json-like"),
        f'output must be "human" or "json-like", got {output!r}',
    )

    dist = _parse_distribution(dist_node, mode)
    _require(
        matrix.num_sources == dist.dim,
        f"matrix has {matrix.num_sources} columns but the distribution has "
        f"{dist.dim} coordinates",
    )

    _require(isinstance(raw["queries"], list) and raw["queries"],
             "queries must be a nonempty list")
    queries = []
    include_pmf = []
    for idx, node in enumerate(raw["queries"]):
        _require(isinstance(node, dict), f"query {idx} must be an object")
        unknown = set(node) - {"k", "s", "support_bounds", "include_pmf"}
        _require(not unknown, f"query {idx} has unknown fields: {sorted(unknown)}")
        _require("k" in node and "s" in node, f'query {idx} needs "k" and "s"')
        k = _parse_exponents(node["k"], matrix.num_targets, f'query {idx} field "k"')
        s = _parse_exponents(node["s"], matrix.num_sources, f'query {idx} field "s"')
        sb = node.get("support_bounds")
        if sb is not None:
            sb = _parse_exponents(
                sb, matrix.num_sources, f'query {idx} field "support_bounds"'
            )
        queries.append(ConditionalQuery(k, s, sb))
        flag = node.get("include_pmf", False)
        _require(isinstance(flag, bool), f'query {idx} field "include_pmf" must be a boolean')
        include_pmf.append(flag)
    return JobConfig(matrix, dist, queries, include_pmf, mode, output)


def _format_value(value, mode):
    if value is None:
        return None
    if isinstance(value, Fraction) and mode == EXACT:
        return f"{value.numerator}/{value.denominator}"
    return f"{float(value):.{FLOAT_DIGITS}g}"


def _values_agree(a, b) -> bool:
    if isinstance(a, Fraction) and isinstance(b, Fraction):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=1e-9, abs_tol=1e-12)


class Report(Frozen):
    """The rows of one run, one per query; `run` appends them."""

    __slots__ = ("mode", "verified", "rows")

    def __init__(self, mode: str, verified: bool, rows: list | None = None):
        super().__init__(mode, verified, [] if rows is None else rows)

    @property
    def failed(self) -> bool:
        return any(row["error"] is not None for row in self.rows)


def run(job: JobConfig, verify: bool = False, max_pmf_rows: int = 10000) -> Report:
    """Execute every query; failures land in the row, not in the caller,
    which keeps the fields computed before the failure. Each query reads
    every field off one `FiberSolve`, which builds no series; only
    the pmf and the oracle, under `verify`, list the fiber."""
    report = Report(job.mode, verify)
    for idx, (query, want_pmf) in enumerate(zip(job.queries, job.include_pmf)):
        row = {
            "query_index": idx,
            "k": list(query.target),
            "s": list(query.orders),
            "fiber_size": None,
            "prob_Y": None,
            "moment_generic": None,
            "moment_closed_form": None,
            "moment_oracle": None,
            "agree": None,
            "error": None,
            "pmf": None,
        }
        report.rows.append(row)
        try:
            solve = FiberSolve(
                job.distribution, job.matrix, query.target, query.support_bounds
            )
            row["fiber_size"] = solve.fiber_size
            row["prob_Y"] = _format_value(solve.prob_y, job.mode)
            generic = solve.moment(query.orders)
            closed = solve.closed_form(query.orders)
            oracle_value = (
                oracle_conditional_moment(job.distribution, job.matrix, query)
                if verify
                else None
            )
            row["moment_generic"] = _format_value(generic, job.mode)
            row["moment_closed_form"] = _format_value(closed, job.mode)
            row["moment_oracle"] = _format_value(oracle_value, job.mode)
            others = [v for v in (closed, oracle_value) if v is not None]
            if others:
                row["agree"] = all(_values_agree(generic, v) for v in others)
            if want_pmf and solve.fiber_size <= max_pmf_rows:
                pmf = solve.pmf()
                row["pmf"] = [
                    [list(outcome), _format_value(pmf[outcome], job.mode)]
                    for outcome in sorted(pmf)
                ]
        except ValueError as err:
            row["error"] = f"{type(err).__name__}: {err}"
    return report


def render_machine(report: Report) -> str:
    lines = [
        json.dumps(row, sort_keys=True, separators=(",", ":"))
        for row in report.rows
    ]
    return "\n".join(lines) + "\n"


def render_human(report: Report) -> str:
    out = [f"mode={report.mode} verify={'on' if report.verified else 'off'}"]
    for row in report.rows:
        out.append(
            f"query {row['query_index']}: k={tuple(row['k'])} s={tuple(row['s'])}"
        )
        if row["error"] is not None:
            out.append(f"  error        {row['error']}")
            continue
        out.append(f"  fiber size   {row['fiber_size']}")
        out.append(f"  P(Y=k)       {row['prob_Y']}")
        out.append(f"  generic      {row['moment_generic']}")
        if row["moment_closed_form"] is not None:
            out.append(f"  closed form  {row['moment_closed_form']}")
        if row["moment_oracle"] is not None:
            out.append(f"  oracle       {row['moment_oracle']}")
        if row["agree"] is not None:
            out.append(f"  agree        {'yes' if row['agree'] else 'NO'}")
        if row["pmf"] is not None:
            out.append("  conditional pmf:")
            for outcome, value in row["pmf"]:
                out.append(f"    {tuple(outcome)}  {value}")
    return "\n".join(out) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pgflift",
        description="Conditional laws and factorial moments of count vectors "
        "given integer linear aggregates, via truncated generating functions.",
    )
    parser.add_argument("--config", required=True, help="path to a JSON job file")
    parser.add_argument(
        "--verify",
        action="store_true",
        help="recompute every moment with the brute-force oracle and report agreement",
    )
    parser.add_argument("--mode", choices=[EXACT, FLOAT], help="override the config's mode")
    parser.add_argument(
        "--output", choices=["human", "json-like"], help="override the config's output style"
    )
    parser.add_argument(
        "--max-pmf-rows",
        type=int,
        default=10000,
        help="suppress a conditional pmf listing when the fiber's lattice count "
        "exceeds this (default 10000)",
    )
    args = parser.parse_args(argv)
    if args.max_pmf_rows < 0:
        parser.error(f"--max-pmf-rows must be >= 0, got {args.max_pmf_rows}")

    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        print(f"error: cannot read config: {err}", file=sys.stderr)
        return 2
    try:
        job = parse_config(text, mode_override=args.mode, output_override=args.output)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    report = run(job, verify=args.verify, max_pmf_rows=args.max_pmf_rows)
    renderer = render_machine if job.output == "json-like" else render_human
    sys.stdout.write(renderer(report))
    return 1 if report.failed else 0


if __name__ == "__main__":
    sys.exit(main())
