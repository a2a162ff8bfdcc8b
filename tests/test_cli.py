import itertools
import json
import math
import pathlib

import pytest
from hypothesis import given, settings, strategies as st

from pgflift import (
    FLOAT,
    ConditionalQuery,
    FiberError,
    Multinomial,
    Poisson,
    Table,
    TruncatedSeries,
    closed_form_moment,
    conditional_factorial_moment,
    conditional_pmf,
    effective_source_bounds,
    enumerate_fiber,
    monomial_image,
    monomial_substitute,
    oracle_conditional_moment,
)
from pgflift import transform
from pgflift.conditioning import FiberSolve
from pgflift.cli import (
    ConfigError,
    JobConfig,
    _format_value,
    _values_agree,
    main,
    parse_config,
    render_human,
    render_machine,
    run,
)

from support import modules_added_by, run_cli as cli, small_laws, small_queries

DATA = pathlib.Path(__file__).parent / "data"


def read(name):
    return (DATA / name).read_text(encoding="utf-8")


class TestParseConfig:
    def test_golden_configs_parse(self):
        for name in (
            "golden_multinomial.json",
            "golden_table.json",
            "golden_poisson.json",
        ):
            job = parse_config(read(name))
            assert len(job.queries) == 4

    def test_dimension_mismatch_fails_before_computation(self):
        cfg = {
            "matrix": [[1, 1]],
            "distribution": {"poisson": {"lambdas": [1.0, 1.0, 1.0]}},
            "queries": [{"k": [2], "s": [0, 0, 0]}],
        }
        with pytest.raises(ConfigError, match="columns"):
            parse_config(json.dumps(cfg))

    def test_exact_mode_rejects_poisson_with_reason(self):
        cfg = {
            "matrix": [[1]],
            "distribution": {"poisson": {"lambdas": [1.0]}},
            "mode": "exact",
            "queries": [{"k": [1], "s": [0]}],
        }
        with pytest.raises(ConfigError, match="irrational"):
            parse_config(json.dumps(cfg))

    def test_mode_defaults_by_family(self):
        poisson = parse_config(read("golden_poisson.json"))
        assert poisson.mode == "float"
        cfg = json.loads(read("golden_multinomial.json"))
        del cfg["mode"]
        assert parse_config(json.dumps(cfg)).mode == "exact"

    def test_overrides_win(self):
        job = parse_config(
            read("golden_multinomial.json"),
            mode_override="float",
            output_override="human",
        )
        assert job.mode == "float"
        assert job.output == "human"

    def test_unknown_fields_rejected(self):
        cfg = json.loads(read("golden_table.json"))
        cfg["plot"] = True
        with pytest.raises(ConfigError, match="unknown config fields"):
            parse_config(json.dumps(cfg))
        cfg = json.loads(read("golden_table.json"))
        cfg["queries"][0]["order"] = [1, 0]
        with pytest.raises(ConfigError, match="unknown fields"):
            parse_config(json.dumps(cfg))

    def test_query_shape_errors(self):
        cfg = json.loads(read("golden_table.json"))
        del cfg["queries"][0]["s"]
        with pytest.raises(ConfigError, match='needs "k" and "s"'):
            parse_config(json.dumps(cfg))
        cfg = json.loads(read("golden_table.json"))
        cfg["queries"][0]["k"] = [1, 2]
        with pytest.raises(ConfigError, match="length 1"):
            parse_config(json.dumps(cfg))

    def test_bad_table_key(self):
        cfg = {
            "matrix": [[1]],
            "distribution": {"table": {"entries": {"a": "1/1"}}},
            "queries": [{"k": [0], "s": [0]}],
        }
        with pytest.raises(ConfigError, match="comma-separated"):
            parse_config(json.dumps(cfg))

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            parse_config("matrix = 1")


class TestRun:
    def test_flagship_row_with_verify(self):
        job = parse_config(read("golden_poisson.json"))
        report = run(job, verify=True)
        row = report.rows[0]
        assert row["error"] is None
        assert float(row["moment_generic"]) == pytest.approx(5.0 / 3.0, rel=1e-9)
        assert row["moment_generic"] == row["moment_closed_form"] == row["moment_oracle"]
        assert row["agree"] is True
        assert not report.failed

    def test_verify_never_changes_generic_values(self):
        job = parse_config(read("golden_poisson.json"))
        plain = run(job, verify=False)
        checked = run(job, verify=True)
        for a, b in zip(plain.rows, checked.rows):
            assert a["moment_generic"] == b["moment_generic"]
            assert a["moment_oracle"] is None
            assert b["moment_oracle"] is not None

    def test_failed_query_does_not_abort_siblings(self):
        cfg = {
            "matrix": [[1, 1]],
            "distribution": {"multinomial": {"N": 2, "probs": ["1/2", "1/2"]}},
            "queries": [{"k": [3], "s": [0, 0]}, {"k": [2], "s": [1, 0]}],
        }
        report = run(parse_config(json.dumps(cfg)))
        assert report.rows[0]["error"] is not None
        assert "ZeroProbability" in report.rows[0]["error"]
        assert report.rows[1]["error"] is None
        assert report.rows[1]["moment_generic"] == "1/1"
        assert report.failed

    def test_tiny_poisson_weights_give_a_value(self):
        # every weight of Poisson(700) at k = 1 is below 1e-300
        cfg = {
            "matrix": [[1]],
            "distribution": {"poisson": {"lambdas": [700.0]}},
            "queries": [{"k": [1], "s": [1]}],
        }
        row = run(parse_config(json.dumps(cfg)), verify=True).rows[0]
        assert row["error"] is None
        assert row["moment_generic"] == row["moment_closed_form"] == row["moment_oracle"]
        assert float(row["moment_generic"]) == 1.0
        assert row["agree"] is True

    def test_pmf_row_cap(self):
        job = parse_config(read("golden_multinomial.json"))
        capped = run(job, max_pmf_rows=2)
        assert capped.rows[0]["fiber_size"] == 15
        assert capped.rows[0]["pmf"] is None
        full = run(job)
        assert full.rows[0]["pmf"] is not None

    def test_human_rendering_smoke(self):
        job = parse_config(read("golden_table.json"))
        text = render_human(run(job, verify=True))
        assert "mode=exact verify=on" in text
        assert "P(Y=k)       1/4" in text
        assert "error        ZeroProbability" in text
        assert "agree        yes" in text
        assert "conditional pmf:" in text

    def test_machine_rendering_is_sorted_jsonl(self):
        job = parse_config(read("golden_multinomial.json"))
        text = render_machine(run(job))
        lines = text.strip().split("\n")
        assert len(lines) == 4
        for line in lines:
            row = json.loads(line)
            assert list(row) == sorted(row)


class TestColdStart:
    def test_cli_import_adds_only_pgflift_to_its_stdlib_needs(self):
        """Every CLI run pays for what `import pgflift.cli` loads. Past the
        standard modules the front end needs (whatever those load on this
        Python), that is pgflift alone: no dataclasses, whose inspect pulls
        in ast, dis and tokenize."""
        cli_added = modules_added_by("import pgflift.cli")
        needed = modules_added_by("import argparse, json, fractions, functools, math")
        assert {"dataclasses", "inspect"}.isdisjoint(cli_added)
        assert {name.split(".")[0] for name in cli_added - needed} == {"pgflift"}


class TestMainExitCodes:
    def test_success(self, tmp_path):
        assert main(["--config", str(DATA / "golden_multinomial.json")]) == 0

    def test_query_failure(self, capsys):
        assert main(["--config", str(DATA / "golden_table.json")]) == 1
        out = capsys.readouterr().out
        assert "ZeroProbability" in out

    def test_missing_config_file(self, tmp_path):
        assert main(["--config", str(tmp_path / "nope.json")]) == 2

    def test_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"matrix": [[1]]}', encoding="utf-8")
        assert main(["--config", str(bad)]) == 2
        assert "missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "matrix, distribution, message",
        [
            # a string would be read one character per coordinate
            ([[1, 1]], {"poisson": {"lambdas": "12"}}, '"lambdas" must be a list'),
            ([[1]], {"multinomial": {"N": 1, "probs": "1"}}, '"probs" must be a list'),
            # json reads the NaN literal as a float
            ([[1]], {"table": {"entries": {"0": math.nan, "1": 1.0}}}, "finite"),
            # a boolean would be read as the number 1
            ([[1, 1]], {"poisson": {"lambdas": [True, 2]}}, '"lambdas" must be numbers'),
            ([[1, 1]], {"multinomial": {"N": 1, "probs": [True, 0]}},
             '"probs" must be numbers'),
            ([[1]], {"table": {"entries": {"0": True}}}, "entries must be numbers"),
        ],
    )
    def test_malformed_distribution_is_a_config_error(
        self, tmp_path, capsys, matrix, distribution, message
    ):
        cfg = {
            "matrix": matrix,
            "distribution": distribution,
            "mode": "float",
            "queries": [{"k": [0], "s": [0] * len(matrix[0])}],
        }
        path = tmp_path / "job.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["--config", str(path)]) == 2
        assert message in capsys.readouterr().err

    def test_negative_max_pmf_rows_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--config", str(DATA / "golden_multinomial.json"), "--max-pmf-rows", "-3"])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--max-pmf-rows must be >= 0" in err

    def test_mode_override_flag_rejects_poisson(self, capsys):
        code = main(
            ["--config", str(DATA / "golden_poisson.json"), "--mode", "exact"]
        )
        assert code == 2
        assert "irrational" in capsys.readouterr().err


class TestDeterminism:
    def test_exact_goldens_are_byte_stable(self):
        for name, wanted_code in (
            ("golden_multinomial", 0),
            ("golden_table", 1),
        ):
            code, out, _ = cli(
                "--config", str(DATA / f"{name}.json"), "--verify"
            )
            assert code == wanted_code
            expected = (DATA / f"{name}.expected.jsonl").read_bytes()
            assert out == expected

    def test_float_run_is_reproducible(self):
        args = ("--config", str(DATA / "golden_poisson.json"), "--verify")
        first = cli(*args)
        second = cli(*args)
        assert first == second
        assert first[0] == 0


class TestOneSolvePerQuery:
    @pytest.mark.parametrize(
        "name", ["golden_poisson.json", "golden_multinomial.json", "golden_table.json"]
    )
    def test_generic_reads_build_no_series(self, name, monkeypatch):
        # fiber_size, prob_y, the generic moment and the pmf are sums over
        # the fiber: no source pgf, no joint series, no series at all
        job = parse_config(read(name))
        calls = []

        def counting(kind, fn):
            def wrapper(*args, **kwargs):
                calls.append(kind)
                return fn(*args, **kwargs)
            return wrapper

        for cls in (Poisson, Multinomial, Table):
            monkeypatch.setattr(cls, "pgf", counting("pgf", cls.pgf))
        monkeypatch.setattr(transform, "joint_pgf", counting("joint", transform.joint_pgf))
        monkeypatch.setattr(
            TruncatedSeries, "__init__", counting("series", TruncatedSeries.__init__)
        )
        for query in job.queries:
            solve = FiberSolve(
                job.distribution, job.matrix, query.target, query.support_bounds
            )
            fields = [
                lambda: solve.fiber_size,
                lambda: solve.prob_y,
                lambda: solve.moment(query.orders),
                solve.pmf,
            ]
            for field in fields:
                try:
                    field()
                except FiberError:
                    pass
            assert calls == []


def expected_row(job, index, query, want_pmf, verify, max_pmf_rows):
    """A report row assembled from the public functions, one call per field,
    in the order the command line fills the row. prob_Y is the push of the
    source pgf, exactly in exact mode."""
    dist, matrix, mode = job.distribution, job.matrix, job.mode
    row = {
        "query_index": index, "k": list(query.target), "s": list(query.orders),
        "fiber_size": None, "prob_Y": None, "moment_generic": None,
        "moment_closed_form": None, "moment_oracle": None, "agree": None,
        "error": None, "pmf": None,
    }
    try:
        bounds = effective_source_bounds(dist, matrix, query.target, query.support_bounds)
        row["fiber_size"] = len(enumerate_fiber(matrix, query.target, bounds))
        pushed = monomial_substitute(
            dist.pgf(bounds), matrix, query.target, check_coverage=False
        ).coefficient(query.target)
        if mode == FLOAT:
            # the fiber walk adds in another order than the push: within
            # 1e-12 relative, and the row prints the walk's value
            walked = FiberSolve(dist, matrix, query.target, query.support_bounds).prob_y
            assert walked == pytest.approx(pushed, rel=1e-12, abs=0.0)
            pushed = walked
        row["prob_Y"] = _format_value(pushed, mode)
        generic = conditional_factorial_moment(dist, matrix, query)
        closed = closed_form_moment(dist, matrix, query)
        oracle = oracle_conditional_moment(dist, matrix, query) if verify else None
        row["moment_generic"] = _format_value(generic, mode)
        row["moment_closed_form"] = _format_value(closed, mode)
        row["moment_oracle"] = _format_value(oracle, mode)
        others = [v for v in (closed, oracle) if v is not None]
        if others:
            row["agree"] = all(_values_agree(generic, v) for v in others)
        if want_pmf and row["fiber_size"] <= max_pmf_rows:
            pmf = conditional_pmf(dist, matrix, query.target, query.support_bounds)
            row["pmf"] = [[list(j), _format_value(pmf[j], mode)] for j in sorted(pmf)]
    except ValueError as err:
        row["error"] = f"{type(err).__name__}: {err}"
    return row


@st.composite
def small_jobs(draw):
    """(job, verify, max_pmf_rows): one small law, exact tables also in float
    mode, and one to three queries. Half the targets are images of a
    support point, so most of those rows succeed; queries without caps on a
    Poisson law with a zero column give UnboundedFiber rows."""
    dist, matrix = draw(small_laws())
    if isinstance(dist, Table) and draw(st.booleans()):
        dist = Table(dist.entries, FLOAT)
    if isinstance(dist, Poisson):
        support = list(itertools.product(range(3), repeat=dist.dim))
    else:
        support = sorted(dist.pgf().terms)
    queries = []
    for _ in range(draw(st.integers(1, 3))):
        target, caps, orders = draw(small_queries(dist, matrix))
        if draw(st.booleans()):
            target = monomial_image(matrix, draw(st.sampled_from(support)))
        if draw(st.integers(0, 4)) == 0:
            caps = None
        queries.append(ConditionalQuery(target, orders, caps))
    include_pmf = [draw(st.booleans()) for _ in queries]
    job = JobConfig(matrix, dist, queries, include_pmf, dist.mode, "json-like")
    return job, draw(st.booleans()), draw(st.integers(0, 20))


class TestRowsMatchThePublicFunctions:
    @given(small_jobs())
    @settings(max_examples=150, deadline=None)
    def test_each_row_equals_the_per_field_calls(self, case):
        job, verify, max_pmf_rows = case
        report = run(job, verify=verify, max_pmf_rows=max_pmf_rows)
        for index, (query, want_pmf) in enumerate(zip(job.queries, job.include_pmf)):
            want = expected_row(job, index, query, want_pmf, verify, max_pmf_rows)
            assert report.rows[index] == want

    def test_error_rows_keep_fiber_size_and_prob_y(self):
        job = parse_config(read("golden_table.json"))
        rows = [
            expected_row(job, i, q, p, True, 10000)
            for i, (q, p) in enumerate(zip(job.queries, job.include_pmf))
        ]
        assert run(job, verify=True).rows == rows
        assert rows[2]["error"].startswith("ZeroProbability")
        assert (rows[2]["fiber_size"], rows[2]["prob_Y"]) == (1, "0/1")
