import json
import pathlib

import pytest

from pgflift.cli import ConfigError, main, parse_config, render_human, render_machine, run

from support import run_cli as cli

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
