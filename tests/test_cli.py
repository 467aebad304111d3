"""Command-line interface tests: output formats, exit codes, determinism."""

import json
import os

import pytest

from permlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCount:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "count", "--basis", "2143,3142,254613",
                           "--max-n", "6")
        assert code == 0
        rows = [line.split("\t") for line in out.strip().splitlines()]
        assert [int(r[1]) for r in rows] == [1, 1, 2, 6, 22, 90, 394]

    def test_near_miss_tail(self, capsys):
        code, out, _ = run(capsys, "count", "--basis", "2143,3142",
                           "--max-n", "7")
        counts = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
        assert counts[-2:] == [395, 1823]

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "count", "--basis", "132", "--max-n", "4",
                           "--format", "csv")
        assert out.splitlines()[0] == "n,count"
        assert out.splitlines()[1:] == ["0,1", "1,1", "2,2", "3,5", "4,14"]

    def test_json(self, capsys):
        code, out, _ = run(capsys, "count", "--basis", "132", "--max-n", "3",
                           "--format", "json")
        data = json.loads(out)
        assert data == {"basis": ["132"], "counts": [1, 1, 2, 5]}

    def test_bad_basis_is_usage_error(self, capsys):
        code, _, err = run(capsys, "count", "--basis", "2143,3142,254614",
                           "--max-n", "3")
        assert code == 2
        assert "duplicate value" in err

    def test_mixed_form_rejected(self, capsys):
        code, _, err = run(capsys, "count", "--basis", "2 1,43", "--max-n", "2")
        assert code == 2
        assert "digit string" in err

    def test_parallel_output_identical(self, capsys):
        code1, out1, _ = run(capsys, "enumerate", "--basis", "2413,3142",
                             "--max-n", "6")
        from permlab import enumeration

        enumeration._LEVELS_CACHE.pop(
            enumeration.PatternBasis.from_text("2413,3142").patterns, None
        )
        code2, out2, _ = run(capsys, "enumerate", "--basis", "2413,3142",
                             "--max-n", "6", "--parallelism", "2")
        assert code1 == code2 == 0
        assert out1 == out2

    @pytest.mark.parametrize("value", ["0", "-1", str((os.cpu_count() or 1) + 1)])
    def test_parallelism_out_of_range_rejected_at_parse_time(
        self, capsys, monkeypatch, value
    ):
        from permlab import cli, enumeration

        def no_pool(*args, **kwargs):
            raise AssertionError("a worker pool was started")

        def no_command(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(enumeration, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli, "cmd_count", no_command)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--basis", "132", "--max-n", "9", "--parallelism", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--parallelism" in err
        assert f"between 1 and {os.cpu_count() or 1}" in err

    def test_negative_max_n_with_warm_cache_is_usage_error(self, capsys):
        args = ["count", "--basis", "132"]
        code, _, _ = run(capsys, *args, "--max-n", "5")
        assert code == 0
        with pytest.raises(SystemExit) as exc:
            main([*args, "--max-n", "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--max-n: must be >= 0, got -1" in out.err

    def test_cache_dir_is_not_an_option(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--basis", "132", "--max-n", "3", "--cache-dir", str(tmp_path)])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --cache-dir" in out.err


class TestEnumerateAndSimples:
    def test_enumerate(self, capsys):
        code, out, _ = run(capsys, "enumerate", "--basis", "12", "--max-n", "3")
        assert code == 0
        assert out.strip().splitlines() == ["0\t", "1\t1", "2\t21", "3\t321"]

    def test_simples(self, capsys):
        code, out, _ = run(capsys, "simples", "--basis", "2143,3142,4132",
                           "--max-n", "4", "--format", "csv")
        assert code == 0
        assert out.strip().splitlines() == [
            "n,perm", "0,", "1,1", "2,12", "2,21", "4,2413",
        ]

    def test_simples_parallel_output_identical(self, capsys, monkeypatch):
        from helpers import count_pools
        from permlab import enumeration

        argv = ["simples", "--basis", "2143,3142,4132", "--max-n", "8"]
        patterns = enumeration.PatternBasis.from_text("2143,3142,4132").patterns
        enumeration._LEVELS_CACHE.pop(patterns, None)
        code1, out1, _ = run(capsys, *argv)
        enumeration._LEVELS_CACHE.pop(patterns, None)
        started = count_pools(monkeypatch)
        code2, out2, _ = run(capsys, *argv, "--parallelism", "2")
        assert code1 == code2 == 0
        assert out1 == out2
        assert started == [2]

    def test_simples_negative_max_n_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["simples", "--basis", "132", "--max-n", "-1"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "--max-n: must be >= 0, got -1" in out.err


class TestStat:
    def test_table(self, capsys):
        code, out, _ = run(capsys, "stat", "--basis", "132", "--max-n", "3",
                           "--stats", "bond,lr-min",
                           "--filter", "last-entry-equals-length")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n\tbond\tlr-min\tcount"
        assert "2\t1\t1\t1" in lines

    def test_unknown_stat(self, capsys):
        code, _, err = run(capsys, "stat", "--basis", "132", "--max-n", "3",
                           "--stats", "majorindex")
        assert code == 2
        assert "unknown statistic" in err


class TestSeries:
    def test_univariate_table(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "large-schroder",
                           "--order", "7")
        assert code == 0
        assert out.strip() == "1 1 2 6 22 90 394 1806"

    def test_catalan(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "catalan", "--order", "5")
        assert out.strip() == "1 1 2 5 14 42"

    def test_bivariate_json(self, capsys):
        code, out, _ = run(capsys, "series", "--name", "lead-4132",
                           "--order", "4", "--format", "json")
        data = json.loads(out)
        assert data["name"] == "lead-4132"
        terms = {(d["x"], d["t"], d["u"]): d["coeff"] for d in data["terms"]}
        assert terms[(0, 0, 0)] == "1"
        assert terms[(1, 1, 0)] == "1"  # single permutation of length 1

    def test_unknown_name(self, capsys):
        code, _, err = run(capsys, "series", "--name", "no-such")
        assert code == 2
        assert "unknown series" in err


class TestVerify:
    def test_single_id(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "schroder-cubic",
                           "--order", "20")
        assert code == 0
        assert "pass" in out

    def test_unknown_id(self, capsys):
        code, _, err = run(capsys, "verify", "--id", "no-such")
        assert code == 2
        assert "top-values" in err  # lists valid ids

    def test_list_ids(self, capsys):
        code, out, _ = run(capsys, "verify", "--list-ids")
        assert code == 0
        assert "rebuild-254613" in out.split()

    def test_all_small_budget(self, capsys):
        code, out, _ = run(capsys, "verify", "--all", "--max-n", "4",
                           "--order", "5", "--count-n", "5")
        assert code == 0
        assert "fail" not in out

    @pytest.mark.parametrize("option", ["--max-n", "--order", "--count-n"])
    def test_negative_budget_is_usage_error(self, capsys, monkeypatch, option):
        from permlab import cli

        def no_command(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(cli, "cmd_verify", no_command)
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--id", "strip-132", option, "-2"])
        assert exc.value.code == 2
        assert f"{option}: must be >= 0, got -2" in capsys.readouterr().err

    def test_single_cross_count_runs_at_count_n(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "cross-count", "--count-n", "6",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert [(r["checkId"], r["maxN"], r["status"]) for r in data] == [
            ("cross-count", 6, "pass")
        ]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "verify", "--id", "top-values",
                           "--max-n", "4", "--format", "json")
        data = json.loads(out)
        assert data[0]["checkId"] == "top-values"
        assert data[0]["status"] == "pass"

    def test_failing_check_exit_code(self, capsys, monkeypatch):
        # corrupt one registered series so a verification genuinely fails
        import permlab.series as series_mod
        from permlab.series import MSeries

        original = series_mod.large_schroder_series
        monkeypatch.setattr(
            series_mod, "large_schroder_series",
            lambda order: original(order) + MSeries.var("x", order),
        )
        code, out, _ = run(capsys, "verify", "--id", "schroder-cubic",
                           "--order", "8")
        assert code == 1
        assert "fail" in out


@pytest.mark.parametrize("argv", [
    ["count", "--basis", "132", "--max-n", "3"],
    ["stat", "--basis", "132", "--max-n", "3", "--stats", "bond"],
    ["series", "--name", "catalan", "--order", "3"],
    ["verify", "--id", "top-values", "--max-n", "3"],
], ids=lambda argv: argv[0])
def test_json_output_ends_in_one_newline(capsys, argv):
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    assert out.endswith("}\n") or out.endswith("]\n")
    json.loads(out)
