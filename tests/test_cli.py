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

    @pytest.mark.parametrize("value", ["0", "-1", str((os.cpu_count() or 1) + 1)])
    def test_parallelism_out_of_range_rejected_at_parse_time(
        self, capsys, monkeypatch, value
    ):
        from permlab import cli, enumeration

        def no_pool(*args, **kwargs):
            raise AssertionError("workers were started")

        def no_command(args):
            raise AssertionError("the command ran")

        monkeypatch.setattr(enumeration, "_in_workers", no_pool)
        monkeypatch.setattr(cli, "cmd_count", no_command)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--basis", "132", "--max-n", "9", "--parallelism", value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--parallelism" in err
        assert f"between 1 and {os.cpu_count() or 1}" in err

    def test_parallelism_without_fork_rejected_at_parse_time(self, capsys, monkeypatch):
        from permlab import cli

        def no_command(args):
            raise AssertionError("the command ran")

        if (os.cpu_count() or 1) < 2:
            pytest.skip("parallelism 2 is out of range on one CPU")
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(cli, "cmd_count", no_command)
        with pytest.raises(SystemExit) as exc:
            main(["count", "--basis", "132", "--max-n", "9", "--parallelism", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--parallelism: above 1 needs os.fork" in err

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

    @pytest.mark.parametrize("argv", [
        ["enumerate", "--basis", "132", "--max-n", "9"],
        ["stat", "--basis", "132", "--max-n", "9", "--stats", "bond"],
        ["simples", "--basis", "132", "--max-n", "9"],
    ], ids=lambda argv: argv[0])
    def test_parallelism_is_an_option_of_count_only(self, capsys, argv):
        from permlab import enumeration

        cache = enumeration._LEVELS_CACHE
        before = {key: [level[:] for level in levels] for key, levels in cache.items()}
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--parallelism", "2"])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "unrecognized arguments: --parallelism 2" in out.err
        assert cache == before


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

    def test_repeated_stat(self, capsys):
        # the json record of a row has one key per statistic id
        code, out, err = run(capsys, "stat", "--basis", "132", "--max-n", "3",
                             "--stats", "bond,bond", "--format", "json")
        assert code == 2
        assert out == ""
        assert "'bond' is given twice" in err


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

    @pytest.mark.parametrize("argv", [
        ["--all", "--id", "top-values"],
        ["--list-ids", "--id", "top-values"],
        ["--all", "--list-ids"],
    ], ids=["all+id", "list-ids+id", "all+list-ids"])
    def test_conflicting_modes_are_usage_error(self, capsys, monkeypatch, argv):
        from permlab import cli

        def no_run(*args, **kwargs):
            raise AssertionError("a check ran")

        for name in ("run_check", "run_all", "check_ids"):
            monkeypatch.setattr(cli, name, no_run)
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert "not allowed with argument" in out.err

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

    def test_failing_check_json_witness(self, capsys, monkeypatch):
        # the corrupted series of test_failing_check_exit_code, reported in json
        import permlab.series as series_mod
        from permlab.series import MSeries

        original = series_mod.large_schroder_series
        monkeypatch.setattr(
            series_mod, "large_schroder_series",
            lambda order: original(order) + MSeries.var("x", order),
        )
        code, out, _ = run(capsys, "verify", "--id", "schroder-cubic",
                           "--order", "8", "--format", "json")
        assert code == 1
        [report] = json.loads(out)
        assert (report["checkId"], report["maxN"], report["status"]) == (
            "schroder-cubic", 8, "fail"
        )
        # (B + x)^2 + (x - 3)(B + x) + 2 = 2xB + 2x^2 - 3x: -1 at x^1
        assert report["witnesses"] == [
            {"perm": "", "reason": "coefficient of x^1 t^0 u^0: lhs -1 != rhs 0"}
        ]


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


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr) of ``parse(argv)``, which is to exit."""
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


@pytest.mark.parametrize("argv", [
    ["count", "-h"],
    ["count", "--basis", "132", "--max-n", "-1"],
    ["count", "--max-n", "3"],
    ["enumerate", "-h"],
    ["enumerate", "--basis", "132", "--format", "xml"],
    ["enumerate", "--basis", "132", "--parallelism", "2"],
    ["stat", "-h"],
    ["stat", "--basis", "132"],
    ["stat", "--basis", "132", "--stats", "bond", "--max-n", "x"],
    ["simples", "-h"],
    ["simples"],
    ["simples", "--basis", "132", "--order", "3"],
    ["series", "-h"],
    ["series", "--order", "3"],
    ["series", "--name", "catalan", "--format", "csvx"],
    ["verify", "-h"],
    ["verify", "--all", "--id", "top-values"],
    ["verify", "--count-n", "-2"],
], ids=" ".join)
def test_one_command_parser_prints_what_the_full_parser_does(capsys, monkeypatch, argv):
    # main builds only argv[0]'s arguments; help and usage errors must not show it
    from permlab.cli import _build_parser

    monkeypatch.setenv("COLUMNS", "80")
    full = _parse_outcome(capsys, _build_parser().parse_args, argv)
    assert full[0] in (0, 2)
    assert _parse_outcome(capsys, main, argv) == full


def test_start_up_loads_no_executor_and_serial_count_no_pickle():
    # a fresh interpreter: this one has loaded whatever earlier tests needed
    import subprocess
    import sys

    import permlab

    code = (
        "import json, sys\n"
        "import permlab.cli\n"
        "at_import = sorted({'concurrent.futures', 'logging', 'pickle'} & sys.modules.keys())\n"
        "permlab.cli.main(['count', '--basis', '2143,3142,254613', '--max-n', '8'])\n"
        "print(json.dumps([at_import, 'pickle' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(permlab.__file__)))
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    at_import, pickle_after_count = json.loads(done.stdout.splitlines()[-1])
    assert at_import == []
    assert not pickle_after_count
