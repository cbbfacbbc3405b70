import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import liarsim
from liarsim import cli, runner
from liarsim.cli import (
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    cmd_run,
    main,
    oracle_dump,
    parse_config_file,
)


def fresh_python(*args: str) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that imports liarsim from this checkout."""
    src = str(Path(liarsim.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestOracleDump:
    def test_required_analytic_lines(self):
        text = oracle_dump()
        assert "P(A_pair=00 | holds j1,j2) = 1/3" in text
        assert "P(fake entry passes B) = 1/2" in text
        assert "P(A_pair=00 | holds j1,j3) = 1/12" in text

    def test_amplitude_table(self):
        text = oracle_dump()
        assert "|0011>  +2/(2*sqrt(3))  = +0.577350269190" in text
        assert "|0101>  -1/(2*sqrt(3))  = -0.288675134595" in text
        assert "|1100>  +2/(2*sqrt(3))" in text
        assert "|0000>" not in text  # only balanced patterns carry weight

    def test_escapes_and_bounds(self):
        text = oracle_dump()
        assert "= 5/12 = 0.416666666667" in text
        assert "= 5/24 = 0.208333333333" in text
        assert "n=3: P(B rejects) >= 7/8 = 0.875" in text
        assert "n=8: P(B rejects) >= 255/256" in text

    def test_subcommand_prints_dump(self, capsys):
        assert main(["oracle"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "P(fake entry passes B) = 1/2" in out

    def test_dump_bytes_pinned(self):
        digest = hashlib.sha256(oracle_dump().encode()).hexdigest()
        assert digest == "c89b4d4763476495970f2e3d44672005f927be270b9a2c9f7aa1384bdf68b93f"

    def test_fractions_load_only_for_the_dump(self):
        # only the dump renders fractions, so importing the package leaves them out
        code = (
            "import sys, liarsim, liarsim.cli\n"
            "assert not {'fractions', 'decimal'} & set(sys.modules)\n"
            "liarsim.cli.oracle_dump()\n"
            "assert {'fractions', 'decimal'} <= set(sys.modules)\n"
        )
        done = fresh_python("-c", code)
        assert done.returncode == 0, done.stderr


class TestWithoutScipy:
    """The package itself never needs scipy; only some tests do."""

    @pytest.mark.parametrize(
        "argv", [["oracle"], ["run", "--trials", "3", "--qubit-loss-prob", "0.001"]]
    )
    def test_cli_runs_with_scipy_blocked(self, argv):
        code = (
            "import sys; sys.modules['scipy'] = None\n"
            "from liarsim.cli import main\n"
            "sys.exit(main(sys.argv[1:]))"
        )
        done = fresh_python("-c", code, *argv)
        assert done.returncode == EXIT_OK, done.stderr


class TestConfigFile:
    def test_parse_types_and_comments(self, tmp_path):
        path = tmp_path / "run.conf"
        path.write_text(
            "# experiment\n"
            "trials = 12\n"
            "L=64\n"
            "qubit_loss_prob = 0.25  # lossy channel\n"
            "strategy_a = split:n=2\n"
            "\n"
        )
        values = parse_config_file(str(path))
        assert values == {
            "trials": 12,
            "L": 64,
            "qubit_loss_prob": 0.25,
            "strategy_a": "split:n=2",
        }

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("wibble = 3\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.conf"
        path.write_text("trials\n")
        with pytest.raises(ValueError):
            parse_config_file(str(path))

    @pytest.mark.parametrize("line", ["trials = 1e3", "qubit_loss_prob = lots"])
    def test_bad_value_names_file_and_line(self, tmp_path, capsys, line):
        path = tmp_path / "bad.conf"
        path.write_text(line + "\n")
        with pytest.raises(ValueError, match=r"bad\.conf:1: "):
            parse_config_file(str(path))
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        assert "bad.conf:1: " in capsys.readouterr().err

    # Python's int() and float() take other scripts' digits and "_" separators
    @pytest.mark.parametrize(
        "line", ["trials = \uff13", "L = 1_6", "seed = \u0667", "min_fraction = \u0660.\u0665"]
    )
    def test_non_ascii_or_separated_numbers_rejected(self, tmp_path, capsys, line):
        path = tmp_path / "bad.conf"
        path.write_text(line + "\n", encoding="utf-8")
        value = line.partition("= ")[2]
        with pytest.raises(ValueError, match=r"bad\.conf:1: "):
            parse_config_file(str(path))
        assert main(["run", "--config", str(path)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "bad.conf:1: " in err and repr(value) in err

    def test_flags_override_file(self, tmp_path, capsys):
        path = tmp_path / "run.conf"
        path.write_text("trials = 9\nL = 64\nseed = 4\n")
        out = tmp_path / "r.ndjson"
        code = main(
            ["run", "--config", str(path), "--trials", "3", "--out", str(out)]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 4  # 3 trials + summary
        assert json.loads(lines[-1])["config"]["L"] == 64


class TestExitCodes:
    def test_successful_run(self, tmp_path, capsys):
        assert main(["run", "--trials", "2", "--L", "64"]) == EXIT_OK
        assert "verdicts" in capsys.readouterr().out

    def test_usage_error_from_bad_strategy(self, capsys):
        assert main(["run", "--strategy-a", "bogus"]) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_usage_error_from_inconsistent_sizes(self, capsys):
        assert main(["run", "--M", "10", "--L", "20"]) == EXIT_USAGE

    def test_usage_error_from_argparse(self, capsys):
        assert main(["run", "--no-such-flag"]) == EXIT_USAGE
        assert main(["frobnicate"]) == EXIT_USAGE

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--seed", "\u0667"),
            ("--trials", "\uff13"),
            ("--L", "1_6"),
            ("--M", "+64"),
            ("--min-fraction", "\u0660.\u0665"),
            ("--qubit-loss-prob", "0_1"),
        ],
    )
    def test_numbers_must_be_ascii_without_separators(self, capsys, flag, value):
        argv = ["run", "--trials", "3", "--L", "16", flag, value]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert f"argument {flag}: invalid" in err and repr(value) in err

    def test_io_error_on_unwritable_output(self, capsys):
        code = main(["run", "--trials", "1", "--L", "64", "--out", "/no/such/dir/x"])
        assert code == EXIT_IO

    def test_unwritable_output_runs_no_trial(self, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(runner, "run_single_trial", lambda *args: calls.append(args))
        out = tmp_path / "missing" / "r.ndjson"
        assert main(["run", "--trials", "1", "--L", "64", "--out", str(out)]) == EXIT_IO
        assert calls == []
        assert "i/o error" in capsys.readouterr().err

    def test_io_error_on_missing_config(self, capsys):
        assert main(["run", "--config", "/no/such/file.conf"]) == EXIT_IO

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == EXIT_OK
        assert main(["run", "--help"]) == EXIT_OK


class TestOneParserPerProcess:
    def test_parser_is_built_once(self):
        assert cli._parsers() is cli._parsers()

    def test_repeated_calls_write_the_file_of_a_fresh_process(self, tmp_path, capsys):
        args = ["run", "--trials", "6", "--L", "16", "--seed", "9", "--strategy-a", "split:n=2"]
        assert main(["run", "--no-such-flag"]) == EXIT_USAGE
        assert main(["--help"]) == EXIT_OK
        here, fresh = tmp_path / "here.ndjson", tmp_path / "fresh.ndjson"
        assert main([*args, "--out", str(here)]) == EXIT_OK
        done = fresh_python("-m", "liarsim", *args, "--out", str(fresh))
        assert done.returncode == EXIT_OK, done.stderr
        assert here.read_bytes() == fresh.read_bytes()


_INTS = st.integers(-5, 10**6).map(str)
_REALS = st.floats(0.0, 1.0).map(repr)
# each ``liarsim run`` flag with values to give it, valid or not for TrialConfig
_RUN_FLAGS = {
    "--config": st.just("run.conf"),
    "--trials": _INTS,
    "--seed": _INTS,
    "--L": _INTS,
    "--M": _INTS,
    "--N1": _INTS,
    "--N2": _INTS,
    "--strategy-a": st.sampled_from(["honest", "split:n=3", "forgefull:k=8", "bogus"]),
    "--strategy-b": st.sampled_from(["honest", "flipforge", "flipforge:k=2"]),
    "--qubit-loss-prob": _REALS,
    "--source-state": st.sampled_from(["singlet", "0011"]),
    "--min-fraction": _REALS,
    "--direction-policy": st.sampled_from(["random", "fixed", "diagonal"]),
    "--out": st.just("r.ndjson"),
}


def _spellings(flag: str) -> list[str]:
    """The flag and every abbreviation of it that names no other flag."""
    return [
        flag[:k]
        for k in range(3, len(flag) + 1)
        if [other for other in _RUN_FLAGS if other.startswith(flag[:k])] == [flag]
    ]


@st.composite
def run_argvs(draw) -> list[str]:
    """A ``run`` argv: flags in any subset and order, repeats allowed, each
    as ``--flag value`` or ``--flag=value`` under any unique abbreviation,
    and now and then a token ``run`` does not know."""
    argv = []
    for flag in draw(st.lists(st.sampled_from(sorted(_RUN_FLAGS)), max_size=8)):
        spelled, value = draw(st.sampled_from(_spellings(flag))), draw(_RUN_FLAGS[flag])
        argv += draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]]))
    if draw(st.integers(0, 4)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(["--no-such", "extra"])))
    return ["run", *argv]


class TestRunFlagsParsedOnce:
    """``main`` parses a subcommand's flags with that subcommand's parser alone."""

    @given(argv=run_argvs())
    @example(argv=["run", "--tri", "5", "--se=3", "--strategy-a=split:n=3"])
    @example(argv=["run", "--tri", "5", "extra"])
    @settings(max_examples=300, deadline=None)
    def test_main_parses_as_the_full_parser_does(self, argv):
        seen = []  # the namespace main() hands the run command, which then runs nothing
        run_parser = cli._parsers()[1]["run"]
        run_parser.set_defaults(func=seen.append)
        try:
            with contextlib.redirect_stderr(io.StringIO()):
                code = main(argv)
                try:
                    expected = cli._parsers()[0].parse_args(argv)
                except SystemExit as exc:
                    expected = exc.code
        finally:
            run_parser.set_defaults(func=cmd_run)
        if isinstance(expected, int):
            assert (code, seen) == (expected, []) and expected == EXIT_USAGE
        else:
            assert [vars(args) for args in seen] == [vars(expected)]
            assert cli._parsers()[0].parse_args(argv).func is cmd_run

    def test_unknown_run_flag_prints_the_run_usage(self, capsys):
        assert main(["run", "--no-such-flag"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("usage: liarsim run")
        assert "liarsim run: error: unrecognized arguments: --no-such-flag" in err

    @pytest.mark.parametrize("argv", [[], ["frobnicate"], ["oracle", "extra"]])
    def test_usage_errors_outside_run(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "error" in capsys.readouterr().err

    def test_top_level_help_lists_both_commands(self, capsys):
        assert main(["--help"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("usage: liarsim") and "{run,oracle}" in out
        assert "run a batch of seeded trials" in out and "print the analytic tables" in out

    @pytest.mark.parametrize(
        "argv, code, stream, text",
        [
            (["oracle"], EXIT_OK, "out", "P(fake entry passes B) = 1/2"),
            (["run", "--no-such-flag"], EXIT_USAGE, "err", "usage: liarsim run"),
            ([], EXIT_USAGE, "err", "usage: liarsim"),
        ],
    )
    def test_no_argv_reads_sys_argv(self, argv, code, stream, text, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["liarsim", *argv])
        assert main() == code
        assert text in getattr(capsys.readouterr(), stream)


class TestRunSubcommand:
    def test_deterministic_result_files(self, tmp_path):
        args = ["run", "--trials", "20", "--L", "64", "--seed", "6"]
        a, b = tmp_path / "a.ndjson", tmp_path / "b.ndjson"
        assert main(args + ["--out", str(a)]) == EXIT_OK
        assert main(args + ["--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_honest_run_reports_consistent(self, tmp_path, capsys):
        out = tmp_path / "r.ndjson"
        code = main(
            ["run", "--trials", "10", "--L", "256", "--seed", "1", "--out", str(out)]
        )
        assert code == EXIT_OK
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows[-1]["verdict_counts"]["CONSISTENT"] == 10
        assert "records written" in capsys.readouterr().out

    def test_split_run_rejects_b_claims(self, tmp_path, capsys):
        out = tmp_path / "r.ndjson"
        code = main(
            [
                "run",
                "--trials",
                "200",
                "--L",
                "64",
                "--seed",
                "2",
                "--strategy-a",
                "split:n=3",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        summary = json.loads(out.read_text().splitlines()[-1])
        rejection = summary["verdict_counts"]["B_REJECTED_AT_STEP_III"] / 200
        assert rejection >= 7 / 8 - 3 * 0.024  # binomial 3 sigma at 200 trials
        assert summary["verdict_counts"]["CONSISTENT"] == 0

    def test_flipforge_run_convicts_b(self, capsys):
        code = main(
            [
                "run",
                "--trials",
                "30",
                "--L",
                "256",
                "--seed",
                "3",
                "--strategy-b",
                "flipforge",
            ]
        )
        assert code == EXIT_OK
        assert "'B_IS_LIAR': 30" in capsys.readouterr().out

    def test_lossy_run_counts_distribute_failures(self, capsys):
        code = main(
            [
                "run",
                "--trials",
                "5",
                "--M",
                "40",
                "--seed",
                "4",
                "--qubit-loss-prob",
                "0.2",
            ]
        )
        assert code == EXIT_OK
        assert "DISTRIBUTE_FAILURE" in capsys.readouterr().out

    # a product source can pass a one-round test subset by chance along
    # random directions; its lists then break the singlet's doubles law
    @pytest.mark.parametrize(
        "source, strategy_b, verdict",
        [("0001", "honest", "B_REJECTED_AT_STEP_III"), ("0000", "flipforge", "A_IS_LIAR")],
    )
    def test_corrupted_source_that_passes_testing_is_adjudicated(
        self, tmp_path, capsys, source, strategy_b, verdict
    ):
        out = tmp_path / "r.ndjson"
        argv = ["run", "--M", "6", "--N1", "1", "--N2", "1", "--L", "4", "--trials", "200"]
        argv += ["--source-state", source, "--strategy-b", strategy_b, "--seed", "3"]
        assert main([*argv, "--out", str(out)]) == EXIT_OK
        counts = json.loads(out.read_text().splitlines()[-1])["verdict_counts"]
        assert counts[verdict] > 0
        assert counts[verdict] + counts["DISTRIBUTE_FAILURE"] == 200
