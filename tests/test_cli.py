import os
import subprocess
import sys

import numpy as np
import pytest

from circkr.cli import _fmt, main

FIXTURE = ["--n", "5", "--c", "5", "--a", "2"]


def run_cli(*argv):
    return main(list(argv))


def module_run(args, env_extra=None):
    env = dict(os.environ)
    env.pop("CIRCKR_STRICT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "circkr", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


class TestDecomposeCommand:
    def test_fixture_report(self, capsys):
        assert run_cli("decompose", *FIXTURE) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "order n = 5"
        assert lines[1] == "c = 5.0"
        assert lines[2] == "a = 2.0"
        assert lines[3] == "d = 2.5"
        assert lines[4] == "variant = circulant"
        assert lines[5] == "f = 0.0, 1.0, -2.5, 5.25, -10.625, 21.3125, -42.65625"
        assert lines[6].startswith("r = -8.525, -1.6238095238")
        assert lines[7] == "g = 34.03125"
        assert lines[8] == "scaled g (×a) = 68.0625"

    def test_dense_report_blocks(self, capsys):
        assert run_cli("decompose", *FIXTURE, "--dense") == 0
        out = capsys.readouterr().out
        for name in ("K =", "K_inv =", "R =", "R_inv =", "A1 =", "A1_inv ="):
            assert f"\n{name}\n" in out
        # First row of the normalized core factor: -f_2 alone.
        a1_rows = out.split("A1 =\n", 1)[1].splitlines()
        assert a1_rows[0] == "2.5, 0, 0, 0, 0"

    def test_tridiagonal_dense_report_skips_corner_factor(self, capsys):
        assert run_cli("decompose", *FIXTURE, "--variant", "tridiagonal", "--dense") == 0
        out = capsys.readouterr().out
        assert "variant = tridiagonal" in out
        assert "r = " not in out
        assert "g = " not in out
        assert "\nR =\n" not in out and "\nR_inv =\n" not in out
        assert "\nA1 =\n" in out

    def test_invalid_spec_exit_code(self, capsys):
        assert run_cli("decompose", "--n", "4", "--c", "4", "--a", "2") == 2
        err = capsys.readouterr().err
        assert err.startswith("ERROR InvalidSpec:")

    def test_overflow_exit_code(self, capsys):
        assert run_cli("decompose", "--n", "2000", "--c", "5", "--a", "2") == 3
        err = capsys.readouterr().err
        assert err.startswith("ERROR Overflow:")
        assert "max safe n = 1023" in err

    def test_permissive_mode_reaches_singular_closure(self, capsys, monkeypatch):
        monkeypatch.setenv("CIRCKR_STRICT", "0")
        assert run_cli("decompose", "--n", "5", "--c", "-2", "--a", "1") == 4
        assert capsys.readouterr().err.startswith("ERROR SingularPivot:")

    def test_strict_mode_rejects_the_same_system(self, capsys, monkeypatch):
        monkeypatch.delenv("CIRCKR_STRICT", raising=False)
        assert run_cli("decompose", "--n", "5", "--c", "-2", "--a", "1") == 2
        assert capsys.readouterr().err.startswith("ERROR InvalidSpec:")

    def test_inconsistent_closure_forms_exit_code(self, capsys):
        # Barely dominant ratio at this order: the two evaluations of the
        # closure scalar disagree beyond tolerance and must say so.
        code = run_cli("decompose", "--n", "64", "--c", "-2.000000000001", "--a", "1")
        assert code == 4
        assert capsys.readouterr().err.startswith("ERROR Inconsistency:")


class TestSolveCommand:
    def test_unit_vector_fixture(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n0\n0\n0\n0\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0.313131", "-0.141414", "0.040404", "0.040404", "-0.141414"]

    def test_block_right_hand_side(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rows = ["1 0", "0 0", "0 1", "0 0", "0 0"]
        rhs.write_text("\n".join(rows) + "\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5
        first = [row.split()[0] for row in lines]
        assert first == ["0.313131", "-0.141414", "0.040404", "0.040404", "-0.141414"]

    def test_precision_flag(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n0\n0\n0\n0\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs), "--precision", "12") == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "0.313131313131"

    def test_out_file(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n0\n0\n0\n0\n")
        target = tmp_path / "solution.txt"
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs), "--out", str(target)) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().splitlines()[0] == "0.313131"

    def test_missing_rhs_file(self, capsys, tmp_path):
        missing = tmp_path / "nope.txt"
        assert run_cli("solve", *FIXTURE, "--rhs", str(missing)) == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_unparsable_rhs_file(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\ntwo\n3\n4\n5\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_wrong_length_rhs(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n2\n3\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 5
        assert capsys.readouterr().err.startswith("ERROR DimensionMismatch:")

    def test_wrong_row_count_block(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1 2\n3 4\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 5
        assert capsys.readouterr().err.startswith("ERROR DimensionMismatch: right-hand side")

    def test_non_finite_rhs(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\nnan\n0\n0\n0\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 3
        assert capsys.readouterr().err.startswith("ERROR Overflow:")

    def test_unwritable_out_path(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n0\n0\n0\n0\n")
        target = tmp_path / "missing-dir" / "solution.txt"
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs), "--out", str(target)) == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")


class TestInvertCommand:
    def test_first_row_fixture(self, capsys):
        assert run_cli("invert", *FIXTURE, "--mode", "first-row") == 0
        out = capsys.readouterr().out
        assert out == "0.313131, -0.141414, 0.040404, 0.040404, -0.141414\n"

    def test_dense_diagonal_fixture(self, capsys):
        assert run_cli("invert", "--n", "4", "--c", "10", "--a", "1") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("0.102083, ")
        for i, line in enumerate(lines):
            assert line.split(", ")[i] == "0.102083"

    def test_first_row_rejects_tridiagonal(self, capsys):
        code = run_cli(
            "invert", *FIXTURE, "--variant", "tridiagonal", "--mode", "first-row"
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("ERROR VariantMismatch:")

    def test_dense_tridiagonal_allowed(self, capsys):
        assert run_cli("invert", *FIXTURE, "--variant", "tridiagonal") == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 5

    def test_deterministic_output(self, capsys):
        assert run_cli("invert", "--n", "32", "--c", "-7.25", "--a", "3") == 0
        first = capsys.readouterr().out
        assert run_cli("invert", "--n", "32", "--c", "-7.25", "--a", "3") == 0
        assert capsys.readouterr().out == first


class TestCheckCommand:
    def test_fixture_passes(self, capsys):
        assert run_cli("check", *FIXTURE) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "verdict: all residuals within 1e-08"
        assert "reconstruction residual = " in out
        assert "solve residual vs dense oracle = " in out
        assert "inverse first row vs spectral oracle = " in out

    def test_tridiagonal_variant(self, capsys):
        assert run_cli("check", *FIXTURE, "--variant", "tridiagonal") == 0
        out = capsys.readouterr().out
        assert "inverse residual vs identity = " in out
        assert out.splitlines()[-1] == "verdict: all residuals within 1e-08"

    def test_barely_dominant_system_fails_cleanly(self, capsys):
        # Dominance margin 1e-12: the factorization completes but its
        # residuals blow past the gate, and the verdict must say so.
        code = run_cli("check", "--n", "200", "--c", "-2.000000000001", "--a", "1")
        assert code == 1
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "verdict: residuals exceed 1e-08"


class TestBenchCommand:
    def test_small_run_reports_slope(self, capsys):
        assert run_cli("bench", "--sizes", "256,512,1024", "--reps", "2") == 0
        out = capsys.readouterr().out
        assert "benchmark: structured solve, d = 2.0001" in out
        assert len(out.splitlines()) >= 5
        slope_line = [l for l in out.splitlines() if l.startswith("log-log slope")]
        assert len(slope_line) == 1
        float(slope_line[0].rsplit("=", 1)[1])

    def test_single_size_skips_slope(self, capsys):
        assert run_cli("bench", "--sizes", "512", "--reps", "1") == 0
        out = capsys.readouterr().out
        assert "log-log slope" not in out

    def test_bad_sizes(self, capsys):
        assert run_cli("bench", "--sizes", "a,b") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_bad_reps(self, capsys):
        assert run_cli("bench", "--sizes", "64", "--reps", "0") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")


class TestParsing:
    def test_missing_subcommand(self, capsys):
        assert run_cli() == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_unknown_flag(self, capsys):
        assert run_cli("decompose", *FIXTURE, "--frobnicate") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_missing_required_argument(self, capsys):
        assert run_cli("decompose", "--n", "5", "--c", "5") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "decompose" in capsys.readouterr().out

    def test_fmt_normalizes_negative_zero(self):
        assert _fmt(-0.0, 6) == "0"
        assert _fmt(0.0, 6) == "0"
        assert _fmt(-1.5, 3) == "-1.5"


class TestProcessLevel:
    """OS-level behavior of python -m: exit codes and the stderr contract."""

    def test_overflow_exit_status(self):
        proc = module_run(["decompose", "--n", "2000", "--c", "5", "--a", "2"])
        assert proc.returncode == 3
        assert proc.stderr.splitlines()[0].startswith("ERROR Overflow:")
        assert proc.stdout == ""

    def test_invalid_spec_exit_status(self):
        proc = module_run(["decompose", "--n", "4", "--c", "4", "--a", "2"])
        assert proc.returncode == 2
        assert proc.stderr.splitlines()[0].startswith("ERROR InvalidSpec:")

    def test_singular_exit_status_permissive(self):
        proc = module_run(
            ["decompose", "--n", "5", "--c", "-2", "--a", "1"],
            env_extra={"CIRCKR_STRICT": "0"},
        )
        assert proc.returncode == 4
        assert proc.stderr.splitlines()[0].startswith("ERROR SingularPivot:")

    def test_dimension_mismatch_exit_status(self, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n2\n3\n")
        proc = module_run(["solve", *FIXTURE, "--rhs", str(rhs)])
        assert proc.returncode == 5
        assert proc.stderr.splitlines()[0].startswith("ERROR DimensionMismatch:")

    @pytest.mark.parametrize(
        "args",
        [
            ["solve", "--n", "64", "--c", "2.5e-300", "--a", "1e-300"],
            ["invert", "--mode", "first-row", "--n", "64", "--c", "2.5e-310", "--a", "1e-310"],
        ],
        ids=["solve", "first-row"],
    )
    def test_overflow_error_is_the_only_stderr_line(self, tmp_path, args):
        # The solution overflows; no float warning may print before the ERROR line.
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1e300\n" * 64)
        proc = module_run([*args, "--rhs", str(rhs)] if args[0] == "solve" else args)
        assert proc.returncode == 3
        assert proc.stderr.splitlines()[0].startswith("ERROR Overflow:")
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    def test_size_guard_exit_status(self):
        # Slow growth keeps the factorization finite at this order, so the
        # dense cap is what trips.
        proc = module_run(["invert", "--n", "10001", "--c", "2.0001", "--a", "1"])
        assert proc.returncode == 6
        assert proc.stderr.splitlines()[0].startswith("ERROR SizeGuard:")

    def test_success_round_trip(self, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n0\n0\n0\n0\n")
        proc = module_run(["solve", *FIXTURE, "--rhs", str(rhs)])
        assert proc.returncode == 0
        assert proc.stdout.splitlines() == [
            "0.313131",
            "-0.141414",
            "0.040404",
            "0.040404",
            "-0.141414",
        ]
