import itertools
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from circkr import (
    SystemSpec,
    build_dense,
    decompose,
    decompose_tridiagonal,
    inverse_dense,
    inverse_first_row,
    materialize,
    reconstruct,
    solve,
)
from circkr import cli, factors
from circkr.cli import (
    _build_parser,
    _circulant_rows,
    _identity_residual,
    _reconstruction_gap,
    _relative_gap,
    _rows,
    main,
)
from circkr.factors import FACTOR_NAMES

from grids import peak_doubles

FIXTURE = ["--n", "5", "--c", "5", "--a", "2"]
# Every child interpreter turns numpy's warnings into errors, as the suite
# does in-process: a warning ahead of an ERROR line would exit 1 instead.
PYTHON = [sys.executable, "-W", "error::RuntimeWarning"]


def run_cli(*argv):
    return main(list(argv))


def module_run(args, env_extra=None):
    env = dict(os.environ)
    env.pop("CIRCKR_STRICT", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [*PYTHON, "-m", "circkr", *args],
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

    def test_dense_size_guard_comes_before_the_report(self, capsys):
        # The report is streamed, so the dense cap must trip before its
        # first line is written.
        assert run_cli("decompose", "--n", "10001", "--c", "2.0001", "--a", "1", "--dense") == 6
        out = capsys.readouterr()
        assert out.err.startswith("ERROR SizeGuard:")
        assert out.out == ""

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

    def test_one_line_is_one_column(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1 0 0 0 0\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines == ["0.313131", "-0.141414", "0.040404", "0.040404", "-0.141414"]

    def test_empty_rhs_file(self, capsys, tmp_path):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 5
        out = capsys.readouterr()
        assert out.err.startswith("ERROR DimensionMismatch:")
        assert out.out == ""

    def test_one_column_error_details(self, capsys, tmp_path):
        # A one-column file is a block of one right-hand side, and its
        # errors say so.
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n2\n3\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 5
        assert capsys.readouterr().err == (
            "ERROR DimensionMismatch: right-hand side block must have shape (5, k), "
            "got (3, 1)\n"
        )
        rhs.write_text("1\n0\ninf\n0\n0\n")
        assert run_cli("solve", *FIXTURE, "--rhs", str(rhs)) == 3
        assert capsys.readouterr().err == (
            "ERROR Overflow: right-hand side column 1: right-hand side entry 3 "
            "is not finite (inf)\n"
        )

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


def _old_rule(value, precision):
    # The per-value rule the CLI has always printed by: -0.0 prints as 0.
    value = float(value)
    return f"{(0.0 if value == 0.0 else value):.{precision}g}"


def _expected(matrix, precision, sep):
    return [sep.join(_old_rule(v, precision) for v in row) for row in matrix]


class TestPayloadText:
    """Every numeric payload is the library's own array, value by value."""

    SYSTEM = ["--n", "12", "--c", "2.75", "--a", "1.25"]

    @staticmethod
    def _factorization(variant):
        build = decompose if variant == "circulant" else decompose_tridiagonal
        return build(SystemSpec(12, 2.75, 1.25))

    @pytest.mark.parametrize("precision", [0, 6, 17])
    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_solve(self, capsys, tmp_path, variant, precision):
        fct = self._factorization(variant)
        block = np.random.default_rng(precision).standard_normal((12, 3))
        block[:, 1] = 0.0
        assert np.signbit(solve(fct, block[:, 1])).any()  # -0.0 entries
        rhs = tmp_path / "rhs.txt"
        for columns in ([0], [1], [0, 1, 2]):
            rows = block[:, columns].tolist()
            rhs.write_text("".join(" ".join(map(repr, row)) + "\n" for row in rows))
            argv = ("solve", *self.SYSTEM, "--variant", variant, "--rhs", str(rhs))
            assert run_cli(*argv, "--precision", str(precision)) == 0
            x = np.stack([solve(fct, block[:, j]) for j in columns], axis=1)
            assert capsys.readouterr().out.splitlines() == _expected(x, precision, " ")

    @pytest.mark.parametrize("precision", [0, 6, 17])
    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_invert_and_dense_factors(self, capsys, variant, precision):
        fct = self._factorization(variant)
        argv = (*self.SYSTEM, "--variant", variant, "--precision", str(precision))
        assert run_cli("invert", *argv) == 0
        expected = _expected(inverse_dense(fct), precision, ", ")
        assert capsys.readouterr().out.splitlines() == expected
        if variant == "circulant":
            assert run_cli("invert", *argv, "--mode", "first-row") == 0
            expected = _expected([inverse_first_row(fct)], precision, ", ")
            assert capsys.readouterr().out.splitlines() == expected
        assert run_cli("decompose", *argv, "--dense") == 0
        out = capsys.readouterr().out
        for name in FACTOR_NAMES:
            if variant == "tridiagonal" and name.startswith("R"):
                continue
            rows = out.split(f"\n{name} =\n", 1)[1].splitlines()[:12]
            assert rows == _expected(materialize(fct, name), precision, ", ")

    def test_rows_span_many_chunks(self):
        # 4096 values per chunk: rows of 1000 make chunks of four rows.
        matrix = np.random.default_rng(3).standard_normal((9, 1000)) * 1e-300
        matrix[4, 7] = -0.0
        assert "\n".join(_rows(matrix, 17, ", ")).splitlines() == _expected(matrix, 17, ", ")

    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_out_file_holds_the_text_once(self, tmp_path, variant):
        # The inverse plus one chunk of its text at a time: that chunk, its
        # Python floats and the writer's copies, never the whole text (the
        # file is 100 chunks).
        n = 600
        target = tmp_path / "inverse.txt"
        argv = ("invert", "--n", str(n), "--c", "2.05", "--a", "1", "--variant", variant,
                "--precision", "17", "--out", str(target))
        peak_bytes = 8 * peak_doubles(run_cli, *argv)
        rows = target.read_text().splitlines(keepends=True)
        chunk = len("".join(rows[: 4096 // n]))
        assert peak_bytes <= 8 * n * n + 8 * chunk


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


def _text(chunks):
    # The bytes the CLI writes for a payload's chunks: each and a newline.
    return "".join(chunk + "\n" for chunk in chunks)


class TestCirculantInverseText:
    """The circulant inverse is printed from its palindromic first row, byte
    for byte what ``_rows`` prints for the library's arrays."""

    ORDERS = (3, 4, 5, 6, 7, 64, 65, 1000, 1001, 4097)
    SCALES = (1.3, -1.3, 1e-200, 3e300)
    # (normalized ratio, CIRCKR_STRICT): strictly dominant, and |d| < 2 checked permissively.
    RATIOS = ((2.0001, "1"), (-1.5, "0"))
    # From this order on, the dense text is too long to format value by
    # value, and sampled rows are compared.
    SAMPLED = 1000

    @staticmethod
    def _system(n, a, ratio, monkeypatch):
        d, strict = ratio
        monkeypatch.setenv("CIRCKR_STRICT", strict)
        spec = SystemSpec(n, d * a, a, strict=strict == "1")
        return decompose(spec), ["--n", str(n), f"--c={spec.c!r}", f"--a={spec.a!r}"]

    @staticmethod
    def _stdout_and_file(capsys, tmp_path, *argv):
        assert run_cli(*argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / "inverse.txt"
        assert run_cli(*argv, "--out", str(target)) == 0
        assert capsys.readouterr().out == ""
        return stdout, target.read_text(encoding="utf-8")

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("a", SCALES)
    @pytest.mark.parametrize("precision", [0, 1, 6, 17])
    @pytest.mark.parametrize("n", ORDERS)
    def test_first_row(self, capsys, tmp_path, monkeypatch, n, precision, a, ratio):
        fct, system = self._system(n, a, ratio, monkeypatch)
        argv = ("invert", *system, "--precision", str(precision), "--mode", "first-row")
        expected = _text(_rows(inverse_first_row(fct)[None], precision, ", "))
        assert self._stdout_and_file(capsys, tmp_path, *argv) == (expected, expected)

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("a", SCALES)
    @pytest.mark.parametrize("precision", [0, 1, 6, 17])
    @pytest.mark.parametrize("n", ORDERS)
    def test_dense(self, capsys, tmp_path, monkeypatch, n, precision, a, ratio):
        fct, system = self._system(n, a, ratio, monkeypatch)
        argv = ("invert", *system, "--precision", str(precision))
        inverse = inverse_dense(fct)
        if n < self.SAMPLED:
            expected = _text(_rows(inverse, precision, ", "))
            assert self._stdout_and_file(capsys, tmp_path, *argv) == (expected, expected)
            return
        if n < 4096:
            rows = (0, 1, 2, 3, 4, 5, n // 2, n - 2, n - 1)
            stdout, text = self._stdout_and_file(capsys, tmp_path, *argv)
            assert stdout == text
            lines = text.splitlines()
            assert len(lines) == n
            got = [lines[i] for i in rows]
        else:
            # The writer alone: only its first chunks, one row each, are made.
            rows = range(3)
            chunks = _circulant_rows(inverse_first_row(fct), n, precision)
            got = list(itertools.islice(chunks, len(rows)))
        assert got == _text(_rows(inverse[list(rows)], precision, ", ")).splitlines()

    @pytest.mark.parametrize("n", [64, 65])
    @pytest.mark.parametrize("mode", ["dense", "first-row"])
    def test_negative_zero_entries(self, capsys, tmp_path, monkeypatch, n, mode):
        # d = 10 at a = 3e300: the far entries underflow, some of them to
        # -0.0, which prints as 0.
        fct, system = self._system(n, 3e300, (10.0, "1"), monkeypatch)
        v = inverse_first_row(fct)
        assert (np.signbit(v) & (v == 0.0)).any()
        expected = _text(_rows(inverse_dense(fct) if mode == "dense" else v[None], 17, ", "))
        assert "-0" not in expected.replace("\n", ", ").split(", ")
        argv = ("invert", *system, "--precision", "17", "--mode", mode)
        assert self._stdout_and_file(capsys, tmp_path, *argv) == (expected, expected)

    def test_dense_holds_no_dense_array(self, tmp_path):
        # The tokens of one row and one chunk of two rows of text with the
        # writer's copies of it, about 0.46 MB, where the n x n inverse
        # alone is 32 MB.  An untraced run first keeps the lazy imports and
        # the parser out of the peak.
        target = tmp_path / "inverse.txt"
        argv = ("invert", "--n", "2000", "--c", "2.05", "--a", "1", "--precision", "17",
                "--out", str(target))
        assert run_cli(*argv) == 0
        assert 8 * peak_doubles(run_cli, *argv) <= 2**20

    @pytest.mark.parametrize(
        "argv, code, kind",
        [
            (["--n", "10001", "--c", "2.0001", "--a", "1"], 6, "SizeGuard"),
            # The dense cap is checked before the range of the first row.
            (["--n", "10001", "--c", "2.0001e-310", "--a", "1e-310"], 6, "SizeGuard"),
            (["--n", "64", "--c", "2.5e-310", "--a", "1e-310"], 3, "Overflow"),
            (["--n", "64", "--c", "2.5e-310", "--a", "1e-310", "--mode", "first-row"], 3,
             "Overflow"),
            (["--n", "5", "--c", "5", "--a", "2", "--variant", "tridiagonal", "--mode",
              "first-row"], 2, "VariantMismatch"),
        ],
    )
    def test_errors_come_before_the_first_byte(self, capsys, tmp_path, argv, code, kind):
        assert run_cli("invert", *argv) == code
        out = capsys.readouterr()
        assert out.err.splitlines()[0].startswith(f"ERROR {kind}:")
        assert out.out == ""
        target = tmp_path / "inverse.txt"
        target.write_text("previous contents\n")
        assert run_cli("invert", *argv, "--out", str(target)) == code
        assert target.read_text() == "previous contents\n"


class TestTridiagonalInverseText:
    """The tridiagonal inverse is printed one block of rows at a time from
    ``inverse_dense``'s own writer, byte for byte what ``_rows`` prints for
    the library's array."""

    SCALES = (1.3, -0.7, 1e-200, 3e300)
    # (normalized ratio, CIRCKR_STRICT): strictly dominant, and |d| < 2 checked permissively.
    RATIOS = ((2.0001, "1"), (-2.05, "1"), (1.3, "0"), (-0.7, "0"))

    @pytest.mark.parametrize("ratio", RATIOS)
    @pytest.mark.parametrize("precision", [0, 17])
    @pytest.mark.parametrize("budget", [7, factors._BLOCK_ENTRIES])
    @pytest.mark.parametrize("n", [3, 4, 5, 16, 129])
    def test_dense(self, capsys, tmp_path, monkeypatch, n, budget, precision, ratio):
        # Blocks of budget // n rows, at least one: with 2**14 entries one
        # block up to n = 128 and a partial last one at 129; with 7,
        # one or two rows a block, a partial last one at n = 3 and 5.
        d, strict = ratio
        monkeypatch.setenv("CIRCKR_STRICT", strict)
        monkeypatch.setattr(factors, "_BLOCK_ENTRIES", budget)
        for a in self.SCALES:
            spec = SystemSpec(n, d * a, a, strict=strict == "1")
            expected = _text(_rows(inverse_dense(decompose_tridiagonal(spec)), precision, ", "))
            argv = ("invert", "--n", str(n), f"--c={spec.c!r}", f"--a={spec.a!r}",
                    "--variant", "tridiagonal", "--precision", str(precision))
            assert TestCirculantInverseText._stdout_and_file(capsys, tmp_path, *argv) == (
                expected, expected), a

    def test_tridiagonal_dense_holds_no_dense_array(self, tmp_path):
        # One block of 2**14 entries and one chunk of two rows of text with
        # the writer's copies of it, where the n x n inverse alone is 32 MB.
        # An untraced run first keeps the lazy imports and the parser out of
        # the peak.
        target = tmp_path / "inverse.txt"
        argv = ("invert", "--n", "2000", "--c", "2.05", "--a", "1", "--precision", "17",
                "--variant", "tridiagonal", "--out", str(target))
        assert run_cli(*argv) == 0
        assert 8 * peak_doubles(run_cli, *argv) <= 2**20

    @pytest.mark.parametrize(
        "argv, code, kind",
        [
            (["--n", "10001", "--c", "2.0001", "--a", "1"], 6, "SizeGuard"),
            # The dense cap is checked before the range of the entries.
            (["--n", "10001", "--c", "2.0001e-310", "--a", "1e-310"], 6, "SizeGuard"),
            (["--n", "64", "--c", "2.5e-310", "--a", "1e-310"], 3, "Overflow"),
        ],
    )
    def test_errors_come_before_the_first_byte(self, capsys, tmp_path, argv, code, kind):
        argv = ["invert", *argv, "--variant", "tridiagonal"]
        assert run_cli(*argv) == code
        out = capsys.readouterr()
        assert out.err.splitlines()[0].startswith(f"ERROR {kind}:")
        assert out.out == ""
        target = tmp_path / "inverse.txt"
        target.write_text("previous contents\n")
        assert run_cli(*argv, "--out", str(target)) == code
        assert target.read_text() == "previous contents\n"


class TestFailureAfterTheFirstChunk:
    """A command that fails once part of its payload is written leaves an
    ``--out`` regular file empty; stdout and other files keep that part."""

    DECOMPOSE = ("decompose", "--n", "6", "--c", "2.5", "--a", "1", "--dense")

    @pytest.fixture
    def a1_fails(self, monkeypatch):
        # The report, the first four factors and A1's heading come first.
        materialize = cli.materialize

        def failing(fct, name):
            if name == "A1":
                raise MemoryError
            return materialize(fct, name)

        monkeypatch.setattr(cli, "materialize", failing)

    def test_decompose_dense_out_file(self, capsys, tmp_path, a1_fails):
        target = tmp_path / "report.txt"
        target.write_text("previous contents\n")
        assert run_cli(*self.DECOMPOSE, "--out", str(target)) == 6
        assert capsys.readouterr().err.startswith("ERROR SizeGuard:")
        assert target.read_text() == ""

    def test_decompose_dense_stdout(self, capsys, a1_fails):
        assert run_cli(*self.DECOMPOSE) == 6
        out = capsys.readouterr().out
        assert out.startswith("order n = 6\n")
        assert "\nR_inv =\n" in out and out.endswith("\nA1 =\n")

    def test_non_regular_out_file_is_left_alone(self, capsys, monkeypatch, a1_fails):
        truncated = []
        monkeypatch.setattr(cli.os, "truncate", lambda *args: truncated.append(args))
        assert run_cli(*self.DECOMPOSE, "--out", os.devnull) == 6
        assert capsys.readouterr().err.startswith("ERROR SizeGuard:")
        assert truncated == []

    def test_invert_out_file(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "inverse.txt"
        circulant_rows = cli._circulant_rows

        def failing(*args):
            chunks = circulant_rows(*args)
            yield next(chunks)
            yield next(chunks)
            assert target.stat().st_size > 0  # part of the payload is on disk
            raise MemoryError

        monkeypatch.setattr(cli, "_circulant_rows", failing)
        argv = ("invert", "--n", "1000", "--c", "2.05", "--a", "1", "--precision", "17")
        assert run_cli(*argv, "--out", str(target)) == 6
        assert capsys.readouterr().err.startswith("ERROR SizeGuard:")
        assert target.read_text() == ""


def whole_inverse_identity_residual(fct):
    """check's tridiagonal identity residual on the whole inverse at once:
    the reference the blocked residual must reproduce bit for bit."""
    stencil = np.array([fct.spec.a, fct.spec.c, fct.spec.a])
    x = inverse_dense(fct)
    for i, row in enumerate(x):
        row[:] = np.convolve(row, stencil, "same")
        row[i] -= 1.0
    return np.abs(x, x).max()


class TestCheckCommand:
    def test_fixture_passes(self, capsys):
        assert run_cli("check", *FIXTURE) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == "verdict: all residuals within 1e-08"
        assert "reconstruction residual = " in out
        assert "solve residual vs spectral oracle = " in out
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

    @pytest.mark.parametrize("n", [3, 4, 5, 16, 255, 256, 257])
    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_reconstruction_gap_matches_dense_gap(self, n, variant):
        # The in-place gap subtracts each entry build_dense writes once:
        # at n = 3 and 4 a corner subtracted twice or not at all would show.
        build = decompose if variant == "circulant" else decompose_tridiagonal
        for scale in (1.0, 1e300, 1e-300):
            for c_sign in (1.0, -1.0):
                for a_sign in (1.0, -1.0):
                    a = a_sign * scale
                    spec = SystemSpec(n, c_sign * 2.5 * scale, a)
                    fct = build(spec)
                    expected = _relative_gap(reconstruct(fct), build_dense(spec, variant))
                    assert _reconstruction_gap(fct) == expected, (scale, c_sign, a_sign)

    @pytest.mark.parametrize("n", [3, 4, 5, 16, 65, 255, 256, 257, 1000])
    @pytest.mark.parametrize("d, strict", [(2.0001, True), (-2.05, True), (1.3, False),
                                           (-0.7, False)])
    def test_identity_residual_matches_whole_inverse(self, n, d, strict):
        # Blocks of 2**14 // n rows: one block up to n = 128, and a partial
        # last block at 255, 257 and 1000.
        for a in (1.3, -0.7, 1e-200, 3e300):
            fct = decompose_tridiagonal(SystemSpec(n, d * a, a, strict))
            assert _identity_residual(fct) == whole_inverse_identity_residual(fct), a

    @pytest.mark.parametrize("n", [3, 4, 5, 16, 33, 63, 64])
    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    @pytest.mark.parametrize("budget", [7, 200])
    def test_residuals_in_small_blocks(self, monkeypatch, n, variant, budget):
        # Budgets of 7 and 200 entries take 1 to 12 rows a block here, with
        # a partial last block at n = 3, 16, 33 and 64, so block edges fall
        # beside the corners and across the diagonals.  At the default
        # budget these orders fill one block, as the whole matrix did.
        build = decompose if variant == "circulant" else decompose_tridiagonal
        cases = []
        for d, strict in ((2.05, True), (-2.5, True), (1.3, False), (-0.7, False)):
            for a in (1.3, -0.7, 1e-200, 3e300):
                spec = SystemSpec(n, d * a, a, strict)
                fct = build(spec)
                whole = reconstruct(fct)
                cases.append((fct, whole, _relative_gap(whole.copy(), build_dense(spec, variant))))
        monkeypatch.setattr(factors, "_BLOCK_ENTRIES", budget)
        for fct, whole, gap in cases:
            assert reconstruct(fct).tobytes() == whole.tobytes()
            assert _reconstruction_gap(fct) == gap
            if variant == "tridiagonal":
                assert _identity_residual(fct) == whole_inverse_identity_residual(fct)

    # The first check in a process imports numpy's lazy submodules and
    # builds the parser, about 0.9 MB that is not the command's own memory;
    # an untraced run of the same argv first keeps it out of the peak.
    @pytest.mark.parametrize("n", [256, 2000])
    def test_holds_no_dense_array(self, capsys, n):
        # One block of 2**14 entries and numpy's copy of it in the K^-1
        # first difference; the spectral solve and first row hold O(n).
        argv = ("check", "--n", str(n), "--c", "2.01", "--a", "1")
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: all residuals within 1e-08"
        assert peak_doubles(run_cli, *argv) <= 2 * factors._BLOCK_ENTRIES + 16 * n

    @pytest.mark.parametrize("n", [256, 2000])
    def test_tridiagonal_holds_no_dense_array(self, capsys, n):
        # The identity residual's block of inverse rows and the square of
        # its diagonal block take less than the reconstruction's block and
        # copy; the DST-I solve holds O(n).
        argv = ("check", "--n", str(n), "--c", "2.01", "--a", "1", "--variant", "tridiagonal")
        assert run_cli(*argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdict: all residuals within 1e-08"
        assert peak_doubles(run_cli, *argv) <= 2 * factors._BLOCK_ENTRIES + 16 * n

    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_dense_order_cap(self, capsys, variant):
        # Slow growth keeps the factorization finite at this order, so the
        # cap that the verification kernels keep is what trips.
        code = run_cli("check", "--n", "10001", "--c", "2.0001", "--a", "1", "--variant", variant)
        assert code == 6
        out = capsys.readouterr()
        assert out.err.splitlines()[0].startswith("ERROR SizeGuard:")
        assert out.out == ""


class TestNoFloatWarnings:
    """Extreme systems run with RuntimeWarning as an error: the CLI does not
    silence numpy, so the library must raise or stay in range on its own."""

    # d = -2cos(pi/7 + 1e-13): permissive, and a pivot f_i near zero.
    NEAR_SINGULAR = ["--n", "23", "--c", repr(-2.0 * math.cos(math.pi / 7 + 1e-13)), "--a", "1"]

    @staticmethod
    def _run(capsys, *argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = run_cli(*argv)
        return code, capsys.readouterr()

    @pytest.mark.parametrize("command", ["check", "invert"])
    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    @pytest.mark.parametrize(
        "a, code, kind", [(1e300, 0, None), (1e-300, 0, None), (1e-310, 3, "Overflow")]
    )
    def test_extreme_scales(self, capsys, command, variant, a, code, kind):
        argv = ["--n", "64", "--c", repr(2.5 * a), "--a", repr(a), "--variant", variant]
        got, out = self._run(capsys, command, *argv)
        assert got == code
        if kind is None:
            assert out.err == ""
            assert out.out
        else:
            assert out.err.splitlines()[0].startswith(f"ERROR {kind}:")
            assert out.out == ""

    @pytest.mark.parametrize("command, code", [("check", 1), ("invert", 0)])
    @pytest.mark.parametrize("variant", ["circulant", "tridiagonal"])
    def test_permissive_near_singular(self, capsys, monkeypatch, command, code, variant):
        # check exits 1: the residuals exceed the gate (permissive mode loses
        # digits to the tiny pivot), reported as a verdict, not a warning.
        monkeypatch.setenv("CIRCKR_STRICT", "0")
        got, out = self._run(capsys, command, *self.NEAR_SINGULAR, "--variant", variant)
        assert got == code
        assert out.err == ""

    @pytest.mark.parametrize(
        "command, n, c, variant",
        [
            ("check", 5, 1e-300, "tridiagonal"),
            ("solve", 5, 1e-300, "tridiagonal"),
            ("solve", 6, 1e-310, "circulant"),
            ("invert", 5, 1e-310, "tridiagonal"),
            ("decompose", 5, 1e-310, "circulant"),
            ("decompose", 5, -1e-310, "circulant"),  # a value, not a flag
        ],
    )
    def test_tiny_permissive_pivot_overflows(self, capsys, monkeypatch, tmp_path,
                                             command, n, c, variant):
        # d = c: f_2 = -c, and a division by that pivot leaves the range in
        # the solve, the tridiagonal G or the corner coefficients r.
        monkeypatch.setenv("CIRCKR_STRICT", "0")
        argv = [command, "--n", str(n), "--c", repr(c), "--a", "1", "--variant", variant]
        if command == "solve":
            rhs = tmp_path / "rhs.txt"
            rhs.write_text("1\n" + "0\n" * (n - 1))
            argv += ["--rhs", str(rhs)]
        got, out = self._run(capsys, *argv)
        assert got == 3
        assert out.err.splitlines()[0].startswith("ERROR Overflow:")
        assert out.out == ""


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

    def test_repeated_order_skips_slope(self, capsys):
        # One distinct order gives no slope, however often it is listed.
        argv = ["bench", "--sizes", "256,256", "--reps", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 0
        out = capsys.readouterr()
        assert out.err == ""
        assert "log-log slope" not in out.out
        proc = module_run(argv)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert len(proc.stdout.splitlines()) == 4
        assert "log-log slope" not in proc.stdout

    def test_bad_sizes(self, capsys):
        assert run_cli("bench", "--sizes", "a,b") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_bad_reps(self, capsys):
        assert run_cli("bench", "--sizes", "64", "--reps", "0") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_failing_order_leaves_stdout_empty(self, capsys):
        # The table is written only once every order has run.
        assert run_cli("bench", "--sizes", "64,2") == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("ERROR InvalidSpec:")


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

    @pytest.mark.parametrize("c, a", [("-5e0", "2"), ("-5", "2"), ("5", "-2E0"), ("-.5e1", "2e0")])
    def test_negative_exponent_form_is_a_value(self, capsys, c, a):
        # argparse takes only the -1 and -1.5 forms as values by default.
        assert run_cli("decompose", "--n", "5", f"--c={c}", f"--a={a}") == 0
        expected = capsys.readouterr()
        assert run_cli("decompose", "--n", "5", "--c", c, "--a", a) == 0
        assert capsys.readouterr() == expected

    def test_negative_exponent_form_reaches_every_subcommand(self, capsys):
        assert run_cli("bench", "--sizes", "64", "--d", "-2.5e0", "--reps", "1") == 0
        assert "d = -2.5," in capsys.readouterr().out
        assert run_cli("decompose", "--n", "5", "--c", "-inf", "--a", "1") == 2
        assert capsys.readouterr().err.startswith("ERROR InvalidSpec:")
        assert run_cli("decompose", "--n", "5", "--c", "-5e0", "--a", "2", "-x") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage:")

    def test_help_exits_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "decompose" in capsys.readouterr().out

    def test_parser_is_built_once(self):
        assert _build_parser() is _build_parser()

    def test_reused_parser_carries_no_state(self, capsys, tmp_path):
        # One process, one parser: each call starts from the defaults.
        assert run_cli("invert", *FIXTURE, "--precision", "3") == 0
        assert capsys.readouterr().out.startswith("0.313, ")
        assert run_cli("invert", *FIXTURE) == 0
        assert capsys.readouterr().out.startswith("0.313131, ")

        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n0\n0\n0\n0\n")
        solve = ["solve", *FIXTURE, "--rhs", str(rhs)]
        alone = module_run(solve)
        assert alone.returncode == 0
        assert run_cli(*solve, "--precision", "-1") == 2
        assert capsys.readouterr().err.startswith("ERROR Usage: argument --precision:")
        assert run_cli(*solve) == 0
        assert capsys.readouterr() == (alone.stdout, alone.stderr)

        assert run_cli("--help") == 0
        assert "decompose" in capsys.readouterr().out

    def test_fmt_normalizes_negative_zero(self):
        assert list(_rows(np.array([[-0.0]]), 6, " ")) == ["0"]
        assert list(_rows(np.array([[0.0]]), 6, " ")) == ["0"]
        assert list(_rows(np.array([[-1.5]]), 3, " ")) == ["-1.5"]
        v = np.array([-0.0, -1.5, -1.5])
        assert list(_circulant_rows(v, 3, 3)) == ["0, -1.5, -1.5\n-1.5, 0, -1.5\n-1.5, -1.5, 0"]

    @pytest.mark.parametrize("command", ["solve", "invert"])
    def test_negative_precision_is_a_usage_error(self, capsys, tmp_path, command):
        rhs = tmp_path / "rhs.txt"
        rhs.write_text("1\n0\n0\n0\n0\n")
        extra = ["--rhs", str(rhs)] if command == "solve" else []
        assert run_cli(command, *FIXTURE, *extra, "--precision", "-1") == 2
        out = capsys.readouterr()
        assert out.err.startswith("ERROR Usage: argument --precision:")
        assert out.out == ""

    @pytest.mark.parametrize(
        "value, detail",
        [("-1", "must be >= 0, got -1"), ("abc", "invalid int value: 'abc'")],
    )
    def test_precision_error_text(self, capsys, value, detail):
        assert run_cli("invert", *FIXTURE, "--precision", value) == 2
        assert capsys.readouterr().err == f"ERROR Usage: argument --precision: {detail}\n"


class TestProcessLevel:
    """OS-level behavior of python -m: exit codes and the stderr contract."""

    def test_overflow_exit_status(self):
        proc = module_run(["decompose", "--n", "2000", "--c", "5", "--a", "2"])
        assert proc.returncode == 3
        assert proc.stderr.splitlines()[0].startswith("ERROR Overflow:")
        assert proc.stdout == ""

    def test_order_past_the_overflow_index_exit_status(self):
        # Found from the growth rate, without allocating the order's f.
        proc = module_run(["decompose", "--n", "1000000000000", "--c", "2.5", "--a", "1"])
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

    def test_order_too_large_to_hold_exit_status(self):
        # A permissive ratio keeps all of f, 7.28 TiB at this order; the
        # child caps its own address space at 3 GB so no host can grant it.
        limit = 3 * 10**9
        child = (
            "import resource; "
            f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
            "from circkr.cli import entry; entry()"
        )
        env = dict(os.environ, CIRCKR_STRICT="0")
        proc = subprocess.run(
            [*PYTHON, "-c", child, "decompose", "--n", "1000000000000", "--c", "1.5",
             "--a", "1"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 6
        assert proc.stderr.startswith(
            "ERROR SizeGuard: order n = 1000000000000 does not fit in memory: "
        )
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stdout == ""

    def test_reader_closing_stdout_early(self):
        # ``| head -c 20``: the rest of the payload is dropped quietly.
        proc = subprocess.Popen(
            [*PYTHON, "-m", "circkr", "invert", "--n", "1000", "--c", "2.05", "--a", "1"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert len(proc.stdout.read(20)) == 20
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 0
        assert err == b""

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
