from __future__ import annotations

import argparse
import importlib
import json
import sys

import erarray
from erarray import checks, cli
from erarray.cli import main
from erarray.formats import jacobi_from_json
from erarray.hankel import hankel_from_betas


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestArray:
    def test_stirling_plain(self, capsys):
        code, out, _ = run(
            capsys, "array", "--g", "1", "--f", "exp(x)-1", "--order", "5"
        )
        assert code == 0
        rows = [line.split() for line in out.strip().splitlines()]
        assert rows[5] == ["0", "1", "15", "25", "10", "1"]

    def test_pascal(self, capsys):
        code, out, _ = run(
            capsys, "array", "--g", "exp(x)", "--f", "x", "--order", "4"
        )
        assert code == 0
        assert out.strip().splitlines()[-1].split() == ["1", "4", "6", "4", "1"]

    def test_named_pair(self, capsys):
        code, out, _ = run(
            capsys, "array", "--name", "laguerre", "--order", "3", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["rows"][3] == ["6", "18", "9", "1"]

    def test_syntax_error_exit_2(self, capsys):
        code, _, err = run(capsys, "array", "--g", "1/(1-x", "--f", "x")
        assert code == 2
        assert "offset 6" in err

    def test_missing_pair(self, capsys):
        code, _, err = run(capsys, "array")
        assert code == 2
        assert "--name" in err

    def test_order_bounds(self, capsys):
        code, _, err = run(capsys, "array", "--name", "thm1", "--order", "65")
        assert code == 2
        assert "between 2 and 64" in err

    def test_z_specialization(self, capsys):
        code, out, _ = run(
            capsys, "array", "--name", "thm2", "--order", "3", "--z", "1"
        )
        assert code == 0
        assert out.strip().splitlines()[-1].split() == ["6", "18", "9", "1"]

    def test_pole_reported_per_entry(self, capsys):
        # g = 1/(1-z) puts a z-pole on the diagonal; at z = 1 those cells
        # report the pole while the rest specialize normally.
        code, out, _ = run(
            capsys, "array", "--g", "1/(1-z)", "--f", "x", "--order", "2",
            "--z", "1", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0] == ["pole at z = 1"]
        assert rows[1] == ["0", "pole at z = 1"]

    def test_bad_z_names_the_option(self, capsys):
        for value in ("1/0", "half"):
            code, _, err = run(capsys, "array", "--name", "thm1", "--order", "3",
                               "--z", value)
            assert code == 2
            assert err == f"error: --z needs a rational P/Q, got {value!r}\n"

    def test_z_specialization_no_pole(self, capsys):
        code, out, _ = run(
            capsys, "array", "--g", "1/(1-z*x)", "--f", "x", "--order", "2",
            "--z", "2", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"][2] == ["8", "4", "1"]

    def test_json_round_trip_bytes(self, capsys):
        code, out, _ = run(
            capsys, "array", "--name", "thm1", "--order", "4", "--format", "json"
        )
        assert code == 0
        from erarray import formats

        assert formats.triangle_to_json(formats.triangle_from_json(out)) == out


class TestInverseMultiply:
    def test_inverse(self, capsys):
        code, out, _ = run(
            capsys, "inverse", "--g", "1/(1-x)", "--f", "x", "--order", "4"
        )
        assert code == 0
        assert out.strip().splitlines()[1].split() == ["-1", "1"]

    def test_multiply_named(self, capsys):
        code, out, _ = run(
            capsys, "multiply",
            "--name", "stirling2",
            "--g2", "exp(z*x)", "--f2", "x",
            "--order", "3", "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["rows"][2] == ["z^2 + z", "2*z + 1", "1"]

    def test_multiply_identity(self, capsys):
        code, out, _ = run(
            capsys, "multiply",
            "--name", "laguerre", "--g2", "1", "--f2", "x",
            "--order", "3",
        )
        assert code == 0
        assert out.strip().splitlines()[3].split() == ["6", "18", "9", "1"]


class TestProdmat:
    def test_thm1_display(self, capsys):
        code, out, _ = run(
            capsys, "prodmat", "--name", "thm1", "--order", "4", "--format", "json"
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[1] == ["z", "z + 1", "1", "0", "0"]

    def test_both_agree(self, capsys):
        code, out, _ = run(
            capsys, "prodmat", "--g", "1/(1-x)", "--f", "x/(1-x)",
            "--order", "5", "--method", "both",
        )
        assert code == 0
        assert "AGREE rows 0..4" in out


class TestSequencesCommands:
    def test_hankel_bfile(self, capsys, tmp_path):
        bfile = tmp_path / "bell.txt"
        bfile.write_text(
            "\n".join(f"{n} {v}" for n, v in enumerate((1, 1, 2, 5, 15, 52, 203, 877, 4140)))
        )
        code, out, _ = run(capsys, "hankel", "--in", str(bfile))
        assert code == 0
        assert out.split() == ["1", "1", "2", "12", "288"]

    def test_hankel_bfile_with_a_gap(self, capsys, tmp_path):
        bfile = tmp_path / "gap.txt"
        bfile.write_text("0 1\n1 1\n3 5\n4 15\n5 52\n")
        code, out, err = run(capsys, "hankel", "--in", str(bfile))
        assert code == 2 and not out
        assert "bfile line 3: index 3 leaves a gap after index 1" in err

    def test_hankel_inline_symbolic(self, capsys):
        code, out, _ = run(
            capsys, "hankel", "1", "z", "z^2 + z", "--nmax", "1", "--format", "json"
        )
        assert code == 0
        assert json.loads(out) == ["1", "z"]

    def test_hankel_term_shortage(self, capsys):
        code, _, err = run(capsys, "hankel", "1", "--nmax", "1")
        assert code == 2
        assert "need 3 terms" in err

    def test_hankel_negative_nmax(self, capsys):
        code, out, err = run(capsys, "hankel", "1", "1", "2", "5", "--nmax", "-1")
        assert (code, out) == (2, "")
        assert "nmax must be >= 0, got -1" in err

    def test_binom_inline(self, capsys):
        code, out, _ = run(capsys, "binom", "1", "0", "0", "0")
        assert code == 0
        assert out.split() == ["1", "1", "1", "1"]

    def test_jacobi_from_moments(self, capsys, tmp_path):
        seq = tmp_path / "moments.json"
        seq.write_text('["1", "1", "2", "6", "24", "120", "720"]')
        code, out, _ = run(capsys, "jacobi", "--in", str(seq))
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == ["1", "3", "5"]
        assert data["beta"] == ["1", "4"]
        assert data["finite_support"] is False

    def test_integer_json_moments(self, capsys, tmp_path):
        seq = tmp_path / "m.json"
        seq.write_text("[1, 1, 2, 5, 15]")
        code, out, _ = run(capsys, "hankel", "--in", str(seq))
        assert code == 0
        assert out.split() == ["1", "1", "2"]
        code, out, _ = run(capsys, "jacobi", "--in", str(seq))
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == ["1", "2"] and data["beta"] == ["1"]

    def test_json_non_term_exit_2(self, capsys, tmp_path, deadline):
        seq = tmp_path / "m.json"
        for text, message in (("[1, 1.5, 2]", "term 1"), ('["1", {"z": 1}]', "term 1"),
                              ('"12"', "must be a list"),
                              ('["1", "z^99999999999", "1"]',
                               "term 1: z-degree 99999999999 exceeds the bound"),
                              ('["1", "z^99999999999*2", "1"]',
                               "term 1: z-degree 99999999999 exceeds the bound")):
            seq.write_text(text)
            for command in ("hankel", "jacobi"):
                with deadline(5.0, f"{command} on {text}"):
                    code, _, err = run(capsys, command, "--in", str(seq))
                assert code == 2
                assert message in err and "Traceback" not in err

    def test_jacobi_from_pair(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--name", "thm1", "--order", "4")
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == ["z", "z + 1", "z + 2", "z + 3"]
        assert data["beta"] == ["z", "2*z", "3*z"]

    def test_jacobi_non_tridiagonal(self, capsys):
        code, _, err = run(capsys, "jacobi", "--name", "lah_like", "--order", "4")
        assert code == 2
        assert "not tridiagonal" in err

    def test_moments_from_jacobi_file(self, capsys, tmp_path):
        jf = tmp_path / "jacobi.json"
        jf.write_text(
            json.dumps({"a0": "1", "alpha": ["z", "z + 1", "z + 2"], "beta": ["z", "2*z"]})
        )
        code, out, _ = run(capsys, "moments", "--in", str(jf), "--count", "3")
        assert code == 0
        assert out.strip().splitlines() == ["1", "z", "z^2 + z", "z^3 + 3*z^2 + z"]

    def test_moments_from_jacobi_file_errors(self, capsys, tmp_path):
        jf = tmp_path / "jacobi.json"
        jf.write_text(json.dumps({"a0": 1, "alpha": [1, 2], "beta": [1]}))
        code, out, _ = run(capsys, "moments", "--in", str(jf))
        assert code == 0
        assert out.split() == ["1", "1", "2"]
        for data in ({"a0": 1, "alpha": [1.5], "beta": []}, {"alpha": [1], "beta": []}):
            jf.write_text(json.dumps(data))
            code, _, err = run(capsys, "moments", "--in", str(jf))
            assert code == 2 and "Traceback" not in err

    def test_moments_negative_count(self, capsys, tmp_path):
        jf = tmp_path / "jacobi.json"
        jf.write_text(json.dumps({"a0": 1, "alpha": [1, 2], "beta": [1]}))
        for source in (("--in", str(jf)), ("--name", "thm2", "--order", "3")):
            code, out, err = run(capsys, "moments", *source, "--count", "-1")
            assert (code, out) == (2, "")
            assert "count must be >= 0, got -1" in err

    def test_rational_round_trip(self, capsys, tmp_path):
        # Jacobi data over Q(z): moments --in, then hankel --in and
        # jacobi --in on the moments they wrote.
        alpha = ["z + 1", "2*z", "z + 3", "1", "z", "2", "3*z + 1"]
        beta = ["(2*z + 1)/(z + 1)", "(z + 3)/(z + 2)", "(3*z + 1)/(z + 1)",
                "z/(z + 2)", "(z + 3)/(z + 1)", "(2*z + 3)/(z + 2)"]
        jf = tmp_path / "jacobi.json"
        jf.write_text(json.dumps({"a0": "1", "alpha": alpha, "beta": beta}))
        code, out, _ = run(capsys, "moments", "--in", str(jf), "--format", "json")
        assert code == 0
        moments = json.loads(out)
        assert len(moments) == 8 and "/(z^" in moments[-1]
        seq = tmp_path / "moments.json"
        seq.write_text(out)
        code, out, _ = run(capsys, "hankel", "--in", str(seq), "--format", "json")
        assert code == 0
        params = jacobi_from_json(jf.read_text())
        assert json.loads(out) == [str(h) for h in hankel_from_betas(params, 3)]
        code, out, _ = run(capsys, "jacobi", "--in", str(seq))
        assert code == 0
        data = json.loads(out)
        assert data["alpha"] == alpha[:4] and data["beta"] == beta[:3]
        assert data["depth"] == 4 and data["finite_support"] is False

    def test_moments_from_pair(self, capsys):
        code, out, _ = run(capsys, "moments", "--name", "thm2", "--order", "3")
        assert code == 0
        assert out.strip().splitlines() == ["1", "z", "z^2 + z", "z^3 + 4*z^2 + z"]


class TestTrianglePoly:
    def test_triangle_eulerian_bfile(self, capsys):
        code, out, _ = run(
            capsys, "triangle", "eulerian", "--order", "3", "--format", "bfile"
        )
        assert code == 0
        assert "3 2 4" in out.splitlines()

    def test_poly_bell(self, capsys):
        code, out, _ = run(capsys, "poly", "bell", "--n", "4")
        assert code == 0
        assert out.strip() == "z^4 + 6*z^3 + 7*z^2 + z"

    def test_poly_eulerian_json(self, capsys):
        code, out, _ = run(capsys, "poly", "eulerian", "--n", "3", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["0", "1", "4", "1"]

    def test_poly_bell_latex(self, capsys):
        code, out, _ = run(capsys, "poly", "bell", "--n", "4", "--format", "latex")
        assert code == 0
        assert out == "\\begin{pmatrix}0, 1, 7, 6, 1\\end{pmatrix}\n"

    def test_poly_eulerian_bfile(self, capsys):
        code, out, _ = run(capsys, "poly", "eulerian", "--n", "3", "--format", "bfile")
        assert code == 0
        assert out == "0 0\n1 1\n2 4\n3 1\n"

    def test_poly_n_budget(self, capsys, deadline):
        # --n shares --order's bound, checked before any work: n = 10^9
        # would take longer than the deadline.
        assert cli.MAX_ORDER == 64
        for which in ("bell", "eulerian"):
            code, out, _ = run(capsys, "poly", which, "--n", "64", "--format", "json")
            assert code == 0 and json.loads(out)[-1] == "1"
            with deadline(2.0, f"poly {which} --n 10^9"):
                code, out, err = run(capsys, "poly", which, "--n", str(10**9))
            assert code == 2 and not out
            assert err == f"error: --n must be at most 64, got {10**9}\n"


class TestVerify:
    def test_thm1_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "thm1", "--order", "6")
        assert code == 0
        assert "FAIL" not in out
        assert "all checks passed" in out

    def test_thm2_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "thm2", "--order", "6")
        assert code == 0
        assert "FAIL" not in out

    def test_examples_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "examples", "--order", "6")
        assert code == 0
        assert "FAIL" not in out

    def test_all_prints_every_identity(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--order", "6")
        assert code == 0
        assert [line.split()[0] for line in out.splitlines()] == ["PASS"] * 35 + ["all"]

    def test_smallest_order_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "all", "--order", "2")
        assert code == 0
        assert "FAIL" not in out

    def test_order_bounds(self, capsys):
        for order in ("1", "65"):
            code, _, err = run(capsys, "verify", "all", "--order", order)
            assert code == 2
            assert "order must be between 2 and 64" in err

    def test_format_option_removed(self, capsys):
        code, _, err = run(capsys, "verify", "thm1", "--format", "json")
        assert code == 2
        assert "unrecognized arguments: --format" in err

    def test_failure_shows_both_values(self, capsys, monkeypatch):
        def failing(order):
            yield "a: holds", True, ""
            yield "b: compared", False, "expected: 1\nactual:   2"
            yield "c: flagged", False, ""

        monkeypatch.setitem(checks.SUITES, "thm1", failing)
        code, out, _ = run(capsys, "verify", "thm1", "--order", "6")
        assert code == 1
        assert out == (
            "PASS a: holds\nFAIL b: compared\n  expected: 1\n  actual:   2\n"
            "FAIL c: flagged\n2 check(s) failed\n"
        )


class TestUsage:
    def test_no_command(self, capsys):
        assert main([]) == 2

    def test_parse_and_eval_errors_exit_2(self, capsys):
        # ParseError and EvalError are ValueErrors: main reports both the
        # same way as any other bad input.
        for argv, message in (
            (("array", "--g", "1/(1-x", "--f", "x"),
             "syntax error at offset 6: expected ')', found end of input"),
            (("hankel", "1", "x"), "x is not allowed in a scalar context (at offset 0..1)"),
            (("hankel", "1", "1/(z-z)"), "scalar division by zero (at offset 0..6)"),
        ):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


class TestParser:
    """``main`` builds one parser per process, on its first call, and looks
    the command function up on every call."""

    def test_import_builds_no_parser(self, monkeypatch):
        made, init = [], argparse.ArgumentParser.__init__

        def recording(parser, *args, **kwargs):
            made.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", recording)
        monkeypatch.setattr(erarray, "cli", cli)
        monkeypatch.delitem(sys.modules, "erarray.cli")
        fresh = importlib.import_module("erarray.cli")
        assert fresh is not cli and fresh._parser is None and made == []
        assert fresh.main(["verify", "thm1", "--order", "2"]) == 0
        assert made and fresh._parser is not None

    def test_second_call_reuses_the_parser(self, capsys, monkeypatch):
        calls = [
            ("verify", "thm1", "--order", "4"),
            ("array", "--name", "thm1", "--order", "65"),
            ("verify", "nope"),
        ]
        first = [run(capsys, *argv) for argv in calls]
        parser = cli._parser
        builds = []
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1))
        assert [run(capsys, *argv) for argv in calls] == first
        assert first[0][0] == 0 and first[1][0] == 2 and first[2][0] == 2
        assert cli._parser is parser and builds == []

    def test_command_is_looked_up_per_call(self, capsys, monkeypatch):
        run(capsys, "verify", "thm1", "--order", "2")
        seen = []

        def traced(args):
            seen.append((args.target, args.order))
            return 7

        monkeypatch.setattr(cli, "cmd_verify", traced)
        assert main(["verify", "thm2", "--order", "3"]) == 7
        assert seen == [("thm2", 3)]

    def test_usage_on_the_reused_parser(self, capsys):
        run(capsys, "verify", "thm1", "--order", "2")
        parser = cli._parser
        assert main([]) == 2
        assert main(["--help"]) == 0
        assert "usage: erarray" in capsys.readouterr().out
        assert cli._parser is parser
