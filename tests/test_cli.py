import json
import math

import numpy as np
import pytest

from oneshift.cli import THETA_GRID_DEFAULT, fmt, main, parse_grid
from oneshift.forms import PairFamily, build_sum_truncation
from oneshift.tridiag import tridiag_eigenvalues


def run(argv):
    return main(argv)


def full_lambda_max(fam, n):
    """Largest value of the full solve of the order-n section."""
    return fmt(tridiag_eigenvalues(build_sum_truncation(fam, n)).values[-1])


class TestParseGrid:
    def test_single_value(self):
        assert parse_grid("1.5") == [1.5]

    def test_inclusive_grid(self):
        grid = parse_grid("0.1:0.1:3.1")
        assert len(grid) == 31
        assert grid[0] == pytest.approx(0.1)
        assert grid[-1] == pytest.approx(3.1)

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            parse_grid("1:2")
        with pytest.raises(ValueError):
            parse_grid("2.0:0.1:1.0")


class TestSpectrumCommand:
    def test_row_count(self, tmp_path):
        out = tmp_path / "s.csv"
        code = run(["spectrum", "--family", "constant", "--theta", str(math.pi / 2), "--n", "4", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "index,eigenvalue"
        assert len(lines) == 5

    def test_rational_anchor_extremes(self, tmp_path):
        out = tmp_path / "s.csv"
        theta = math.acos(-0.8)
        code = run(
            ["spectrum", "--family", "eq3", "--omega", str(math.pi / 2), "--theta", str(theta), "--n", "600", "--out", str(out)]
        )
        assert code == 0
        vals = [float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]]
        assert abs(vals[0] + 1.5) < 1e-8
        assert abs(vals[-1] - 1.5) < 1e-8

    def test_general_file(self, tmp_path):
        from oneshift.forms import paper_example_3x3

        p = paper_example_3x3(0.01)
        rows = [str(p.a.n)]
        rows += [" ".join(format(v, ".17g") for v in row) for row in p.a.entries]
        rows.append("")
        rows += [" ".join(format(v, ".17g") for v in row) for row in p.b.entries]
        pair_file = tmp_path / "pair.txt"
        pair_file.write_text("\n".join(rows) + "\n")
        out = tmp_path / "s.csv"
        code = run(["spectrum", "--family", "general-file", "--input", str(pair_file), "--out", str(out)])
        assert code == 0
        vals = [float(ln.split(",")[1]) for ln in out.read_text().splitlines()[1:]]
        assert np.allclose(vals, [-0.2, 0.2, 2.0], atol=1e-10)

    @pytest.mark.parametrize(
        "content, message",
        [("", "empty"), ("3\n1 0 0\n0 1 0\n", "rows for A"), ("2\n1 0\n0 1\n\n1 0\n", "rows for B")],
        ids=["empty", "short-a", "short-b"],
    )
    def test_short_general_file_exits_2(self, tmp_path, capsys, content, message):
        pair_file = tmp_path / "pair.txt"
        pair_file.write_text(content)
        code = run(["spectrum", "--family", "general-file", "--input", str(pair_file), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_odd_order_bumped(self, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = run(["spectrum", "--family", "constant", "--theta", "1.0", "--n", "5", "--out", str(out)])
        assert code == 0
        assert "odd" in capsys.readouterr().err
        assert len(out.read_text().splitlines()) == 7


class TestRhoCommand:
    def test_two_constant_with_closed_form(self, tmp_path):
        out = tmp_path / "r.json"
        code = run(["rho", "--family", "two-constant", "--omega", "0.3", "--theta", "2.0", "--n", "400", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        closed = 2 * abs(math.sin(1.7))
        assert abs(float(payload["rho_high"]) - closed) < 5e-3
        assert abs(float(payload["rho_closed"]) - closed) < 1e-12


class TestSweepCommand:
    def test_bad_grid_exits_2(self, tmp_path, capsys):
        code = run(["sweep", "--family", "constant", "--theta", "2.0:0.1:1.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_out_of_range_grid_exits_2(self, tmp_path):
        code = run(["sweep", "--family", "constant", "--theta", "0.5:1.0:3.5", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_rho_mode_columns(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--family", "constant", "--theta", "0.5:0.5:1.5", "--n", "60", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,lambda_max,rho_numeric,rho_closed"
        assert len(lines) == 4
        for theta, line in zip(parse_grid("0.5:0.5:1.5"), lines[1:]):
            assert line.split(",")[1] == full_lambda_max(PairFamily.constant(theta), 60)


class TestFigureCommand:
    def test_preset_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["figure", "1", "--panel", "left", "--out", str(a)]) == 0
        assert run(["figure", "1", "--panel", "left", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "theta,index,eigenvalue,i_commutator_eig"
        assert len(lines) == 1 + 31 * 10

    def test_figure2_left_columns(self, tmp_path):
        out = tmp_path / "f2.csv"
        assert run(["figure", "2", "--panel", "left", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,lambda_max"
        assert len(lines) == 32
        for theta, line in zip(parse_grid(THETA_GRID_DEFAULT), lines[1:]):
            assert line.split(",")[1] == full_lambda_max(PairFamily.head_omega(math.pi / 2, theta), 100)


class TestValidateCommand:
    def test_report_is_strict_json_and_passes(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["validate", "--out", str(out)])
        report = json.loads(out.read_text())
        assert code == 0
        assert report["all_pass"] is True
        assert all(set(c) == {"name", "expected", "observed", "tolerance", "pass"} for c in report["checks"])

    def test_perturbed_run_fails(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["validate", "--perturb", "--out", str(out)])
        assert code == 1
        report = json.loads(out.read_text())
        assert report["all_pass"] is False


class TestExitCodes:
    def test_unwritable_output_exits_3(self):
        code = run(["spectrum", "--family", "constant", "--theta", "1.0", "--n", "4", "--out", "/no-such-dir/out.csv"])
        assert code == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--family", "constant", "--n", "40"],
            ["spectrum", "--family", "eq5", "--n", "40"],
            ["rho", "--family", "eq3", "--omega", "1.0", "--n", "40"],
            ["spectrum", "--family", "two-constant", "--omega", "1.0", "--n", "40"],
        ],
    )
    def test_missing_theta_exits_2(self, capsys, argv):
        assert run(argv) == 2
        assert "requires --theta" in capsys.readouterr().err

    def test_missing_required_family_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--theta", "1.0"])
        assert exc.value.code == 2
