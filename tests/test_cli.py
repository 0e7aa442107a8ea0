import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oneshift
from oneshift import analysis, cli, forms, theory
from oneshift.cli import MAX_GRID_POINTS, MAX_ORDER, MAX_SWEEP_ROWS, THETA_GRID_DEFAULT, fmt, main, parse_grid
from oneshift.forms import PairFamily, build_sum_truncation
from oneshift.tridiag import tridiag_eigenvalues


def run(argv):
    return main(argv)


def full_lambda_max(fam, n):
    """Largest value of the full solve of the order-n section."""
    return fmt(tridiag_eigenvalues(build_sum_truncation(fam, n)).values[-1])


# A is an involution; B's entries are finite, but their symmetrized sums overflow
HUGE_PAIR = "2\n1 0\n0 -1\n\n1e308 1e308\n1e308 1e308\n"


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

    def test_point_count_is_bounded(self):
        assert len(parse_grid(f"0:1:{MAX_GRID_POINTS - 1}")) == MAX_GRID_POINTS
        with pytest.raises(ValueError, match="points"):
            parse_grid(f"0:1:{MAX_GRID_POINTS}")


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
        [
            ("", "empty"),
            ("3\n1 0 0\n0 1 0\n", "rows for A"),
            ("2\n1 0\n0 1\n\n1 0\n", "rows for B"),
            ("-3\n", "order must be >= 1"),
            ("2\n1 0\n0 1\n\n1 0\n0\n", "pair file row 2 of B has 1 entries, expected 2"),
            ("x\n", "pair file order must be an integer, got 'x'"),
            ("2\n1 0\n0 1\n\n1 0\n0 1\n\nextra junk\n", "pair file has more than 2 rows for B"),
        ],
        ids=["empty", "short-a", "short-b", "negative-order", "ragged-row", "non-integer-order", "trailing-line"],
    )
    def test_short_general_file_exits_2(self, tmp_path, capsys, content, message):
        pair_file = tmp_path / "pair.txt"
        pair_file.write_text(content)
        code = run(["spectrum", "--family", "general-file", "--input", str(pair_file), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert message in err and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["spectrum", "rho"])
    def test_input_with_an_angle_family_exits_2(self, tmp_path, capsys, command):
        pair_file, out = tmp_path / "pair.txt", tmp_path / "out.txt"
        pair_file.write_text(PAIR_FILE)
        argv = [command, "--family", "constant", "--theta", "1.0", "--input", str(pair_file), "--n", "4"]
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: family constant reads no --input; only family general-file does\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, family, flag",
        [
            ("rho", "constant", "--omega"),
            ("spectrum", "eq5", "--omega"),
            ("rho", "eq5", "--omega"),
            ("spectrum", "general-file", "--theta"),
            ("rho", "general-file", "--omega"),
            ("spectrum", "general-file", "--n"),
            ("rho", "general-file", "--n"),
            # checked before any family is built, and so before the odd-order warning
            ("sweep", "constant", "--omega"),
            ("sweep", "eq5", "--omega"),
        ],
    )
    def test_unread_angle_exits_2(self, tmp_path, capsys, command, family, flag):
        pair_file, out = tmp_path / "pair.txt", tmp_path / "out.txt"
        pair_file.write_text(PAIR_FILE)
        reads = ["--input", str(pair_file)] if family == "general-file" else ["--theta", "1.0"]
        argv = [command, "--family", family, *reads, flag, "5", "--n", "5", "--out", str(out)]
        assert run(argv) == 2
        readers = {
            "--omega": "only families eq3 and two-constant do",
            "--theta": "only the angle families do",
            "--n": "only the angle families do",
        }
        assert capsys.readouterr().err == f"error: family {family} reads no {flag}; {readers[flag]}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["spectrum", "rho"])
    def test_huge_general_file_exits_2(self, tmp_path, capsys, command):
        pair_file = tmp_path / "pair.txt"
        pair_file.write_text(HUGE_PAIR)
        code = run([command, "--family", "general-file", "--input", str(pair_file), "--out", str(tmp_path / "s.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: entries too large")
        assert err.count("\n") == 1

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


def _name_switches(family, omega, theta):
    """``rho_closed`` and the excluded point as chosen by family name before ``cli.closed_forms``."""
    if family == "constant":
        return theory.rho_constant_angle(theta).rho, None
    if family == "two-constant":
        p = theory.TwoAngleParams.from_angles(omega, theta)
        return theory.rho_two_constant_angles(omega, theta).rho, theory.tilde_point(p)
    return None, None


@pytest.mark.parametrize("family", ["constant", "eq3", "eq5", "two-constant"])
def test_closed_forms_match_the_family_name_switches(family):
    angles = parse_grid(THETA_GRID_DEFAULT) + [0.05, math.pi / 3, math.pi / 2, 2 * math.pi / 3, 3.1]
    for omega in angles:
        for theta in angles:
            got = cli.closed_forms(cli.build_family(family, omega, theta))
            want = _name_switches(family, omega, theta)
            # float.hex tells -0.0 from 0.0, so the match is bitwise
            assert [v if v is None else v.hex() for v in got] == [v if v is None else v.hex() for v in want]


class TestSweepCommand:
    def test_bad_grid_exits_2(self, tmp_path, capsys):
        code = run(["sweep", "--family", "constant", "--theta", "2.0:0.1:1.0", "--out", str(tmp_path / "x.csv")])
        assert code == 2

    @pytest.mark.parametrize("spec", ["0.1:1e-320:0.3", "0.1:0.1:inf", "nan:0.1:0.3", "0.1:x:0.3"])
    def test_unbounded_or_nonfinite_grid_exits_2(self, tmp_path, capsys, spec):
        code = run(["sweep", "--family", "constant", "--theta", spec, "--n", "4", "--out", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid spec") or err.startswith("error: bad grid spec")
        assert err.count("\n") == 1

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


    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(["constant", "eq3", "eq5", "two-constant"]),
        omega=st.floats(0.05, math.pi - 0.05),
        start=st.floats(0.05, 1.0),
        n=st.sampled_from([4, 40, 600, 1300]),
    )
    def test_rho_mode_rows_equal_separate_solves(self, tmp_path_factory, family, omega, start, n):
        # one solve a row gives lambda_max, bitwise the top eigenvalue of
        # family_eigenvalues_at, and rho_numeric's rho
        out = tmp_path_factory.mktemp("sweep") / "rho.csv"
        grid = f"{start!r}:1.0:{start + 2.0!r}"
        flags = ["--omega", repr(omega)] if family in ("eq3", "two-constant") else []
        assert run(["sweep", "--family", family, *flags, "--theta", grid, "--n", str(n), "--out", str(out)]) == 0
        fams = [cli.build_family(family, omega, theta) for theta in parse_grid(grid)]
        tops = analysis.family_eigenvalues_at(fams, n, [n - 1])[:, 0].tolist()
        for line, fam, top in zip(out.read_text().splitlines()[1:], fams, tops):
            rho = analysis.rho_numeric(fam, n, exclusion=cli.closed_forms(fam)[1]).rho
            assert line.split(",")[1:3] == [fmt(top), fmt(rho)]


class TestFigureCommand:
    def test_preset_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["figure", "1", "--panel", "left", "--out", str(a)]) == 0
        assert run(["figure", "1", "--panel", "left", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "theta,index,eigenvalue,i_commutator_eig"
        assert len(lines) == 1 + 31 * 10

    @pytest.mark.parametrize("argv, fam_for, n", [
        (["3"], PairFamily.perturbed_heads, 100),
        (["1", "--panel", "left"], lambda t: PairFamily.head_omega(math.pi / 2, t), 10),
    ], ids=["figure-3", "figure-1-left"])
    def test_spectrum_rows_equal_per_section_solves(self, tmp_path, argv, fam_for, n):
        out = tmp_path / "f.csv"
        assert run(["figure", *argv, "--out", str(out)]) == 0
        expected = []
        for theta in parse_grid(THETA_GRID_DEFAULT):
            for i, lam in enumerate(tridiag_eigenvalues(build_sum_truncation(fam_for(theta), n)).values.tolist()):
                mu = math.sqrt(max(0.0, lam * lam * (4.0 - lam * lam)))
                expected.append(f"{fmt(theta)},{i},{fmt(lam)},{fmt(mu)}")
        assert out.read_text().splitlines()[1:] == expected

    def test_figure2_left_columns(self, tmp_path):
        out = tmp_path / "f2.csv"
        assert run(["figure", "2", "--panel", "left", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "theta,lambda_max"
        assert len(lines) == 32
        for theta, line in zip(parse_grid(THETA_GRID_DEFAULT), lines[1:]):
            assert line.split(",")[1] == full_lambda_max(PairFamily.head_omega(math.pi / 2, theta), 100)


# SHA-256 of whole output files.  Any change to the solver or to the
# formatting that alters one byte of them fails here.
OUTPUT_DIGESTS = {
    ("figure", "3"): "013714b08f62087f0f2ec4dac911779538d81abafd3cddbd70c5eb32c3c7ecec",
    ("figure", "4", "--panel", "left"): "0fcb46f475559cf4a025c0b4077900a513702a6b2eeb3cacc8be35052b0b96f2",
    ("spectrum", "--family", "eq5", "--theta", "1.0", "--n", "100"): (
        "c91c8e855945b1515e92266b340a8307b9740f14c2ebd1ab087b9603d21eb4eb"
    ),
    # rho_closed and the exclusion of c - gamma
    ("rho", "--family", "two-constant", "--omega", "0.3", "--theta", "2.0", "--n", "400"): (
        "4a1d0089f9666becc874285bb4dac956963a9c0f854b156157ee3f9575c4eeff"
    ),
    # the eq3 anchor, omega = pi/2 and theta = arccos(-0.8)
    ("rho", "--family", "eq3", "--omega", "1.5707963267948966", "--theta", "2.498091544796509", "--n", "600"): (
        "249f97c9d51b982d0649255856db086da142215f58d272b691e890115d58574e"
    ),
    # 31 lambda_max lanes through the plain-Python stage
    ("figure", "2", "--panel", "left"): "1dca84aa28529520a24f5613ca66372e809d6226a050ab1cf23ca6dfa9003c42",
    # dense guesses of 31 sections of order 10
    ("figure", "1", "--panel", "left"): "87a40689f14927e80a817ed41ef305ac20a6529e6b4abcfda1ef0b76323c03b1",
    # 961 lambda_max lanes of lockstep bisection, which no workload runs
    ("figure", "2", "--panel", "right"): "b7f76d18fd7c0f2310a265d592ca1771fa8f9e7a03fb00c8e4bd631dc303b5ed",
    # 291 lambda_max values read off the rho solve at the default order 600
    ("sweep", "--family", "constant", "--theta", "0.1:0.01:3.0", "--mode", "rho"): (
        "ecd1810c72d07d2661e7791796b7bb7a3011037d1a8aad6fb1bb7620d9edaff8"
    ),
    # rho_closed on both sides of the plateau, and the exclusion
    ("sweep", "--family", "two-constant", "--omega", "0.3", "--theta", "0.2:0.2:3.0", "--n", "200", "--mode", "rho"): (
        "a11a968b9aff831663b881a1c213c1a461bb7588520e1c38e6f6ecd5d7093fe9"
    ),
    ("sweep", "--family", "eq5", "--theta", "0.2:0.2:3.0", "--n", "200", "--mode", "rho"): (
        "1bb3046b10c702f4a18b6375d547abc55c4a291be3c384d71d229ba5c214f62f"
    ),
    # the order-(n + 200) filter drops two values beyond the margin at 1.45
    # and 1.5
    ("sweep", "--family", "two-constant", "--omega", "1.5", "--theta", "1.3:0.05:1.5", "--n", "40", "--mode", "rho"): (
        "9941febdf6d79c78c20a79fc931918222def852ad05e7449c3c2e1e1b78fd630"
    ),
    # lambda_max at the point 2 beyond the band (0.5, 1.1) and in the band
    # (1.7, 2.3, 2.9), read off rho's solve
    ("sweep", "--family", "constant", "--theta", "0.5:0.6:2.9", "--n", "600", "--mode", "rho"): (
        "ff6429ce655ead8ebeb902ae501375ad01b3983138e0c7832e4d3429f209ac90"
    ),
    ("sweep", "--family", "eq3", "--omega", "1.2", "--theta", "0.4:0.7:2.5", "--n", "600", "--mode", "rho"): (
        "f25aee448ef19bf27473b648586c025882add8e08b24c0e82e417dbc53b576bc"
    ),
    # {pair} is PAIR_FILE, written by the test
    ("spectrum", "--family", "general-file", "--input", "{pair}"): (
        "ab964ff3a9647ee9e1a860e1988c02585fde085bdc7892b93654a5e52c6b9e3e"
    ),
    # PAIR_FILE followed by blank lines, which are allowed
    ("spectrum", "--family", "general-file", "--input", "{padded}"): (
        "ab964ff3a9647ee9e1a860e1988c02585fde085bdc7892b93654a5e52c6b9e3e"
    ),
    ("rho", "--family", "general-file", "--input", "{pair}"): (
        "ed28b52905fe825d04a1d5230d7964e2fe35c9a9e2d3bc4631a485e44f19a6af"
    ),
    # the Householder sections of orders 1 and 2 have no tail rows
    ("spectrum", "--family", "general-file", "--input", "{pair1}"): (
        "b6b62d0d0153151f0da14eba9a949c1fb00b2f59d35795e474d6d3c6902197c4"
    ),
    ("rho", "--family", "general-file", "--input", "{pair1}"): (
        "02b06a0176fba2b6e80865330367d9e709e847dade63c670778f7a7575ed0a62"
    ),
    ("spectrum", "--family", "general-file", "--input", "{pair2}"): (
        "478715f13cd6af2196c6221f1dae32346f126ca612a0fa3b4b9ff022c2447fd6"
    ),
    ("rho", "--family", "general-file", "--input", "{pair2}"): (
        "807e87b3bfc279e2e5f83e11da1bc7dc56bd5b55f674524dd8def663b8f0cc9b"
    ),
    # 0 +- 0 from zeros of either sign: the lower Gershgorin bound is the
    # first of the tied zero bounds, -0.0 in {zeros} and 0.0 in {mirror}
    ("spectrum", "--family", "general-file", "--input", "{zeros}"): (
        "d58cf3e1374a01515b7048b5da2be57d7dca6693b7eb6ebd03a43d1bf4472809"
    ),
    ("spectrum", "--family", "general-file", "--input", "{mirror}"): (
        "92f1147134908eaafd06acac0acc4933484aa7e5d7ae5a5d0d5320db231fb1a5"
    ),
    ("validate",): "bacce857b956201f4216f549f8d62993d8b27583b8dbd1c84b4730c56578a758",
}

# A = diag(r(0.7), r(1.9)) and B = diag(1, r(1.2), -1), entries written with repr
PAIR_FILE = (
    "4\n"
    "0.7648421872844885 0.644217687237691 0.0 0.0\n"
    "0.644217687237691 -0.7648421872844885 0.0 0.0\n"
    "0.0 0.0 -0.32328956686350335 0.9463000876874145\n"
    "0.0 0.0 0.9463000876874145 0.32328956686350335\n"
    "\n"
    "1.0 0.0 0.0 0.0\n"
    "0.0 0.3623577544766736 0.9320390859672263 0.0\n"
    "0.0 0.9320390859672263 -0.3623577544766736 0.0\n"
    "0.0 0.0 0.0 -1.0\n"
)
# the pair files of the placeholders in OUTPUT_DIGESTS: PAIR_FILE, with
# blank lines after it, A = (1) and B = (-1), A = r(0.7) and B = r(1.9)
# written with repr, and two pairs whose sum is 0 with diagonal zeros of
# either sign
PAIR_FILES = {
    "{pair}": PAIR_FILE,
    "{padded}": PAIR_FILE + "\n  \n\n",
    "{pair1}": "1\n1.0\n\n-1.0\n",
    "{pair2}": (
        "2\n"
        "0.7648421872844885 0.644217687237691\n"
        "0.644217687237691 -0.7648421872844885\n"
        "\n"
        "-0.32328956686350335 0.9463000876874145\n"
        "0.9463000876874145 0.32328956686350335\n"
    ),
    "{zeros}": "2\n-0.0 1\n1 0.0\n\n-0.0 -1\n-1 0.0\n",
    "{mirror}": "2\n0.0 1\n1 -0.0\n\n-0.0 -1\n-1 -0.0\n",
}


@pytest.mark.parametrize("argv", list(OUTPUT_DIGESTS), ids=" ".join)
def test_output_bytes_are_pinned(tmp_path, argv):
    out, paths = tmp_path / "out.csv", {}
    for i, (name, text) in enumerate(PAIR_FILES.items()):
        paths[name] = tmp_path / f"pair{i}.txt"
        paths[name].write_text(text)
    assert run([*(str(paths.get(a, a)) for a in argv), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == OUTPUT_DIGESTS[argv]


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

    @pytest.mark.parametrize("n", [-5, 1])
    def test_order_below_bound_exits_2_with_one_line(self, tmp_path, capsys, n):
        # an odd order too small to become 4 gets no warning before its error
        out = tmp_path / "r.json"
        assert run(["rho", "--family", "constant", "--theta", "1.0", "--n", str(n), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: order must be >= 4\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--family", "eq3", "--theta", "1:0.1:1.2", "--n", "5"],
            ["sweep", "--family", "eq3", "--omega", "4", "--theta", "1", "--n", "7"],
        ],
        ids=["missing-omega", "omega-out-of-range"],
    )
    def test_bad_sweep_family_at_odd_order_exits_2_with_one_line(self, capsys, argv):
        # the families are checked before the odd-order warning
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_order_three_is_bumped_to_four(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        assert run(["rho", "--family", "constant", "--theta", "1.0", "--n", "3", "--out", str(out)]) == 0
        assert capsys.readouterr().err == "warning: order 3 is odd; using 4\n"
        assert "rho_closed" in json.loads(out.read_text())

    @pytest.mark.parametrize(
        "argv",
        [
            ["rho", "--family", "constant", "--theta", "1.0"],
            ["spectrum", "--family", "constant", "--theta", "1.0"],
            ["sweep", "--family", "constant", "--theta", "1.0"],
        ],
        ids=["rho", "spectrum", "sweep"],
    )
    @pytest.mark.parametrize("n", [MAX_ORDER + 1, 10_000_000_000_000])
    def test_order_above_bound_exits_2(self, capsys, argv, n):
        assert run([*argv, "--n", str(n)]) == 2
        assert capsys.readouterr().err == f"error: order must be <= {MAX_ORDER}\n"

    def test_sweep_above_row_cap_exits_2_and_builds_nothing(self, capsys, monkeypatch):
        def build(*args):
            raise AssertionError("a section was built")

        monkeypatch.setattr(forms, "build_sum_truncation", build)
        monkeypatch.setattr(analysis, "_family_sections", build)
        monkeypatch.setattr(forms, "PairFamily", None)
        # 9,998 points at the largest order: about 300 GB of stacked sections
        assert run(["sweep", "--family", "constant", "--theta", "0.001:0.00031:3.1", "--n", str(MAX_ORDER)]) == 2
        cap = f"exceeds {MAX_SWEEP_ROWS} section rows"
        assert capsys.readouterr().err == f"error: sweep of 9998 points at order {MAX_ORDER} {cap}\n"

    def test_sweep_row_cap_admits_its_bound(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_SWEEP_ROWS", 30)
        argv = ["sweep", "--family", "constant", "--theta", "0.5:0.5:1.5", "--mode", "spectrum"]
        assert run([*argv, "--n", "10"]) == 0
        assert run([*argv, "--n", "12"]) == 2
        assert capsys.readouterr().err.endswith("error: sweep of 3 points at order 12 exceeds 30 section rows\n")

    def test_missing_required_family_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectrum", "--theta", "1.0"])
        assert exc.value.code == 2


def captured_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_back_to_back_calls_match_separate_runs(monkeypatch, tmp_path):
    # one process serves many requests with one parser; each answer must be
    # the one a fresh process gives, also after an argparse error.  A fresh
    # process loads numpy at its first use, so each request that uses it
    # first on a path of its own is served fresh here too
    monkeypatch.setenv("COLUMNS", "80")
    pair = tmp_path / "pair.txt"
    pair.write_text("2\n1 0\n0 -1\n\n0 1\n1 0\n")
    requests = [
        ["spectrum", "--family", "constant", "--theta", "1.0", "--n", "6"],
        ["rho", "--family", "eq3", "--omega", "1.2", "--theta", "0.7", "--n", "40"],
        ["spectrum", "--theta", "1.0"],
        ["sweep", "--family", "eq5", "--theta", "0.5:0.5:1.5", "--n", "10", "--mode", "spectrum"],
        ["rho", "--family", "constant", "--theta", "nan", "--n", "10"],
        ["spectrum", "--family", "constant", "--theta", "1.0", "--n", "6"],
        ["rho", "--family", "constant", "--theta", "1.0", "--n", "600"],
        ["rho", "--family", "eq5", "--theta", "0.4", "--n", "100"],
        ["rho", "--family", "two-constant", "--omega", "2.4", "--theta", "0.5", "--n", "100"],
        ["rho", "--family", "general-file", "--input", str(pair)],
        ["figure", "2", "--panel", "left"],
        ["validate"],
        # spellings that argparse parses: an abbreviation, --flag=value, a
        # value that starts with "-" and -h; a repeated flag is parsed
        # directly too, keeping its last value
        ["rho", "--fam", "constant", "--theta", "1.0", "--n", "40"],
        ["rho", "--family", "constant", "--theta=1.0", "--n", "40"],
        ["rho", "--family", "constant", "--theta", "1.0", "--n", "10", "--n", "40"],
        ["rho", "--family", "constant", "--theta", "-1", "--n", "40"],
        ["rho", "-h"],
    ]
    together = [captured_main(argv) for argv in requests]
    assert [code for code, _, _ in together] == [0, 0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 2, 0]
    env = {**os.environ, "PYTHONPATH": str(Path(oneshift.__file__).parents[1])}
    for argv, got in zip(requests, together):
        proc = subprocess.run([sys.executable, "-m", "oneshift.cli", *argv], capture_output=True, text=True, env=env)
        assert got == (proc.returncode, proc.stdout, proc.stderr)


def test_family_rho_requests_never_run_numpy():
    # numpy is bound lazily: the lazy loader registers the module itself,
    # and its body, which imports numpy._core first, runs at first use; a
    # sweep --mode rho reads lambda_max off rho's solve, so it runs none
    # either, with lambda_max in a band (constant at 1.7 and 2.3) or not.
    # Requests of the plain form are parsed without argparse
    requests = [
        ["--family", "constant", "--theta", "1.0"],
        ["--family", "eq3", "--omega", "1.2", "--theta", "0.7"],
        ["--family", "eq5", "--theta", "0.4"],
        ["--family", "two-constant", "--omega", "2.4", "--theta", "0.5"],
    ]
    grids = [[*argv[:-1], "0.5:0.6:2.9"] for argv in requests]
    script = (
        "import json, sys\n"
        "from oneshift import cli\n"
        f"for argv in {requests!r}:\n"
        "    assert cli.main(['rho', *argv, '--n', '600', '--out', sys.argv[1]]) == 0\n"
        f"for argv in {grids!r}:\n"
        "    assert cli.main(['sweep', *argv, '--n', '600', '--mode', 'rho', '--out', sys.argv[1]]) == 0\n"
        "print(json.dumps(sorted(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(oneshift.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", script, os.devnull], capture_output=True, text=True, env=env, check=True)
    modules = json.loads(proc.stdout)
    assert "numpy._core" not in modules and "oneshift.cli" in modules
    assert "argparse" not in modules


FLAGS = sorted({name for _, _, arguments in cli.COMMANDS.values() for name in arguments if name.startswith("--")})
# values argparse reads as flags (-.5 and -1 it takes as negative numbers),
# bad or odd values, and words that are commands or argument names
ODD_VALUES = st.sampled_from(
    ["-1", "-.5", "-inf", "-", "--", "-h", "--out", "", " 7", "1_0", "1e999", "nan", "x", "rho", "number", "3:1:2"]
)


def _good_value(keywords):
    if "choices" in keywords:
        return st.sampled_from(keywords["choices"]).map(str)
    if keywords.get("type") is float:
        return st.floats().map(repr)
    if keywords.get("type") is int:
        return st.integers(-5, MAX_ORDER + 1).map(str)
    return st.text(max_size=6)


@st.composite
def parser_argvs(draw):
    """A command with each of its arguments, mostly well spelled, now and
    then left out or given an odd value, in any order, and up to two odd
    pieces: an abbreviated, repeated, ``--flag=value`` or valueless flag, or
    -h, --help, -- or a stray word."""
    command = draw(st.sampled_from([*cli.COMMANDS, "bogus", "-h", ""]))
    pieces = []
    for name, keywords in cli.COMMANDS[command][2].items() if command in cli.COMMANDS else ():
        if draw(st.integers(0, 9)) == 0:
            continue
        flag = [name] if name.startswith("--") else []
        if keywords.get("action") != "store_true":
            flag.append(draw(ODD_VALUES if draw(st.integers(0, 9)) == 0 else _good_value(keywords)))
        pieces.append(flag)
    for _ in range(draw(st.integers(0, 2))):
        flag, value = draw(st.sampled_from(FLAGS)), draw(ODD_VALUES | st.sampled_from(["1.0", "40", "constant"]))
        pieces.append(
            draw(
                st.sampled_from(
                    [
                        [flag[: max(3, len(flag) - 2)], value],
                        [flag, value],
                        [f"{flag}={value}"],
                        [flag],
                        ["-h"],
                        ["--help"],
                        ["--"],
                        [value],
                    ]
                )
            )
        )
    return [command, *(word for piece in draw(st.permutations(pieces)) for word in piece)]


def _argparse_vars(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(cli.build_parser().parse_args(argv))
        except SystemExit:
            return None


def _reprs(values):
    # repr tells -0.0 from 0.0 and equates two nans
    return {key: repr(value) for key, value in values.items()}


PLAIN_ARGVS = [
    ["rho", "--family", "eq3", "--omega", "1.2", "--theta", "0.7", "--n", "40", "--out", "r.json"],
    ["spectrum", "--family", "general-file", "--input", "p.txt"],
    ["sweep", "--family", "constant", "--theta", "0.5:0.6:2.9", "--mode", "rho", "--n", "600"],
    ["figure", "2", "--panel", "left", "--out", "f.csv"],
    ["figure", "--out", "f.csv", "3"],
    ["validate", "--perturb"],
    ["validate"],
    ["spectrum", "--family", "eq5", "--n", "10", "--theta", "1.0", "--n", "40"],
    ["rho", "--family", "constant", "--theta", "nan", "--out", ""],
]


@pytest.mark.parametrize("argv", PLAIN_ARGVS, ids=" ".join)
def test_plain_parse_accepts_the_plain_form(argv):
    assert _reprs(vars(cli.parse_plain(argv))) == _reprs(_argparse_vars(argv))


@given(argv=parser_argvs())
@example(argv=["figure", "number", "2"])
@example(argv=["figure", "2", "number"])
@example(argv=["validate", "--out"])
@example(argv=["rho", "--family", "eq5", "--theta", "1", "--theta", "x"])
@example(argv=["validate", "--perturb", "x"])
@example(argv=["rho", "--family", "constant", "--theta", "-.5"])
@example(argv=["sweep", "--family", "eq3", "--theta", "1", "--n", "-1"])
@settings(max_examples=400, deadline=None)
def test_plain_parse_equals_argparse(argv):
    # the direct parse builds argparse's namespace or declines; it declines
    # every argv that argparse rejects, and takes a repeated flag's last value
    got, expected = cli.parse_plain(argv), _argparse_vars(argv)
    assert got is None or expected is not None and _reprs(vars(got)) == _reprs(expected)


FAMILIES = ("constant", "eq3", "eq5", "two-constant", "general-file")
ANGLES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, math.pi, math.pi / 2, 5e-324]),
    st.floats(min_value=-0.5, max_value=3.7),
).map(repr)
# at most 5 points: start, start + step, ..., start + k * step with k <= 4
GRIDS = st.one_of(
    ANGLES,
    st.builds(
        lambda start, step, k: f"{start!r}:{step!r}:{start + k * step!r}",
        st.floats(min_value=-0.5, max_value=3.7),
        st.floats(min_value=0.05, max_value=1.0),
        st.integers(0, 4),
    ),
    st.text(max_size=12),
)
ENTRIES = st.one_of(
    st.sampled_from(["0", "1", "-1", "0.6", "-0.8", "1e308", "-1e308", "1e200", "1.3e154", "nan", "inf", "x"]),
    st.floats().map(repr),
)


def _opt(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def pair_texts(draw):
    """Pair files: a drawn order, then two blocks of drawn rows."""
    k = draw(st.integers(-5, 4))
    blocks = [
        [" ".join(draw(st.lists(ENTRIES, min_size=k, max_size=k + 1))) for _ in range(k)]
        for _ in range(2)
    ]
    return "\n".join([str(k), *blocks[0], "", *blocks[1]]) + "\n"


def _rotation_pair_text(om, th):
    rows = [f"{math.cos(a)!r} {math.sin(a)!r}\n{math.sin(a)!r} {-math.cos(a)!r}" for a in (om, th)]
    return f"2\n{rows[0]}\n\n{rows[1]}\n"


@st.composite
def cli_argvs(draw):
    """CLI argument lists; {pair}, {out} and {dir} stand for paths."""
    command = draw(st.sampled_from(["spectrum", "rho", "sweep", "figure", "validate"]))
    if command == "figure":
        argv = ["figure", str(draw(st.integers(0, 5)))] + draw(_opt("--panel", st.sampled_from(["left", "right"])))
    elif command == "validate":
        argv = ["validate"] + draw(st.sampled_from([[], ["--perturb"]]))
    else:
        argv = [command, "--family", draw(st.sampled_from(FAMILIES))]
        argv += draw(_opt("--omega", ANGLES))
        argv += draw(_opt("--theta", GRIDS if command == "sweep" else ANGLES))
        # orders between 64 and MAX_ORDER are only slow; those above it exit 2
        orders = st.one_of(st.integers(-3, 64), st.integers(MAX_ORDER + 1, 10**15))
        argv += draw(_opt("--n", orders.map(str)))
        if command == "sweep":
            argv += draw(_opt("--mode", st.sampled_from(["rho", "spectrum"])))
        else:
            argv += draw(_opt("--input", st.just("{pair}")))
    return argv + draw(_opt("--out", st.sampled_from(["{out}", "{dir}"])))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(
    argv=cli_argvs(),
    text=st.one_of(
        pair_texts(),
        st.builds(_rotation_pair_text, st.floats(0.0, 3.2), st.floats(0.0, 3.2)),
        st.text(max_size=40),
    ),
)
@example(argv=["spectrum", "--family", "general-file", "--input", "{pair}"], text=HUGE_PAIR)
@example(argv=["spectrum", "--family", "general-file", "--input", "{pair}"], text="-3\n")
@settings(max_examples=60, deadline=None)
def test_cli_fuzz_exit_codes_and_one_line_errors(fuzz_dir, argv, text):
    pair = fuzz_dir / "pair.txt"
    pair.write_text(text, encoding="utf-8")
    paths = {"{pair}": str(pair), "{out}": str(fuzz_dir / "out.txt"), "{dir}": str(fuzz_dir)}
    argv = [paths.get(a, a) for a in argv]
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    assert code in (0, 1, 2, 3)
    if code == 2:
        lines = err.getvalue().splitlines()
        assert "Traceback" not in err.getvalue()
        assert sum("error:" in ln for ln in lines) == 1
