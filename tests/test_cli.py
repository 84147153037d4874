"""CLI surface: parsing, file formats, round trips, exit codes."""

import json
import math
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diracbeams import __version__, bessel
from diracbeams.beams import MAX_POINTS
from diracbeams.cli import (
    _csv_text,
    _json_text,
    _json_value,
    main,
    parse_angle,
    parse_spin,
)
from diracbeams.validation import report_dict


def run_cli(args):
    return main(args)


# Reference writers, one value at a time and through the pure-Python
# indent=2 encoder: the CLI output must match them byte for byte.
def oracle_csv_text(params, header, rows):
    lines = [f"# diracbeams {__version__}"]
    lines.append("# units: hbar = c = mass = 1; momenta in units of m; "
                 "angles in radians")
    for key, val in params.items():
        lines.append(f"# {key} = {val}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(f"{v:.17g}" for v in row))
    return "\n".join(lines) + "\n"


def oracle_json_text(params, results, checks=None):
    doc = {"params": params, "results": results}
    if checks is not None:
        doc["checks"] = checks
    return json.dumps(doc, indent=2) + "\n"


SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324,
           2.0**-1074 * 3, 1.7976931348623157e308, 0.1, 1e16, 1e17]
floats = st.one_of(st.sampled_from(SPECIAL),
                   st.floats(allow_nan=True, allow_infinity=True))
numbers = st.one_of(floats, st.integers(-2**70, 2**70))
json_scalars = st.one_of(st.none(), st.booleans(), numbers,
                         st.text(max_size=6))
json_docs = st.recursive(
    json_scalars,
    lambda kids: st.one_of(
        st.lists(kids, max_size=5),
        st.lists(kids, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=5), kids, max_size=5)),
    max_leaves=30)
WRITER_SETTINGS = settings(max_examples=100, deadline=None)


def read_csv(path):
    meta, header, rows = {}, None, []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("#"):
                if "=" in line:
                    key, _, val = line[1:].partition("=")
                    meta[key.strip()] = val.strip()
                continue
            if header is None:
                header = line.split(",")
            else:
                rows.append([float(v) for v in line.split(",")])
    return meta, header, np.array(rows)


class TestParsing:
    def test_angles(self):
        assert parse_angle("45deg") == pytest.approx(math.pi / 4)
        assert parse_angle("0.5rad") == 0.5
        assert parse_angle("0.5") == 0.5

    def test_spins(self):
        assert parse_spin("+") == 0.5
        assert parse_spin("-") == -0.5
        assert parse_spin("0.5") == 0.5
        assert parse_spin("-0.5") == -0.5

    def test_bad_values_exit_1(self, tmp_path):
        assert run_cli(["expect", "--s", "up"]) == 1
        assert run_cli(["expect", "--theta0", "95deg"]) == 1
        assert run_cli(["profile", "--points", "1",
                        "--out", str(tmp_path / "x.csv")]) == 1
        assert run_cli(["nonsense"]) == 1
        # xi up to 3e4 at ell = 150 lies beyond the tested Bessel domain
        assert run_cli(["profile", "--ell", "150", "--xi-max", "30000"]) == 1

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv, flag", [
        (["profile", "--xi-max", "inf"], "--xi-max"),
        (["profile", "--xi-max", "nan"], "--xi-max"),
        (["profile", "--xi-max=-inf"], "--xi-max"),
        (["sweep", "--p-max", "inf"], "--p-max"),
        (["sweep", "--p-min", "nan"], "--p-min"),
        (["sweep", "--p-min=-inf"], "--p-min"),
        (["linear", "--widths", "40,60,inf"], "--widths"),
        (["linear", "--widths", "nan,60,90"], "--widths"),
    ])
    def test_non_finite_range_names_the_flag(self, argv, flag, capsys):
        assert run_cli(argv) == 1
        assert f"parameter error: {flag} must be finite" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["profile", "--points", str(MAX_POINTS + 1)],
        ["profile", "--points", "100000000"],
        ["linear", "--radial-nodes", str(MAX_POINTS + 1)],
        ["linear", "--widths", f"40,{MAX_POINTS / 128.0}"],
        ["linear", "--widths", "40,1e6"],
        # Each grid under the cap, their union of 1049639 nodes above it.
        ["linear", "--widths", "4100,4100.3"],
        # 17 x 61681 = MAX_POINTS + 1 sweep rows
        ["sweep", "--p-points", "17", "--theta0-points", "61681"],
        ["sweep", "--p-points", "100000", "--theta0-points", "100000"],
    ])
    def test_grid_above_cap_exits_1_at_once(self, argv, capsys):
        t0 = time.perf_counter()
        assert run_cli(argv) == 1
        assert time.perf_counter() - t0 < 0.1
        err = capsys.readouterr().err
        assert err.startswith("parameter error:") and str(MAX_POINTS) in err

    def test_sweep_help_names_the_cap(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(["sweep", "--help"])
        out = capsys.readouterr().out
        assert out.count(str(MAX_POINTS)) == 2

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("argv", [
        ["expect", "--p", "1e300"],
        ["expect", "--p", "1.3e154"],
        ["expect", "--p", "1e-170"],
        ["profile", "--p", "1e300"],
        ["sweep", "--p-max", "1e300"],
        ["linear", "--p", "1e300"],
    ])
    def test_momentum_beyond_bounds_exit_1(self, argv, capsys):
        assert run_cli(argv) == 1
        assert "momentum must be 0 or lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["profile", "expect", "sweep", "linear"])
    def test_ell_outside_domain_is_parameter_error(self, command, capsys):
        assert run_cli([command, "--ell", "200"]) == 1
        assert "parameter error" in capsys.readouterr().err


class TestWriters:
    PARAMS = {"p_over_m": 2.4, "note": "100% [a, b]", "pair": True}

    @WRITER_SETTINGS
    @given(n_rows=st.integers(0, 4), n_cols=st.integers(1, 4), data=st.data())
    def test_csv_matches_per_value_join(self, n_rows, n_cols, data):
        rows = data.draw(st.lists(
            st.lists(numbers, min_size=n_cols, max_size=n_cols),
            min_size=n_rows, max_size=n_rows))
        header = [f"c{k}" for k in range(n_cols)]
        assert (_csv_text(self.PARAMS, header, rows)
                == oracle_csv_text(self.PARAMS, header, rows))
        table = np.array([[float(v) for v in row] for row in rows]
                         ).reshape(n_rows, n_cols)
        assert (_csv_text(self.PARAMS, header, table)
                == oracle_csv_text(self.PARAMS, header, table))

    @WRITER_SETTINGS
    @given(json_docs)
    def test_json_matches_indent_2(self, doc):
        assert _json_value(doc) == json.dumps(doc, indent=2)

    @WRITER_SETTINGS
    @given(st.dictionaries(st.text(max_size=5), json_docs, max_size=4),
           st.lists(floats, max_size=6))
    def test_json_document_matches(self, params, column):
        results = {"xi": column, "rho": column[::-1], "empty": []}
        assert (_json_text(params, results)
                == oracle_json_text(params, results))

    def test_validate_checks_match(self, validation_run):
        checks, ok, elapsed = validation_run
        report = report_dict(list(checks.values()), elapsed=elapsed)
        params = {"quick": False, "inject_fault": 1.0}
        results = {"passed": ok, "elapsed_seconds": elapsed}
        assert (_json_text(params, results, checks=report["checks"])
                == oracle_json_text(params, results, checks=report["checks"]))

    @pytest.mark.parametrize("argv", [
        ["profile", "--points", "40", "--format", "json"],
        ["profile", "--points", "40", "--pair"],
        ["expect", "--format", "json"],
        ["sweep", "--p-points", "2", "--theta0-points", "3"],
    ])
    def test_repeated_calls_give_identical_output(self, argv, capsys):
        outputs = []
        for _ in range(3):
            assert run_cli(argv) == 0
            outputs.append(capsys.readouterr().out)
            assert run_cli(["profile", "--points", "zero"]) == 1
            assert "parameter error" in capsys.readouterr().err
        assert outputs[0] == outputs[1] == outputs[2]

    def test_bad_argv_does_not_leak_into_the_next_call(self, capsys):
        good = ["expect", "--theta0", "0", "--ell", "2"]
        assert run_cli(good) == 0
        first = capsys.readouterr().out
        for bad in (["nonsense"], [], ["expect", "--s", "up"],
                    ["expect", "--ell", "two"], good + ["--bogus"],
                    ["profile", "--format", "xml"]):
            assert run_cli(bad) == 1
        assert run_cli(good) == 0
        assert capsys.readouterr().out == first


class TestProfile:
    def test_central_value_down_spin(self, tmp_path):
        out = tmp_path / "prof.csv"
        rc = run_cli(["profile", "--p", "2.4", "--theta0", "45deg",
                      "--ell", "1", "--s", "-0.5", "--points", "5",
                      "--xi-max", "4", "--out", str(out)])
        assert rc == 0
        meta, header, rows = read_csv(out)
        assert header == ["xi", "rho", "j_z", "j_phi"]
        assert rows[0, 0] == 0.0
        # rho(0) = delta / 2 = 2/13
        assert rows[0, 1] == pytest.approx(2.0 / 13.0, abs=1e-14)

    def test_central_value_up_spin(self, tmp_path):
        out = tmp_path / "prof.csv"
        run_cli(["profile", "--ell", "1", "--s", "+0.5", "--points", "3",
                 "--xi-max", "4", "--out", str(out)])
        _, _, rows = read_csv(out)
        assert rows[0, 1] == 0.0

    def test_pair_mode_curves_differ(self, tmp_path):
        out = tmp_path / "pair.csv"
        rc = run_cli(["profile", "--ell", "3", "--pair", "--points", "200",
                      "--xi-max", "20", "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        assert "rho_plus" in header and "rho_minus" in header
        rho_p = rows[:, header.index("rho_plus")]
        rho_m = rows[:, header.index("rho_minus")]
        assert np.abs(rho_p - rho_m).max() > 1e-3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_pair_makes_one_bessel_call(self, fmt, capsys):
        with bessel.counting() as counts:
            assert run_cli(["profile", "--ell", "-3", "--pair", "--points",
                            "100", "--format", fmt]) == 0
        assert counts["calls"] == 1 and counts["values"] == 3 * 100
        assert "rho_minus" in capsys.readouterr().out

    def test_csv_roundtrip_17_digits(self, tmp_path):
        out = tmp_path / "prof.csv"
        run_cli(["profile", "--points", "50", "--out", str(out)])
        _, _, rows = read_csv(out)
        from diracbeams.beams import BeamConfig, density_profile
        cfg = BeamConfig(p=2.4, theta0=math.pi / 4, ell=1, s=0.5)
        prof = density_profile(cfg, np.linspace(0, 20, 50))
        assert np.array_equal(rows[:, 1], prof.rho)


class TestExpect:
    def test_reference_table(self, tmp_path):
        out = tmp_path / "e.json"
        rc = run_cli(["expect", "--p", "2.4", "--theta0", "45deg",
                      "--ell", "3", "--s", "+0.5", "--format", "json",
                      "--out", str(out)])
        assert rc == 0
        doc = json.loads(out.read_text())
        res = doc["results"]
        assert res["L_z"] == pytest.approx(3.1538461538461537, abs=1e-15)
        assert res["S_z"] == pytest.approx(0.34615384615384615, abs=1e-15)
        assert res["M_z"] == pytest.approx(3.8461538461538463, abs=1e-15)
        assert abs(res["L_z_delta"]) <= 1e-10
        assert abs(res["S_z_delta"]) <= 1e-10

    def test_conservation_in_emitted_table(self, tmp_path):
        out = tmp_path / "e.json"
        run_cli(["expect", "--ell", "2", "--s", "-", "--format", "json",
                 "--out", str(out)])
        res = json.loads(out.read_text())["results"]
        assert abs(res["L_z"] + res["S_z"] - (2 - 0.5)) <= 1e-14

    def test_paraxial_exact(self, tmp_path):
        out = tmp_path / "e.json"
        run_cli(["expect", "--theta0", "0", "--ell", "4", "--s", "+",
                 "--format", "json", "--out", str(out)])
        res = json.loads(out.read_text())["results"]
        assert res["L_z"] == 4.0
        assert res["S_z"] == 0.5

    def test_json_roundtrip_bit_exact(self, tmp_path):
        out = tmp_path / "e.json"
        run_cli(["expect", "--p", "2.4", "--theta0", "45deg", "--ell", "3",
                 "--s", "+", "--format", "json", "--out", str(out)])
        doc1 = json.loads(out.read_text())
        # serialize again: repr-based floats reproduce bit-exactly
        assert json.loads(json.dumps(doc1)) == doc1
        assert doc1["params"]["p_over_m"] == 2.4
        assert doc1["params"]["theta0"] == math.pi / 4


class TestValidate:
    def test_quick_passes_exit_0(self, tmp_path):
        out = tmp_path / "v.json"
        assert run_cli(["validate", "--quick", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["results"]["passed"] is True
        assert all(c["passed"] for c in doc["checks"])
        for c in doc["checks"]:
            assert {"name", "value", "threshold", "comparison"} <= set(c)

    def test_deterministic(self, tmp_path):
        out1, out2 = tmp_path / "v1.json", tmp_path / "v2.json"
        run_cli(["validate", "--quick", "--out", str(out1)])
        run_cli(["validate", "--quick", "--out", str(out2)])
        docs = [json.loads(out1.read_text()), json.loads(out2.read_text())]
        # Everything but the wall times must repeat exactly.
        for doc in docs:
            assert doc["results"].pop("elapsed_seconds") > 0.0
            for check in doc["checks"]:
                assert check.pop("seconds") >= 0.0
        assert docs[0] == docs[1]

    def test_injected_fault_caught_exit_2(self, tmp_path):
        out = tmp_path / "v.json"
        rc = run_cli(["validate", "--quick", "--inject-fault", "1.01",
                      "--out", str(out)])
        assert rc == 2
        doc = json.loads(out.read_text())
        failed = [c["name"] for c in doc["checks"] if not c["passed"]]
        assert "field_closed_vs_quadrature" in failed


class TestSweep:
    def test_delta_monotone_in_theta(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = run_cli(["sweep", "--p-min", "2.4", "--p-max", "2.4",
                      "--p-points", "1", "--theta0-points", "12",
                      "--out", str(out)])
        assert rc == 0
        _, header, rows = read_csv(out)
        delta = rows[:, header.index("delta")]
        assert np.all(np.diff(delta) > 0.0)

    def test_delta_saturates_in_p(self, tmp_path):
        out = tmp_path / "s.csv"
        run_cli(["sweep", "--p-min", "0", "--p-max", "10", "--p-points", "6",
                 "--theta0-min", "45deg", "--theta0-max", "45deg",
                 "--theta0-points", "1", "--out", str(out)])
        _, header, rows = read_csv(out)
        delta = rows[:, header.index("delta")]
        assert np.all(np.diff(delta) > 0.0)
        assert delta[-1] < 0.5
        assert delta[-1] > 0.4

    def test_corner_matches_expect_bit_exact(self, tmp_path):
        sweep_out = tmp_path / "s.json"
        run_cli(["sweep", "--ell", "1", "--s", "+", "--p-min", "2.4",
                 "--p-max", "2.4", "--p-points", "1",
                 "--theta0-min", "45deg", "--theta0-max", "45deg",
                 "--theta0-points", "1", "--format", "json",
                 "--out", str(sweep_out)])
        doc = json.loads(sweep_out.read_text())
        cols = doc["results"]["columns"]
        row = doc["results"]["rows"][0]
        exp_out = tmp_path / "e.json"
        run_cli(["expect", "--p", "2.4", "--theta0", "45deg", "--ell", "1",
                 "--s", "+", "--format", "json", "--out", str(exp_out)])
        res = json.loads(exp_out.read_text())["results"]
        assert row[cols.index("L_z")] == res["L_z"]
        assert row[cols.index("S_z")] == res["S_z"]
        assert row[cols.index("M_z")] == res["M_z"]


class TestLinear:
    def test_linear_subcommand(self, tmp_path):
        out = tmp_path / "lin.json"
        rc = run_cli(["linear", "--ell", "1", "--s", "+",
                      "--widths", "30,45,70", "--radial-nodes", "2000",
                      "--format", "json", "--out", str(out)])
        assert rc == 0
        res = json.loads(out.read_text())["results"]
        assert res["L_z_bar"] == pytest.approx(1.0 + 2.0 / 13.0, abs=2e-3)
        assert "M_z_bar_comparison" in res
        assert abs(res["L_z_bar"] + res["S_z_bar"] - 1.5) <= 1e-12

    def test_bad_widths_exit_1(self):
        assert run_cli(["linear", "--widths", "abc"]) == 1
        assert run_cli(["linear", "--widths", "50,40"]) == 1


class TestIO:
    def test_unwritable_path_exit_3(self):
        assert run_cli(["expect", "--out", "/nonexistent-dir/x.csv"]) == 3

    def test_stdout_default(self, capsys):
        assert run_cli(["expect", "--theta0", "0"]) == 0
        out = capsys.readouterr().out
        assert "L_z" in out
