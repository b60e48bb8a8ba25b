from pathlib import Path

import pytest

from kronsim.cli import REPORT_COLUMNS, build_parser, main

DOCS = Path(__file__).parent.parent / "docs"
TFIM = str(DOCS / "tfim3.ham")
TDHAM = str(DOCS / "commuting_td.ham")
VEC = str(DOCS / "uniform16.vec")


def _report_body(out: Path) -> list[list[str]]:
    """CSV rows minus the timestamp comment, with wall_ms masked."""
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0].startswith("# kronsim ")
    rows = [line.split(",") for line in lines[1:]]
    wall = REPORT_COLUMNS.index("wall_ms")
    for row in rows[1:]:
        row[wall] = "X"
    return rows


def test_simulate_writes_report(tmp_path, capsys):
    rc = main(["simulate", TFIM, "--t", "1.0", "--delta", "1e-6", "--out", str(tmp_path)])
    assert rc == 0
    rows = _report_body(tmp_path)
    assert rows[0] == list(REPORT_COLUMNS)
    row = dict(zip(REPORT_COLUMNS, rows[1]))
    assert row["approach"] == "a1"
    assert (row["K"], row["M"], row["d"], row["|R|"]) == ("5", "3", "2", "2")
    assert row["prep_unitary_queries"] == "28"
    assert row["dominant_cost"] == "198688"
    assert float(row["measured_err"]) < 1e-5
    assert float(row["declared_err"]) >= float(row["measured_err"])
    assert (tmp_path / "summary.txt").exists()
    assert "dominant_cost 198688" in capsys.readouterr().out


def test_simulate_deterministic_body(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ["simulate", TFIM, "--approach", "a2", "--samples", "32", "--seed", "7",
            "--delta", "1e-4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert _report_body(a) == _report_body(b)


def test_simulate_ledger_only_blank_errors(tmp_path):
    rc = main(["simulate", TFIM, "--ledger-only", "--out", str(tmp_path)])
    assert rc == 0
    row = dict(zip(REPORT_COLUMNS, _report_body(tmp_path)[1]))
    assert row["declared_err"] == ""
    assert row["measured_err"] == ""
    assert row["dominant_cost"] == "198688"


def test_simulate_oracle_off_leaves_measured_blank(tmp_path):
    rc = main(["simulate", TFIM, "--oracle", "off", "--out", str(tmp_path)])
    assert rc == 0
    row = dict(zip(REPORT_COLUMNS, _report_body(tmp_path)[1]))
    assert row["measured_err"] == ""
    assert row["declared_err"] != ""


def test_simulate_td(tmp_path):
    rc = main(["simulate", TDHAM, "--approach", "td", "--t", "1.5707963267948966",
               "--out", str(tmp_path)])
    assert rc == 0
    row = dict(zip(REPORT_COLUMNS, _report_body(tmp_path)[1]))
    assert float(row["measured_err"]) < 1e-5


TFIM4 = """\
dims 7 4 2
flags rescale
term 1: Z , Z , I , I
term 2: I , Z , Z , I
term 3: I , I , Z , Z
term 4: X , I , I , I
term 5: I , X , I , I
term 6: I , I , X , I
term 7: I , I , I , X
"""


def test_simulate_no_simplify_tfim4(tmp_path):
    # The full unitary of this run's combined LCU would take 16 GiB; the
    # dense path must get by on blocks alone.
    ham = tmp_path / "tfim4.ham"
    ham.write_text(TFIM4)
    args = ["simulate", str(ham), "--no-simplify"]
    assert main(args + ["--out", str(tmp_path / "dense")]) == 0
    assert main(args + ["--ledger-only", "--out", str(tmp_path / "ledger")]) == 0
    dense = dict(zip(REPORT_COLUMNS, _report_body(tmp_path / "dense")[1]))
    ledger = dict(zip(REPORT_COLUMNS, _report_body(tmp_path / "ledger")[1]))
    assert float(dense["measured_err"]) <= float(dense["declared_err"])
    counters = REPORT_COLUMNS[REPORT_COLUMNS.index("prep_unitary_queries"):]
    assert [dense[c] for c in counters] == [ledger[c] for c in counters]


def test_exit2_td_on_static_input(tmp_path, capsys):
    rc = main(["simulate", TFIM, "--approach", "td", "--out", str(tmp_path)])
    assert rc == 2
    assert "CoefficientsMissing" in capsys.readouterr().err


def test_exit2_missing_file(tmp_path, capsys):
    rc = main(["simulate", str(tmp_path / "nope.ham"), "--out", str(tmp_path)])
    assert rc == 2
    assert "ParseError" in capsys.readouterr().err


def test_exit2_negative_products_names_stage(tmp_path, capsys):
    rc = main(["simulate", TFIM, "--approach", "a3", "--out", str(tmp_path)])
    assert rc == 2
    err = capsys.readouterr().err
    assert "NegativeEigenvalueProduct" in err
    assert "in stage term0" in err


def test_exit3_degree_overflow(tmp_path, capsys):
    rc = main(["simulate", TFIM, "--t", "12000", "--delta", "1e-3",
               "--ledger-only", "--out", str(tmp_path)])
    assert rc == 3
    assert "DegreeOverflow" in capsys.readouterr().err


def test_truncate_frozen_outputs(tmp_path, capsys):
    rc = main(["truncate", VEC, "--sparsity", "4", "--out", str(tmp_path)])
    assert rc == 0
    summary = (tmp_path / "truncate_summary.txt").read_text()
    assert "members        9" in summary
    assert "trace_dist     1.7976393701747329" in summary
    assert "combo_residual 0.541196100146197" in summary
    assert "sqrt_bound     1.3407607430763824" in summary
    assert "bound_holds    True" in summary
    assert "success_prob   0.1177490060914376" in summary
    csv = (tmp_path / "ensemble.csv").read_text().splitlines()
    assert csv[1] == "member,prob,support,amplitudes"
    assert len(csv) == 2 + 9


def test_exit2_truncate_sparsity_too_large(tmp_path, capsys):
    rc = main(["truncate", VEC, "--sparsity", "17", "--out", str(tmp_path)])
    assert rc == 2
    assert "SparsityOutOfRange" in capsys.readouterr().err


def test_sweep_sparsity_pass(tmp_path, capsys):
    rc = main(["sweep", VEC, "--param", "sparsity", "--values", "1,2,4,8,16",
               "--out", str(tmp_path)])
    assert rc == 0
    assert "PASS sparsity-sweep" in capsys.readouterr().out
    lines = (tmp_path / "sweep_sparsity.csv").read_text().splitlines()
    assert lines[1] == "param,value,counter,measured,expected_law,fit"
    assert len(lines) == 2 + 5


def test_sweep_fail_exit_code(tmp_path, capsys):
    # deliberately decreasing sparsity values break the monotone verdict
    rc = main(["sweep", VEC, "--param", "sparsity", "--values", "8,4,1",
               "--out", str(tmp_path)])
    assert rc == 1
    assert "FAIL sparsity-sweep" in capsys.readouterr().out


def test_sweep_requires_input_file(tmp_path, capsys):
    rc = main(["sweep", "--param", "t", "--values", "1,2", "--out", str(tmp_path)])
    assert rc == 2
    assert "InvalidFactor" in capsys.readouterr().err


def test_sweep_time_cli(tmp_path, capsys):
    rc = main(["sweep", TFIM, "--param", "t", "--values", "0.5,1,2,4",
               "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "sweep_t.csv").exists()


def test_sweep_bad_values_rejected(tmp_path, capsys):
    rc = main(["sweep", VEC, "--param", "sparsity", "--values", "2,xyz",
               "--out", str(tmp_path)])
    assert rc == 2
    assert "InvalidFactor" in capsys.readouterr().err


def test_parser_rejects_unknown_approach(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", TFIM, "--approach", "a7"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.startswith("kronsim ")
