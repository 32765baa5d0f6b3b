import json

import pytest

from harmclass import cli


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bounds_csv_table(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--alpha", "0", "--beta", "0", "--delta", "1",
        "--n-max", "5", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "theorem,alpha,beta,delta,n,value"
    values = [float(line.split(",")[-1]) for line in lines[1:]]
    assert values == pytest.approx([0.5, 0.5, 11 / 24, 5 / 12])


def test_bloch_json_record(capsys):
    code, out, _ = run_cli(capsys, "bloch", "--alpha", "0", "--beta", "0", "--delta", "1")
    assert code == 0
    record = json.loads(out)
    assert record["r0"] == pytest.approx(0.44300, abs=1e-4)
    assert record["bound"] == pytest.approx(1.4167, abs=1e-3)
    assert record["H"] == [3.0, -2.0, -9.0, -4.0, 0.0]
    assert record["bracket"][0] <= record["r0"] <= record["bracket"][1]


def test_verify_emits_seven_lines_per_member(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "1",
        "--members", "3", "--seed", "7",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 21
    records = [json.loads(line) for line in lines]
    assert all(rec["passed"] for rec in records)
    assert {rec["theorem"] for rec in records} == {
        "coeff", "distortion", "g_growth", "area", "f_growth", "covering", "bloch",
    }


def test_verify_output_is_byte_identical(capsys):
    args = ("verify", "--alpha", "0", "--beta", "0.3", "--delta", "1",
            "--members", "2", "--seed", "11")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_verify_exit_one_on_failure(capsys, monkeypatch):
    from harmclass.verify import VerificationReport

    def fake_suite(params, members, seed):
        rep = VerificationReport(
            theorem="area", passed=False, worst_margin=-0.5, witness="forced", slack=1e-9
        )
        return [(0, None, [rep])]

    monkeypatch.setattr(cli.verify, "run_member_suite", fake_suite)
    code, out, _ = run_cli(
        capsys, "verify", "--alpha", "0", "--beta", "0", "--delta", "1",
        "--members", "1", "--seed", "1",
    )
    assert code == 1
    assert json.loads(out.strip())["passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--alpha", "1.0", "--beta", "0", "--delta", "1"),
        ("bounds", "--alpha", "0", "--beta", "0", "--delta", "-1"),
        ("bounds", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "1"),
        ("verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--members", "0"),
        ("verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "1"),
        # --n-max above the series order cap of 10**6
        ("bounds", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "1000001"),
        ("verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "1000001"),
        ("table", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "9"),
        # the truncation order (~2.8e13 terms) is over the cap: rejected before sampling
        ("verify", "--alpha", "0", "--beta", "0.999999999999", "--delta", "1"),
        ("growth", "--alpha", "0", "--beta", "0", "--delta", "1", "--r", "1.5"),
        ("nonsense",),
        # the former debugging commands are gone
        ("digamma", "--x", "1.0"),
        ("quad", "--coeffs", "0,1"),
        # a negative seed, an --out that cannot be opened, empty float lists
        ("verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--seed", "-1"),
        ("bloch", "--alpha", "0", "--beta", "0", "--delta", "1",
         "--out", "/nonexistent/dir/x.json"),
        ("growth", "--alpha", "0", "--beta", "0", "--delta", "1", "--r", ","),
        ("table", "--alpha", ",", "--beta", "0", "--delta", "1"),
        # only bounds takes --n-max: verify checks n = 2..12
        ("verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "1", "--n-max", "12"),
    ],
)
def test_invalid_flags_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_negative_seed_error_names_the_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--seed", "-1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err


@pytest.mark.parametrize("command", ["bloch", "table", "bounds", "verify"])
def test_delta_where_two_to_the_delta_overflows_exits_two(capsys, command):
    """From delta = 1024 on, 2.0 ** delta overflows: each command rejects the
    flag with a message instead of an OverflowError traceback (exit 1)."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--alpha", "0.3", "--beta", "0.5", "--delta", "1100"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "delta must be in [0, 1024) for bound evaluation, got 1100.0" in captured.err


@pytest.mark.filterwarnings("error")
def test_bounds_at_large_delta_exit_zero_under_warnings_as_errors(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--alpha", "0.3", "--beta", "0.5", "--delta", "700", "--n-max", "4"
    )
    assert code == 0 and err == ""
    values = [json.loads(line)["value"] for line in out.splitlines()]
    assert values == [0.375, 0.24999999999999994, 0.18749999999999997]


@pytest.mark.filterwarnings("error")
def test_verify_beyond_the_sampler_delta_range_exits_two(capsys):
    """No NaN budget: the sampler names delta and the largest delta it supports."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "300", "--members", "1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "delta = 300.0 is too large for the sampler" in captured.err
    assert "up to about 253.5" in captured.err


@pytest.mark.filterwarnings("error")
def test_verify_at_delta_250_exits_zero(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "250", "--members", "3"
    )
    assert code == 0 and err == ""
    assert len(out.splitlines()) == 21


def test_area_record(capsys):
    code, out, _ = run_cli(capsys, "area", "--alpha", "0", "--beta", "0", "--delta", "1")
    assert code == 0
    record = json.loads(out)
    assert record["lower"] == pytest.approx(0.8639379797, abs=1e-8)
    assert record["upper"] == pytest.approx(2.5394540617, abs=1e-8)


def test_cover_record_has_both_forms(capsys):
    code, out, _ = run_cli(capsys, "cover", "--alpha", "0", "--beta", "0", "--delta", "1")
    assert code == 0
    record = json.loads(out)
    assert record["value"] == pytest.approx(7 / 12, abs=1e-9)
    assert record["floor"] == pytest.approx(5 / 12, abs=1e-9)


def test_growth_flags_disagreement_beyond_beta(capsys):
    code, out, _ = run_cli(
        capsys, "growth", "--alpha", "0", "--beta", "0.5", "--delta", "1",
        "--r", "0.3,0.8",
    )
    assert code == 0
    records = [json.loads(line) for line in out.strip().splitlines()]
    assert records[0]["g_forms_agree"] is True
    assert records[1]["g_forms_agree"] is False
    assert records[1]["g_lower_quadrature"] > records[1]["g_lower"]


def test_table_sweeps_lattice(capsys):
    code, out, _ = run_cli(
        capsys, "table", "--alpha", "0,0.3", "--beta", "0", "--delta", "0,1",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("theorem,alpha,beta,delta,b2_bound")


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "bounds.csv"
    code, out, _ = run_cli(
        capsys, "bounds", "--alpha", "0", "--beta", "0", "--delta", "1",
        "--format", "csv", "--out", str(target),
    )
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("theorem,")


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_no_command_takes_tol(capsys, command):
    """The bounds are exact, so no command takes a quadrature tolerance."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--alpha", "0", "--beta", "0", "--delta", "1", "--tol", "1e-8"])
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_csv_uses_period_decimal_and_15_digits(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--alpha", "0", "--beta", "0", "--delta", "1",
        "--n-max", "4", "--format", "csv",
    )
    assert code == 0
    row = out.strip().splitlines()[3].split(",")
    assert row[-1] == "0.458333333333333"


def test_verify_csv_survives_commas_in_witnesses(capsys):
    import csv as csv_mod
    import io

    code, out, _ = run_cli(
        capsys, "verify", "--alpha", "0", "--beta", "0.3", "--delta", "1",
        "--members", "1", "--seed", "2", "--format", "csv",
    )
    assert code == 0
    rows = list(csv_mod.reader(io.StringIO(out)))
    assert len(rows) == 8  # header + seven theorems
    assert all(len(r) == len(rows[0]) for r in rows[1:])


def test_bounds_cells_match_direct_evaluation(capsys):
    import harmclass as hc

    code, out, _ = run_cli(
        capsys, "bounds", "--alpha", "0.2", "--beta", "0.4", "--delta", "1.5",
        "--n-max", "6", "--format", "csv",
    )
    assert code == 0
    params = hc.ClassParams(0.2, 0.4, 1.5)
    for n, line in enumerate(out.strip().splitlines()[1:], start=2):
        assert float(line.split(",")[-1]) == pytest.approx(
            hc.bn_bound(params, n), abs=1e-15
        )
