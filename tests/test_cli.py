import json
import math
import os
import subprocess
import sys

import numpy as np
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

    monkeypatch.setattr(cli.verify, "_member_suite", fake_suite)
    code, out, _ = run_cli(
        capsys, "verify", "--alpha", "0", "--beta", "0", "--delta", "1",
        "--members", "1", "--seed", "1",
    )
    assert code == 1
    assert json.loads(out.strip())["passed"] is False


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("bounds", "--alpha", "1.0", "--beta", "0", "--delta", "1"), id="alpha-1"),
        pytest.param(
            ("bounds", "--alpha", "0", "--beta", "0", "--delta", "-1"), id="delta-negative"
        ),
        pytest.param(
            ("bounds", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "1"),
            id="bounds-n-max-1",
        ),
        pytest.param(
            ("verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--members", "0"),
            id="verify-members-0",
        ),
        # --n-max above the index cap bounds.MAX_COEFF_INDEX = 10**6
        pytest.param(
            ("bounds", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "1000001"),
            id="bounds-n-max-over-cap",
        ),
        pytest.param(
            ("table", "--alpha", "0", "--beta", "0", "--delta", "1", "--n-max", "9"),
            id="table-n-max",
        ),
        pytest.param(
            ("growth", "--alpha", "0", "--beta", "0", "--delta", "1", "--r", "1.5"),
            id="growth-r-outside-disc",
        ),
        pytest.param(("nonsense",), id="unknown-command"),
        # the former debugging commands are gone
        pytest.param(("digamma", "--x", "1.0"), id="digamma"),
        pytest.param(("quad", "--coeffs", "0,1"), id="quad"),
        # a negative seed, an --out that cannot be opened, empty float lists
        pytest.param(
            ("verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--seed", "-1"),
            id="verify-seed-negative",
        ),
        pytest.param(
            ("bloch", "--alpha", "0", "--beta", "0", "--delta", "1",
             "--out", "/nonexistent/dir/x.json"),
            id="bloch-out-unopenable",
        ),
        pytest.param(
            ("growth", "--alpha", "0", "--beta", "0", "--delta", "1", "--r", ","),
            id="growth-r-empty",
        ),
        pytest.param(
            ("table", "--alpha", ",", "--beta", "0", "--delta", "1"), id="table-alpha-empty"
        ),
        # only bounds takes --n-max: verify checks n = 2..12
        pytest.param(
            ("verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "1", "--n-max", "12"),
            id="verify-n-max",
        ),
    ],
)
def test_invalid_flags_exit_two(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2
    assert capsys.readouterr().out == ""


def test_unknown_flag_error_names_the_subcommand(capsys):
    """An unknown flag is reported by the subcommand's parser, with its usage line."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "1", "--n-max", "12"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hcl verify ")
    assert "\nhcl verify: error: unrecognized arguments: --n-max 12\n" in captured.err


def test_negative_seed_error_names_the_seed(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["verify", "--alpha", "0", "--beta", "0", "--delta", "1", "--seed", "-1"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "seed must be >= 0, got -1" in captured.err


def test_growth_at_negative_zero_radius_exits_two(capsys):
    """--r -0.0 is rejected like any radius outside [0, 1): exit 2 with the
    usage line and the message, nothing on stdout and no traceback."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["growth", "--alpha", "0.3", "--beta", "0.5", "--delta", "1", "--r", "-0.0"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: hcl growth ")
    assert "error: radius must be in [0, 1) and not -0.0, got -0.0" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv, command",
    [
        (("growth", "--alpha", "0.3", "--beta", "0.5", "--delta", "1", "--r", "-0.0"), "growth"),
        (("verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "1", "--members", "0"), "verify"),
        (
            ("bloch", "--alpha", "0", "--beta", "0", "--delta", "1",
             "--out", "/nonexistent/dir/x.json"),
            "bloch",
        ),
        (
            ("verify", "--alpha", "0.3", "--beta", "0.5", "--delta", "1", "--members", "1",
             "--out", "/nonexistent/dir/x.jsonl"),
            "verify",
        ),
    ],
    ids=["growth-value", "verify-value", "bloch-out", "verify-out"],
)
def test_flag_errors_show_the_usage_of_the_command_that_was_run(capsys, argv, command):
    """A value the library rejects and an --out that cannot be opened are
    reported by the subcommand's parser, like an unknown flag."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main(list(argv))
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"usage: hcl {command} ")
    assert f"\nhcl {command}: error: " in captured.err


def test_verify_exits_three_when_the_area_quadrature_cannot_converge(capsys, monkeypatch, tmp_path):
    """With the area tolerance out of reach, the first member past beta 0.8
    runs its quadrature out of panels: exit 3, the reason on stderr, nothing
    on stdout and no file written."""
    monkeypatch.setattr(cli.verify, "_AREA_TOL", 1e-300)
    out = tmp_path / "verify.jsonl"
    code = cli.main(
        ["verify", "--alpha", "0.3", "--beta", "0.9", "--delta", "1", "--out", str(out)]
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == "" and not out.exists()
    assert captured.err.startswith("numerical non-convergence: ")
    assert "more than 256 panels" in captured.err


_VERIFY_PEAK_RSS = """
import os, sys
from harmclass.cli import main
argv = ["verify", "--alpha", "0.3", "--beta", "0.9999", "--delta", "1",
        "--members", sys.argv[1], "--seed", "7", "--out", os.devnull]
assert main(argv) == 0
"""

#: Appended to each child script: its own peak RSS in KiB.  On Linux the
#: ``ru_maxrss`` of a child carries the peak of the process it was forked
#: from across ``exec``, so it is read as the ``VmHWM`` of the child's own
#: address space where /proc has it.
_PRINT_PEAK_KIB = """
import resource
try:
    with open("/proc/self/status") as status:
        print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
except OSError:
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""


def _child_peak_rss_kib(script: str, arg: str) -> int:
    """Peak RSS in KiB of a fresh process that runs ``script`` with ``arg``."""
    paths = (os.path.dirname(os.path.dirname(cli.__file__)), os.environ.get("PYTHONPATH"))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run(
        [sys.executable, "-c", script + _PRINT_PEAK_KIB, arg],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    return int(done.stdout)


def _verify_peak_rss_kib(members: int) -> int:
    """Peak RSS of a fresh process that runs ``hcl verify`` at beta 0.9999."""
    return _child_peak_rss_kib(_VERIFY_PEAK_RSS, str(members))


def test_verify_peak_rss_does_not_grow_with_the_member_count():
    """``hcl verify`` holds each member's records, not the member: at beta
    0.9999 a member holds about 0.43 MB of g, and the peak RSS of 400 members
    stays within 10 MB of that of 20 (it read 211 against 49 MB when the
    command kept every member)."""
    few, many = _verify_peak_rss_kib(20), _verify_peak_rss_kib(400)
    assert many - few <= 10 * 1024, (few, many)


_AREA_EXIT_PEAK_RSS = """
import os, sys
from harmclass import verify
from harmclass.cli import main
forced = sys.argv[1] == "forced"
if forced:
    verify._AREA_TOL = 1e-300
argv = ["verify", "--alpha", "0.3", "--beta", "0.9", "--delta", "1", "--out", os.devnull]
assert main(argv) == (3 if forced else 0)
"""


def test_verify_exit_three_peaks_near_a_converging_run():
    """The area quadrature stops at its panel budget: the forced exit 3 at
    beta 0.9 peaks within 30 MB of a converging run (it read 325 against
    39 MB, after 0.57 s, when only the depth of each panel was bounded)."""
    converging = _child_peak_rss_kib(_AREA_EXIT_PEAK_RSS, "converging")
    forced = _child_peak_rss_kib(_AREA_EXIT_PEAK_RSS, "forced")
    assert forced - converging <= 30 * 1024, (converging, forced)


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
@pytest.mark.parametrize("command", ["bloch", "table"])
def test_bloch_at_delta_1022_matches_delta_1000(capsys, command):
    """H is finite at delta = 1022 and its sign pattern certifies the root, so
    both commands exit 0; there the 1 - alpha terms are below the last bit of
    the 2^delta terms, so r0 and the bound are those of delta = 1000."""
    rows = {}
    for delta in ("1000", "1022"):
        code, out, err = run_cli(
            capsys, command, "--alpha", "0.3", "--beta", "0.5", "--delta", delta
        )
        assert code == 0 and err == ""
        rows[delta] = json.loads(out)
    key = "" if command == "bloch" else "bloch_"
    for field in ("r0", "bound"):
        assert rows["1022"][key + field] == pytest.approx(rows["1000"][key + field], abs=1e-12)


def _domain_points() -> list[tuple[float, float, float]]:
    """Seeded (alpha, beta, delta) with alpha, beta in [0, 1) and delta in
    [0, 1024), every other delta in [1020, 1024), plus the edges alpha,
    beta -> 1-, delta -> 1024- and delta = 645.5 (where n^delta (n - alpha)
    first overflows at n = 3)."""
    rng = np.random.default_rng(20180914)
    points = []
    for i in range(160):
        alpha, beta = rng.uniform(0.0, 1.0, 2).tolist()
        delta = float(rng.uniform(1020.0, 1024.0) if i % 2 else rng.uniform(0.0, 1024.0))
        points.append((alpha, beta, delta))
    below_one, below_1024 = 1.0 - 2.0**-53, 1024.0 - 2.0**-43
    for alpha in (0.0, below_one):
        for beta in (0.0, below_one):
            points += [(alpha, beta, delta) for delta in (645.5, 1023.5, below_1024)]
    return points


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name} in the output")


def _numbers(value):
    if isinstance(value, list):
        for item in value:
            yield from _numbers(item)
    elif isinstance(value, (int, float)) and not isinstance(value, bool):
        yield value


_DOMAIN_FLAGS = {
    "bounds": ["--n-max", "4"],
    "growth": ["--r", "0,0.5,0.999"],
    "verify": ["--members", "1"],
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "command", ["bounds", "table", "bloch", "area", "cover", "growth", "verify"]
)
def test_bound_commands_are_total_on_the_bound_domain(capsys, command):
    """Every bound command, and ``verify``, exits 0 on all of
    0 <= alpha, beta < 1 and 0 <= delta < 1024 under warnings as errors, and
    prints strict JSON with finite numbers only."""
    for alpha, beta, delta in _domain_points():
        argv = [command, "--alpha", repr(alpha), "--beta", repr(beta), "--delta", repr(delta),
                *_DOMAIN_FLAGS.get(command, [])]
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, err) == (0, ""), argv
        for line in out.splitlines():
            record = json.loads(line, parse_constant=_reject_constant)
            assert all(math.isfinite(x) for v in record.values() for x in _numbers(v)), argv


@pytest.mark.filterwarnings("error")
def test_verify_reaches_beta_next_to_one(capsys):
    """g is sized for the covering circle, so no beta < 1 asks for too many terms."""
    code, out, err = run_cli(
        capsys, "verify", "--alpha", "0", "--beta", "0.999999999999", "--delta", "1",
        "--members", "1",
    )
    assert code == 0 and err == ""
    records = [json.loads(line) for line in out.splitlines()]
    assert len(records) == 7 and all(record["passed"] for record in records)


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
    """The bounds are exact, so no command takes a quadrature tolerance; the
    command's own parser rejects the flag."""
    with pytest.raises(SystemExit) as excinfo:
        cli.main([command, "--alpha", "0", "--beta", "0", "--delta", "1", "--tol", "1e-8"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"\nhcl {command}: error: unrecognized arguments: --tol 1e-8\n" in captured.err


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
