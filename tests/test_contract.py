"""Output contract of the CLI: full stdout records pinned against a recording.

``data/cli_contract.json`` holds, per case, the argv, the exit code and the
stdout lines of ``hcl <argv>``.  The bound commands run in scalar floats at
integer delta, so their stdout must match byte for byte.  In ``verify``
records, keys, strings (witnesses included), booleans, integers and exit
codes must match exactly, and floats may move by at most ``FLOAT_TOL``: SIMD
dispatch changes last digits of the grid values between machines.
"""

import json
from pathlib import Path

import pytest

from harmclass import cli

CASES = json.loads((Path(__file__).parent / "data" / "cli_contract.json").read_text())

FLOAT_TOL = 1e-12


def _mismatches(expected, actual, path):
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{path}: keys {sorted(actual)} != {sorted(expected)}"]
        return [d for k in expected for d in _mismatches(expected[k], actual[k], f"{path}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        return [
            d for i, pair in enumerate(zip(expected, actual))
            for d in _mismatches(*pair, f"{path}[{i}]")
        ]
    if type(expected) is float and type(actual) is float:
        if abs(expected - actual) <= FLOAT_TOL:
            return []
    elif type(expected) is type(actual) and expected == actual:
        return []
    return [f"{path}: {actual!r} != {expected!r}"]


def _assert_recorded(case, lines):
    """``verify`` records within ``FLOAT_TOL``, every other command byte for byte."""
    if case["argv"].startswith("verify"):
        expected = [json.loads(line) for line in case["stdout"]]
        assert _mismatches(expected, [json.loads(line) for line in lines], "stdout") == []
    else:
        assert lines == case["stdout"]


@pytest.mark.parametrize("case", CASES, ids=[case["argv"] for case in CASES])
def test_cli_output_matches_recording(capsys, case):
    code = cli.main(case["argv"].split())
    lines = capsys.readouterr().out.splitlines()
    assert code == case["exit_code"]
    assert len(lines) == len(case["stdout"])
    _assert_recorded(case, lines)


def test_cli_output_is_the_same_when_main_runs_again(capsys):
    """``main`` reuses one parser: two rounds in one process, the second in
    rotated order, give the recorded records and byte-identical stdout.  A
    growth call with the default ``--r`` follows one with an explicit ``--r``."""
    default_r = "growth --alpha 0 --beta 0.5 --delta 1"
    argvs = [case["argv"] for case in CASES]
    explicit = next(i for i, argv in enumerate(argvs) if argv.startswith("growth"))
    argvs.insert(explicit + 1, default_r)
    rounds = []
    for order in (argvs, argvs[3:] + argvs[:3]):
        outputs = {}
        for argv in order:
            code = cli.main(argv.split())
            outputs[argv] = (code, capsys.readouterr().out)
        rounds.append(outputs)
    assert rounds[0] == rounds[1]
    for case in CASES:
        code, out = rounds[0][case["argv"]]
        assert code == case["exit_code"]
        _assert_recorded(case, out.splitlines())
    growth = [json.loads(line) for line in rounds[0][default_r][1].splitlines()]
    assert [row["r"] for row in growth] == [0.25, 0.5, 0.75]


#: ``hcl table`` over the criterion-7 lattice widened by a beta below the switch of the
#: g-growth forms (0.0005), beta -> 1 and delta 2; every printed digit pinned.
TABLE_ARGV = (
    "table --alpha 0,0.3,0.6 --beta 0,0.0005,0.3,0.6,0.9,0.99,0.999 --delta 0,1,2 --format csv"
)


def test_table_output_is_byte_identical_to_recording(capsys):
    """The bound commands run in scalar floats at integer delta, so these bytes
    do not depend on SIMD dispatch: they may change only on purpose."""
    expected = (Path(__file__).parent / "data" / "table_lattice.csv").read_text()
    assert cli.main(TABLE_ARGV.split()) == 0
    assert capsys.readouterr().out == expected
