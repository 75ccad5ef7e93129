"""The command-line contract: exit codes, byte-identical reports, --out, fail-fast limits."""
import json
import os
import subprocess
import sys
from typing import NamedTuple

import numpy as np
import pytest

from qviterbi import BitVector, builtin_code, cli, landscape_scan
from conftest import CODESPACE_633, reed_muller_1, span_words

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

DECODE = ["decode", "--code", "lbc_633", "--received", "111011", "--p", "2", "--q", "2", "--seed", "3"]


def run(argv, capsys):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def write_code(tmp_path, body):
    path = tmp_path / "code.json"
    path.write_text(json.dumps(body))
    return str(path)


class CodeFile(NamedTuple):
    """A ``--code`` argument written to a JSON file when the test runs."""

    body: object


def test_decode_succeeds(capsys):
    rc, out, _ = run(DECODE, capsys)
    assert rc == 0
    assert json.loads(out)["command"] == "decode"


@pytest.mark.parametrize("argv", [
    DECODE + ["--mode", "sampled"],
    DECODE + ["--strategy", "fpo"],
    ["oracle", "--code", "conv_r12_m2", "--received", "1101100111"],
    ["compare", "--code", "lbc_321", "--received", "011", "--p", "2", "--q", "2", "--repetitions", "2"],
    ["landscape", "--code", "lbc_321", "--received", "011", "--p", "2", "--grid", "4"],
])
def test_same_argv_gives_byte_identical_reports(argv, capsys):
    rc1, first, _ = run(argv, capsys)
    rc2, second, _ = run(argv, capsys)
    assert rc1 == rc2 == 0
    assert first == second


def test_out_writes_the_stdout_bytes(tmp_path, capsys):
    _, stdout_report, _ = run(DECODE, capsys)
    target = tmp_path / "report.json"
    rc, out, _ = run(DECODE + ["--out", str(target)], capsys)
    assert rc == 0
    assert out == ""
    assert target.read_text() == stdout_report


@pytest.mark.parametrize("argv", [
    ["oracle", "--code", "no_such_code", "--received", "111011"],
    ["oracle", "--code", "lbc_633", "--received", "111"],
    DECODE + ["--q", "0"],
    ["oracle", "--code", CodeFile([1, 2]), "--received", "10"],
    ["oracle", "--code", CodeFile({"generator": [1, 0]}), "--received", "10"],
    ["oracle", "--code", CodeFile({"codewords": ["00", 11]}), "--received", "10"],
    ["oracle", "--code", CodeFile({"codewords": ["00", "11"], "branch_bits": 0}), "--received", "10"],
    DECODE + ["--mode", "sampled", "--seed", "-1"],
    ["landscape", "--code", "lbc_321", "--received", "011", "--grid", "200000"],
    ["oracle", "--code", CodeFile({"codewords": ["00", "11"], "n": 5}), "--received", "10"],
    ["oracle", "--code", CodeFile({"generator": [[1, 1]], "n": "2"}), "--received", "10"],
    ["oracle", "--code", CodeFile({"codewords": ["00", "11"], "branch_bits": True}), "--received", "10"],
    ["oracle", "--code", CodeFile({"generator": [[True, False, 1.0]]}), "--received", "101"],
    DECODE + ["--mode", "sampled", "--shots", str(2**62)],
    DECODE + ["--mode", "sampled", "--shots", "10000000000000000000"],
    DECODE + ["--p", "65"],
    ["landscape", "--code", "lbc_321", "--received", "011", "--p", "65", "--grid", "2"],
    ["oracle", "--code", CodeFile({"generator": [[1, 0], [0, 1]], "branch_bits": 2}), "--received", "10"],
    ["oracle", "--code", CodeFile({"generator": [[1, 1]], "codewords": ["00", "01"]}), "--received", "10"],
    ["oracle", "--code", CodeFile({"codewords": ["00", "11"], "branchbits": 2}), "--received", "10"],
    ["oracle", "--code", CodeFile({"generator": [[1, 1]], "name": [1, 2]}), "--received", "10"],
])
def test_configuration_errors_exit_2(argv, tmp_path, capsys):
    argv = [write_code(tmp_path, a.body) if isinstance(a, CodeFile) else a for a in argv]
    rc, out, err = run(argv, capsys)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ")


def test_parse_failure_leaves_later_calls_as_in_a_fresh_process(capsys):
    # The parser is built once per process; a failed parse must not change it.
    with pytest.raises(SystemExit) as failed:
        cli.main(["decode", "--code", "lbc_633", "--received", "111011", "--strategy", "fpo", "--p", "x"])
    assert failed.value.code == 2
    argv = ["decode", "--code", "lbc_633", "--received", "111011", "--q", "1", "--mode", "sampled"]
    rc, out, _ = run(argv, capsys)
    fresh = subprocess.run([sys.executable, "-m", "qviterbi.cli", *argv], env={**os.environ, "PYTHONPATH": SRC},
                           capture_output=True, text=True, timeout=120)
    assert rc == fresh.returncode == 0
    assert out == fresh.stdout
    assert json.loads(out)["strategy"] == "upo"


def test_landscape_csv_holds_the_scanned_floats(capsys):
    rc, out, _ = run(["landscape", "--code", "lbc_321", "--received", "011", "--p", "2", "--grid", "5"], capsys)
    assert rc == 0
    header, *lines = out.splitlines()
    assert header == "beta,gamma,expectation"
    rows = [[float(x) for x in line.split(",")] for line in lines]
    expected = landscape_scan(builtin_code("lbc_321"), BitVector.from_string("011"), 2, 5)
    assert rows == expected.tolist()


def test_unwritable_out_exits_2(capsys):
    argv = ["oracle", "--code", "lbc_633", "--received", "111011", "--out", "/nonexistent/dir/x.json"]
    rc, _, err = run(argv, capsys)
    assert rc == 2
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_zero_code_decode_exits_2(tmp_path, capsys):
    source = write_code(tmp_path, {"codewords": ["000"]})
    rc, _, err = run(["decode", "--code", source, "--received", "101", "--p", "1", "--q", "1"], capsys)
    assert rc == 2
    assert "no nonzero codewords" in err


def test_rm_1_6_oracle_decodes_and_decode_refuses(tmp_path, capsys):
    # RM(1,6) [64,7,32]: the oracle works on any n, the compiled decoder on n <= 63.
    rows = reed_muller_1(6)
    source = write_code(tmp_path, {"generator": rows})
    received = "".join(map(str, np.random.default_rng(4).integers(0, 2, 64)))
    distance = {w: sum(a != b for a, b in zip(w, received)) for w in span_words(rows)}
    best = min(distance.values())
    rc, out, _ = run(["oracle", "--code", source, "--received", received], capsys)
    assert rc == 0
    assert json.loads(out) == {
        "best_metric": best,
        "best_codewords": sorted(w for w, m in distance.items() if m == best),
    }
    rc, out, err = run(["decode", "--code", source, "--received", received, "--p", "1", "--q", "1"], capsys)
    assert rc == 2
    assert out == ""
    assert "n = 64" in err


def test_oracle_on_one_40_bit_section(tmp_path, capsys):
    # One section as wide as the word: the oracle builds and decodes only the
    # two labels that occur, not a table over 2^40 labels.
    source = write_code(tmp_path, {"codewords": ["0" * 40, "1" * 40], "branch_bits": 40})
    rc, out, _ = run(["oracle", "--code", source, "--received", "0" * 30 + "1" * 10], capsys)
    assert rc == 0
    assert json.loads(out) == {"best_metric": 10, "best_codewords": ["0" * 40]}


def test_dump_state_refused_before_training(tmp_path, monkeypatch, capsys):
    # Hamming [15,11,3]: a 2^15-entry state is over the dump limit.
    poly = [1, 1, 0, 0, 1]
    rows = [[0] * i + poly + [0] * (10 - i) for i in range(11)]
    source = write_code(tmp_path, {"generator": rows})

    def must_not_train(*args, **kwargs):
        raise AssertionError("trained before refusing the dump")

    monkeypatch.setitem(cli.TRAINERS, "upo", must_not_train)
    rc, out, err = run(["decode", "--code", source, "--received", "0" * 15, "--dump-state"], capsys)
    assert rc == 2
    assert out == ""
    assert "dump is limited" in err


def test_dump_state_within_limit(capsys):
    # |amplitude|^2 at each codeword is that codeword's exact probability; every other entry is 0.
    rc, out, _ = run(DECODE + ["--dump-state"], capsys)
    assert rc == 0
    report = json.loads(out)
    entries = report["statevector"]
    assert [index for index, _, _ in entries] == list(range(1 << 6))
    codewords = {int(w, 2) for w in CODESPACE_633}
    for index, real, imag in entries:
        prob = real * real + imag * imag
        if index in codewords:
            expected = report["result"]["distribution"].get(format(index, "06b"), 0.0)
            assert abs(prob - expected) <= 1e-12
        else:
            assert prob == 0.0


def test_internal_failure_exits_3(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "viterbi_decode", broken)
    rc, out, err = run(["oracle", "--code", "lbc_633", "--received", "111011"], capsys)
    assert rc == 3
    assert out == ""
    assert "RuntimeError: boom" in err
