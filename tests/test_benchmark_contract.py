"""The package names the benchmark re-scores reports with.

``perfbench/checks.rescore`` calls the package directly after a run's timed
phase, so a name it needs going missing would only show there. This test
imports the benchmark's modules the way ``perfbench/test_perfbench.py`` does
and re-scores one CLI report.
"""
import json
import os
import sys

import pytest

import qviterbi
from qviterbi import cli
from conftest import CODESPACE_633

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"))

from checks import check_report, rescore  # noqa: E402
from workloads import Request, Template, analyse  # noqa: E402


def test_rescore_of_a_p1_decode_report(capsys):
    # 111011 is one bit from the codeword 011011, so f_min = 1 and the ratio is defined.
    received = "111011"
    argv = ("decode", "--code", "lbc_633", "--received", received, "--strategy", "upo",
            "--p", "1", "--q", "1", "--mode", "exact", "--seed", "5")
    assert cli.main(list(argv)) == 0
    report = json.loads(capsys.readouterr().out)
    info = analyse("lbc_633", "lbc_633")
    req = Request(0, Template("lbc_633", p=1, q=1), received, argv)
    assert check_report(req, info, report) == []

    mass, ratio = rescore(qviterbi, qviterbi.load_code("lbc_633"), info, req, report)
    # At p = 1 the mixer acts first, on its own eigenvector (the uniform
    # codespace state), so every codeword keeps probability 1 / 2^k.
    distances = [sum(a != b for a, b in zip(w, received)) for w in CODESPACE_633]
    f_min = min(distances)
    assert f_min == 1
    assert mass == pytest.approx(distances.count(f_min) / len(distances), abs=1e-12)
    assert ratio == pytest.approx(sum(distances) / len(distances) / f_min, abs=1e-12)
