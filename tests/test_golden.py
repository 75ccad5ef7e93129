"""Golden decode reports for lbc_633 with received 111011, p = 3, q = 5, seed 0.

The expected values were recorded from the dense folded statevector path. They
pin the whole decode (training trajectory, final distribution, measurement) so
that any change to the simulator or the optimizer that moves a result shows.
p = 1 is deliberately absent: there the mixer-first layer leaves the uniform
codespace distribution unchanged, and its top state is decided by float noise.

The same defect makes FPO's first stage and the random strategy's first beta
flat directions, so the angles Nelder-Mead settles on there are chosen by
rounding noise, and any change in how the state is computed moves them (FPO
finds 334 solution hits on the dense simulator and 1551 on the compiled one).
For those two strategies only the decoded word is pinned.

The sampled values were re-recorded when each draw came to take the shots of
all its evaluations from one generator, seeded once per draw, instead of one
generator per evaluation: the training noise is a different sample, so the
winning angles and the final counts moved (solution hits 1668 -> 1633,
best expectation 1.2905 -> 1.289). The final measurement's seed is unchanged.
"""
import json

import pytest

from qviterbi.cli import main

ORACLE = {"best_codewords": ["011011"], "best_metric": 1}

GOLDEN = {
    ("upo", "exact"): {
        "solution_hits": 1604,
        "best_expectation": 1.334717323800588,
        "distribution": {
            "000000": 0.007693787404807567,
            "001110": 0.007375517269373493,
            "010101": 0.007375517269373486,
            "011011": 0.8006521461241549,
            "100011": 0.047058496649732585,
            "101101": 0.04139301931641284,
            "110110": 0.04139301931641285,
            "111000": 0.047058496649732585,
        },
    },
    ("upo", "sampled"): {
        "solution_hits": 1633,
        "best_expectation": 1.289,
        "distribution": {
            "000000": 14.0,
            "001110": 31.0,
            "010101": 27.0,
            "011011": 1633.0,
            "100011": 65.0,
            "101101": 72.0,
            "110110": 77.0,
            "111000": 81.0,
        },
    },
}


def _top_state(distribution):
    return sorted(distribution.items(), key=lambda kv: (-kv[1], kv[0]))[0][0]


def _decode(strategy, mode, capsys):
    argv = ["decode", "--code", "lbc_633", "--received", "111011", "--p", "3", "--q", "5",
            "--seed", "0", "--strategy", strategy, "--mode", mode]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["oracle"] == ORACLE
    assert report["oracle_agrees"] is True
    assert _top_state(report["result"]["distribution"]) == "011011"
    return report["result"]


@pytest.mark.parametrize("strategy", ["fpo", "random"])
def test_decoded_word_with_noise_decided_angles(strategy, capsys):
    _decode(strategy, "exact", capsys)


@pytest.mark.parametrize("strategy,mode", sorted(GOLDEN))
def test_golden_decode(strategy, mode, capsys):
    result = _decode(strategy, mode, capsys)
    expected = GOLDEN[(strategy, mode)]
    assert result["solution_hits"] == expected["solution_hits"]
    assert result["best_expectation"] == pytest.approx(expected["best_expectation"], abs=1e-9)
    assert set(result["distribution"]) == set(expected["distribution"])
    for state, value in expected["distribution"].items():
        if mode == "sampled":
            assert result["distribution"][state] == value
        else:
            assert result["distribution"][state] == pytest.approx(value, abs=1e-9)
