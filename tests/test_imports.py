"""The import contract: what a fresh process loads, and the package's export table."""
import importlib
import json
import os
import subprocess
import sys

import pytest

import qviterbi
from qviterbi import cli, engine

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Every name the package exports, with the submodule that defines it.
EXPORTS = {
    "codes": ["BitVector", "Code", "Gf2Matrix", "builtin_code", "builtin_names", "code_from_codewords",
              "code_from_generator", "code_from_json", "load_code"],
    "engine": ["QaoaParams", "TrainingResult", "expectation_exact", "expectation_sampled", "landscape_scan",
               "run_pqc", "train_fpo", "train_random", "train_upo"],
    "errors": ["EmptyMixerError", "LengthError", "NotLinearError", "QviterbiError", "RankError", "StatePrepError"],
    "statevector": ["Statevector", "apply_cost_unitary", "apply_mixer_unitary", "build_mixer_hamiltonian",
                    "measure_counts", "prepare_uniform_codespace"],
    "trellis": ["DecodeResult", "Trellis", "build_trellis", "ml_brute_force", "viterbi_decode"],
}
EXPORTED = [(module, name) for module, names in EXPORTS.items() for name in names]
LAZY_MODULES = {"engine", "statevector"}  # the submodules that import numpy

DECODE = ["decode", "--code", "lbc_633", "--received", "111011", "--p", "2", "--q", "2", "--seed", "3"]

# Loads two JSON codes and runs an oracle, listing the numpy and scipy modules
# loaded after that, then runs a decode and lists them again.
CONTRACT = """
import contextlib, io, json, sys
import qviterbi, qviterbi.cli

def loaded():
    return sorted(m for m in sys.modules if m.partition(".")[0] in ("numpy", "scipy"))

def run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = qviterbi.cli.main(argv)
    return rc, out.getvalue()

codes = [qviterbi.load_code(path) for path in sys.argv[1:3]]
oracle = run(["oracle", "--code", sys.argv[1], "--received", "100"])
after_oracle = loaded()
decode = run(sys.argv[3:])
print(json.dumps({"n": [c.n for c in codes], "oracle": oracle, "after_oracle": after_oracle,
                  "decode": decode, "after_decode": loaded()}))
"""


def _fresh(args):
    return subprocess.run([sys.executable, *args], env={**os.environ, "PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120, check=True).stdout


def test_cold_start_loads_no_numpy_until_a_decode(tmp_path):
    generator, codewords = tmp_path / "generator.json", tmp_path / "codewords.json"
    generator.write_text(json.dumps({"generator": [[1, 0, 1], [0, 1, 1]]}))
    codewords.write_text(json.dumps({"codewords": ["000", "011", "101", "110"]}))
    got = json.loads(_fresh(["-c", CONTRACT, str(generator), str(codewords), *DECODE]))
    assert got["n"] == [3, 3]
    assert got["oracle"][0] == 0
    assert json.loads(got["oracle"][1])["best_metric"] == 1
    assert got["after_oracle"] == []
    assert got["decode"][0] == 0
    assert got["decode"][1] == _fresh(["-m", "qviterbi.cli", *DECODE])
    assert "numpy" in got["after_decode"]
    assert not any(m.startswith("scipy") for m in got["after_decode"])


@pytest.mark.parametrize("module, name", EXPORTED)
def test_every_export_resolves_to_its_submodules_object(module, name, monkeypatch):
    def forget():
        # A lazy name's first access bound it; unbinding it makes the next access resolve it again.
        if module in LAZY_MODULES:
            monkeypatch.delitem(vars(qviterbi), name, raising=False)

    expected = getattr(importlib.import_module(f"qviterbi.{module}"), name)
    forget()
    assert getattr(qviterbi, name) is expected
    forget()
    assert name in dir(qviterbi)
    namespace = {}
    exec(f"from qviterbi import {name}", namespace)
    assert namespace[name] is expected


@pytest.mark.parametrize("module", [qviterbi, cli])
def test_unknown_name_raises_attribute_error(module):
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(module, "no_such_name")


def test_strategy_choices_are_the_trainers():
    decode = next(a for a in cli.build_parser()._actions if a.dest == "command").choices["decode"]
    strategy = next(a for a in decode._actions if a.dest == "strategy")
    assert list(strategy.choices) == sorted(engine.TRAINERS)
