"""Hybrid variational decoding of small binary linear codes.

The package takes the mixer of any small linear code as a tuple of X-masks,
one int per minimum-weight codeword, and the Hamming-distance cost as a
distance vector. It simulates the layered parameterized circuit exactly on
the code's 2^k codespace, trains the circuit parameters with one of three
strategies (``TRAINERS``, keyed by the CLI's ``--strategy`` name), and
validates every decoded result against a classical trellis decoder. One
dense circuit ships besides the compiled one: the folded n-qubit
statevector, which writes the codespace superposition directly and serves
``--dump-state`` and the benchmark's re-score. The package has no gates and
no Pauli forms: the gates, the 2n-qubit full-register circuit built from
them and the Pauli form of the cost are test references
(``tests/reference.py``).

``import qviterbi`` loads ``codes``, ``errors`` and ``trellis`` at once: code
loading and the trellis oracle, pure Python on ints. The names exported from
the circuit layers, ``engine`` and ``statevector``, are resolved on first
access (PEP 562), which imports their submodule. Both import numpy, ~160 ms
of a ~200 ms eager package import, so only the first command that trains or
scans pays for it. Loading a code lists none of its 2^k codewords; ``oracle``
never lists them, and ``decode`` lists them once. Fresh ``python -m
qviterbi.cli`` processes, medians of 30 runs on a 2-vCPU VM
(``tests/cold_start.py``), took 63 ms for ``oracle`` on lbc_633, 85 ms on
Golay [24,12,8] and 65 ms on the codeword-list convolutional code [20,8,5],
against 145 ms for a p = 2 ``decode`` on lbc_633, which imports numpy.
"""
import importlib

from .codes import (
    BitVector,
    Code,
    builtin_code,
    builtin_names,
    code_from_json,
    load_code,
)
from .errors import (
    EmptyMixerError,
    LengthError,
    NotLinearError,
    QviterbiError,
    RankError,
)
from .trellis import DecodeResult, Trellis, build_trellis, ml_brute_force, viterbi_decode

__version__ = "0.1.0"

# Exported name -> the submodule that defines it, imported on first access.
_LAZY = {
    **dict.fromkeys((
        "QaoaParams",
        "TRAINERS",
        "TrainingResult",
        "expectation_exact",
        "expectation_sampled",
        "landscape_scan",
        "run_pqc",
    ), "engine"),
    **dict.fromkeys((
        "Statevector",
        "apply_cost_unitary",
        "apply_mixer_unitary",
        "build_mixer_hamiltonian",
        "measure_counts",
        "prepare_uniform_codespace",
    ), "statevector"),
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
