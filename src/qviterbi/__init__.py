"""Hybrid variational decoding of small binary linear codes.

The package builds cost and mixer Hamiltonians from any small linear code,
simulates the layered parameterized circuit exactly on the code's 2^k
codespace (with a dense statevector simulator as the reference), trains the
circuit parameters, and validates every decoded result against a classical
trellis decoder.
"""

from .codes import (
    BitVector,
    Code,
    Gf2Matrix,
    builtin_code,
    builtin_names,
    code_from_codewords,
    code_from_generator,
    code_from_json,
    load_code,
    min_weight_codewords,
)
from .engine import (
    QaoaParams,
    TrainingResult,
    expectation_exact,
    expectation_sampled,
    landscape_scan,
    run_pqc,
    train_fpo,
    train_random,
    train_upo,
)
from .errors import (
    EmptyMixerError,
    LengthError,
    NotDiagonalError,
    NotLinearError,
    QviterbiError,
    RankError,
    StatePrepError,
)
from .hamiltonians import (
    PauliHamiltonian,
    PauliString,
    build_cost_hamiltonian,
    build_mixer_hamiltonian,
    eigenvalue_of,
    fourier_expand_xor,
)
from .statevector import (
    CircuitMode,
    Statevector,
    apply_cost_unitary,
    apply_mixer_unitary,
    measure_counts,
    prepare_uniform_codespace,
)
from .trellis import DecodeResult, Trellis, build_trellis, ml_brute_force, viterbi_decode

__version__ = "0.1.0"
