"""The decoder circuit compiled onto the code's 2^k-dimensional codespace.

The circuit starts in the uniform superposition of codewords, and neither of
its generators leaves the codespace. The cost is diagonal, so it is one phase
per codeword, set by the codeword's distance d to the received word. Each
mixer term X^w, for a minimum-weight codeword w, maps codeword c to c xor w.

Index codewords by their messages, a codeword's bits at the generator's RREF
pivot columns. Then X^w is the shift m -> m xor mu(w) on messages, and the
mixer is the adjacency operator of the Cayley graph of (Z_2^k, xor) generated
by the set M of minimum-weight messages. The characters of Z_2^k diagonalise
every such operator. With W the unnormalised Walsh-Hadamard matrix
(W^2 = 2^k I):

    H_M = W diag(lambda) W / 2^k,   lambda_t = sum_{mu in M} (-1)^popcount(t & mu),

and lambda is the Walsh-Hadamard transform of M's indicator vector. One layer
is then two fast transforms and two diagonal phases on 2^k amplitudes, which
costs O(k 2^k). The dense simulator in ``statevector`` costs O(|M| 2^n).

The generator is in RREF with increasing pivots. So the leading bit in which
two codewords differ is the pivot of the leading message bit in which they
differ, and message order is ascending codeword order. ``code.codewords`` is
listed in that order, so index i of every vector here is its i-th word.

Everything that does not depend on the angles is computed once per problem:
the distances, the spectrum and the uniform start state. Within one call the
two phase vectors of a layer are computed once per run of consecutive layers
that share their (beta, gamma), so a shared-angle circuit pays for one pair of
``exp`` calls at any depth. A caller that holds a circuit's first layers fixed
passes their output as ``start`` and applies only the layers that follow.
"""
from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from .codes import BitVector, Code, popcounts
from .errors import EmptyMixerError, LengthError

MAX_WORD_BITS = 63  # codewords are held as int64


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a vector of length 2^k."""
    out = values.copy()
    half = 1
    while half < out.size:
        pairs = out.reshape(-1, 2, half)
        lo, hi = pairs[:, 0], pairs[:, 1]
        total = lo + hi
        np.subtract(lo, hi, out=hi)
        lo[...] = total
        half *= 2
    return out


class DecodeProblem:
    """One decode's circuit, compiled once: codewords, distances and mixer spectrum.

    ``codewords`` holds the codeword integers indexed by message, in ascending
    order; ``distances`` their Hamming distances to the received word;
    ``spectrum`` the mixer's eigenvalues in the Walsh-Hadamard basis; and
    ``start`` the uniform superposition the circuit starts from (read only).
    """

    def __init__(self, code: Code, received: BitVector):
        if len(received) != code.n:
            raise LengthError(f"received length {len(received)} != n = {code.n}")
        if code.n > MAX_WORD_BITS:
            raise ValueError(f"n = {code.n} exceeds the {MAX_WORD_BITS}-bit codeword limit")
        words = np.array(code.codewords, dtype=np.int64)
        min_weight = (popcounts(words, code.n) == code.d) & (words != 0)
        if not min_weight.any():
            raise EmptyMixerError("degenerate code has no nonzero codewords")
        self.n = code.n
        self.codewords = words
        self.distances = popcounts(words ^ received.to_index(), code.n)
        self.spectrum = fwht(min_weight.astype(np.float64))
        self._cost_weights = code.n - 2 * self.distances
        self.start = np.full(words.size, 1.0 / np.sqrt(words.size), dtype=np.complex128)
        self.start.flags.writeable = False

    def amplitudes(
        self, betas: Sequence[float], gammas: Sequence[float], start: np.ndarray | None = None
    ) -> np.ndarray:
        """Circuit output over the codewords: each layer applies the mixer, then the cost.

        The layers act on ``start``, the output of earlier layers, if it is
        given, else on the uniform start state; ``start`` is not modified.
        """
        size = self.codewords.size
        psi = self.start if start is None else start
        angles = None
        for beta, gamma in zip(betas, gammas):
            if (beta, gamma) != angles:
                angles = (beta, gamma)
                mixer_phase = np.exp(-1j * beta * self.spectrum) / size
                cost_phase = np.exp(1j * 0.5 * gamma * self._cost_weights)
            psi = fwht(fwht(psi) * mixer_phase)
            psi *= cost_phase
        return psi.copy() if angles is None else psi

    def probabilities(
        self, betas: Sequence[float], gammas: Sequence[float], start: np.ndarray | None = None
    ) -> np.ndarray:
        return np.abs(self.amplitudes(betas, gammas, start)) ** 2

    def expectation(self, probs: np.ndarray) -> float:
        """Exact cost expectation: sum over codewords of prob * distance."""
        return float(np.dot(probs, self.distances))

    def sample(self, probs: np.ndarray, shots: int, seed: int | np.random.Generator) -> np.ndarray:
        """Seeded multinomial counts over the codewords.

        ``seed`` is a seed for ``numpy.random.default_rng`` or a generator to
        draw from. The dense simulator samples all 2^n basis states in
        ascending order. numpy's multinomial draws nothing for a
        zero-probability category, so the same seed gives the same counts on
        the codewords.
        """
        rng = np.random.default_rng(seed)
        return rng.multinomial(shots, probs / probs.sum())

    def expectation_sampled(self, probs: np.ndarray, shots: int, seed: int | np.random.Generator) -> float:
        """Cost expectation estimated from a seeded finite-shot measurement."""
        return int(np.dot(self.sample(probs, shots, seed), self.distances)) / shots

    def bit_string(self, index: int) -> str:
        return format(int(self.codewords[index]), f"0{self.n}b")
