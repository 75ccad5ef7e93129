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
is then two transforms W and two diagonal phases on 2^k amplitudes. The dense
simulator in ``statevector`` costs O(|M| 2^n).

W has two implementations, and each problem picks one by k. Up to
``DENSE_WALSH_MAX_K`` it is one product with the +-1 Sylvester matrix, O(4^k)
work in a single numpy call, the matrix built once per k on first use. Above
it is the butterfly ``fwht``, O(k 2^k) work in k numpy stages, whose cost at
these sizes is its per-stage call overhead. The product must stay on one
thread: from k = 6 OpenBLAS runs a complex matrix-vector product on several
threads, whose spin-waiting doubled the process's CPU time per decode request,
and a run of such calls sometimes took ~15 ms each. So for k = 6 to 8 the
product is a real matrix times the (2^k, 2) real view of the vector, which
OpenBLAS keeps on one thread. One mixer pass (transform, phase, transform) was
timed with ``timeit`` on a 2-vCPU Xeon VM (Python 3.11, numpy 2.4, OpenBLAS
0.3.31), best of 5 in each of two fresh processes, in microseconds:

    k                 1-3     4      5      6      7      8      9     10
    butterfly        8-26   42-45  47-62  67-75    95   86-96  122-171  169-226
    complex product   3-4     4      4-5   ~15000 (two threads)
    real product      8-9     8      9     11-12  13-16  32-35  135-152 ~16000

The transforms agree to rounding: for a unit vector they differ by about 1e-16.

The generator is in RREF with increasing pivots. So the leading bit in which
two codewords differ is the pivot of the leading message bit in which they
differ, and message order is ascending codeword order. ``code.codewords`` is
listed in that order, so index i of every vector here is its i-th word.

Everything that does not depend on the angles is computed once per problem:
the distances, the spectrum, the uniform start state and the two phase
generators, the rows of ``[-1j * lambda ; 0.5j * (n - 2 d)]``. A layer's mixer
and cost phases are one ``exp`` of that (2, 2^k) array scaled by (beta, gamma),
taken once per run of consecutive layers that share their (beta, gamma), so a
shared-angle circuit pays for one ``exp`` at any depth. Each scaled entry
rounds once, in whichever order angle and generator are multiplied: its real
part is a zero, and its imaginary part is the one rounded product -lambda *
beta, or w * gamma halved, since halving is exact. A caller that holds a
circuit's first layers fixed passes their output as ``start`` and applies only
the layers that follow.

``cost`` binds one optimizer draw's objective: the frozen prefix's output and,
in sampled mode, the draw's generator, over ``probabilities`` and
``expectation`` or ``expectation_sampled``, so there is one formula for each.
"""
from __future__ import annotations

import functools
from collections.abc import Callable, Sequence

import numpy as np

from .codes import BitVector, Code
from .errors import EmptyMixerError, LengthError

MAX_WORD_BITS = 63  # codewords are held as int64
DENSE_WALSH_MAX_K = 8  # largest k whose transform is one matrix product
COMPLEX_PRODUCT_MAX_K = 5  # largest k whose complex product OpenBLAS keeps on one thread


def popcounts(values: np.ndarray, num_bits: int) -> np.ndarray:
    """Hamming weight of each integer in ``values`` that fits in ``num_bits`` bits."""
    counts = np.zeros(values.shape, dtype=np.int64)
    for b in range(num_bits):
        counts += (values >> b) & 1
    return counts


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


@functools.cache
def walsh_matrix(k: int) -> np.ndarray:
    """The 2^k x 2^k Sylvester matrix, entry (s, t) = (-1)^popcount(s & t); read only."""
    w = np.ones((1, 1))
    for _ in range(k):
        w = np.block([[w, w], [w, -w]])
    w.flags.writeable = False
    return w


@functools.cache
def walsh_transform(k: int) -> Callable[[np.ndarray], np.ndarray]:
    """The unnormalised Walsh-Hadamard transform of contiguous complex vectors of length 2^k.

    One product with ``walsh_matrix(k)`` up to ``DENSE_WALSH_MAX_K``, complex up
    to ``COMPLEX_PRODUCT_MAX_K`` and on the real view above it; the butterfly
    ``fwht`` beyond. The module docstring gives the measurements.
    """
    if k > DENSE_WALSH_MAX_K:
        return fwht
    w = walsh_matrix(k)
    if k <= COMPLEX_PRODUCT_MAX_K:
        complex_w = w.astype(np.complex128)
        complex_w.flags.writeable = False
        return complex_w.__matmul__

    def real_product(values: np.ndarray) -> np.ndarray:
        return (w @ values.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()

    return real_product


class DecodeProblem:
    """One decode's circuit, compiled once: codewords, distances and mixer spectrum.

    ``codewords`` holds the codeword integers indexed by message, in ascending
    order; ``distances`` their Hamming distances to the received word;
    ``spectrum`` the mixer's eigenvalues in the Walsh-Hadamard basis;
    ``start`` the uniform superposition the circuit starts from (read only);
    and ``transform`` the Walsh-Hadamard transform chosen for its size.
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
        self._phase_generators = np.array([-1j * self.spectrum, 0.5j * (code.n - 2 * self.distances)])
        self._float_distances = self.distances.astype(np.float64)
        self.start = np.full(words.size, 1.0 / np.sqrt(words.size), dtype=np.complex128)
        self.start.flags.writeable = False
        self.transform = walsh_transform(code.k)

    def amplitudes(
        self, betas: Sequence[float], gammas: Sequence[float], start: np.ndarray | None = None
    ) -> np.ndarray:
        """Circuit output over the codewords: each layer applies the mixer, then the cost.

        The layers act on ``start``, the output of earlier layers, if it is
        given, else on the uniform start state; ``start`` is not modified.
        """
        transform = self.transform
        psi = self.start if start is None else start
        angles = None
        for beta, gamma in zip(betas, gammas):
            if (beta, gamma) != angles:
                angles = (beta, gamma)
                phases = np.exp(self._phase_generators * ((beta,), (gamma,)))
                mixer_phase, cost_phase = phases[0] / psi.size, phases[1]
            psi = transform(transform(psi) * mixer_phase)
            psi *= cost_phase
        return psi.copy() if angles is None else psi

    def probabilities(
        self, betas: Sequence[float], gammas: Sequence[float], start: np.ndarray | None = None
    ) -> np.ndarray:
        return np.abs(self.amplitudes(betas, gammas, start)) ** 2

    def expectation(self, probs: np.ndarray) -> float:
        """Exact cost expectation: sum over codewords of prob * distance."""
        return float(np.dot(probs, self._float_distances))

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

    def cost(
        self, start: np.ndarray | None = None, shots: int = 0, rng: np.random.Generator | None = None
    ) -> Callable[[Sequence[float], Sequence[float]], float]:
        """One optimizer draw's objective ``f(betas, gammas)``, the circuit's cost expectation.

        The layers act on ``start`` as in ``amplitudes``. Without ``rng`` a
        call returns ``expectation(probabilities(betas, gammas, start))``;
        with it, ``expectation_sampled(..., shots, rng)``, every call taking
        its shots from ``rng`` in call order.
        """
        if rng is None:
            return lambda betas, gammas: self.expectation(self.probabilities(betas, gammas, start))
        return lambda betas, gammas: self.expectation_sampled(self.probabilities(betas, gammas, start), shots, rng)

    def bit_string(self, index: int) -> str:
        return format(int(self.codewords[index]), f"0{self.n}b")
