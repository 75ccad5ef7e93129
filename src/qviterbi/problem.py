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
is then W, the mixer phase, the inverse W / 2^k and the cost phase on 2^k
amplitudes. The 1/2^k rides on the inverse, not on the phase: scaling by a
power of two is exact, so either place gives the same bits. The dense
simulator in ``statevector`` rotates the basis pairs of each X-mask in M over
all 2^n amplitudes, O(|M| 2^n) a layer. The indicator of M is derived here
from ``code.codewords`` and ``code.d``, not taken from that mixer, so the two
simulators stay independent.

W and its inverse have two implementations, and each problem picks one pair
by k. Up to ``DENSE_WALSH_MAX_K`` each is one product with a matrix, the +-1
Sylvester matrix or that matrix divided by 2^k, O(4^k) work in a single numpy
call, the matrices built once per k on first use. The product is taken with
``ndarray.dot``, which at these sizes costs less than ``@`` and gives the same
bits. Above it W is the butterfly ``fwht``, O(k 2^k) work in k numpy stages,
whose cost at these sizes is its per-stage call overhead, and the inverse runs
the butterfly on its input times 2^-k. The product must stay on one
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

The products above were taken with ``@``. Timed again the same way, in one
later sitting on a 2-vCPU Xeon VM with the same software, which ran faster,
``ndarray.dot`` against ``@``:

    k                 1-3       4        5        6        7        8
    complex @        1.9-2.1   2.1      2.3-2.4
    complex W.dot    1.2-1.3   1.3-1.4  1.6-1.7
    real @           3.9-4.3   4.2      4.3-4.6  5.5-5.7  8.9-9.0  21.6-22.2
    real w.dot       2.8-3.2   3.0-3.2  3.2-3.7  4.0-4.4  7.4-8.3  20.7-21.3

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

At k <= 5 an evaluation is a few numpy calls on at most 32 amplitudes, so
per-call overhead, not arithmetic, sets its cost. ``cost`` therefore compiles
one optimizer draw's objective: it binds the frozen prefix's output and, in
sampled mode, the shots and the draw's generator, and allocates once the work
arrays that every evaluation reuses: the (2, 1) angle array, the scaled
generators, the phases (whose rows are the mixer and cost phases) and the
probabilities. An evaluation writes beta and gamma into the angle array and
fills the others with ``out=`` ufunc calls. ``amplitudes``, ``probabilities``
and the bound objective run one layer loop, ``_bind``; ``amplitudes`` and
``probabilities`` bind fresh work arrays on every call, so an array they
return is the caller's and no later evaluation writes to it.
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


def popcounts(values: np.ndarray) -> np.ndarray:
    """Hamming weight of each non-negative integer in ``values``, as int64.

    ``np.bitwise_count`` returns uint8, on which ``n - 2 * d`` would wrap.
    """
    return np.bitwise_count(values).astype(np.int64)


def fwht(values: np.ndarray) -> np.ndarray:
    """Unnormalised Walsh-Hadamard transform of a vector of length 2^k."""
    return _butterfly(values.copy())


def _butterfly(out: np.ndarray) -> np.ndarray:
    """``fwht`` in place on ``out``, which it returns."""
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
def walsh_transforms(k: int) -> tuple[Callable[[np.ndarray], np.ndarray], Callable[[np.ndarray], np.ndarray]]:
    """The unnormalised Walsh-Hadamard transform W of contiguous complex vectors of length 2^k, and W / 2^k.

    W / 2^k is W's inverse. Up to ``DENSE_WALSH_MAX_K`` each is one product
    with its matrix, complex up to ``COMPLEX_PRODUCT_MAX_K`` and on the real
    view above it; beyond, W is the butterfly ``fwht``, and the inverse runs
    the butterfly in place on the input times 2^-k, the pass that takes the
    place of ``fwht``'s copy. A product with the real 2^-k is exact, and at
    k = 11 it costs a quarter of a complex division by 2^k. The module
    docstring gives the measurements.
    """
    size = 1 << k
    if k > DENSE_WALSH_MAX_K:
        scale = 1.0 / size
        return fwht, lambda values: _butterfly(values * scale)
    return _matrix_product(walsh_matrix(k), k), _matrix_product(walsh_matrix(k) / size, k)


def _matrix_product(w: np.ndarray, k: int) -> Callable[[np.ndarray], np.ndarray]:
    """values -> w . values for the 2^k x 2^k real matrix w, complex or on the real view by k."""
    if k <= COMPLEX_PRODUCT_MAX_K:
        complex_w = w.astype(np.complex128)
        complex_w.flags.writeable = False
        return complex_w.dot

    def real_product(values: np.ndarray) -> np.ndarray:
        return w.dot(values.view(np.float64).reshape(-1, 2)).view(np.complex128).ravel()

    return real_product


class DecodeProblem:
    """One decode's circuit, compiled once: codewords, distances and mixer spectrum.

    ``codewords`` holds the codeword integers indexed by message, in ascending
    order; ``distances`` their Hamming distances to the received word;
    ``spectrum`` the mixer's eigenvalues in the Walsh-Hadamard basis;
    ``start`` the uniform superposition the circuit starts from (read only);
    and ``transform`` and ``inverse`` the Walsh-Hadamard transform W and
    W / 2^k chosen for its size.
    """

    def __init__(self, code: Code, received: BitVector):
        if len(received) != code.n:
            raise LengthError(f"received length {len(received)} != n = {code.n}")
        if code.n > MAX_WORD_BITS:
            raise ValueError(f"n = {code.n} exceeds the {MAX_WORD_BITS}-bit codeword limit")
        words = np.array(code.codewords, dtype=np.int64)
        min_weight = (popcounts(words) == code.d) & (words != 0)
        if not min_weight.any():
            raise EmptyMixerError("degenerate code has no nonzero codewords")
        self.n = code.n
        self.codewords = words
        self.distances = popcounts(words ^ received.to_index())
        self.spectrum = fwht(min_weight.astype(np.float64))
        self._phase_generators = np.array([-1j * self.spectrum, 0.5j * (code.n - 2 * self.distances)])
        self._float_distances = self.distances.astype(np.float64)
        self.start = np.full(words.size, 1.0 / np.sqrt(words.size), dtype=np.complex128)
        self.start.flags.writeable = False
        self.transform, self.inverse = walsh_transforms(code.k)

    def _bind(self, start: np.ndarray) -> tuple[Callable[..., np.ndarray], Callable[..., np.ndarray]]:
        """The circuit on ``start`` with its own work arrays: ``(layers, probabilities)``.

        ``layers(betas, gammas)`` applies the layers to ``start`` and returns
        their output, a fresh array when there is a layer and ``start`` itself
        when there is none. ``probabilities(betas, gammas)`` writes the
        output's probabilities into the binding's buffer and returns it, so
        the binding's next call overwrites them. The angle array is complex,
        so the product with the generators needs no cast; its result is the
        same to the bit as the product with real angles.
        """
        transform, inverse, generators = self.transform, self.inverse, self._phase_generators
        angles = np.empty((2, 1), dtype=np.complex128)
        scaled = np.empty_like(generators)
        phases = np.empty_like(generators)
        mixer_phase, cost_phase = phases
        probs = np.empty(start.size)

        def layers(betas: Sequence[float], gammas: Sequence[float]) -> np.ndarray:
            psi = start
            last = None
            for beta, gamma in zip(betas, gammas):
                if (beta, gamma) != last:
                    last = beta, gamma
                    angles[0, 0] = beta
                    angles[1, 0] = gamma
                    np.multiply(generators, angles, out=scaled)
                    np.exp(scaled, out=phases)
                psi = inverse(transform(psi) * mixer_phase)
                psi *= cost_phase
            return psi

        def probabilities(betas: Sequence[float], gammas: Sequence[float]) -> np.ndarray:
            np.abs(layers(betas, gammas), out=probs)
            return np.square(probs, out=probs)

        return layers, probabilities

    def amplitudes(
        self, betas: Sequence[float], gammas: Sequence[float], start: np.ndarray | None = None
    ) -> np.ndarray:
        """Circuit output over the codewords: each layer applies the mixer, then the cost.

        The layers act on ``start``, the output of earlier layers, if it is
        given, else on the uniform start state; ``start`` is not modified.
        The result is a fresh array.
        """
        start = self.start if start is None else start
        psi = self._bind(start)[0](betas, gammas)
        return psi.copy() if psi is start else psi

    def probabilities(
        self, betas: Sequence[float], gammas: Sequence[float], start: np.ndarray | None = None
    ) -> np.ndarray:
        return self._bind(self.start if start is None else start)[1](betas, gammas)

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
        self, start: np.ndarray | None = None, *, shots: int | None = None, rng: np.random.Generator | None = None
    ) -> Callable[[Sequence[float], Sequence[float]], float]:
        """One optimizer draw's objective ``f(betas, gammas)``, the circuit's cost expectation.

        The layers act on ``start`` as in ``amplitudes``, with work arrays of
        the binding's own. Without ``shots`` and ``rng`` a call returns
        ``expectation(probabilities(betas, gammas, start))``; with both,
        ``expectation_sampled(..., shots, rng)``, every call taking its shots
        from ``rng`` in call order. Giving only one of them is a ValueError.
        """
        if (shots is None) != (rng is None):
            raise ValueError("shots and rng are given together or not at all")
        probabilities = self._bind(self.start if start is None else start)[1]
        if rng is None:
            float_distances = self._float_distances
            return lambda betas, gammas: float(probabilities(betas, gammas).dot(float_distances))
        distances = self.distances

        def sampled(betas: Sequence[float], gammas: Sequence[float]) -> float:
            probs = probabilities(betas, gammas)
            counts = rng.multinomial(shots, np.divide(probs, np.add.reduce(probs), out=probs))
            return int(counts.dot(distances)) / shots

        return sampled

    def bit_string(self, index: int) -> str:
        return format(int(self.codewords[index]), f"0{self.n}b")
