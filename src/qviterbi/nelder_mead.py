"""Nelder-Mead simplex minimisation, ported from SciPy.

This is SciPy's ``scipy.optimize._optimize._minimize_neldermead`` (1.17),
reduced to the one configuration the trainers use: the standard (non-adaptive)
coefficients, no bounds, no callback, and an iteration cap with no cap on
function evaluations (SciPy sets ``maxfev`` to infinity when only ``maxiter``
is given). It keeps SciPy's steps and floating-point operations in the same
order, so its results equal ``scipy.optimize.minimize(method="Nelder-Mead")``
bit for bit; the tests check that against SciPy.

The simplex is held as Python lists of floats, one list per vertex, with the
function values in a list beside it: at the trainers' 2 to 6 dimensions a
numpy operation on a row costs more in call overhead than its arithmetic.
Each coordinate goes through SciPy's operations in SciPy's order. Every trial
point is ``(1 + t) * xbar - t * worst`` for SciPy's coefficient t, the inside
contraction taking t = -psi. The centroid is added up row by row with ``+``,
as ``np.add.reduce`` does along axis 0, never with the built-in ``sum``,
which compensates float sums from Python 3.12 on. Vertices are ordered with
``np.argsort`` on the values as SciPy orders them: that sort is not stable on
ties, and a stable sort orders tied vertices differently.

The list form is chosen for those 2 to 6 dimensions. Its centroid adds n rows
of n floats and its convergence test compares n rows of n coordinates, one
Python operation each, so an iteration's Python work is quadratic in n. At
n = 128 (the random strategy at p = 64, the CLI's ``MAX_LAYERS``) a decode
of lbc_633 takes about twice as long as with numpy rows: 0.41-0.46 s against
0.20-0.25 s (2-vCPU Xeon VM, results identical).

The port exists because importing ``scipy.optimize`` costs 0.4-0.5 s and
49 MB of resident memory per process (2-vCPU Xeon VM, SciPy 1.17), more than
a whole decode of a small code, and the trainers need nothing else from SciPy.

Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
All rights reserved.

Redistribution and use in source and binary forms, with or without
modification, are permitted provided that the following conditions
are met:

1. Redistributions of source code must retain the above copyright
   notice, this list of conditions and the following disclaimer.

2. Redistributions in binary form must reproduce the above
   copyright notice, this list of conditions and the following
   disclaimer in the documentation and/or other materials provided
   with the distribution.

3. Neither the name of the copyright holder nor the names of its
   contributors may be used to endorse or promote products derived
   from this software without specific prior written permission.

THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
"AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
(INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Reflection, expansion, contraction and shrink coefficients; the ints are
# SciPy's, and keep its arithmetic exact.
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025


@dataclass(frozen=True)
class NelderMeadResult:
    x: np.ndarray
    fun: float
    success: bool
    nit: int
    nfev: int


def _along(xbar: list[float], worst: list[float], t: float) -> list[float]:
    """The point (1 + t) * xbar - t * worst on the line through the centroid and the worst vertex."""
    return [(1 + t) * a - t * w for a, w in zip(xbar, worst)]


def _by_value(sim: list[list[float]], fsim: list[float]) -> tuple[list[list[float]], list[float]]:
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def minimize(fun, x0, maxiter: int, xatol: float, fatol: float) -> NelderMeadResult:
    """Minimise ``fun`` from ``x0`` until the simplex is within both tolerances.

    ``fun`` receives each point as a list of floats, which it must not modify.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64)).flatten().tolist()
    n = len(x0)
    sim = [x0]
    for k in range(n):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return float(fun(x))

    fsim = [f(vertex) for vertex in sim]
    # SciPy sorts twice here; argsort is not stable on ties, so neither is skipped.
    for _ in range(2):
        sim, fsim = _by_value(sim, fsim)

    iterations = 1
    while iterations < maxiter:
        best = sim[0]
        if (all(abs(v - b) <= xatol for vertex in sim[1:] for v, b in zip(vertex, best))
                and all(abs(fsim[0] - fv) <= fatol for fv in fsim[1:])):
            break
        xbar = best
        for vertex in sim[1:-1]:
            xbar = [a + v for a, v in zip(xbar, vertex)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]
        xr = _along(xbar, worst, _RHO)
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = _along(xbar, worst, _RHO * _CHI)
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = _along(xbar, worst, _PSI * _RHO)
                fxc = f(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                xcc = _along(xbar, worst, -_PSI)
                fxcc = f(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = [b + _SIGMA * (v - b) for v, b in zip(sim[j], best)]
                    fsim[j] = f(sim[j])
        iterations += 1
        sim, fsim = _by_value(sim, fsim)

    return NelderMeadResult(np.array(sim[0]), float(np.min(fsim)), iterations < maxiter, iterations, nfev)
