"""Nelder-Mead simplex minimisation, ported from SciPy.

This is SciPy's ``scipy.optimize._optimize._minimize_neldermead`` (1.17),
reduced to the one configuration the trainers use: the standard (non-adaptive)
coefficients, no bounds, no callback, and an iteration cap with no cap on
function evaluations (SciPy sets ``maxfev`` to infinity when only ``maxiter``
is given). It keeps SciPy's steps and floating-point operations in the same
order, so its results equal ``scipy.optimize.minimize(method="Nelder-Mead")``
bit for bit; the tests check that against SciPy.

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


def minimize(fun, x0, maxiter: int, xatol: float, fatol: float) -> NelderMeadResult:
    """Minimise ``fun`` from ``x0`` until the simplex is within both tolerances."""
    x0 = np.atleast_1d(np.asarray(x0, dtype=np.float64)).flatten()
    n = len(x0)
    sim = np.empty((n + 1, n))
    sim[0] = x0
    for k in range(n):
        y = np.array(x0, copy=True)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim[k + 1] = y

    nfev = 0

    def f(x):
        nonlocal nfev
        nfev += 1
        return fun(x.copy())

    fsim = np.array([f(vertex) for vertex in sim], dtype=float)
    # SciPy sorts twice here; argsort is not stable on ties, so neither is skipped.
    for _ in range(2):
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    iterations = 1
    while iterations < maxiter:
        if (np.abs(sim[1:] - sim[0]).max() <= xatol
                and np.abs(fsim[0] - fsim[1:]).max() <= fatol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
                if not shrink:
                    sim[-1], fsim[-1] = xc, fxc
            else:
                xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxcc = f(xcc)
                shrink = not fxcc < fsim[-1]
                if not shrink:
                    sim[-1], fsim[-1] = xcc, fxcc
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
        iterations += 1
        ind = fsim.argsort()
        sim, fsim = sim[ind], fsim[ind]

    return NelderMeadResult(sim[0], float(np.min(fsim)), iterations < maxiter, iterations, nfev)
