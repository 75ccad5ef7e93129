"""The in-package Nelder-Mead port against SciPy, and the import it avoids."""
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from qviterbi import BitVector
from qviterbi.engine import _NM_OPTIONS, _ROLE_EVAL, TWO_PI, child_seed
from qviterbi.nelder_mead import minimize
from qviterbi.problem import DecodeProblem
from conftest import BUILTIN_NAMES

scipy_optimize = pytest.importorskip("scipy.optimize")

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def objectives(code, mode, dims, seed):
    """Two fresh, identically seeded decode objectives over ``dims`` angles."""
    rng = np.random.default_rng(child_seed(seed, 99))
    received = BitVector.from_string("".join(map(str, rng.integers(0, 2, code.n).tolist())))
    problem = DecodeProblem(code, received)
    p = dims // 2

    def make():
        if mode == "sampled":
            cost = problem.cost(shots=200, rng=np.random.default_rng(child_seed(seed, _ROLE_EVAL, 0, 0)))
        else:
            cost = problem.cost()
        return lambda v: cost(v[:p], v[p:])

    return make(), make(), rng.uniform(0.0, TWO_PI, dims)


def test_matches_scipy_bit_for_bit(all_builtins):
    hit_maxiter = 0
    for name in BUILTIN_NAMES:
        for mode in ("exact", "sampled"):
            for dims in (2, 6):
                for seed in range(2):
                    ours_fn, ref_fn, x0 = objectives(all_builtins[name], mode, dims, seed)
                    ours = minimize(ours_fn, x0, **_NM_OPTIONS)
                    ref = scipy_optimize.minimize(ref_fn, x0, method="Nelder-Mead", options=_NM_OPTIONS)
                    case = (name, mode, dims, seed)
                    assert np.array_equal(ours.x, ref.x), case
                    assert ours.fun == ref.fun, case
                    assert (ours.success, ours.nit, ours.nfev) == (ref.success, ref.nit, ref.nfev), case
                    hit_maxiter += not ref.success
    assert hit_maxiter > 0


def test_matches_scipy_on_a_quadratic():
    def bowl(v):
        return float(np.sum((v - np.array([1.0, -2.0, 0.0])) ** 2))

    x0 = np.array([0.3, 0.0, -1.1])
    ours = minimize(bowl, x0, **_NM_OPTIONS)
    ref = scipy_optimize.minimize(bowl, x0, method="Nelder-Mead", options=_NM_OPTIONS)
    assert ours.success and np.array_equal(ours.x, ref.x)
    assert (ours.fun, ours.nit, ours.nfev) == (ref.fun, ref.nit, ref.nfev)


def staircase(v):
    """floor of the squared distance to (1, ..., 1): a bowl of many tied levels."""
    d = 0.0
    for a in v:
        d = d + (a - 1.0) * (a - 1.0)
    return float(math.floor(d))


@pytest.mark.parametrize("fun,x0", [
    (lambda v: 2.5, [0.3, 1.2]),  # every vertex ties
    (lambda v: 2.5, [0.3, 1.2, 4.0, 0.0, 5.5, 2.2]),
    (lambda v: 1.0 if v[0] > 0.31 else -1.0, [0.3, 1.2]),  # two levels
    (lambda v: 1.0 if v[0] > 0.31 else -1.0, [0.3, 1.2, 4.0, 0.0, 5.5, 2.2]),
    # Here numpy's argsort orders tied vertices unlike a stable sort, and the
    # result depends on that order.
    (staircase, [0.3, 1.2, 4.0, 0.0, 5.5, 2.2]),
])
def test_matches_scipy_on_exact_ties(fun, x0):
    ours = minimize(fun, x0, **_NM_OPTIONS)
    ref = scipy_optimize.minimize(fun, x0, method="Nelder-Mead", options=_NM_OPTIONS)
    assert np.array_equal(ours.x, ref.x)
    assert (ours.fun, ours.success, ours.nit, ours.nfev) == (ref.fun, ref.success, ref.nit, ref.nfev)


def test_import_loads_no_scipy():
    # numpy.random costs 13-14 ms to import, so it is loaded only when a decode runs.
    code = (
        "import sys, qviterbi, qviterbi.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
        "print(sorted(m for m in sys.modules if m == 'numpy.random' or m.startswith('numpy.random.')))\n"
    )
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=60, check=True)
    assert out.stdout.splitlines() == ["[]", "[]"]
