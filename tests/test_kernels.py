import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import aagd
from aagd import kernels


def _quad_case():
    rng = np.random.default_rng(0)
    A = rng.standard_normal((30, 30))
    A = A @ A.T + 30.0 * np.eye(30)
    return A, rng.standard_normal(30), rng.standard_normal(30)


def test_step_update_exact_at_unit_beta():
    # beta = 1 must reproduce the lookahead point bit for bit
    rng = np.random.default_rng(4)
    x, xb, xt, g = (rng.standard_normal(20) for _ in range(4))
    _, xbar_next, _, _ = kernels.step_update(x, xb, xt, g, 0.1, 1.0, 2.0, 0.5)
    assert np.array_equal(xbar_next, xt)


def test_kernels_deterministic():
    A, b, x = _quad_case()
    r1 = kernels.quad_value_grad(A, b, x)
    r2 = kernels.quad_value_grad(A, b, x)
    assert r1[0] == r2[0]
    assert np.array_equal(r1[1], r2[1])


def test_backend_reported():
    assert kernels.BACKEND == "numpy"


def test_import_emits_no_warning():
    src = str(Path(aagd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-W", "error", "-c", "import aagd"], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
