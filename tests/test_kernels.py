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


def _logsumexp_value_grad_reference(A, b, mu, x):
    # the kernel as it read with np.max/np.sum, kept verbatim as the reference
    z = (A @ x - b) / mu
    m = float(np.max(z))
    p = np.exp(z - m)
    s = float(np.sum(p))
    value = mu * (m + np.log(s))
    return value, (p / s) @ A


def test_logsumexp_kernel_bit_identical_to_reference():
    rng = np.random.default_rng(11)
    for terms, d, mu in [(100, 40, 0.1), (7, 3, 2.0), (1, 5, 1e-3)]:
        A = rng.standard_normal((terms, d))
        b = rng.standard_normal(terms)
        for scale in (1e-8, 1.0, 1e3):
            for _ in range(200):
                x = scale * rng.standard_normal(d)
                value, grad = kernels.logsumexp_value_grad(A, b, mu, x)
                want_value, want_grad = _logsumexp_value_grad_reference(A, b, mu, x)
                assert float(value).hex() == float(want_value).hex()
                assert type(value) is type(want_value)
                assert grad.tobytes() == want_grad.tobytes()


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
