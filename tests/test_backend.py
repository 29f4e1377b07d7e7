import subprocess
import sys

import numpy as np

import critgyro._kernels as kernels
from conftest import make_logistic_curve
from critgyro._backend import active_backend


def _stage_inputs(n_meas=400, seed=9):
    curve = make_logistic_curve(center=0.9, width=0.03)
    grid = np.linspace(0.87, 0.93, 801)
    x = grid - grid[0]
    mass = np.full(grid.size, 1.0 / grid.size)
    mass /= mass.sum()
    xc = curve.offsets()
    rel_center = curve.rel_center()
    true_off = 0.90 - grid[0]
    uniforms = np.random.default_rng(seed).random(n_meas)
    return mass, x, xc, curve.p0, rel_center, true_off, uniforms


def _run(stage_fn, recenter_every=1):
    mass, x, xc, pc, rel_center, true_off, uniforms = _stage_inputs()
    n = len(uniforms)
    sigma = np.empty(n)
    outcome = np.zeros(n, dtype=np.int8)
    shift = np.empty(n)
    done = stage_fn(mass, x, xc, pc, rel_center, true_off, uniforms,
                    recenter_every, sigma, outcome, shift)
    assert done == n
    return mass, sigma, outcome, shift


def test_trajectory_backends_agree():
    mass_a, sig_a, out_a, shift_a = _run(kernels.bayes_stage)
    mass_b, sig_b, out_b, shift_b = _run(kernels.bayes_stage_numpy)
    assert np.array_equal(out_a, out_b)
    assert np.allclose(sig_a, sig_b, rtol=1e-9, atol=1e-12)
    assert np.allclose(mass_a, mass_b, rtol=1e-8, atol=1e-14)
    assert np.allclose(shift_a, shift_b, rtol=1e-9, atol=1e-12)


def test_trajectory_backends_agree_batched():
    mass_a, sig_a, out_a, _ = _run(kernels.bayes_stage, recenter_every=50)
    mass_b, sig_b, out_b, _ = _run(kernels.bayes_stage_numpy, recenter_every=50)
    assert np.array_equal(out_a, out_b)
    assert np.allclose(sig_a, sig_b, rtol=1e-9, atol=1e-12)


def test_numpy_backend_subprocess():
    """CRITGYRO_BACKEND=numpy selects the fallback and still runs a protocol."""
    code = (
        "import os; os.environ['CRITGYRO_BACKEND'] = 'numpy'\n"
        "import numpy as np\n"
        "from critgyro._backend import active_backend\n"
        "assert active_backend() == 'numpy'\n"
        "from critgyro.curves import CurveCatalog, ResonanceCurve\n"
        "from critgyro.estimate import ProtocolConfig, run_protocol\n"
        "omega = np.linspace(0.775, 1.025, 501)\n"
        "tau = 0.05 / (2 * np.log(9.0))\n"
        "p = 1.0 / (1.0 + np.exp((omega - 0.9) / tau))\n"
        "curve = ResonanceCurve.from_values(0.5, 0.01, omega, p)\n"
        "cat = CurveCatalog(curves=(curve,))\n"
        "cfg = ProtocolConfig(seed=3, n_measurements=50, initial_g=0.5,"
        " initial_anisotropy=0.01)\n"
        "res = run_protocol(cfg, cat)\n"
        "assert res.final_sigma > 0\n"
        "print('numpy-ok', res.final_sigma)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "numpy-ok" in proc.stdout


def test_active_backend_reports_known_value():
    assert active_backend() in ("numba", "numpy")
