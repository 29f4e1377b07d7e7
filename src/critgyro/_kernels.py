"""Hot inner loop of the estimator: one stage of Bayesian trajectory updates.

`bayes_stage` is the scalar loop compiled with numba when numba is
available (the optional `fast` extra), and the vectorized pure-numpy twin
with the same contract otherwise; `tests/test_backend.py` checks that the
two agree. Selection is made once in `_backend` via CRITGYRO_BACKEND.
"""

import numpy as np

from ._backend import USE_NUMBA, jit_kernel


# ---------------------------------------------------------------------------
# Bayesian trajectory stage
# ---------------------------------------------------------------------------
#
# All positions are offsets: posterior grid offsets x (from the prior origin),
# curve grid offsets xc (from the curve origin), the curve midpoint rel_center
# and the true rotation true_off. Keeping the arithmetic purely relative makes
# a rigid shift of every absolute input reproduce trajectories bit for bit.

def _interp_uniform_py(xc, pc, h, pos):
    """Linear interpolation on a uniform ascending grid, flat outside."""
    nc = xc.shape[0]
    if pos <= xc[0]:
        return pc[0]
    if pos >= xc[nc - 1]:
        return pc[nc - 1]
    j = int((pos - xc[0]) / h)
    if j > nc - 2:
        j = nc - 2
    if pos < xc[j] and j > 0:  # spacing jitter at the last ulp
        j -= 1
    elif pos > xc[j + 1] and j < nc - 2:
        j += 1
    w = (pos - xc[j]) / (xc[j + 1] - xc[j])
    return pc[j] + w * (pc[j + 1] - pc[j])


def _bayes_stage_loop(
    mass, x, xc, pc, rel_center, true_off,
    uniforms, recenter_every,
    out_sigma, out_outcome, out_shift,
):
    """Run one stage (fixed curve) of sequential Bernoulli updates.

    Recenters the effective rotation shift before measurements 0, r, 2r, ...
    Writes per-measurement posterior sigma, outcome flag and the active shift
    S = rel_center - posterior mean offset. Returns the number of completed
    measurements (< len(uniforms) iff an update annihilated the posterior).
    """
    n_meas = uniforms.shape[0]
    ng = x.shape[0]
    h = xc[1] - xc[0]
    like = np.empty(ng, np.float64)
    shift = 0.0
    p_meas = 0.0
    for i in range(n_meas):
        if i % recenter_every == 0:
            mean = 0.0
            for j in range(ng):
                mean += mass[j] * x[j]
            shift = rel_center - mean
            for j in range(ng):
                like[j] = _interp_uniform(xc, pc, h, x[j] + shift)
            p_meas = _interp_uniform(xc, pc, h, true_off + shift)
        zero = uniforms[i] <= p_meas
        out_outcome[i] = 1 if zero else 0
        out_shift[i] = shift
        norm = 0.0
        if zero:
            for j in range(ng):
                mass[j] *= like[j]
                norm += mass[j]
        else:
            for j in range(ng):
                mass[j] *= 1.0 - like[j]
                norm += mass[j]
        if norm <= 0.0:
            return i
        inv = 1.0 / norm
        mean = 0.0
        for j in range(ng):
            mass[j] *= inv
            mean += mass[j] * x[j]
        var = 0.0
        for j in range(ng):
            dev = x[j] - mean
            var += mass[j] * dev * dev
        out_sigma[i] = np.sqrt(var)
    return n_meas


def bayes_stage_numpy(
    mass, x, xc, pc, rel_center, true_off,
    uniforms, recenter_every,
    out_sigma, out_outcome, out_shift,
):
    """Vectorized twin of `bayes_stage` (reference / fallback path)."""
    n_meas = uniforms.shape[0]
    shift = 0.0
    like = None
    p_meas = 0.0
    for i in range(n_meas):
        if i % recenter_every == 0:
            shift = rel_center - float(mass @ x)
            like = np.interp(x + shift, xc, pc)
            p_meas = float(np.interp(true_off + shift, xc, pc))
        zero = bool(uniforms[i] <= p_meas)
        out_outcome[i] = 1 if zero else 0
        out_shift[i] = shift
        mass *= like if zero else (1.0 - like)
        norm = float(mass.sum())
        if norm <= 0.0:
            return i
        mass /= norm
        mean = float(mass @ x)
        out_sigma[i] = float(np.sqrt(mass @ ((x - mean) ** 2)))
    return n_meas


if USE_NUMBA:
    _interp_uniform = jit_kernel(_interp_uniform_py)
    bayes_stage = jit_kernel(_bayes_stage_loop)
else:
    _interp_uniform = _interp_uniform_py
    bayes_stage = bayes_stage_numpy
