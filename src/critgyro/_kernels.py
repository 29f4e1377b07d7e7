"""The estimator's one Bayesian update and the loop built on it.

`multiply_renormalize` multiplies posterior masses by the likelihood of an
outcome, renormalizes and reports an annihilated posterior;
`estimate.bayes_update` (one update on a `Posterior`) and `bayes_stage` (a
stage of sequential updates inside `run_protocol`) both use it.

Support window. `bayes_stage` works on a contiguous window [lo, hi) of the
posterior grid: every multiply, renormalization, mean, sigma and likelihood
interpolation runs on views of that window, and the masses outside it are
exactly 0.0 (a product keeps a zero, so they stay there). A stage starts
from the nonzero span of the masses. The window narrows only where the
likelihood is recomputed, at each recentering: it walks in from both ends
while mass[end] <= WINDOW_FLOOR * mass[k], with k the grid point nearest
the posterior mean. mass[k] is never above the peak, so the walk drops no
more than a threshold at WINDOW_FLOOR of the peak would. Trimmed points are
set to 0.0 and their mass is reported as dropped; each point is trimmed at
most once with at most WINDOW_FLOOR of a normalized posterior, so a
trajectory drops at most grid_size * WINDOW_FLOOR.

The floor is 1e-30, set by measurement against the full-grid update
(default catalog ladder, 200-trajectory ensembles of the fig4 schedules,
array mode and 10^4 untuned measurements). At 1e-16, the support
definition of the benchmark, the per-measurement median sigma moved by up
to 1.3e-9 relative with two retunes (single trajectories by 1.7e-8) and
5e-11 with one: after a retune to a narrow curve, mass that sat at 1e-16 of
the peak regrows to matter. At 1e-20 single trajectories still moved by
6e-12. At 1e-30 every median stays within 7e-14 and every trajectory
within 4e-13.

All positions are offsets: posterior grid offsets x (from the prior origin),
curve grid offsets xc (from the curve origin), the curve midpoint rel_center
and the true rotation true_off. Keeping the arithmetic purely relative makes
a rigid shift of every absolute input reproduce trajectories bit for bit.
"""

from math import sqrt

import numpy as np

#: points holding at most this share of the mass at the posterior mean are
#: dropped from the window at a recentering
WINDOW_FLOOR = 1e-30


def multiply_renormalize(mass, factor) -> bool:
    """Multiply `mass` by `factor` in place and renormalize it to sum 1.

    Returns False (mass left unnormalized) when nothing is left, i.e. the
    outcome has zero likelihood wherever the posterior lives.
    """
    mass *= factor
    norm = float(mass.sum())
    if norm <= 0.0:
        return False
    mass /= norm
    return True


def bayes_stage(
    mass, x, xc, pc, rel_center, true_off,
    uniforms, recenter_every,
    out_sigma, out_outcome, out_shift, out_dropped,
):
    """Run one stage (fixed curve) of sequential Bernoulli updates in place.

    Recenters the effective rotation shift before measurements 0, r, 2r, ...
    Writes per-measurement posterior sigma, outcome flag, the active shift
    S = rel_center - posterior mean offset, and the mass the window dropped
    at that measurement's recentering (`out_dropped` must start zeroed).
    Returns the number of completed measurements (< len(uniforms) iff an
    update annihilated the posterior).
    """
    n_meas = uniforms.shape[0]
    support = np.flatnonzero(mass)
    lo, hi = int(support[0]), int(support[-1]) + 1
    w, xw = mass[lo:hi], x[lo:hi]
    mean = float(w @ xw)
    for i in range(n_meas):  # i = 0 recenters, which sets shift, like, p_meas
        if i % recenter_every == 0:
            j = min(lo + int(xw.searchsorted(mean)), hi - 1)
            k = j - 1 if j > lo and mean - x[j - 1] < x[j] - mean else j
            floor = WINDOW_FLOOR * mass[k]
            span, dropped = (lo, hi), 0.0
            while lo < k and mass[lo] <= floor:
                dropped += mass[lo]
                mass[lo] = 0.0
                lo += 1
            while hi - 1 > k and mass[hi - 1] <= floor:
                hi -= 1
                dropped += mass[hi]
                mass[hi] = 0.0
            if span != (lo, hi):
                out_dropped[i] = dropped
                w, xw = mass[lo:hi], x[lo:hi]
            shift = rel_center - mean
            like = np.interp(xw + shift, xc, pc)
            anti = None
            p_meas = float(np.interp(true_off + shift, xc, pc))
        zero = uniforms[i] <= p_meas
        out_outcome[i] = 1 if zero else 0
        out_shift[i] = shift
        if not zero and anti is None:
            anti = 1.0 - like
        if not multiply_renormalize(w, like if zero else anti):
            return i
        mean = float(w @ xw)
        out_sigma[i] = sqrt(float(w @ ((xw - mean) ** 2)))
    return n_meas
