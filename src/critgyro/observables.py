"""Physical quantities extracted from ground states and likelihood curves.

`p_zero`, `expected_L` and `spdm` take one state or a stack of states in
rows (a malformed one raises InputError). For a stack, `p_zero`,
`expected_L` and `spdm_branch_gap` give an array in place of a float, and
the arrays of the one SPDM lead with the stack axis.

The measurement likelihood p_zero is the probability that every particle
sits in a zero-angular-momentum mode, i.e. (0,0) or (1,0). The transition
of p_zero from its low-rotation plateau to ~0 defines the resonance whose
center (0.5 crossing, `ResonanceCurve.center`) and width (0.9 -> 0.1
crossing separation) drive the estimation protocol. `transition_width`
takes the grid and the likelihood as arrays, and these three thresholds
are fixed.
`preparation_hwhm` evaluates its posterior on HWHM_GRID_SIZE prior points.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, ParameterError, RangeError
from .fock import FockBasis, Mode
from .hamiltonian import System
from .melem import ElementCache

NORM_TOL = 1e-8
#: prior grid points of `preparation_hwhm`
HWHM_GRID_SIZE = 2001


def _require_points(*arrays) -> None:
    """Refuse a curve or distribution given by empty, non-finite or
    mismatched arrays (InputError)."""
    if len({np.shape(a) for a in arrays}) > 1:
        raise InputError(f"curve arrays must match in shape, got "
                         f"{[np.shape(a) for a in arrays]}")
    if any(np.size(a) == 0 for a in arrays):
        raise InputError("curve arrays are empty: a grid needs at least one point")
    if not all(np.isfinite(a).all() for a in arrays):
        raise InputError("curve arrays must be finite")


def _check_normalized(psi: np.ndarray, basis: FockBasis) -> np.ndarray:
    """One state, or a stack of states in rows, of the basis as floats of
    unit norm (InputError otherwise)."""
    psi = np.asarray(psi, dtype=float)
    if psi.ndim not in (1, 2) or psi.shape[-1] != basis.size:
        raise InputError(f"need a state or rows of states of length {basis.size}, got {psi.shape}")
    if not np.all(np.abs(np.linalg.norm(psi, axis=-1) - 1.0) <= NORM_TOL):  # refuses NaN
        raise InputError("state vector is not normalized")
    return psi


def p_zero(psi: np.ndarray, basis: FockBasis):
    """Probability that all particles occupy m = 0 modes. Summed along
    contiguous rows, so a state gets the same bits alone as in a stack."""
    psi = _check_normalized(psi, basis)
    mask = basis.zero_momentum_mask
    weight = (np.ascontiguousarray(psi[..., mask]) ** 2).sum(axis=-1)
    return float(weight) if psi.ndim == 1 else weight


def expected_L(psi: np.ndarray, basis: FockBasis):
    """Mean total angular momentum psi**2 @ L."""
    psi = _check_normalized(psi, basis)
    exp_l = psi**2 @ basis.L.astype(np.float64)
    return float(exp_l) if psi.ndim == 1 else exp_l


@dataclass(frozen=True)
class SPDM:
    """Single-particle density matrix rho[k, l] = <a+_l a_k> over the modes
    and its spectrum, each with a leading stack axis for a stack of states."""

    matrix: np.ndarray        # (..., n_modes, n_modes)
    eigenvalues: np.ndarray   # (..., n_modes), descending
    eigenvectors: np.ndarray  # (..., n_modes, n_modes), columns matching eigenvalues


def spdm(psi: np.ndarray, basis: FockBasis) -> SPDM:
    """SPDM from the basis hop table and one batched eigh.

    `basis.spdm_hop_table` holds every move of one particle k -> l > k
    between basis states with its amplitude sqrt(n_k (n_l + 1)), stored
    transposed as read-only CSR and built once per basis. One sparse
    product per state contracts it with psi[src] * psi[tgt] (state by
    state: an all-states product holds every state's hop weights at once),
    and the occupations give the diagonal.
    """
    psi = _check_normalized(psi, basis)
    psis = np.atleast_2d(psi)
    occ = basis.occupations
    nm = occ.shape[1]
    src, tgt, table_t = basis.spdm_hop_table
    upper = np.array([table_t @ (row[src] * row[tgt]) for row in psis]).reshape(-1, nm, nm)
    rho = upper + upper.transpose(0, 2, 1)
    rho[:, np.arange(nm), np.arange(nm)] = psis**2 @ occ
    evals, evecs = np.linalg.eigh(rho)
    if psi.ndim == 1:
        rho, evals, evecs = rho[0], evals[0], evecs[0]
    return SPDM(matrix=rho, eigenvalues=evals[..., ::-1], eigenvectors=evecs[..., ::-1])


def spdm_branch_gap(density: SPDM, basis: FockBasis):
    """Occupation difference (condensate branch) - (vortex branch).

    The two leading natural orbitals are classified by their weight on the
    m = 0 versus m = 1 lowest modes; the sign of the difference flips where
    the two macroscopic occupations swap. A one-mode basis gives its one
    occupation.
    """
    lam = density.eigenvalues
    if lam.shape[-1] < 2:
        gap = lam[..., 0]
    else:
        v = density.eigenvectors
        score = v[..., basis.modes.index(Mode(0, 0)), :2] ** 2
        if Mode(0, 1) in basis.modes:
            score = score - v[..., basis.modes.index(Mode(0, 1)), :2] ** 2
        gap = np.where(score[..., 0] >= score[..., 1],
                       lam[..., 0] - lam[..., 1], lam[..., 1] - lam[..., 0])
    return float(gap) if lam.ndim == 1 else gap


# ---------------------------------------------------------------------------
# Curve geometry (crossings are interpolated between grid points)
# ---------------------------------------------------------------------------

def crossing_offset(omega: np.ndarray, values: np.ndarray, threshold: float):
    """Grid offset of the first downward crossing, or None.

    Works relative to omega[0] so that rigidly shifted inputs give
    bit-identical offsets. Empty, non-finite or mismatched arrays raise
    InputError.
    """
    _require_points(omega, values)
    x = omega - omega[0]
    v = np.asarray(values, dtype=float)
    steps = np.flatnonzero((v[:-1] >= threshold) & (threshold > v[1:]))
    if steps.size == 0:
        return None
    i = steps[0]
    frac = (v[i] - threshold) / (v[i] - v[i + 1])
    return x[i] + frac * (x[i + 1] - x[i])


def transition_width(omega: np.ndarray, p0: np.ndarray) -> float:
    """Separation of the interpolated 0.9 -> 0.1 downward crossings."""
    omega = np.asarray(omega)
    rel_hi = crossing_offset(omega, p0, 0.9)
    rel_lo = crossing_offset(omega, p0, 0.1)
    if rel_hi is None or rel_lo is None:
        raise RangeError("likelihood does not cross both thresholds (0.9, 0.1)")
    return float(rel_lo - rel_hi)


def preparation_hwhm(curve, offset: float, prior_lo: float, prior_hi: float) -> float:
    """Half width of the single zero-outcome posterior when the preparation
    ramp stops at center + offset.

    The likelihood is the curve truncated at the ramp endpoint (flat at the
    endpoint value beyond it), shifted so the flat prior's midpoint maps onto
    the endpoint. A proxy for the attainable single-shot resolution.
    The prior needs finite bounds with prior_lo < prior_hi, the offset must
    be finite, and the curve needs a 0.5 crossing (ParameterError otherwise).
    """
    if not (np.isfinite(prior_lo) and np.isfinite(prior_hi) and prior_lo < prior_hi):
        raise ParameterError(f"prior needs finite bounds lo < hi, got [{prior_lo}, {prior_hi}]")
    if curve.center is None:
        raise ParameterError("the curve never crosses 0.5: it has no center to offset from")
    if not np.isfinite(offset):
        raise ParameterError(f"offset must be finite, got {offset}")
    end = curve.center + offset
    p_end = float(curve.evaluate(end))
    omega = np.linspace(prior_lo, prior_hi, HWHM_GRID_SIZE)
    mass = np.full(HWHM_GRID_SIZE, 1.0 / HWHM_GRID_SIZE)
    delta = end - float(mass @ omega)
    pos = omega + delta
    like = np.where(pos <= end, curve.evaluate(pos), p_end)
    mass = mass * like
    mass /= mass.sum()
    return hwhm_points(omega, mass)


def hwhm_points(omega: np.ndarray, density: np.ndarray) -> float:
    """Half width of the half-maximum region of a gridded distribution.

    The region is [first, last] interpolated crossing of max/2; edges of the
    support bound it when the density never falls below half maximum.
    Empty, non-finite or mismatched arrays raise InputError.
    """
    _require_points(omega, density)
    omega = np.asarray(omega, dtype=float)
    d = np.asarray(density, dtype=float)
    half = d.max() / 2.0
    peak = int(np.argmax(d))
    left, right = omega[0], omega[-1]
    up = np.flatnonzero((d[:peak] < half) & (half <= d[1:peak + 1]))
    if up.size:
        i = up[-1]
        frac = (half - d[i]) / (d[i + 1] - d[i])
        left = omega[i] + frac * (omega[i + 1] - omega[i])
    down = peak + np.flatnonzero((d[peak:-1] >= half) & (half > d[peak + 1:]))
    if down.size:
        i = down[0]
        frac = (d[i] - half) / (d[i] - d[i + 1])
        right = omega[i] + frac * (omega[i + 1] - omega[i])
    return float((right - left) / 2.0)


# ---------------------------------------------------------------------------
# Energy gap along the rotation ramp and the adiabatic time budget
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GapProfile:
    """First excitation gap and |<1|L|0>| along a rotation grid.

    State 1 is the first excited state of the L-parity sector of the
    condensate (0,0)^N the ramp starts from: the deformation changes L by 2,
    so the ramp never couples to states of the other parity.
    """

    omegas: np.ndarray
    gap: np.ndarray
    l01: np.ndarray
    center: float  # resonance center the ramp aims at


def gap_profile(basis: FockBasis, cache: ElementCache, g: float,
                anisotropy: float, omegas: np.ndarray,
                center: float) -> GapProfile:
    """Gap and |<1|L|0>| within the L-parity sector of the condensate; the
    gap is `SweepResult.gap`, so a sector of one state raises ParameterError,
    as do a non-positive anisotropy and a non-finite center."""
    if anisotropy <= 0:
        raise ParameterError("gap profile needs a positive anisotropy")
    if not np.isfinite(center):
        raise ParameterError(f"gap profile needs a finite center, got {center}")
    system = System.of(basis, cache)
    sweep = system.sweep(g, anisotropy, omegas)
    l01 = np.abs(np.einsum("ij,j,ij->i", sweep.vec1, system.sector_l, sweep.vec0))
    return GapProfile(
        omegas=np.asarray(omegas, dtype=float),
        gap=sweep.gap, l01=l01, center=float(center),
    )


def adiabatic_time(profile: GapProfile, offset: float,
                   eps: float = 0.1) -> float:
    """Ramp duration (units 1/w_perp) from the grid start to center+offset.

    Local adiabaticity: T = integral |<1|L|0>| / (eps * gap^2) dOmega with
    slack parameter eps.
    """
    if not (np.isfinite(eps) and eps > 0):
        raise ParameterError(f"adiabaticity slack eps must be finite and positive, got {eps}")
    end = profile.center + offset
    om = profile.omegas
    if not om[0] <= end <= om[-1]:  # NaN fails both
        raise RangeError(
            f"ramp endpoint {end} outside profile grid [{om[0]}, {om[-1]}]"
        )
    integrand = profile.l01 / (eps * profile.gap**2)
    mask = om <= end
    t = float(np.trapezoid(integrand[mask], om[mask]))
    # partial last interval up to the endpoint
    i = int(np.count_nonzero(mask)) - 1
    if i < len(om) - 1 and end > om[i]:
        frac = (end - om[i]) / (om[i + 1] - om[i])
        f_end = integrand[i] + frac * (integrand[i + 1] - integrand[i])
        t += 0.5 * (integrand[i] + f_end) * (end - om[i])
    return t
