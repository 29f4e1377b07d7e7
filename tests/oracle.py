"""Independent brute-force reference implementations, used only by tests.

Nothing here touches the package's computational paths: integrals are done
by exact monomial expansion over rationals, bases by generate-and-filter,
Hamiltonians by explicit ladder-operator action on occupation dictionaries,
Bayesian updates by plain loops, a Bayesian stage over the full grid, and
an adiabatic sweep that resolves every lost branch on the full spectrum.
"""

import itertools
from fractions import Fraction
from math import comb, factorial, pi, sqrt

import numpy as np
import scipy.linalg as sla


# ---------------------------------------------------------------------------
# exact integrals: expand Laguerre products to monomials, use
# integral of exp(-x) x^k dx = k!
# ---------------------------------------------------------------------------

def laguerre_coeffs(n: int, alpha: int, scale: Fraction = Fraction(1)):
    """Monomial coefficients of L_n^alpha(scale * x), exact rationals."""
    coeffs = [Fraction(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[k] = (
            Fraction((-1) ** k) * comb(n + alpha, n - k)
            * scale**k / factorial(k)
        )
    return coeffs


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return out


def _integrate_with_power(coeffs, power: int) -> Fraction:
    """Integral of exp(-x) x^power * sum(c_k x^k)."""
    return sum(c * factorial(power + k) for k, c in enumerate(coeffs))


def oracle_i1(k1, k2) -> float:
    n1, m1 = k1
    n2, m2 = k2
    num = abs(m1) + abs(m2) + 2
    assert num % 2 == 0, "integral only defined for even |m1|+|m2|"
    poly = _poly_mul(laguerre_coeffs(n1, abs(m1)), laguerre_coeffs(n2, abs(m2)))
    return float(_integrate_with_power(poly, num // 2))


def oracle_i2(k1, k2, l1, l2) -> float:
    ms = [abs(m) for _, m in (k1, k2, l1, l2)]
    assert sum(ms) % 2 == 0
    poly = [Fraction(1)]
    for (n, _), am in zip((k1, k2, l1, l2), ms):
        poly = _poly_mul(poly, laguerre_coeffs(n, am, Fraction(1, 2)))
    return float(_integrate_with_power(poly, sum(ms) // 2))


def _norm(mode) -> float:
    n, m = mode
    return factorial(n) / factorial(n + abs(m))


def oracle_v(k1, k2, anisotropy: float) -> float:
    if k2[1] not in (k1[1] + 2, k1[1] - 2):
        return 0.0
    return 0.25 * anisotropy * sqrt(_norm(k1) * _norm(k2)) * oracle_i1(k1, k2)


def oracle_u(k1, k2, l1, l2, g: float) -> float:
    if k1[1] + k2[1] != l1[1] + l2[1]:
        return 0.0
    s = sum(abs(m) for _, m in (k1, k2, l1, l2))
    pref = sqrt(_norm(k1) * _norm(k2) * _norm(l1) * _norm(l2))
    return g / (2 * pi) * 2.0 ** (-s / 2) * pref * oracle_i2(k1, k2, l1, l2)


# ---------------------------------------------------------------------------
# naive basis: generate every multiset, filter both truncations
# ---------------------------------------------------------------------------

def oracle_modes(n_ll: int, l_max: int):
    out = []
    for n in range(n_ll):
        for m in range(-l_max - 2 * n_ll, l_max + 1):
            if n + (abs(m) - m) // 2 <= n_ll - 1 and m <= l_max:
                out.append((n, m))
    return sorted(out)


def oracle_basis(n_particles: int, n_ll: int, l_max: int):
    """All occupation tuples over oracle_modes surviving both truncations."""
    modes = oracle_modes(n_ll, l_max)
    states = set()
    for combo in itertools.combinations_with_replacement(
        range(len(modes)), n_particles
    ):
        occ = [0] * len(modes)
        for i in combo:
            occ[i] += 1
        total_l = sum(occ[i] * modes[i][1] for i in range(len(modes)))
        weight = sum(
            occ[i] * (modes[i][0] + (abs(modes[i][1]) - modes[i][1]) // 2)
            for i in range(len(modes))
        )
        if total_l <= l_max and 1 + weight <= n_ll:
            states.add(tuple(occ))
    return modes, sorted(states)


# ---------------------------------------------------------------------------
# dense Hamiltonian by explicit ladder action on occupation dictionaries
# ---------------------------------------------------------------------------

def _apply_annihilate(state, mode):
    occ = state.get(mode, 0)
    if occ == 0:
        return 0.0, None
    new = dict(state)
    new[mode] = occ - 1
    if new[mode] == 0:
        del new[mode]
    return sqrt(occ), new


def _apply_create(state, mode):
    occ = state.get(mode, 0)
    new = dict(state)
    new[mode] = occ + 1
    return sqrt(occ + 1), new


def oracle_hamiltonian(n_particles: int, g: float, anisotropy: float,
                       omega: float, n_ll: int, l_max: int):
    """(modes, states, dense symmetric matrix) for small particle numbers."""
    modes, states = oracle_basis(n_particles, n_ll, l_max)
    as_dicts = [
        {modes[i]: occ[i] for i in range(len(modes)) if occ[i]}
        for occ in states
    ]
    index = {occ: i for i, occ in enumerate(states)}

    def to_key(state_dict):
        return tuple(state_dict.get(m, 0) for m in modes)

    dim = len(states)
    ham = np.zeros((dim, dim))
    for s, state in enumerate(as_dicts):
        # one-body diagonal, rotation, total number
        diag = sum(
            (2 * m[0] + abs(m[1])) * c for m, c in state.items()
        )
        diag -= omega * sum(m[1] * c for m, c in state.items())
        diag += n_particles
        ham[s, s] += diag
        # deformation
        for k2 in modes:
            for k1 in modes:
                v = oracle_v(k1, k2, anisotropy)
                if v == 0.0:
                    continue
                a2, st = _apply_annihilate(state, k2)
                if st is None:
                    continue
                a1, st = _apply_create(st, k1)
                t = index.get(to_key(st))
                if t is not None:
                    ham[t, s] += v * a2 * a1
        # interaction
        for l2 in modes:
            for l1 in modes:
                a_l2, st1 = _apply_annihilate(state, l2)
                if st1 is None:
                    continue
                a_l1, st2 = _apply_annihilate(st1, l1)
                if st2 is None:
                    continue
                for k2 in modes:
                    for k1 in modes:
                        u = oracle_u(k1, k2, l1, l2, g)
                        if u == 0.0:
                            continue
                        a_k2, st3 = _apply_create(st2, k2)
                        a_k1, st4 = _apply_create(st3, k1)
                        t = index.get(to_key(st4))
                        if t is not None:
                            ham[t, s] += 0.5 * u * a_l2 * a_l1 * a_k2 * a_k1
    return modes, states, ham


def oracle_spdm(psi, modes, states):
    """<a+_l a_k> by explicit operator action, for cross-checking."""
    as_dicts = [
        {modes[i]: occ[i] for i in range(len(modes)) if occ[i]}
        for occ in states
    ]
    index = {occ: i for i, occ in enumerate(states)}

    def to_key(state_dict):
        return tuple(state_dict.get(m, 0) for m in modes)

    nm = len(modes)
    rho = np.zeros((nm, nm))
    for ki, k in enumerate(modes):
        for li, l in enumerate(modes):
            acc = 0.0
            for s, state in enumerate(as_dicts):
                amp_k, st = _apply_annihilate(state, k)
                if st is None:
                    continue
                amp_l, st = _apply_create(st, l)
                t = index.get(to_key(st))
                if t is not None:
                    acc += psi[s] * amp_k * amp_l * psi[t]
            rho[ki, li] = acc
    return rho


# ---------------------------------------------------------------------------
# plain-loop Bayesian update
# ---------------------------------------------------------------------------

def oracle_bayes_update(mass, likelihood, zero_outcome: bool):
    """Pointwise multiply and renormalize with explicit loops."""
    out = []
    for m, p in zip(mass, likelihood):
        out.append(m * (p if zero_outcome else 1.0 - p))
    norm = sum(out)
    if norm <= 0:
        return None
    return [v / norm for v in out]


def reference_bayes_stage(mass, x, xc, pc, rel_center, true_off,
                          uniforms, recenter_every,
                          out_sigma, out_outcome, out_shift):
    """Full-grid Bayesian stage: `_kernels.bayes_stage` without the support
    window (every update touches every grid point, nothing is dropped)."""
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


# ---------------------------------------------------------------------------
# adiabatic sweep resolving every lost branch on the full spectrum
# ---------------------------------------------------------------------------

def reference_sweep_followed(h0_dense, l_diag, omegas, anchor_index,
                             k=6, tie=1e-12, floor=0.1):
    """(followed states, number of full-spectrum solves) of an adiabatic
    sweep of H0 - Omega diag(L) that follows the branch like
    `spectrum.sweep_lowest` but, whenever the ground state holds less than
    `floor` of the followed state, takes the maximal-overlap eigenvector of
    the full spectrum."""
    dim = h0_dense.shape[0]
    work = np.array(h0_dense, dtype=float)
    followed = np.empty((len(omegas), dim))
    full_solves = 0
    prev = None
    for i, om in enumerate(omegas):
        work[np.diag_indices(dim)] = np.diag(h0_dense) - om * l_diag
        evals, evecs = sla.eigh(work, subset_by_index=(0, k - 1))
        ties = np.flatnonzero(evals - evals[0] < tie)
        if prev is None:
            vec = evecs[:, ties[np.argmax(np.abs(evecs[anchor_index, ties]))]]
        elif len(ties) > 1:
            vec = evecs[:, ties[np.argmax(np.abs(prev @ evecs[:, ties]))]]
        elif (prev @ evecs[:, 0]) ** 2 >= floor:
            vec = evecs[:, 0]
        else:
            _, all_vecs = sla.eigh(work)
            full_solves += 1
            vec = all_vecs[:, np.argmax(np.abs(prev @ all_vecs))]
        followed[i] = vec
        prev = vec
    return followed, full_solves
