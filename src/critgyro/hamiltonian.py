"""Sparse many-body Hamiltonian over a truncated Fock basis.

In units of hbar * w_perp the Hamiltonian reads

    H = sum_k (2 n_k + |m_k|) N_k  -  Omega L  +  N
        + sum_{k1 k2} V_{k1 k2} a+_{k1} a_{k2}
        + 1/2 sum_{k1 k2 l1 l2} U_{k1 k2 l1 l2} a+_{k1} a+_{k2} a_{l1} a_{l2}

with V the quadrupolar trap-deformation elements and U the contact
interaction elements from `melem`. The constant axial zero-point energy is
dropped.

H is linear in its parameters, H = D + A V + g U - Omega L: `build_operators`
builds the parameter-free terms once per basis, and each (g, A, Omega) then
costs one sparse linear combination. V and U are computed on the upper
triangle and mirrored, so hermiticity holds by construction. Terms of U
that cancel exactly leave rounding remainders: on the production basis U
holds four entries of -1.39e-17, where a particle reaches (1,0) from
(0,0)(0,0) and from (0,0)(0,2) through elements of opposite sign. Its
smallest true entry is 2.3e-3; every H drops entries below SPARSITY_EPS.
`Operators.hamiltonian` is the one place that combines the terms: it
returns H as a full real symmetric `scipy.sparse` CSR matrix. Every other H
in the package (the sweeps' dense sector matrix, the CLI's matrix dump) is
that matrix or a slice of it.

A `System` holds what does not depend on (g, A) over one basis and its
element cache: the operators and the condensate's L-parity sector. It owns
the sector sweeps: `System.sweep` is the one call into the spectrum that
curves, their diagnostics and gap profiles make. It keeps one
`spectrum.ReducedModel`, that of the last (g, A) it swept, so a curve's
refined sweep reuses the anchors of its pre-scan; and it keeps the last
whole-grid sweep for its (g, A) and points. The package reaches it through
`System.of(basis, cache)`, which keeps one System and returns it while
called with the same basis and cache objects (matched by identity, held
by strong references, so a recycled id() never matches).
Every caller then sees one `Operators` object and one kept sweep, so
callers must not mutate their arrays or matrices; D and L are read-only
arrays.
"""

import warnings
from dataclasses import dataclass
from functools import cached_property
from math import isfinite

import numpy as np
import scipy.sparse as sp

from . import spectrum
from .errors import ParameterError, StructureError
from .fock import FockBasis, Mode, ladder_entries
from .melem import ElementCache, pairs_by_total_m

#: entries below this magnitude are rounding remainders (module docstring), dropped
SPARSITY_EPS = 1e-14

#: anisotropies at or above this value undermine basis convergence
ANISOTROPY_WARN = 0.1


def _check_couplings(g, anisotropy) -> None:
    """Refuse an unphysical g or A: not a real number (a string, a bool, an
    array), negative or not finite."""
    for name, value in (("interaction g", g), ("anisotropy", anisotropy)):
        number = np.asarray(value)
        if number.ndim or number.dtype.kind not in "iuf" or \
                not (np.isfinite(number) and number >= 0):
            raise ParameterError(f"{name} must be a finite real number >= 0, got {value!r}")


@dataclass(frozen=True)
class Operators:
    """Parameter-free terms of H(g, A, Omega) = D + A V + g U - Omega L.

    D is the one-body diagonal plus N, L the total angular momentum, V the
    deformation with A divided out and U the contact interaction with g
    divided out. V and U are full symmetric CSR matrices.
    """

    d: np.ndarray
    l: np.ndarray
    v: sp.csr_matrix
    u: sp.csr_matrix

    def hamiltonian(self, g: float, anisotropy: float,
                    omega: float) -> sp.csr_matrix:
        """Full symmetric H(g, A, Omega) in CSR form, entries below
        SPARSITY_EPS dropped.

        Every H the package builds passes through here, so this is where an
        unphysical g or A (negative or not finite) and a non-finite Omega
        are refused, and where A >= ANISOTROPY_WARN warns.
        """
        _check_couplings(g, anisotropy)
        if not isfinite(omega):
            raise ParameterError(f"rotation rate must be finite, got {omega!r}")
        if anisotropy >= ANISOTROPY_WARN:
            warnings.warn(f"anisotropy {anisotropy} >= {ANISOTROPY_WARN}: basis "
                          "truncation may not converge", stacklevel=2)
        h = anisotropy * self.v + g * self.u + sp.diags(self.d - omega * self.l)
        h.data[np.abs(h.data) < SPARSITY_EPS] = 0.0
        h.eliminate_zeros()
        return h


def build_operators(basis: FockBasis, cache: ElementCache) -> Operators:
    """D, L, V and U over the basis, from the parameter-free element cache
    built over its modes (`System` checks that)."""
    occ = basis.occupations
    ns = occ.shape[0]
    index = basis.key_index

    def symmetric(terms) -> sp.csr_matrix:
        """Sum of (annihilation, creations, coefficients) terms, computed on
        the upper triangle and mirrored."""
        parts = []
        for ann, cre, coef in terms:
            rows, cols, q, amp = ladder_entries(occ, index, ann, cre)
            keep = rows <= cols
            parts.append((rows[keep], cols[keep], np.asarray(coef)[q[keep]] * amp[keep]))
        rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
        upper = sp.csr_matrix((vals, (rows, cols)), shape=(ns, ns))
        return upper + sp.triu(upper, 1).T

    # deformation a+_i a_j, all creation modes i of one annihilation mode j
    v = symmetric(([j], np.flatnonzero(col)[:, None], col[col != 0])
                  for j, col in enumerate(cache.v_raw.T))

    # contact a+_a a+_b a_c a_d: bosonic operators commute, so each unordered
    # annihilation pair (c, d) takes all unordered creation pairs (a, b) of
    # equal total m at once, weighted by the number of orderings
    terms = []
    for pairs in pairs_by_total_m(basis.modes).values():
        for cd in pairs:
            raw = [cache.u_raw[min(ab + cd, cd + ab)] for ab in pairs]
            cre = [ab for ab, val in zip(pairs, raw) if val != 0.0]
            coef = [0.5 * val * (1 + (ab[0] != ab[1])) * (1 + (cd[0] != cd[1]))
                    for ab, val in zip(pairs, raw) if val != 0.0]
            if cre:
                terms.append((cd, cre, coef))
    u = symmetric(terms)

    mode_w = np.array([2 * mode.n + abs(mode.m) for mode in basis.modes])
    d = occ @ mode_w.astype(np.float64) + basis.n_particles
    l = basis.L.astype(np.float64)
    d.flags.writeable = l.flags.writeable = False
    return Operators(d=d, l=l, v=v, u=u)


class System:
    """A basis and an element cache over its modes (StructureError
    otherwise), with `operators` built on first use.

    H conserves L parity (the deformation changes L by 2), so sweeps from
    the condensate (0,0)^N run in its sector: the basis rows `sector_rows`
    and L on them `sector_l`, both read-only; `lift` puts sector states
    back in the full basis. `model` is ((g, A), spectrum.ReducedModel) of
    the last pair swept, or None. `last_sweep` is the SweepResult of the
    last `sweep` if it swept a whole grid, or None; it is always a sweep
    of `model`'s pair.
    """

    def __init__(self, basis: FockBasis, cache: ElementCache):
        if tuple(cache.modes) != tuple(basis.modes):
            raise StructureError("element cache was built over a different mode list")
        self.basis, self.cache = basis, cache
        condensate = basis.occupations[:, basis.modes.index(Mode(0, 0))] == basis.n_particles
        self.sector_rows = np.flatnonzero(basis.L % 2 == basis.L[condensate] % 2)
        self.sector_l = basis.L[self.sector_rows].astype(np.float64)
        self.sector_rows.flags.writeable = self.sector_l.flags.writeable = False
        self.last_sweep = None
        self.model = None

    @classmethod
    def of(cls, basis: FockBasis, cache: ElementCache) -> "System":
        """The shared System of this basis and cache (see the module docstring)."""
        global _shared
        if _shared is None or _shared.basis is not basis or _shared.cache is not cache:
            _shared = cls(basis, cache)
        return _shared

    @cached_property
    def operators(self) -> Operators:
        return build_operators(self.basis, self.cache)

    def sector_h0(self, g: float, anisotropy: float) -> np.ndarray:
        """Dense H(g, A, Omega = 0) on the condensate's sector: the block
        `sector_rows` x `sector_rows` of `operators.hamiltonian`, sliced
        before it is densified."""
        rows = self.sector_rows
        return self.operators.hamiltonian(g, anisotropy, 0.0)[rows][:, rows].toarray()

    def sweep(self, g: float, anisotropy: float, omegas,
              stop=None) -> spectrum.SweepResult:
        """`spectrum.ReducedModel.sweep` of H(g, A) on the condensate's
        sector, its states in sector coordinates. `stop(state, sine)` sees
        them lifted, with their certified sine, and follows the contract
        there: True or False only where the answer holds for every state
        within `sine`, None otherwise.

        Every sweep of one (g, A), with `stop` (the curve pre-scan) or
        without, runs through the pair's one model, kept as `model` until
        a sweep of another pair drops it before building its own: one model
        is kept at most. The walk takes the sector ground state, within
        `sine_bound`, up to where the follow rule's overlaps might leave it,
        and the dense sweep `spectrum.sweep_lowest` takes the rest of the
        grid from `dense_from` on (see `spectrum`). `dense_solves` counts
        the dense eigensolves of the call.

        A whole-grid result (no `stop`) is kept as `last_sweep`, and a call
        without `stop` for the model's g, A and the same points returns it.
        Any other call drops it before it starts, so one sweep is kept at
        most. A sweep with `stop` certifies only its ground state and is
        kept nowhere: it goes to its caller alone. Any other grid than a
        non-empty, finite, strictly ascending 1-d one raises ParameterError
        before anything is dropped or built.
        """
        omegas = np.array(omegas, dtype=float)  # a copy, which the kept sweep holds
        if omegas.ndim != 1 or not omegas.size or not np.isfinite(omegas).all() \
                or np.any(np.diff(omegas) <= 0):
            raise ParameterError("a sweep grid must be a non-empty, finite, strictly "
                                 "ascending 1-d array")
        key = (g, anisotropy)
        if stop is None and self.last_sweep is not None and self.model[0] == key \
                and np.array_equal(self.last_sweep.omegas, omegas):
            return self.last_sweep
        self.last_sweep = None  # freed before the new sweep allocates its arrays
        if self.model is None or self.model[0] != key:
            self.model = None  # and another pair's model before the new one
            self.model = (key, spectrum.ReducedModel(self.sector_h0(g, anisotropy),
                                                     self.sector_l))
        result = self.model[1].sweep(omegas, stop=None if stop is None else
                                     lambda state, sine: stop(self.lift(state), sine))
        if stop is None:
            self.last_sweep = result
        return result

    def lift(self, vectors: np.ndarray) -> np.ndarray:
        """Sector vectors (along the last axis) in full-basis coordinates,
        zero outside the sector."""
        full = np.zeros(vectors.shape[:-1] + (self.basis.size,))
        full[..., self.sector_rows] = vectors
        return full


#: the one System `System.of` keeps
_shared: System | None = None
