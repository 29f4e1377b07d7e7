"""Sparse many-body Hamiltonian over a truncated Fock basis.

In units of hbar * w_perp the Hamiltonian reads

    H = sum_k (2 n_k + |m_k|) N_k  -  Omega L  +  N
        + sum_{k1 k2} V_{k1 k2} a+_{k1} a_{k2}
        + 1/2 sum_{k1 k2 l1 l2} U_{k1 k2 l1 l2} a+_{k1} a+_{k2} a_{l1} a_{l2}

with V the quadrupolar trap-deformation elements and U the contact
interaction elements from `melem`. The constant axial zero-point energy is
dropped. Matrices are real symmetric and stored as the upper triangle, so
hermiticity holds by construction.

H is linear in its parameters, H = D + A V + g U - Omega L: `build_operators`
builds the parameter-free terms once per basis, and each (g, A, Omega) then
costs one sparse linear combination.

Operators are shared per (basis, cache): `build_operators` remembers its
last build and returns that same `Operators` object while it is called with
the same basis and cache objects (matched by identity, held by strong
references, so a recycled id() never matches). Every caller then sees one
object, so callers must not mutate its arrays or matrices; D and L are
read-only arrays.
"""

import warnings
from dataclasses import dataclass, field
from math import isfinite, pi, sqrt

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError, StructureError
from .fock import FockBasis, KeyIndex, ladder_entries
from .melem import ElementCache

HBAR = 1.054571817e-34  # J s

#: entries below this magnitude are numerical noise and dropped
SPARSITY_EPS = 1e-14

#: anisotropies at or above this value undermine basis convergence
ANISOTROPY_WARN = 0.1


def _check_couplings(g: float, anisotropy: float) -> None:
    """Refuse an unphysical g or A: negative or not finite."""
    for name, value in (("interaction g", g), ("anisotropy", anisotropy)):
        if not (isfinite(value) and value >= 0):
            raise ParameterError(f"{name} must be finite and >= 0, got {value!r}")


@dataclass(frozen=True)
class ModelParams:
    """Dimensionless model inputs; l_max defaults to n_particles + 2."""

    n_particles: int
    g: float
    anisotropy: float
    omega: float
    n_ll: int = 2
    l_max: int | None = None

    def __post_init__(self):
        if self.n_particles < 0:
            raise ParameterError("n_particles must be >= 0")
        _check_couplings(self.g, self.anisotropy)
        if self.n_ll < 1:
            raise ParameterError("n_ll must be >= 1")
        if self.l_max is None:
            object.__setattr__(self, "l_max", self.n_particles + 2)
        if self.anisotropy >= ANISOTROPY_WARN:
            warnings.warn(
                f"anisotropy {self.anisotropy} >= {ANISOTROPY_WARN}: basis "
                "truncation may not converge",
                stacklevel=2,
            )


@dataclass
class SparseHamiltonian:
    """Real symmetric matrix in upper-triangle coordinate storage."""

    dim: int
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    _csr: sp.csr_matrix | None = field(default=None, repr=False)

    def to_csr(self) -> sp.csr_matrix:
        """Full (mirrored) matrix in CSR form."""
        if self._csr is None:
            off = self.rows != self.cols
            r = np.concatenate([self.rows, self.cols[off]])
            c = np.concatenate([self.cols, self.rows[off]])
            v = np.concatenate([self.vals, self.vals[off]])
            self._csr = sp.csr_matrix((v, (r, c)), shape=(self.dim, self.dim))
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self.to_csr().toarray()

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (self.dim,):
            raise StructureError(
                f"vector length {vec.shape} does not match dimension {self.dim}"
            )
        return self.to_csr() @ vec

    def diagonal(self) -> np.ndarray:
        diag = np.zeros(self.dim)
        on = self.rows == self.cols
        diag[self.rows[on]] = self.vals[on]
        return diag

    def dump_coordinate_text(self, path) -> None:
        """Write full symmetric entries as 'row col value' lines."""
        m = self.to_csr().tocoo()
        with open(path, "w") as fh:
            for r, c, v in zip(m.row, m.col, m.data):
                fh.write(f"{r} {c} {v!r}\n")


@dataclass(frozen=True)
class Operators:
    """Parameter-free terms of H(g, A, Omega) = D + A V + g U - Omega L.

    D is the one-body diagonal plus N, L the total angular momentum, V the
    deformation with A divided out and U the contact interaction with g
    divided out. V and U hold their upper triangles in CSR form.
    """

    d: np.ndarray
    l: np.ndarray
    v: sp.csr_matrix
    u: sp.csr_matrix

    def hamiltonian(self, g: float, anisotropy: float,
                    omega: float) -> SparseHamiltonian:
        """Upper triangle of H, entries below SPARSITY_EPS dropped.

        Every H the package builds passes through here, so this is where an
        unphysical g or A (negative or not finite) is refused.
        """
        _check_couplings(g, anisotropy)
        if not isfinite(omega):
            raise ParameterError(f"rotation rate must be finite, got {omega!r}")
        upper = (anisotropy * self.v + g * self.u
                 + sp.diags(self.d - omega * self.l)).tocoo()
        upper.sum_duplicates()
        keep = np.abs(upper.data) >= SPARSITY_EPS
        return SparseHamiltonian(
            dim=len(self.d),
            rows=upper.row[keep].astype(np.int64),
            cols=upper.col[keep].astype(np.int64),
            vals=upper.data[keep],
        )


#: the last build as (basis, cache, operators)
_last_build: tuple[FockBasis, ElementCache, Operators] | None = None


def build_operators(basis: FockBasis, cache: ElementCache) -> Operators:
    """D, L, V and U over the basis, from the parameter-free element cache.

    Called again with the same basis and cache objects, returns the same
    Operators object without rebuilding it.
    """
    global _last_build
    last = _last_build
    if last is not None and last[0] is basis and last[1] is cache:
        return last[2]
    if tuple(cache.modes) != tuple(basis.modes):
        raise StructureError("element cache was built over a different mode list")
    occ = basis.occupations
    ns, nm = occ.shape
    index = KeyIndex.build(occ)
    ms = [mode.m for mode in basis.modes]

    def upper(terms) -> sp.csr_matrix:
        """Upper triangle of a sum of (annihilation, creations, coefficients)."""
        parts = []
        for ann, cre, coef in terms:
            rows, cols, q, amp = ladder_entries(occ, index, ann, cre)
            keep = rows <= cols
            parts.append((rows[keep], cols[keep], np.asarray(coef)[q[keep]] * amp[keep]))
        rows, cols, vals = (np.concatenate(x) for x in zip(*parts))
        return sp.csr_matrix((vals, (rows, cols)), shape=(ns, ns))

    # deformation a+_i a_j, all creation modes i of one annihilation mode j
    v = upper(([j], np.flatnonzero(col)[:, None], col[col != 0])
              for j, col in enumerate(cache.v_raw.T))

    # contact a+_a a+_b a_c a_d: bosonic operators commute, so each unordered
    # annihilation pair (c, d) takes all unordered creation pairs (a, b) of
    # equal total m at once, weighted by the number of orderings
    pairs_by_total: dict[int, list[tuple[int, int]]] = {}
    for a in range(nm):
        for b in range(a, nm):
            pairs_by_total.setdefault(ms[a] + ms[b], []).append((a, b))
    terms = []
    for pairs in pairs_by_total.values():
        for cd in pairs:
            raw = [cache.u_raw[min(ab + cd, cd + ab)] for ab in pairs]
            cre = [ab for ab, val in zip(pairs, raw) if val != 0.0]
            coef = [0.5 * val * (1 + (ab[0] != ab[1])) * (1 + (cd[0] != cd[1]))
                    for ab, val in zip(pairs, raw) if val != 0.0]
            if cre:
                terms.append((cd, cre, coef))
    u = upper(terms)

    mode_w = np.array([2 * mode.n + abs(mode.m) for mode in basis.modes])
    d = occ @ mode_w.astype(np.float64) + basis.n_particles
    l = basis.L.astype(np.float64)
    d.flags.writeable = l.flags.writeable = False
    ops = Operators(d=d, l=l, v=v, u=u)
    _last_build = (basis, cache, ops)
    return ops


def assemble(basis: FockBasis, params: ModelParams,
             cache: ElementCache) -> SparseHamiltonian:
    """Build the Hamiltonian matrix for one parameter set."""
    return build_operators(basis, cache).hamiltonian(
        params.g, params.anisotropy, params.omega)


def matvec(ham: SparseHamiltonian, vec: np.ndarray) -> np.ndarray:
    """H @ v honoring the symmetric storage."""
    return ham.matvec(vec)


def physical_to_g(scattering_length_m: float, mass_kg: float,
                  omega_z_rad_s: float) -> float:
    """Dimensionless interaction strength a_s * sqrt(8 pi M w_z / hbar)."""
    if scattering_length_m < 0:
        raise ParameterError("scattering length must be >= 0")
    if mass_kg <= 0 or omega_z_rad_s <= 0:
        raise ParameterError("mass and axial frequency must be positive")
    return scattering_length_m * sqrt(8 * pi * mass_kg * omega_z_rad_s / HBAR)
