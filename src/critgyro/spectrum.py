"""Lowest eigenpairs of the Hamiltonian, dense or iterative.

Dense symmetric diagonalization below DENSE_CUTOFF (the production basis
for six particles has dimension 322), a Lanczos-type iterative solve above
it. Sweeps over rotation rates follow the state adiabatically: ties inside
a degenerate ground space are broken by overlap with the previous point,
and if the ground state loses all overlap with the followed branch (exact
sector crossings at zero anisotropy) the sweep keeps the branch instead.
`sweep_sector` runs a sweep inside the L-parity sector of an anchor state.

A lost branch is resolved in the k-window first. The followed state is the
eigenvector of maximal overlap with the previous one over the whole
spectrum. The squared overlaps of a unit vector with an orthonormal
eigenbasis sum to 1, so at most one eigenvector can have overlap^2 above
1/2, and one that does is that maximum. When one of the k computed vectors
passes BRANCH_MAJORITY it is taken as it is; only otherwise does the sweep
solve the full spectrum to find the maximum.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import ConvergenceError, ParameterError
from .hamiltonian import SparseHamiltonian

DENSE_CUTOFF = 2000
DEFAULT_TOL = 1e-10
DEGENERACY_TIE = 1e-12
FOLLOW_FLOOR = 0.1
#: an overlap^2 above this singles out the maximal-overlap eigenvector
BRANCH_MAJORITY = 0.5
_START_SEED = 7


@dataclass(frozen=True)
class EigenResult:
    energies: np.ndarray   # ascending, shape (k,)
    vectors: np.ndarray    # orthonormal columns, shape (dim, k)
    residuals: np.ndarray  # ||H v - E v|| per pair


def _residuals(ham: SparseHamiltonian, energies, vectors) -> np.ndarray:
    mat = ham.to_csr()
    res = mat @ vectors - vectors * energies[None, :]
    return np.linalg.norm(res, axis=0)


def lowest_k(ham: SparseHamiltonian, k: int, tol: float = DEFAULT_TOL) -> EigenResult:
    """k lowest eigenpairs, deterministic given the fixed start-vector seed."""
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > ham.dim:
        raise ParameterError(f"k={k} exceeds dimension {ham.dim}")
    if ham.dim <= DENSE_CUTOFF:
        energies, vectors = sla.eigh(
            ham.to_dense(), subset_by_index=(0, k - 1)
        )
    else:
        v0 = np.random.default_rng(_START_SEED).standard_normal(ham.dim)
        try:
            energies, vectors = spla.eigsh(
                ham.to_csr(), k=k, which="SA", v0=v0,
                maxiter=10 * ham.dim, tol=tol,
            )
        except spla.ArpackNoConvergence as exc:
            best = None
            if exc.eigenvalues is not None and len(exc.eigenvalues):
                best = float(
                    _residuals(ham, exc.eigenvalues, exc.eigenvectors).min()
                )
            raise ConvergenceError(
                f"eigensolver failed to converge within {10 * ham.dim} iterations",
                residual=best,
            ) from exc
        order = np.argsort(energies)
        energies, vectors = energies[order], vectors[:, order]
    return EigenResult(
        energies=energies,
        vectors=vectors,
        residuals=_residuals(ham, energies, vectors),
    )


def ground_state(ham: SparseHamiltonian, tol: float = DEFAULT_TOL):
    """(energy, vector) of the lowest eigenpair."""
    res = lowest_k(ham, 1, tol)
    return float(res.energies[0]), res.vectors[:, 0]


@dataclass(frozen=True)
class SweepResult:
    omegas: np.ndarray
    energies: np.ndarray    # (n, k) ascending per point
    vec0: np.ndarray        # (n, dim) lowest eigenvector
    vec1: np.ndarray        # (n, dim) second eigenvector
    followed: np.ndarray    # (n, dim) adiabatically followed state
    followed_rank: np.ndarray


def sweep_lowest(
    h0_dense: np.ndarray,
    l_diag: np.ndarray,
    omegas: np.ndarray,
    k: int = 6,
    anchor_index: int | None = None,
) -> SweepResult:
    """Diagonalize H0 - Omega * diag(L) along a rotation grid.

    The followed state starts from the ground state (ties broken by weight
    on `anchor_index`) and continues by maximal overlap whenever the ground
    state decouples from the followed branch.
    """
    dim = h0_dense.shape[0]
    k = min(k, dim)
    n = len(omegas)
    energies = np.empty((n, k))
    vec0 = np.empty((n, dim))
    vec1 = np.empty((n, dim)) if dim > 1 else np.empty((n, 1))
    followed = np.empty((n, dim))
    rank = np.zeros(n, dtype=np.int64)
    prev = None
    diag_idx = np.arange(dim)
    work = h0_dense.copy()
    for i, om in enumerate(omegas):
        work[diag_idx, diag_idx] = h0_dense[diag_idx, diag_idx] - om * l_diag
        evals, evecs = sla.eigh(work, subset_by_index=(0, k - 1))
        energies[i] = evals
        vec0[i] = evecs[:, 0]
        vec1[i] = evecs[:, min(1, k - 1)]
        if prev is None:
            pick = 0
            if anchor_index is not None:
                ties = np.flatnonzero(evals - evals[0] < DEGENERACY_TIE)
                pick = ties[np.argmax(np.abs(evecs[anchor_index, ties]))]
            followed[i] = evecs[:, pick]
        else:
            overlaps = np.abs(prev @ evecs)
            ties = np.flatnonzero(evals - evals[0] < DEGENERACY_TIE)
            if len(ties) > 1:
                pick = ties[np.argmax(overlaps[ties])]
                followed[i] = evecs[:, pick]
            elif overlaps[0] ** 2 >= FOLLOW_FLOOR:
                pick = 0
                followed[i] = evecs[:, 0]
            elif overlaps.max() ** 2 > BRANCH_MAJORITY:
                pick = int(np.argmax(overlaps))
                followed[i] = evecs[:, pick]
            else:
                # the branch left the k-window (exact sector crossing at
                # zero anisotropy): resolve against the full spectrum
                full_vals, full_vecs = sla.eigh(work)
                pick = int(np.argmax(np.abs(prev @ full_vecs)))
                followed[i] = full_vecs[:, pick]
        rank[i] = pick
        prev = followed[i]
    return SweepResult(
        omegas=np.asarray(omegas, dtype=float),
        energies=energies,
        vec0=vec0,
        vec1=vec1,
        followed=followed,
        followed_rank=rank,
    )


def sweep_sector(h0_dense: np.ndarray, l_diag: np.ndarray, omegas: np.ndarray,
                 anchor_index: int, k: int = 6) -> SweepResult:
    """`sweep_lowest` within the L-parity sector of the anchor state.

    H conserves L parity exactly (the deformation changes L by 2), so the
    anchor's state never couples to the other sector. Energies are the
    sector's; vectors come back in full-basis coordinates, zero outside it.
    """
    rows = np.flatnonzero(l_diag % 2 == l_diag[anchor_index] % 2)
    sub = sweep_lowest(h0_dense[np.ix_(rows, rows)], l_diag[rows], omegas, k=k,
                       anchor_index=int(np.searchsorted(rows, anchor_index)))

    def lift(vectors):
        full = np.zeros((len(vectors), len(l_diag)))
        full[:, rows] = vectors
        return full

    return SweepResult(
        omegas=sub.omegas, energies=sub.energies,
        vec0=lift(sub.vec0), vec1=lift(sub.vec1), followed=lift(sub.followed),
        followed_rank=sub.followed_rank,
    )
