"""Lowest eigenpairs of the Hamiltonian by dense symmetric diagonalization,
and sweeps of them along a rotation grid.

`lowest_k` and `ground_state` take H as `hamiltonian.Operators.hamiltonian`
returns it, the full symmetric `scipy.sparse` matrix, and solve its dense
form. Sweeps take a dense symmetric H0 and the diagonal of L.

The production basis for six particles has dimension 322, and its sweeps
run in the 191-dim condensate sector. Sweeps over rotation rates follow the
state adiabatically from the ground state of the first point. If the ground
state loses all overlap with the followed branch (exact sector crossings at
zero anisotropy) the sweep keeps the branch instead. A point whose two
lowest energies lie within DEGENERACY_TIE has no defined followed state,
and the sweep fails closed there with InputError: no tie is broken. Curve
and gap-profile sweeps run through `hamiltonian.System.sweep`, on the
condensate-sector matrices, and the System lifts their states back to the
full basis. It calls `sweep`: a certified continuation for a whole grid,
and the dense sweep `sweep_lowest` for a stopped one or where the
continuation hands the grid over.

The dense sweep solves the two lowest eigenpairs at each point: E0, E1 and
their vectors are all that its callers read. It widens to the
BRANCH_WINDOW lowest pairs only where the ground state holds less than
FOLLOW_FLOOR of the followed state, to resolve the lost branch in that
window. The followed state is the eigenvector of maximal overlap with the
previous one over the whole spectrum. The squared overlaps of a unit
vector with an orthonormal eigenbasis sum to 1, so at most one eigenvector
can have overlap^2 above 1/2, and one that does is that maximum. When one
of the window's vectors passes BRANCH_MAJORITY it is taken as it is; only
otherwise does the sweep solve the full spectrum to find the maximum. The
window is a constant: with two pairs only, a lost branch would go straight
to the full-spectrum solve, which costs about three times the BRANCH_WINDOW
solve at sector dimension 191.

The certified continuation is eigenvector continuation (Frame et al.,
PRL 121, 032501 (2018)) with the residual certificate of reduced-basis
methods (Hesthaven, Rozza and Stamm, Certified Reduced Basis Methods,
2016). H(Omega) = H0 - Omega L is a one-parameter pencil, so the two lowest
states over a grid lie close to a small subspace. The three lowest dense
pairs are solved at SEED_POINTS points spread over the grid, and the two
lowest vectors of each span an orthonormal Q. One pass then runs down the
grid from its last point. Each point takes the two lowest Ritz pairs
(theta_k, x_k) of the small pencil Q^T H0 Q - Omega Q^T L Q, with the
residuals r_k = ||H(Omega) x_k - theta_k x_k||, and accepts them when
three conditions hold:

- Ritz bounds. Q^T H Q compresses H, so theta_0 >= lambda_0 and
  theta_1 >= lambda_1 (interlacing), and each interval
  [theta_k - r_k, theta_k + r_k] holds an eigenvalue. The two intervals
  must lie more than DEGENERACY_TIE apart.
- Lowest two. L is diagonal with least entry L_min, so for
  Omega <= Omega_b, H(Omega) >= H(Omega_b) + (Omega_b - Omega) L_min, and
  lambda_2(Omega) >= lambda_2(Omega_b) + (Omega_b - Omega) L_min =: mu.
  Omega_b is the nearest point at or above Omega that was solved densely,
  with three pairs. theta_1 + r_1 must lie below mu. Then only lambda_0 and
  lambda_1 can lie in the intervals, so lambda_0 lies in the first,
  lambda_1 in the second, and E1 - E0 > DEGENERACY_TIE.
- Vectors. By the Davis-Kahan sin(theta) theorem, x_k lies within the sine
  r_k / delta_k of its eigenvector, where delta_k bounds the distance from
  theta_k to the rest of the spectrum from below:
  delta_0 = theta_1 - r_1 - theta_0 and
  delta_1 = min(theta_1 - theta_0, mu - theta_1). Both sines must be at
  most SINE_TOL.

A point that fails is solved densely, and its two lowest vectors join Q.
A certified sine s bounds the error of every expectation value of an
operator with spectrum in [0, 1], such as p0, by s, and that of theta_k by
r_k * s. It bounds the squared overlap of two neighbouring ground states
within s_i + s_(i+1). The dense sweep keeps the ground state as the
followed state at rank 0 as long as every such overlap^2 is at least
FOLLOW_FLOOR. So the continuation hands the whole grid to `sweep_lowest`
at the first pair of points whose overlap^2 falls below FOLLOW_FLOOR plus
that bound. It also hands over where a dense pair ties, or where Q would
pass half the dimension (a subspace that large gains nothing on the dense
sweep). What the certificate covers: each returned vec0 and vec1 lies
within `sine_bound` of the matrix's ground and first excited state, and
E0 and E1 are theirs. It does not certify a followed branch: the followed
state is the ground state, and it is the state the dense sweep would
follow only because the hand-over rule checks that sweep's overlaps. The
bounds hold in exact arithmetic; the residuals are computed in float64,
with rounding near 1e-14, against the 5e-12 to 1e-10 residuals that
SINE_TOL asks for at the production gaps. The results are not the dense
sweep's bits: on the reference curves p0 agrees within 1e-11, and E0 and
E1 - E0 within 1e-13.

Every solve is one call of scipy's own float64 LAPACK `dsyevr`, made
through ctypes with the arguments `scipy.linalg.eigh` passes, so the call
runs without the GIL. A dense sweep checks its inputs are finite and sizes
the LAPACK workspace once. It then hands the two-pair solve of each point
to a thread pool, one worker per CPU the process may use, with up to
LOOKAHEAD_PER_WORKER solves per worker in flight. The tie check, the
follow rule, its window and full-spectrum widenings and `stop` run on the
calling thread, point by point in order. Each solve works on its own copy
of the matrix with the point's diagonal, so the same routine gets the same
arguments at every point whichever thread makes the call: the results are
the bits a serial sweep gives. The continuation runs on the calling thread
alone, its dense solves each depending on the Q the pass has grown.

Sweeps run their solves on one OpenBLAS thread per worker: at these
dimensions a second BLAS thread gains little, and on a busy machine it
slows each solve many times over. The pool was measured on 2 CPUs only.
"""

import ctypes
import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.linalg as sla
import scipy.sparse as sp
from scipy.linalg import cython_lapack

from .errors import InputError, ParameterError

DEGENERACY_TIE = 1e-12
FOLLOW_FLOOR = 0.1
#: an overlap^2 above this singles out the maximal-overlap eigenvector
BRANCH_MAJORITY = 0.5
#: eigenpairs a sweep solves where the follow rule needs more than two
BRANCH_WINDOW = 6
#: two-pair solves a sweep keeps in flight per worker thread
LOOKAHEAD_PER_WORKER = 2
#: a continued point's certified sine between each Ritz vector and its
#: eigenvector must not exceed this
SINE_TOL = 1e-8
#: grid points, spread evenly from first to last, whose dense pairs seed Q
SEED_POINTS = 5


@dataclass(frozen=True)
class EigenResult:
    energies: np.ndarray   # ascending, shape (k,)
    vectors: np.ndarray    # orthonormal columns, shape (dim, k)
    residuals: np.ndarray  # ||H v - E v|| per pair


def _residuals(ham: sp.csr_matrix, energies, vectors) -> np.ndarray:
    res = ham @ vectors - vectors * energies[None, :]
    return np.linalg.norm(res, axis=0)


@cache
def _workspace(dim: int) -> tuple:
    """(lwork, liwork): the `?syevr` workspace sizes `scipy.linalg.eigh`
    queries for a dim x dim matrix, lower triangle."""
    syevr_lwork = sla.get_lapack_funcs("syevr_lwork", dtype=np.float64)
    lwork, liwork, info = syevr_lwork(dim, lower=1)
    if info != 0:
        raise sla.LinAlgError(f"syevr workspace query failed: {info}")
    return int(lwork), int(liwork)


@cache
def _dsyevr():
    """scipy's own float64 LAPACK `dsyevr` as a ctypes function, whose
    calls release the GIL. Every argument is a pointer."""
    capsule = cython_lapack.__pyx_capi__["dsyevr"]
    name = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(
        ("PyCapsule_GetName", ctypes.pythonapi))
    address = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))(capsule, name(capsule))
    return ctypes.CFUNCTYPE(None, *[ctypes.c_void_p] * 21)(address)


def _eigh(a: np.ndarray, workspace: tuple, subset_by_index=None, diagonal=None):
    """(energies, vectors) of the finite symmetric float64 matrix `a`, read
    from its lower triangle, with its diagonal replaced by `diagonal` when
    given: pairs lo..hi of `subset_by_index`, or all.

    The `?syevr` call `scipy.linalg.eigh(a, subset_by_index=...)` makes,
    without its per-call input check and workspace query, on a
    Fortran-order copy of `a`; `a` is left as it was. The call runs
    without the GIL.
    """
    lwork, liwork = workspace
    n = a.shape[0]
    a = np.array(a, dtype=np.float64, order="F")
    if diagonal is not None:
        np.fill_diagonal(a, diagonal)
    lo, hi = (0, n - 1) if subset_by_index is None else subset_by_index
    w = np.empty(n)
    z = np.empty((n, hi - lo + 1), order="F")
    isuppz = np.empty(2 * n, dtype=np.intc)
    work = np.empty(lwork)
    iwork = np.empty(liwork, dtype=np.intc)
    m, info = ctypes.c_int(), ctypes.c_int()

    def ints(*values):
        return [ctypes.byref(ctypes.c_int(x)) for x in values]

    n_, il, iu, lwork_, liwork_ = ints(n, lo + 1, hi + 1, lwork, liwork)
    vl, vu, abstol = (ctypes.byref(ctypes.c_double(x)) for x in (0.0, 1.0, 0.0))
    _dsyevr()(b"V", b"A" if subset_by_index is None else b"I", b"L", n_, a.ctypes.data,
              n_, vl, vu, il, iu, abstol, ctypes.byref(m), w.ctypes.data, z.ctypes.data,
              n_, isuppz.ctypes.data, work.ctypes.data, lwork_, iwork.ctypes.data,
              liwork_, ctypes.byref(info))
    if info.value != 0:
        raise sla.LinAlgError(f"syevr failed: {info.value}")
    return w[:m.value], z[:, :m.value]


def lowest_k(ham: sp.csr_matrix, k: int) -> EigenResult:
    """k lowest eigenpairs, ascending, of the full symmetric sparse matrix
    `ham`, solved in dense form."""
    dim = ham.shape[0]
    if k < 1:
        raise ParameterError(f"k must be >= 1, got {k}")
    if k > dim:
        raise ParameterError(f"k={k} exceeds dimension {dim}")
    dense = ham.toarray()
    if not np.isfinite(dense).all():
        raise InputError("Hamiltonian has non-finite entries")
    energies, vectors = _eigh(dense, _workspace(dim), subset_by_index=(0, k - 1))
    return EigenResult(
        energies=energies,
        vectors=vectors,
        residuals=_residuals(ham, energies, vectors),
    )


def ground_state(ham: sp.csr_matrix):
    """(energy, vector) of the lowest eigenpair."""
    res = lowest_k(ham, 1)
    return float(res.energies[0]), res.vectors[:, 0]


@dataclass(frozen=True)
class SweepResult:
    omegas: np.ndarray      # (n,) the points swept
    energies: np.ndarray    # (n, 2) two lowest energies per point, ascending
    vec0: np.ndarray        # (n, dim) lowest eigenvector
    vec1: np.ndarray        # (n, dim) second eigenvector
    followed: np.ndarray    # (n, dim) adiabatically followed state
    followed_rank: np.ndarray
    dense_solves: int       # dense eigensolves (dense sweep: its points)
    sine_bound: float       # worst certified sine of a vec0 or vec1 (dense: 0)

    @property
    def gap(self) -> np.ndarray:
        """E1 - E0 per point; ParameterError for a sweep of a one-state matrix."""
        if self.energies.shape[1] < 2:
            raise ParameterError("a one-state sector has no gap: E1 is undefined")
        return self.energies[:, 1] - self.energies[:, 0]


@cache
def _openblas_thread_controls() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS that numpy and
    scipy bundle; empty when there is none."""
    controls = []
    for pkg in (np, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*.so*")):
            try:
                dll = ctypes.CDLL(str(lib))
            except OSError:
                continue
            for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                                   ("openblas", "64_"), ("openblas", "")):
                get = getattr(dll, f"{prefix}_get_num_threads{suffix}", None)
                put = getattr(dll, f"{prefix}_set_num_threads{suffix}", None)
                if get is not None and put is not None:
                    get.argtypes, get.restype = [], ctypes.c_int
                    put.argtypes, put.restype = [ctypes.c_int], None
                    controls.append((get, put))
                    break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Run the block on one OpenBLAS thread, then restore each count."""
    controls = _openblas_thread_controls()
    saved = [get() for get, _ in controls]
    for _, put in controls:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(controls, saved):
            put(count)


def _workers() -> int:
    """Solver threads of a sweep, and worker processes of an ensemble
    (`estimate.run_ensemble`): one per CPU this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity query on this platform
        return os.cpu_count() or 1


@contextmanager
def _solved_in_order(solve: Callable, n: int):
    """An iterator over solve(0), ..., solve(n - 1), in order. With more
    than one worker, a thread pool computes each up to
    LOOKAHEAD_PER_WORKER * workers points ahead of the one awaited; on
    exit the solves still queued are cancelled and every thread has ended.
    """
    workers = min(_workers(), n)
    if workers < 2:
        yield map(solve, range(n))
        return
    depth = LOOKAHEAD_PER_WORKER * workers
    pool = ThreadPoolExecutor(workers, thread_name_prefix="critgyro-solve")

    def results():
        futures = deque()
        for i in range(n):
            while len(futures) < min(depth, n - i):
                futures.append(pool.submit(solve, i + len(futures)))
            yield futures.popleft().result()

    try:
        yield results()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


def _diagonals(h0: np.ndarray, l_diag, omegas) -> np.ndarray:
    """Row i: the diagonal of H0 - omegas[i] * diag(L). InputError unless
    H0 and every row are finite."""
    diagonals = np.diagonal(h0) - np.multiply.outer(omegas, l_diag)
    if not (np.isfinite(h0).all() and np.isfinite(diagonals).all()):
        raise InputError("sweep inputs h0_dense, l_diag and omegas must be finite")
    return diagonals


def sweep_lowest(
    h0_dense: np.ndarray,
    l_diag: np.ndarray,
    omegas: np.ndarray,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> SweepResult:
    """Diagonalize H0 - Omega * diag(L) along a rotation grid.

    The followed state starts from the ground state and continues by
    maximal overlap whenever the ground state decouples from the followed
    branch. Each point solves the two lowest pairs; the BRANCH_WINDOW
    lowest are solved at a point only where the ground state's overlap^2
    with the followed state falls below FOLLOW_FLOOR. The full spectrum is
    solved only where no vector of the window holds a majority of the
    followed state. A point where E1 - E0 < DEGENERACY_TIE raises
    InputError naming its Omega: the followed state is not defined there.

    `stop`, when given, sees the followed state after each point; once it
    returns True the sweep ends there and the result holds the points
    swept so far.

    The two-pair solves run ahead on a thread pool (see the module
    docstring); the tie check, the follow rule, its widenings and `stop`
    run on the calling thread, in point order. An error in any solve, or
    a tie, propagates from here, and no pool thread outlives the call.

    The inputs must be finite (InputError otherwise); so then is the
    matrix at every point.
    """
    dim = h0_dense.shape[0]
    k = min(BRANCH_WINDOW, dim)
    pairs = min(2, k)
    n = len(omegas)
    energies = np.empty((n, pairs))
    vec0 = np.empty((n, dim))
    vec1 = np.empty((n, dim))
    followed = np.empty((n, dim))
    rank = np.zeros(n, dtype=np.int64)
    prev = None
    h0 = np.asarray(h0_dense, dtype=float)
    diagonals = _diagonals(h0, l_diag, omegas)
    workspace = _workspace(dim)

    def two_pairs(i):
        return _eigh(h0, workspace, subset_by_index=(0, pairs - 1), diagonal=diagonals[i])

    swept = n
    with _one_blas_thread(), _solved_in_order(two_pairs, n) as solved:
        for i, (diagonal, (evals, evecs)) in enumerate(zip(diagonals, solved)):
            if pairs > 1 and evals[1] - evals[0] < DEGENERACY_TIE:
                raise InputError(f"degenerate ground state at Omega = {float(omegas[i])}: "
                                 f"E1 - E0 = {evals[1] - evals[0]:.3g} leaves the followed "
                                 f"state undefined")
            energies[i] = evals
            vec0[i] = evecs[:, 0]
            vec1[i] = evecs[:, pairs - 1]
            if prev is None or (prev @ evecs[:, 0]) ** 2 >= FOLLOW_FLOOR:
                pick = 0
            else:
                if k > pairs:
                    evals, evecs = _eigh(h0, workspace, subset_by_index=(0, k - 1),
                                         diagonal=diagonal)
                overlaps = np.abs(prev @ evecs)
                pick = int(np.argmax(overlaps))
                if overlaps[pick] ** 2 <= BRANCH_MAJORITY:
                    # the branch left the window (exact sector crossing at
                    # zero anisotropy): resolve against the full spectrum
                    _, evecs = _eigh(h0, workspace, diagonal=diagonal)
                    pick = int(np.argmax(np.abs(prev @ evecs)))
            followed[i] = evecs[:, pick]
            rank[i] = pick
            prev = followed[i]
            if stop is not None and stop(prev):
                swept = i + 1
                break
    return SweepResult(
        omegas=np.asarray(omegas, dtype=float)[:swept],
        energies=energies[:swept],
        vec0=vec0[:swept],
        vec1=vec1[:swept],
        followed=followed[:swept],
        followed_rank=rank[:swept],
        dense_solves=swept,
        sine_bound=0.0,
    )


def sweep(
    h0_dense: np.ndarray,
    l_diag: np.ndarray,
    omegas: np.ndarray,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> SweepResult:
    """The two lowest pairs and the followed state of H0 - Omega * diag(L)
    along a rotation grid, as `sweep_lowest` defines them.

    A sweep with `stop`, or of fewer than three states, is `sweep_lowest`'s.
    Any other runs the certified continuation (module docstring): its
    followed state is the ground state at rank 0, and each point's vec0
    and vec1 lie within `sine_bound` <= SINE_TOL of the two lowest
    eigenvectors. Where it cannot certify the grid, it hands the whole grid
    to `sweep_lowest`, and the result is that sweep's, with `dense_solves`
    also counting the solves made before the hand-over. The inputs must be
    finite (InputError otherwise).
    """
    h0 = np.asarray(h0_dense, dtype=float)
    if stop is not None or h0.shape[0] < 3:
        return sweep_lowest(h0, l_diag, omegas, stop=stop)
    with _one_blas_thread():
        return _continued(h0, np.asarray(l_diag, dtype=float), np.asarray(omegas, dtype=float))


def _continued(h0: np.ndarray, l_diag: np.ndarray, omegas: np.ndarray) -> SweepResult:
    """The certified continuation of `sweep`. The SEED_POINTS are solved
    first; then one pass from the last point down takes at each point the
    two lowest Ritz pairs when they pass the certificate, and otherwise
    the point's dense pairs, which grow Q."""
    dim, n = h0.shape[0], len(omegas)
    diagonals = _diagonals(h0, l_diag, omegas)
    workspace = _workspace(dim)
    l_min = float(l_diag.min())
    energies = np.empty((n, 2))
    vecs = np.empty((2, n, dim))  # vec0, vec1
    sines = np.zeros(n)
    q, hq, lq = (np.empty((dim, 0)) for _ in range(3))  # Q, H0 Q, L Q
    qhq = qlq = None
    lam2_at = {}  # point -> lambda_2 of its dense solve
    omega_b = lam2_b = np.inf  # the nearest dense point at or above the pass

    def dense(i) -> bool:
        """Point i's three lowest dense pairs; its two lowest vectors join
        Q. False where the grid goes to `sweep_lowest`: Q would pass half
        the dimension, or E1 - E0 ties."""
        nonlocal q, hq, lq, qhq, qlq
        if q.shape[1] + 2 > dim / 2:
            return False
        theta, x = _eigh(h0, workspace, subset_by_index=(0, 2), diagonal=diagonals[i])
        lam2_at[i] = theta[2]
        if theta[1] - theta[0] < DEGENERACY_TIE:
            return False
        energies[i], vecs[:, i] = theta[:2], x[:, :2].T
        for v in x[:, :2].T:
            # two Gram-Schmidt passes; a vector the second pass halves lies
            # in span(Q) to rounding and is dropped ("twice is enough")
            once = v - q @ (q.T @ v)
            v = once - q @ (q.T @ once)
            norm = np.linalg.norm(v)
            if norm > 0.5 * np.linalg.norm(once):
                q = np.column_stack([q, v / norm])
                hq = np.column_stack([hq, h0 @ q[:, -1]])
                lq = np.column_stack([lq, l_diag * q[:, -1]])
        qhq, qlq = q.T @ hq, q.T @ lq
        return True

    def hand_over() -> SweepResult:
        dense = sweep_lowest(h0, l_diag, omegas)
        return replace(dense, dense_solves=len(lam2_at) + dense.dense_solves)

    def ritz(om) -> tuple:
        """(theta, x, sine): the two lowest Ritz pairs at `om` and their
        certified sine, inf where the certificate fails."""
        theta, y = _eigh(qhq - om * qlq, _workspace(len(qhq)), subset_by_index=(0, 1))
        y /= np.linalg.norm(q @ y, axis=0)
        x = q @ y
        r = np.linalg.norm(hq @ y - om * (lq @ y) - x * theta, axis=0)
        lam2 = lam2_b + (omega_b - om) * l_min  # a lower bound on lambda_2(om)
        low1 = theta[1] - r[1]  # and on lambda_1(om), once certified
        if om <= omega_b and theta[0] + r[0] + DEGENERACY_TIE < low1 \
                and theta[1] + r[1] < lam2:
            return theta, x, max(r[0] / (low1 - theta[0]),
                                 r[1] / min(theta[1] - theta[0], lam2 - theta[1]))
        return theta, x, np.inf

    seeds = np.linspace(0, n - 1, min(SEED_POINTS, n)).round().astype(int)
    if not all(dense(i) for i in seeds[::-1]):
        return hand_over()
    for i in range(n - 1, -1, -1):
        if i not in lam2_at:
            theta, x, sine = ritz(omegas[i])
            if sine <= SINE_TOL:
                energies[i], vecs[:, i], sines[i] = theta, x.T, sine
            elif not dense(i):
                return hand_over()
        if i in lam2_at:
            omega_b, lam2_b = omegas[i], lam2_at[i]
        # a pair of ground states the follow rule might not join
        if i + 1 < n and (vecs[0, i] @ vecs[0, i + 1]) ** 2 < \
                FOLLOW_FLOOR + sines[i] + sines[i + 1]:
            return hand_over()
    return SweepResult(
        omegas=omegas.copy(), energies=energies, vec0=vecs[0], vec1=vecs[1],
        followed=vecs[0], followed_rank=np.zeros(n, dtype=np.int64),
        dense_solves=len(lam2_at), sine_bound=float(sines.max(initial=0.0)),
    )
