"""Lowest eigenpairs of the Hamiltonian by dense symmetric diagonalization,
swept along a rotation grid.

Sweeps are the module's only entry point: `sweep_lowest` and
`ReducedModel.sweep` take a dense symmetric H0 and the diagonal of L, and
return the two lowest pairs of H0 - Omega diag(L) along a rotation grid.

The production basis for six particles has dimension 322, and its sweeps
run in the 191-dim condensate sector. Sweeps over rotation rates follow the
state adiabatically from the ground state of the first point. If the ground
state loses all overlap with the followed branch (exact sector crossings at
zero anisotropy) the sweep keeps the branch instead. A point whose two
lowest energies lie within DEGENERACY_TIE has no defined followed state,
and the sweep fails closed there with InputError: no tie is broken. Curve
and gap-profile sweeps run through `hamiltonian.System.sweep`, on the
condensate-sector matrices, and their states stay sector states. The
System keeps the `ReducedModel` of the last (g, A) it swept, and every
sweep of that pair, stopped or whole, runs through that model.

The dense sweep `sweep_lowest` solves the two lowest eigenpairs at each
point: E0, E1 and their vectors are all that its callers read. It widens
to the BRANCH_WINDOW lowest pairs only where the ground state holds less
than FOLLOW_FLOOR of the followed state, to resolve the lost branch in
that window. The followed state is the eigenvector of maximal overlap with
the previous one over the whole spectrum. The squared overlaps of a unit
vector with an orthonormal eigenbasis sum to 1, so at most one eigenvector
can have overlap^2 above 1/2, and one that does is that maximum. When one
of the window's vectors passes BRANCH_MAJORITY it is taken as it is; only
otherwise does the sweep solve the full spectrum to find the maximum. The
window is a constant: with two pairs only, a lost branch would go straight
to the full-spectrum solve, which costs about three times the BRANCH_WINDOW
solve at sector dimension 191.

The reduced model is eigenvector continuation (Frame et al., PRL 121,
032501 (2018)) with the residual certificate of reduced-basis methods
(Hesthaven, Rozza and Stamm, Certified Reduced Basis Methods, 2016).
H(Omega) = H0 - Omega L is a one-parameter pencil, so its low states over a
range of Omega lie close to a small subspace. The model's anchors are the
points it solved densely, each with its three lowest pairs; their vectors
span an orthonormal Q, and H0 Q and L Q are kept beside it. A fresh model
first solves SEED_POINTS anchors spread evenly over its first grid. A sweep
then walks up its grid. Each point takes the two lowest Ritz pairs
(theta_k, x_k) of the small pencil Q^T H0 Q - Omega Q^T L Q, with the
residuals r_k = ||H(Omega) x_k - theta_k x_k||, and accepts them when
three conditions hold:

- Ritz bounds. Q^T H Q compresses H, so theta_0 >= lambda_0 and
  theta_1 >= lambda_1 (interlacing), and each interval
  [theta_k - r_k, theta_k + r_k] holds an eigenvalue. The two intervals
  must lie more than DEGENERACY_TIE apart.
- Lowest two. theta_1 + r_1 must lie below mu, a lower bound on
  lambda_2(Omega) read from the anchors alone, so that it does not depend
  on the order in which they were solved. Let a < Omega < b be the nearest
  anchors below and above. Weyl: L is diagonal with least entry L_min, so
  H(Omega) >= H(b) + (b - Omega) L_min and
  lambda_2(Omega) >= lambda_2(b) + (b - Omega) L_min. Ky Fan chord: by Ky
  Fan's principle S3(Omega) = lambda_0 + lambda_1 + lambda_2 is the least
  trace of X^T H(Omega) X over orthonormal n x 3 frames X. Each such trace
  is affine in Omega, so S3, their minimum, is concave and lies above its
  chord between two anchors: for a <= Omega <= b,
  S3(Omega) >= ((b - Omega) S3(a) + (Omega - a) S3(b)) / (b - a). With the
  Ritz upper bounds on lambda_0 and lambda_1,
  lambda_2(Omega) >= chord - theta_0 - theta_1. Outside [a, b] a concave
  function can fall below its chord's extension, so the chord is never
  extrapolated. mu is the larger of the two bounds (below the first
  anchor, the Weyl bound alone); above the last anchor there is none, and
  no point there passes. Given the condition, only
  lambda_0 and lambda_1 can lie in the intervals, so lambda_0 lies in the
  first, lambda_1 in the second, and E1 - E0 > DEGENERACY_TIE.
- Vectors. By the Davis-Kahan sin(theta) theorem, x_k lies within the sine
  r_k / delta_k of its eigenvector, where delta_k bounds the distance from
  theta_k to the rest of the spectrum from below:
  delta_0 = theta_1 - r_1 - theta_0 and
  delta_1 = min(theta_1 - theta_0, mu - theta_1). A whole-grid sweep needs
  both sines at most SINE_TOL. A stopped sweep (the curve pre-scan, whose
  stop rule reads the ground state alone) needs only a finite sine of x_0,
  and only as small as its stop decision needs: `stop(state, sine)`
  answers True or False where its answer holds for every state within
  `sine` of the given one, and None, with no side effect, where it does
  not. A point answered None becomes an anchor, sine 0, and is asked
  again; at sine 0 `stop` must answer. A stopped sweep's E1 lies within
  r_1 of theta_1, and its vec1 is not certified.

A point that fails becomes an anchor: its dense pairs are taken, and its
vectors join Q. A certified sine s bounds the error of every expectation
value of an operator with spectrum in [0, 1], such as p0, by s, and that
of theta_k by r_k * s. It bounds the squared overlap of two neighbouring
ground states within s_i + s_(i+1). The dense sweep keeps the ground state
as the followed state at rank 0 as long as every such overlap^2 is at
least FOLLOW_FLOOR. So the walk stops at the first step i -> i + 1 whose
overlap^2 falls below FOLLOW_FLOOR plus that bound, where the dense follow
rule might leave rank 0, and hands the rest of the grid to the dense
follow rule, the loop `sweep_lowest` runs, which starts afresh with a
dense solve at point i and writes into the walk's own arrays. Up to i the
dense sweep followed the ground state, and each of its solves depends on
its point alone, so from i on (`SweepResult.dense_from`) the result is the
dense sweep's, bit for bit. The walk also hands over where a dense pair
ties (the dense sweep then fails closed there) or where Q would pass half
the dimension (a subspace that large gains nothing on the dense sweep).
`stop` answers every point once, in order: the dense loop does not ask
it again about a point the walk settled. A pencil whose H0 has no element
between states of different L (zero anisotropy) commutes with diag(L): its
sectors cross exactly, the follow rule defines the branch, and the model
takes no anchor: its walk hands the whole grid to the dense follow rule.

What the certificate covers: each returned vec0 (and, on a whole grid,
vec1) lies within `sine_bound` of the matrix's ground (first excited)
state, and E0 and E1 are theirs. On a whole grid `sine_bound` is at most
SINE_TOL; on a stopped one it is what the stop decisions let pass. It
does not certify a followed branch: the followed state is the ground
state, and it is the state the dense sweep would follow only because the
hand-over rule checks that sweep's overlaps. The bounds hold in exact
arithmetic; the residuals are computed in float64, with rounding near
1e-14, against the 5e-12 to 1e-10 residuals that SINE_TOL asks for at the
production gaps. The results are not the dense sweep's bits: on the
reference curves p0 agrees within 1e-11, and E0 and E1 - E0 within 1e-13.
A model lives as long as the System keeps its
pair, and a sweep reads every anchor that the model's earlier sweeps
solved: the refined sweep after a curve's pre-scan starts from the
pre-scan's anchors. So a sweep's last bits depend on the model's earlier
sweeps, within the certificate, and a rerun of the same calls gives the
same bits.

Every solve is one call of scipy's own float64 LAPACK `dsyevr` through its
f2py wrapper `scipy.linalg.lapack.dsyevr`, with the arguments
`scipy.linalg.eigh` passes, so with its bits, but without its per-call
input check and workspace query (about 15 us, against 27-84 us for the
whole Ritz solve at m = 24-51, measured on one BLAS thread). Sweeps check
their inputs are finite, size the LAPACK workspace once and solve on the
calling thread, on one OpenBLAS thread: at these dimensions a second BLAS
thread gains little, and on a busy machine it slows each solve many times
over.
"""

import ctypes
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable

import numpy as np
import scipy
import scipy.linalg as sla

from .errors import InputError, ParameterError

DEGENERACY_TIE = 1e-12
FOLLOW_FLOOR = 0.1
#: an overlap^2 above this singles out the maximal-overlap eigenvector
BRANCH_MAJORITY = 0.5
#: eigenpairs a sweep solves where the follow rule needs more than two
BRANCH_WINDOW = 6
#: a continued point's certified sine between each Ritz vector and its
#: eigenvector must not exceed this
SINE_TOL = 1e-8
#: points of a fresh model's first grid, spread evenly from first to last,
#: whose dense pairs are its first anchors
SEED_POINTS = 5


@cache
def _workspace(dim: int) -> tuple:
    """(lwork, liwork): the `?syevr` workspace sizes `scipy.linalg.eigh`
    queries for a dim x dim matrix, lower triangle."""
    syevr_lwork = sla.get_lapack_funcs("syevr_lwork", dtype=np.float64)
    lwork, liwork, info = syevr_lwork(dim, lower=1)
    if info != 0:
        raise sla.LinAlgError(f"syevr workspace query failed: {info}")
    return int(lwork), int(liwork)


def _eigh(a: np.ndarray, workspace: tuple, subset_by_index=None, diagonal=None):
    """(energies, vectors) of the finite symmetric float64 matrix `a`, read
    from its lower triangle, with its diagonal replaced by `diagonal` when
    given: pairs lo..hi of `subset_by_index`, or all.

    The `?syevr` call `scipy.linalg.eigh(a, subset_by_index=...)` makes,
    without its per-call input check and workspace query, on a
    Fortran-order copy of `a`; `a` is left as it was.
    """
    lwork, liwork = workspace
    a = np.array(a, dtype=np.float64, order="F")
    if diagonal is not None:
        np.fill_diagonal(a, diagonal)
    subset = {} if subset_by_index is None else \
        {"range": "I", "il": subset_by_index[0] + 1, "iu": subset_by_index[1] + 1}
    w, z, m, _, info = sla.lapack.dsyevr(a, lower=1, lwork=lwork, liwork=liwork,
                                         overwrite_a=1, **subset)
    if info != 0:
        raise sla.LinAlgError(f"syevr failed: {info}")
    return w[:m], z[:, :m]


@dataclass(frozen=True)
class SweepResult:
    omegas: np.ndarray      # (n,) the points swept
    energies: np.ndarray    # (n, 2) two lowest energies per point, ascending
    vec0: np.ndarray        # (n, dim) lowest eigenvector
    vec1: np.ndarray        # (n, dim) second eigenvector
    followed: np.ndarray    # (n, dim) adiabatically followed state
    followed_rank: np.ndarray
    dense_solves: int       # dense eigensolves (dense sweep: its points)
    sine_bound: float       # worst certified sine of a vec0, and of a vec1 without
                            # `stop`: at most SINE_TOL on a whole grid, what `stop`'s
                            # answers allowed on a stopped one (dense sweep: 0)
    dense_from: int         # the points from this index on are the dense sweep's

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


def _diagonals(h0: np.ndarray, l_diag, omegas) -> np.ndarray:
    """Row i: the diagonal of H0 - omegas[i] * diag(L). InputError unless
    H0 and every row are finite."""
    diagonals = np.diagonal(h0) - np.multiply.outer(omegas, l_diag)
    if not (np.isfinite(h0).all() and np.isfinite(diagonals).all()):
        raise InputError("sweep inputs h0_dense, l_diag and omegas must be finite")
    return diagonals


def _follow(h0: np.ndarray, omegas, diagonals, out: tuple, start: int = 0,
            stop=None, ask_from: int = 0) -> int:
    """The dense follow rule (`sweep_lowest`) from point `start` to the end
    of the grid, the followed state starting afresh from the ground state
    there. Point i, whose matrix diagonal is diagonals[i], goes into row i
    of each array of `out`: (energies, vec0, vec1, followed, rank).
    stop(followed state, 0.0) is asked from point `ask_from` on; the loop
    ends after the point it accepts. Returns the end of the rows written."""
    energies, vec0, vec1, followed, rank = out
    dim, pairs = vec0.shape[1], energies.shape[1]
    k = min(BRANCH_WINDOW, dim)
    workspace = _workspace(dim)
    prev = None
    for i in range(start, len(omegas)):
        evals, evecs = _eigh(h0, workspace, subset_by_index=(0, pairs - 1),
                             diagonal=diagonals[i])
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
                                     diagonal=diagonals[i])
            overlaps = np.abs(prev @ evecs)
            pick = int(np.argmax(overlaps))
            if overlaps[pick] ** 2 <= BRANCH_MAJORITY:
                # the branch left the window (exact sector crossing at
                # zero anisotropy): resolve against the full spectrum
                _, evecs = _eigh(h0, workspace, diagonal=diagonals[i])
                pick = int(np.argmax(np.abs(prev @ evecs)))
        followed[i] = evecs[:, pick]
        rank[i] = pick
        prev = followed[i]
        if stop is not None and i >= ask_from and stop(prev, 0.0):
            return i + 1
    return len(omegas)


def _arrays(n: int, dim: int) -> tuple:
    """Uninitialized (energies, vec0, vec1, followed, rank) of n points of
    a dim-state sweep, which solves min(2, dim) pairs."""
    return (np.empty((n, min(2, dim))), np.empty((n, dim)), np.empty((n, dim)),
            np.empty((n, dim)), np.zeros(n, dtype=np.int64))


def sweep_lowest(
    h0_dense: np.ndarray,
    l_diag: np.ndarray,
    omegas: np.ndarray,
    stop: Callable[[np.ndarray, float], bool | None] | None = None,
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

    `stop`, when given, is called as stop(followed state, 0.0) after each
    point: the state is exact, so it must answer True or False (None
    counts as False). Once it returns True the sweep ends there and the
    result holds the points swept so far.

    An error in any solve, or a tie, propagates from here, and no point
    past the one that `stop` accepts is solved. The inputs must be finite
    (InputError otherwise); so then is the matrix at every point.
    """
    h0 = np.asarray(h0_dense, dtype=float)
    omegas = np.asarray(omegas, dtype=float)
    diagonals = _diagonals(h0, l_diag, omegas)
    out = _arrays(len(omegas), h0.shape[0])
    with _one_blas_thread():
        swept = _follow(h0, omegas, diagonals, out, stop=stop)
    return SweepResult(omegas[:swept], *(a[:swept] for a in out), dense_solves=swept,
                       sine_bound=0.0, dense_from=0)


class ReducedModel:
    """The certified reduced model of one pencil H0 - Omega * diag(L)
    (module docstring): its dense anchors, keyed by Omega, each with its
    three lowest energies and its two lowest vectors, and Q, H0 Q and L Q
    over every anchor's three vectors. Each `sweep` walks its grid against
    every anchor that earlier sweeps left, and adds its own.

    A pencil whose H0 has no element between states of different L
    (`dense_only`) takes no anchor, nor does one of fewer than six states
    (its first would pass half the dimension): the walk hands its whole
    grid to the dense follow rule at point 0, and returns `sweep_lowest`'s.
    """

    def __init__(self, h0_dense: np.ndarray, l_diag: np.ndarray):
        self.h0 = np.asarray(h0_dense, dtype=float)
        self.l_diag = np.asarray(l_diag, dtype=float)
        dim = self.h0.shape[0]
        self.l_min = float(self.l_diag.min(initial=np.inf))
        rows, cols = np.nonzero(self.h0)
        self.dense_only = not (self.l_diag[rows] != self.l_diag[cols]).any()
        self.q, self.hq, self.lq = (np.empty((dim, 0)) for _ in range(3))
        self.qhq = self.qlq = None
        self.anchors = {}  # Omega -> (three lowest energies, (dim, 2) two lowest vectors)
        self.anchor_omegas = self.anchor_sums = self.anchor_lam2 = np.empty(0)  # ascending

    def sweep(self, omegas,
              stop: Callable[[np.ndarray, float], bool | None] | None = None) -> SweepResult:
        """The two lowest pairs and the followed state of the pencil along
        the ascending grid `omegas`, as `sweep_lowest` defines them.
        `stop(state, sine)` sees each point's ground state with its
        certified sine. It returns True (end the sweep after this point) or
        False only where that answer holds for every state within `sine`
        of the given one; otherwise None, with no side effect, and the walk
        solves the point densely and asks again at sine 0, where `stop`
        must answer.

        The walk up the grid takes each point's certified ground state, and
        hands the rest of the grid to the dense follow rule of
        `sweep_lowest` from the last point it took (module docstring): from
        `dense_from` on the result is that sweep's, followed branch and
        bits. Before `dense_from` the followed state is the ground state at
        rank 0, and vec0 lies within `sine_bound` of the lowest
        eigenvector; without `stop` the bound is at most SINE_TOL and holds
        for vec1 and the second too.
        `dense_solves` counts the dense solves of this call. The inputs
        must be finite (InputError otherwise).
        """
        with _one_blas_thread():
            return self._walk(np.asarray(omegas, dtype=float), stop)

    def _anchor(self, omega: float, diagonal: np.ndarray) -> bool:
        """Solve the three lowest dense pairs at `omega`, the point whose
        matrix diagonal is `diagonal`, and keep them as an anchor; their
        vectors join Q. False, solving nothing, for a `dense_only` pencil
        or where Q would pass half the dimension."""
        dim = self.h0.shape[0]
        if self.dense_only or self.q.shape[1] + 3 > dim / 2:
            return False
        theta, x = _eigh(self.h0, _workspace(dim), subset_by_index=(0, 2), diagonal=diagonal)
        self.anchors[omega] = (theta, x[:, :2])
        self.anchor_omegas = np.array(sorted(self.anchors))
        self.anchor_sums, self.anchor_lam2 = np.array(
            [(self.anchors[om][0].sum(), self.anchors[om][0][2]) for om in self.anchor_omegas]).T
        q = self.q
        for v in x.T:
            # two Gram-Schmidt passes; a vector the second pass halves lies
            # in span(Q) to rounding and is dropped ("twice is enough")
            once = v - q @ (q.T @ v)
            v = once - q @ (q.T @ once)
            norm = np.linalg.norm(v)
            if norm > 0.5 * np.linalg.norm(once):
                q = np.column_stack([q, v / norm])
                self.hq = np.column_stack([self.hq, self.h0 @ q[:, -1]])
                self.lq = np.column_stack([self.lq, self.l_diag * q[:, -1]])
        self.q = q
        self.qhq, self.qlq = q.T @ self.hq, q.T @ self.lq
        return True

    def _lambda2_floor(self, omega: float, theta: np.ndarray) -> float:
        """mu: a lower bound on lambda_2(omega), at an omega that is not an
        anchor, from the nearest anchors a < omega < b and the Ritz values
        `theta`: the Weyl bound from b, or the Ky Fan chord between a and b
        where that is larger (module docstring); -inf above the last
        anchor."""
        j = int(np.searchsorted(self.anchor_omegas, omega))
        if j == len(self.anchor_omegas):
            return -np.inf
        b = self.anchor_omegas[j]
        floor = self.anchor_lam2[j] + (b - omega) * self.l_min
        if j:
            a = self.anchor_omegas[j - 1]
            chord = ((b - omega) * self.anchor_sums[j - 1]
                     + (omega - a) * self.anchor_sums[j]) / (b - a)
            floor = max(floor, chord - theta[0] - theta[1])
        return floor

    def _ritz(self, omega: float, both: bool) -> tuple:
        """(theta, x, sine): the two lowest Ritz pairs at `omega` and the
        certified sine of x_0, and of x_1 too when `both`; inf where the
        certificate fails."""
        theta, y = _eigh(self.qhq - omega * self.qlq, _workspace(len(self.qhq)),
                         subset_by_index=(0, 1))
        y /= np.linalg.norm(self.q @ y, axis=0)
        x = self.q @ y
        r = np.linalg.norm(self.hq @ y - omega * (self.lq @ y) - x * theta, axis=0)
        lam2 = self._lambda2_floor(omega, theta)
        low1 = theta[1] - r[1]  # a lower bound on lambda_1, once certified
        if not (theta[0] + r[0] + DEGENERACY_TIE < low1 and theta[1] + r[1] < lam2):
            return theta, x, np.inf
        sine = r[0] / (low1 - theta[0])
        if both:
            sine = max(sine, r[1] / min(theta[1] - theta[0], lam2 - theta[1]))
        return theta, x, sine

    def _walk(self, omegas: np.ndarray, stop) -> SweepResult:
        """`sweep`'s walk up the grid (module docstring)."""
        n, dim = len(omegas), self.h0.shape[0]
        diagonals = _diagonals(self.h0, self.l_diag, omegas)
        out = _arrays(n, dim)
        energies, vec0, vec1, followed, _ = out
        sines = np.zeros(n)
        solves = 0

        def result(swept: int, head: int) -> SweepResult:
            """The first `swept` points, the walk's before `head`, where the
            followed state is the ground state at rank 0."""
            followed[:head] = vec0[:head]
            return SweepResult(omegas[:swept], *(a[:swept] for a in out), dense_solves=solves,
                               sine_bound=float(sines[:head].max(initial=0.0)), dense_from=head)

        def hand_over(i: int) -> SweepResult:
            """The walk's points before i - 1, then the dense follow rule
            from point i - 1 (from 0 when i is 0), asking `stop` from point
            i on: it has answered point i - 1 already."""
            nonlocal solves
            start = max(i - 1, 0)
            swept = _follow(self.h0, omegas, diagonals, out, start, stop, ask_from=i)
            solves += swept - start
            return result(swept, start)

        def solve(i: int) -> bool:
            """Take point i's dense pairs, anchoring it unless it is an
            anchor; False where the walk must hand over instead."""
            nonlocal solves
            if omegas[i] not in self.anchors:
                if not self._anchor(omegas[i], diagonals[i]):
                    return False
                solves += 1
            theta, x = self.anchors[omegas[i]]
            energies[i], (vec0[i], vec1[i]), sines[i] = theta[:2], x.T, 0.0
            return theta[1] - theta[0] >= DEGENERACY_TIE

        def joined(i: int) -> bool:
            """False for a pair of ground states the dense follow rule
            might not join."""
            return not i or \
                (vec0[i - 1] @ vec0[i]) ** 2 >= FOLLOW_FLOOR + sines[i - 1] + sines[i]

        if not self.anchors:
            for i in np.linspace(0, n - 1, min(SEED_POINTS, n)).round().astype(int):
                if not self._anchor(omegas[i], diagonals[i]):
                    return hand_over(0)
                solves += 1
        for i, omega in enumerate(omegas):
            sine = np.inf
            if omega not in self.anchors:
                theta, x, sine = self._ritz(omega, both=stop is None)
            if sine <= SINE_TOL or (stop is not None and sine < np.inf):
                energies[i], (vec0[i], vec1[i]), sines[i] = theta, x.T, sine
            elif not solve(i):
                return hand_over(i)
            if not joined(i):
                return hand_over(i)
            if stop is None:
                continue
            decided = stop(vec0[i], sines[i])
            if decided is None:  # the certificate does not settle it: solve densely
                if not (solve(i) and joined(i)):
                    return hand_over(i)
                decided = stop(vec0[i], 0.0)
            if decided:
                n = i + 1
                break
        return result(n, n)
