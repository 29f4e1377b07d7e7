"""Resonance curves P(0|Omega) and the persistent curve catalog.

A curve is computed by sweeping the ground state across the vortex
transition of one (g, A) pair. The sweep grid is auto-located: a coarse
pre-scan brackets the 0.9/0.1 crossings, then a refined uniform grid spans
the transition with generous padding so that the flat extension outside
the grid only ever sees plateau values. Sweeps run in the L-parity sector
of the condensate (0,0)^N, the only states the followed state couples to.

The module keeps its last sector sweep: the followed states and the two
lowest sector energies at each grid point, keyed by the `Operators` object
(identity), g, A and the exact grid values. Every curve sweep drops it
before it starts and replaces it when done, so it holds one sweep at most
and never sits beside a sweep in progress. Only `curve_diagnostics` reads
it: on a match it skips its own sweep, so diagnostics of the curve just
computed cost no second sweep. `locate_grid`, `compute_curve` and
`catalog_build` always sweep.
"""

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from . import __version__ as _code_version
from .errors import ParameterError, RangeError, StaleCatalogError
from .fock import FockBasis
from .hamiltonian import Operators, build_operators
from .melem import ElementCache
from .observables import (
    condensate_index,
    crossing_offset,
    spdm_batch,
    spdm_branch_gap,
    transition_width,
)
from .spectrum import sweep_sector

CATALOG_VERSION = "critgyro-catalog-1"
PRESCAN_RANGE = (0.70, 1.02)
PRESCAN_POINTS = 61
REFINED_POINTS = 601

#: default catalog: the two published operating points plus a width ladder
DEFAULT_CATALOG_PAIRS: tuple[tuple[float, float], ...] = (
    (0.5, 0.04),
    (0.5, 0.032),
    (0.5, 0.028),
    (0.5, 0.024),
    (0.6, 0.025),
    (0.5, 0.02),
    (0.5, 0.017),
    (0.5, 0.015),
    (0.5, 0.013),
    (0.5, 0.012),
)


@dataclass(frozen=True)
class ResonanceCurve:
    g: float
    anisotropy: float
    omega: np.ndarray
    p0: np.ndarray
    center: float | None
    width: float | None

    @classmethod
    def from_values(cls, g, anisotropy, omega, p0) -> "ResonanceCurve":
        omega = np.asarray(omega, dtype=float)
        p0 = np.asarray(p0, dtype=float)
        if omega.ndim != 1 or omega.shape != p0.shape:
            raise ParameterError("omega and p0 must be matching 1-d arrays")
        if not (np.isfinite(omega).all() and np.isfinite(p0).all()):
            raise ParameterError("omega and p0 must be finite")
        if np.any(np.diff(omega) <= 0):
            raise ParameterError("omega grid must be strictly ascending")
        if p0.min() < -1e-12 or p0.max() > 1.0 + 1e-12:
            raise ParameterError("p0 values must lie in [0, 1]")
        p0 = np.clip(p0, 0.0, 1.0)
        rel = crossing_offset(omega, p0, 0.5)
        center = None if rel is None else float(omega[0] + rel)
        try:
            width = transition_width(omega, p0)
        except RangeError:
            width = None
        return cls(
            g=float(g), anisotropy=float(anisotropy),
            omega=omega, p0=p0, center=center, width=width,
        )

    @property
    def key(self) -> tuple[float, float]:
        return (self.g, self.anisotropy)

    def offsets(self) -> np.ndarray:
        """Grid relative to its own origin (shift-covariant)."""
        return self.omega - self.omega[0]

    def rel_center(self) -> float:
        """Center as an offset from the grid origin."""
        rel = crossing_offset(self.omega, self.p0, 0.5)
        if rel is None:
            raise RangeError("curve has no 0.5 crossing")
        return float(rel)

    def evaluate(self, points) -> np.ndarray:
        """Linear interpolation with flat extension beyond the grid."""
        return np.interp(points, self.omega, self.p0)


@dataclass(frozen=True)
class CurveDiagnostics:
    """Per-sweep-point observables accompanying a curve."""

    omegas: np.ndarray
    gap: np.ndarray          # E1 - E0
    lam1: np.ndarray         # largest SPDM eigenvalue
    lam2: np.ndarray         # second largest
    branch_gap: np.ndarray   # condensate-branch minus vortex-branch occupation
    exp_L: np.ndarray
    spdm_trace: np.ndarray


class _Sweep(NamedTuple):
    """A condensate-sector sweep and its key (ops, g, anisotropy, omegas)."""

    ops: Operators
    g: float
    anisotropy: float
    omegas: np.ndarray
    followed: np.ndarray   # (n, dim) followed state per grid point
    energies: np.ndarray   # (n, 2) two lowest sector energies


#: the last sweep `_sweep_p0` ran; read only by `curve_diagnostics`
_last_sweep: _Sweep | None = None


def _sweep_p0(basis: FockBasis, ops: Operators, g, anisotropy, omegas):
    """Sweep of the condensate's L-parity sector and p0 of its followed
    state; the sweep becomes the module's last sweep."""
    global _last_sweep
    _last_sweep = None  # freed before the new sweep allocates its arrays
    omegas = np.array(omegas, dtype=float)  # a copy: the key outlives the caller's array
    h0 = ops.hamiltonian(g, anisotropy, 0.0).to_dense()
    sweep = sweep_sector(h0, ops.l, omegas, condensate_index(basis), k=6)
    _last_sweep = entry = _Sweep(ops, g, anisotropy, omegas, sweep.followed,
                                 sweep.energies[:, :2])
    mask = basis.zero_momentum_mask()
    pvals = (sweep.followed[:, mask] ** 2).sum(axis=1)
    return entry, pvals


def locate_grid(basis: FockBasis, cache: ElementCache, g: float,
                anisotropy: float, prescan=PRESCAN_RANGE,
                prescan_points: int = PRESCAN_POINTS,
                points: int = REFINED_POINTS) -> np.ndarray:
    """Auto-located refined grid spanning the transition, or the pre-scan
    window when the likelihood never crosses 0.5 (e.g. zero anisotropy)."""
    coarse = np.linspace(prescan[0], prescan[1], prescan_points)
    _, pc = _sweep_p0(basis, build_operators(basis, cache), g, anisotropy, coarse)
    step = coarse[1] - coarse[0]
    rel_hi = crossing_offset(coarse, pc, 0.9)
    rel_lo = crossing_offset(coarse, pc, 0.1)
    if rel_hi is None or rel_lo is None:
        return np.linspace(prescan[0], prescan[1], points)
    span = max(rel_lo - rel_hi, step)
    lo = coarse[0] + rel_hi - span
    hi = coarse[0] + rel_lo + span
    return np.linspace(lo, hi, points)


def compute_curve(basis: FockBasis, cache: ElementCache, g: float,
                  anisotropy: float, grid=None) -> ResonanceCurve:
    """Likelihood curve for one parameter pair on an explicit or auto grid."""
    if grid is None:
        grid = locate_grid(basis, cache, g, anisotropy)
    grid = np.asarray(grid, dtype=float)
    _, pvals = _sweep_p0(basis, build_operators(basis, cache), g, anisotropy, grid)
    return ResonanceCurve.from_values(g, anisotropy, grid, pvals)


def _curve_sweep(ops: Operators, curve: ResonanceCurve) -> _Sweep | None:
    """The module's last sweep if it ran with these operators and the
    curve's g, A and grid, else None."""
    sweep = _last_sweep
    if sweep is not None and sweep.ops is ops \
            and (sweep.g, sweep.anisotropy) == (curve.g, curve.anisotropy) \
            and np.array_equal(sweep.omegas, curve.omega):
        return sweep
    return None


def curve_diagnostics(basis: FockBasis, cache: ElementCache,
                      curve: ResonanceCurve) -> CurveDiagnostics:
    """Gap, SPDM spectrum and <L> along an existing curve's grid.

    The gap is E1 - E0 within the condensate's L-parity sector, the only
    states the followed state couples to. When the module's last sweep is
    the curve's (same operators, g, A and grid), its states are reused.
    """
    ops = build_operators(basis, cache)
    sweep = _curve_sweep(ops, curve) \
        or _sweep_p0(basis, ops, curve.g, curve.anisotropy, curve.omega)[0]
    dens = spdm_batch(sweep.followed, basis)
    return CurveDiagnostics(
        omegas=curve.omega.copy(),
        gap=sweep.energies[:, 1] - sweep.energies[:, 0],
        lam1=np.array([d.eigenvalues[0] for d in dens]),
        lam2=np.array([d.eigenvalues[1] if len(d.eigenvalues) > 1 else 0.0
                       for d in dens]),
        branch_gap=np.array([spdm_branch_gap(d, basis) for d in dens]),
        exp_L=sweep.followed**2 @ ops.l,
        spdm_trace=np.array([np.trace(d.matrix) for d in dens]),
    )


@dataclass(frozen=True)
class CurveCatalog:
    """Width-sorted resonance curves plus provenance of their computation."""

    curves: tuple[ResonanceCurve, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        keys = [c.key for c in self.curves]
        if len(set(keys)) != len(keys):
            raise ParameterError("duplicate (g, anisotropy) keys in catalog")
        for c in self.curves:
            if c.width is None or c.width <= 0:
                raise ParameterError(
                    f"catalog curves need positive widths, offender {c.key}"
                )
        object.__setattr__(
            self, "curves",
            tuple(sorted(self.curves, key=lambda c: c.width)),
        )

    def widest(self) -> ResonanceCurve:
        return self.curves[-1]

    def find(self, g: float, anisotropy: float) -> ResonanceCurve:
        for c in self.curves:
            if c.key == (g, anisotropy):
                return c
        raise KeyError(f"no curve for (g={g}, anisotropy={anisotropy})")


def lookup_by_width(catalog: CurveCatalog, target_width: float) -> ResonanceCurve:
    """Curve minimizing |width - target|; ties resolve to the steeper curve."""
    if not catalog.curves:
        raise ParameterError("catalog is empty")
    return min(catalog.curves, key=lambda c: (abs(c.width - target_width), c.width))


def catalog_build(basis: FockBasis, cache: ElementCache,
                  pairs: Sequence[tuple[float, float]] = DEFAULT_CATALOG_PAIRS,
                  grid=None) -> CurveCatalog:
    if not pairs:
        raise ParameterError("need at least one (g, anisotropy) pair")
    curves = [compute_curve(basis, cache, g, anisotropy, grid)
              for g, anisotropy in pairs]
    provenance = {
        "version": CATALOG_VERSION,
        "code_version": _code_version,
        "solver": {
            "element_integrals": "exact (integer monomial expansion)",
            "prescan": list(PRESCAN_RANGE) + [PRESCAN_POINTS],
            "points": REFINED_POINTS if grid is None else len(np.asarray(grid)),
            "n_particles": basis.n_particles,
            "n_ll": basis.n_ll,
            "l_max": basis.l_max,
        },
    }
    return CurveCatalog(curves=tuple(curves), provenance=provenance)


def catalog_save(catalog: CurveCatalog, path) -> None:
    payload = {
        "version": CATALOG_VERSION,
        "provenance": catalog.provenance,
        "curves": [
            {
                "g": c.g,
                "anisotropy": c.anisotropy,
                "omega": c.omega.tolist(),
                "p0": c.p0.tolist(),
                "center": c.center,
                "width": c.width,
            }
            for c in catalog.curves
        ],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh)


def _json_numbers(value, ndim: int) -> np.ndarray:
    """A JSON number (ndim 0) or list of numbers (ndim 1) as floats."""
    arr = np.asarray(value)
    if arr.ndim != ndim or arr.dtype.kind not in "iuf":
        raise TypeError(f"expected {ndim}-d numbers, got {value!r}")
    return arr.astype(float)


def catalog_load(path) -> CurveCatalog:
    """Catalog saved by `catalog_save`; anything else raises StaleCatalogError."""
    try:
        with open(path) as fh:
            payload = json.load(fh)
    except (OSError, ValueError) as exc:
        raise StaleCatalogError(f"cannot read catalog {path}: {exc}") from exc
    version = payload.get("version") if isinstance(payload, dict) else None
    if version != CATALOG_VERSION:
        raise StaleCatalogError(
            f"catalog {path} has version {version!r}, expected {CATALOG_VERSION!r}"
        )
    if not isinstance(payload.get("curves"), list):
        raise StaleCatalogError(f"catalog {path} holds no list of curves")
    curves = []
    try:
        for entry in payload["curves"]:
            curve = ResonanceCurve.from_values(
                *(_json_numbers(entry[key], ndim) for key, ndim in
                  (("g", 0), ("anisotropy", 0), ("omega", 1), ("p0", 1)))
            )
            stored_center = entry.get("center")
            stored_width = entry.get("width")
            if stored_width is None or curve.width is None or \
                    not abs(stored_width - curve.width) <= 1e-9 or \
                    stored_center is None or curve.center is None or \
                    not abs(stored_center - curve.center) <= 1e-9:
                raise StaleCatalogError(
                    f"catalog {path}: stored metadata disagrees with recomputation"
                )
            curves.append(curve)
        return CurveCatalog(curves=tuple(curves),
                            provenance=payload.get("provenance", {}))
    except (KeyError, TypeError, ValueError) as exc:
        raise StaleCatalogError(
            f"catalog {path}: malformed curve entry: {type(exc).__name__}: {exc}"
        ) from exc
