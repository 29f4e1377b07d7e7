"""Resonance curves P(0|Omega) and the persistent curve catalog.

A curve is computed by sweeping the ground state across the vortex
transition of one (g, A) pair. The sweep grid is auto-located: a coarse
pre-scan of PRESCAN_POINTS points over PRESCAN_RANGE brackets the 0.9/0.1
crossings, then a refined uniform grid of REFINED_POINTS spans the
transition with generous padding so that the flat extension outside the
grid only ever sees plateau values. The pre-scan stops at the first point
after both first downward crossings. It computes p0 once per state its
sweep hands it, as the sweep reaches it: once per point, again where a
point's certificate left the stop decision open and the point was solved
densely, and once more at each bracket point it re-reads from a dense
solve. Sweeps run in the L-parity sector of the condensate (0,0)^N, the
only states the followed state couples to, and p0, the SPDM and <L> are
read from its states (`hamiltonian.System.sector`).

`hamiltonian.System.sweep` runs every sweep and keeps the last whole-grid
one, so the diagnostics of the curve just computed cost no second sweep;
the pre-scan goes back to its caller alone, with the grid it located.
Every sweep of one pair, the pre-scan and the refined sweep alike, runs
through the pair's one certified reduced model (`spectrum.ReducedModel`),
and the refined sweep starts from the anchors its pre-scan solved. Up to
where the dense follow rule might leave the ground state, p0 is the sector
ground state's within the sweep's `sine_bound`; from there on
(`SweepResult.dense_from`) the dense sweep `spectrum.sweep_lowest` runs.
The pre-scan accepts a point once its certificate settles the stop
decision, so it stops where the dense pre-scan stops, with the same
brackets, and the crossing values the grid reads come from dense solves:
the located grid is the dense pre-scan's bit for bit, whatever anchors the
pair's model held before.
"""

import json
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import __version__ as _code_version
from .errors import ParameterError, RangeError, StaleCatalogError
from .fock import FockBasis
from .hamiltonian import System, _check_couplings
from .melem import ElementCache
from .observables import (
    crossing_offset,
    expected_L,
    p_zero,
    spdm,
    spdm_branch_gap,
    transition_width,
)
from .spectrum import SweepResult, sweep_lowest

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
    """P(0|Omega) of one (g, A) pair on a strictly ascending grid.

    `rel_center` is the 0.5 crossing as an offset from the grid origin,
    `center` the same crossing as a rotation rate (omega[0] + rel_center);
    both are None when p0 never crosses 0.5. `width` is the 0.9 to 0.1
    distance, or None. All three are computed once, by `from_values`.
    """

    g: float
    anisotropy: float
    omega: np.ndarray
    p0: np.ndarray
    center: float | None
    width: float | None
    rel_center: float | None

    @classmethod
    def from_values(cls, g, anisotropy, omega, p0) -> "ResonanceCurve":
        """The curve of p0 on the grid omega. g and A must be finite real
        numbers >= 0 (ParameterError), as a Hamiltonian needs them."""
        _check_couplings(g, anisotropy)
        omega = np.asarray(omega, dtype=float)
        p0 = np.asarray(p0, dtype=float)
        if omega.ndim != 1 or omega.shape != p0.shape or omega.size == 0:
            raise ParameterError("omega and p0 must be matching non-empty 1-d arrays")
        if not (np.isfinite(omega).all() and np.isfinite(p0).all()):
            raise ParameterError("omega and p0 must be finite")
        if np.any(np.diff(omega) <= 0):
            raise ParameterError("omega grid must be strictly ascending")
        if p0.min() < -1e-12 or p0.max() > 1.0 + 1e-12:
            raise ParameterError("p0 values must lie in [0, 1]")
        p0 = np.clip(p0, 0.0, 1.0)
        rel = crossing_offset(omega, p0, 0.5)
        rel = None if rel is None else float(rel)
        center = None if rel is None else float(omega[0] + rel)
        try:
            width = transition_width(omega, p0)
        except RangeError:
            width = None
        return cls(
            g=float(g), anisotropy=float(anisotropy),
            omega=omega, p0=p0, center=center, width=width, rel_center=rel,
        )

    @property
    def key(self) -> tuple[float, float]:
        return (self.g, self.anisotropy)

    def offsets(self) -> np.ndarray:
        """Grid relative to its own origin (shift-covariant)."""
        return self.omega - self.omega[0]

    def evaluate(self, points) -> np.ndarray:
        """Linear interpolation with flat extension beyond the grid."""
        return np.interp(points, self.omega, self.p0)


@dataclass(frozen=True)
class CurveDiagnostics:
    """Per-sweep-point observables accompanying a curve."""

    omegas: np.ndarray
    gap: np.ndarray          # E1 - E0
    lam1: np.ndarray         # largest SPDM eigenvalue
    lam2: np.ndarray         # second largest (0 for a one-mode basis)
    branch_gap: np.ndarray   # condensate-branch minus vortex-branch occupation
    exp_L: np.ndarray
    spdm_trace: np.ndarray


def _transition_grid(basis: FockBasis, cache: ElementCache, g: float,
                     anisotropy: float) -> tuple[np.ndarray | None, SweepResult]:
    """(grid, pre-scan): the refined grid spanning the transition, or None
    when the pre-scan's likelihood never crosses both 0.9 and 0.1 (e.g.
    zero anisotropy), and the pre-scan's sweep.

    Stop rule: each state the sweep hands it gets its p0 p; the rule drops
    from `pending` each threshold t the last step brackets (previous p0 >=
    t > p), appends p to `pc`, and ends the sweep once both first downward
    crossings, 0.9 and 0.1, are bracketed. A state within `sine` of the
    ground state has its p0 within `sine` of the ground state's, so the
    rule answers None, deciding nothing, while p - sine and p + sine lie on
    either side of a pending threshold. Every point it answers is then on
    the dense pre-scan's side of each pending threshold: the sweep stops
    where that pre-scan stops, with the same brackets. The grid reads p0
    only at the bracket points. Each one up to `dense_from` (the walk
    answered that point itself) takes it from a two-pair dense solve at
    that one point, the solve the dense pre-scan makes there; past
    `dense_from` the rule saw the dense sweep's own states. So the grid is
    the whole dense pre-scan's, bit for bit. The returned pre-scan counts
    these solves in its `dense_solves`.
    """
    coarse = np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS)
    pc, pending, brackets = [], {0.9, 0.1}, set()
    system = System.of(basis, cache)

    def bracketed(state: np.ndarray, sine: float) -> bool | None:
        p = p_zero(state, system.sector)
        if any((p - sine >= t) != (p + sine >= t) for t in pending):
            return None
        crossed = [t for t in pending if pc and pc[-1] >= t > p]
        if crossed:
            pending.difference_update(crossed)
            brackets.update((len(pc) - 1, len(pc)))
        pc.append(p)
        return not pending

    prescan = system.sweep(g, anisotropy, coarse, stop=bracketed)
    if pending:
        return None, prescan
    model = system.model[1]
    exact = [i for i in brackets if i <= prescan.dense_from]
    for i in exact:
        dense = sweep_lowest(model.h0, model.l_diag, coarse[i:i + 1])
        pc[i] = p_zero(dense.followed[0], system.sector)
    return _refined_grid(pc), replace(prescan, dense_solves=prescan.dense_solves + len(exact))


def _refined_grid(pc) -> np.ndarray | None:
    """REFINED_POINTS spanning the first downward 0.9 and 0.1 crossings
    of the p0 values `pc` on the first points of the pre-scan grid, padded
    on each side by their distance (at least one pre-scan step); None
    unless `pc` crosses both."""
    coarse = np.linspace(*PRESCAN_RANGE, PRESCAN_POINTS)
    rel_hi = crossing_offset(coarse[:len(pc)], pc, 0.9)
    rel_lo = crossing_offset(coarse[:len(pc)], pc, 0.1)
    if rel_hi is None or rel_lo is None:
        return None
    span = max(rel_lo - rel_hi, coarse[1] - coarse[0])
    return np.linspace(coarse[0] + rel_hi - span, coarse[0] + rel_lo + span, REFINED_POINTS)


def locate_grid(basis: FockBasis, cache: ElementCache, g: float,
                anisotropy: float) -> np.ndarray:
    """Auto-located refined grid of REFINED_POINTS spanning the transition,
    or the PRESCAN_RANGE window when the likelihood never crosses (e.g.
    zero anisotropy)."""
    grid, _ = _transition_grid(basis, cache, g, anisotropy)
    return np.linspace(*PRESCAN_RANGE, REFINED_POINTS) if grid is None else grid


def compute_curve(basis: FockBasis, cache: ElementCache, g: float,
                  anisotropy: float, grid=None) -> ResonanceCurve:
    """Likelihood curve for one parameter pair on an explicit or auto grid."""
    if grid is None:
        grid = locate_grid(basis, cache, g, anisotropy)
    grid = np.asarray(grid, dtype=float)
    system = System.of(basis, cache)
    followed = system.sweep(g, anisotropy, grid).followed
    return ResonanceCurve.from_values(g, anisotropy, grid, p_zero(followed, system.sector))


def curve_diagnostics(basis: FockBasis, cache: ElementCache,
                      curve: ResonanceCurve) -> CurveDiagnostics:
    """Gap, SPDM spectrum and <L> along an existing curve's grid.

    The gap is `SweepResult.gap`, E1 - E0 within the condensate's L-parity
    sector, the only states the followed state couples to; a sector of one
    state has none (ParameterError, before any SPDM work). The sweep is
    `System.sweep`'s, so right after `compute_curve` on the same grid its
    kept sweep is reused. `spdm`, `spdm_branch_gap` and `expected_L` each
    run once, on the stack of followed sector states.
    """
    system = System.of(basis, cache)
    sweep = system.sweep(curve.g, curve.anisotropy, curve.omega)
    gap, sector = sweep.gap, system.sector
    dens = spdm(sweep.followed, sector)
    lam = dens.eigenvalues
    return CurveDiagnostics(
        omegas=curve.omega.copy(),
        gap=gap,
        lam1=lam[:, 0],
        lam2=lam[:, 1] if lam.shape[1] > 1 else np.zeros(len(lam)),
        branch_gap=spdm_branch_gap(dens, sector),
        exp_L=expected_L(sweep.followed, sector),
        spdm_trace=np.trace(dens.matrix, axis1=1, axis2=2),
    )


def _check_unique_keys(keys) -> None:
    if len(set(keys)) != len(keys):
        raise ParameterError("duplicate (g, anisotropy) keys in catalog")


@dataclass(frozen=True)
class CurveCatalog:
    """Width-sorted resonance curves plus provenance of their computation."""

    curves: tuple[ResonanceCurve, ...]
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_unique_keys([c.key for c in self.curves])
        for c in self.curves:
            if c.width is None or c.width <= 0:
                raise ParameterError(
                    f"catalog curves need positive widths, offender {c.key}"
                )
        object.__setattr__(
            self, "curves",
            tuple(sorted(self.curves, key=lambda c: c.width)),
        )

    def find(self, g: float, anisotropy: float) -> ResonanceCurve:
        """The pair's curve; ParameterError when the catalog has none."""
        for c in self.curves:
            if c.key == (g, anisotropy):
                return c
        raise ParameterError(f"catalog has no curve for (g={g}, A={anisotropy})")


def lookup_by_width(catalog: CurveCatalog, target_width: float) -> ResonanceCurve:
    """Curve minimizing |width - target|; ties resolve to the steeper curve.
    The target must be finite and positive (ParameterError)."""
    if not catalog.curves:
        raise ParameterError("catalog is empty")
    if not 0 < target_width < np.inf:  # NaN fails both
        raise ParameterError(f"target width must be finite and > 0, got {target_width}")
    return min(catalog.curves, key=lambda c: (abs(c.width - target_width), c.width))


def catalog_build(basis: FockBasis, cache: ElementCache,
                  pairs: Sequence[tuple[float, float]] = DEFAULT_CATALOG_PAIRS,
                  grid=None) -> CurveCatalog:
    """Catalog of the pairs' curves on an explicit grid, or on each pair's
    located grid. Auto grids are located for every pair before any refined
    sweep, and a pair whose pre-scan never crosses is refused: its curve
    would have no width."""
    if not pairs:
        raise ParameterError("need at least one (g, anisotropy) pair")
    _check_unique_keys([(g, anisotropy) for g, anisotropy in pairs])
    grids = [grid] * len(pairs)
    if grid is None:
        for i, (g, anisotropy) in enumerate(pairs):
            grids[i], _ = _transition_grid(basis, cache, g, anisotropy)
            if grids[i] is None:
                raise ParameterError(f"catalog curves need positive widths, offender "
                                     f"{(g, anisotropy)}: its pre-scan never crosses")
    curves = [compute_curve(basis, cache, g, anisotropy, located)
              for (g, anisotropy), located in zip(pairs, grids)]
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
