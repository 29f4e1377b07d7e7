import os

import numpy as np
import pytest

from critgyro.curves import DEFAULT_CATALOG_PAIRS, ResonanceCurve, CurveCatalog, catalog_build
from critgyro.fock import enumerate_basis
from critgyro.melem import ElementCache


@pytest.fixture(autouse=True)
def _no_seed_env(monkeypatch):
    # the env override must not leak into deterministic tests
    monkeypatch.delenv("CRITGYRO_SEED", raising=False)


@pytest.fixture(scope="session")
def system6():
    """Production-size system: 6 particles, two Landau levels, L <= 8."""
    basis = enumerate_basis(6, 2, 8)
    cache = ElementCache.build(basis.modes)
    return basis, cache


@pytest.fixture(scope="session")
def catalog_default(system6) -> CurveCatalog:
    """The standard curve catalog; computed once per session (3.5-8.5 s on
    a 2-CPU machine)."""
    basis, cache = system6
    return catalog_build(basis, cache, DEFAULT_CATALOG_PAIRS)


@pytest.fixture(scope="session")
def curve_05_004(catalog_default) -> ResonanceCurve:
    return catalog_default.find(0.5, 0.04)


def row_of(basis, occupations) -> int:
    """Basis row of the state with these Mode -> count occupations."""
    occ = np.zeros(len(basis.modes), dtype=np.int64)
    for mode, count in occupations.items():
        occ[basis.modes.index(mode)] = count
    (row,) = np.flatnonzero((basis.occupations == occ).all(axis=1))
    return int(row)


def rows_of(basis, states) -> list[int]:
    """Basis rows of occupation tuples, such as an oracle's states."""
    row = {occ: i for i, occ in enumerate(map(tuple, basis.occupations.tolist()))}
    return [row[tuple(state)] for state in states]


def make_logistic_curve(g=0.5, anisotropy=0.04, center=0.90, width=0.05,
                        lo=None, hi=None, points=801) -> ResonanceCurve:
    """Synthetic sigmoid curve for estimation tests (no eigensolves)."""
    lo = center - 2.5 * width if lo is None else lo
    hi = center + 2.5 * width if hi is None else hi
    omega = np.linspace(lo, hi, points)
    tau = width / (2 * np.log(9.0))
    p = 1.0 / (1.0 + np.exp((omega - center) / tau))
    return ResonanceCurve.from_values(g, anisotropy, omega, p)
