import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from critgyro.errors import ParameterError
from critgyro.fock import (
    KeyIndex,
    Mode,
    enumerate_basis,
    enumerate_modes,
    landau_weight,
)
from conftest import row_of
from oracle import oracle_basis, oracle_modes


def test_lowest_landau_level_modes():
    assert enumerate_modes(1, 2) == [Mode(0, 0), Mode(0, 1), Mode(0, 2)]


def test_two_level_modes_small():
    assert enumerate_modes(2, 3) == [
        Mode(0, -1), Mode(0, 0), Mode(0, 1), Mode(0, 2), Mode(0, 3),
        Mode(1, 0), Mode(1, 1), Mode(1, 2), Mode(1, 3),
    ]


def test_two_level_modes_production_count():
    # pinned from the brute-force enumeration below
    modes = enumerate_modes(2, 8)
    assert [tuple(m) for m in modes] == oracle_modes(2, 8)
    assert len(modes) == 19


@pytest.mark.parametrize("n_ll,l_max", [(0, 3), (1, -1)])
def test_mode_parameter_errors(n_ll, l_max):
    with pytest.raises(ParameterError):
        enumerate_modes(n_ll, l_max)


def test_landau_weight():
    assert landau_weight(Mode(0, 3)) == 0
    assert landau_weight(Mode(0, -1)) == 1
    assert landau_weight(Mode(1, 0)) == 1
    assert landau_weight(Mode(1, -1)) == 2


def test_vacuum_basis():
    basis = enumerate_basis(0, 2, 2)
    assert basis.size == 1
    assert basis.L[0] == 0
    assert not basis.state_occupations(0)


def test_single_particle_basis_matches_modes():
    basis = enumerate_basis(1, 2, 3)
    assert basis.size == len(enumerate_modes(2, 3)) == 9


def test_production_basis_size_pinned():
    # regression constant established by the generate-and-filter oracle
    basis = enumerate_basis(6, 2, 8)
    _, states = oracle_basis(6, 2, 8)
    assert basis.size == len(states) == 322


@pytest.mark.parametrize("n", [0, 1, 2, 3])
def test_count_oracle_small(n):
    basis = enumerate_basis(n, 2, n + 2)
    _, states = oracle_basis(n, 2, n + 2)
    assert basis.size == len(states)
    assert sorted(map(tuple, basis.occupations.tolist())) == states


def test_basis_invariants():
    basis = enumerate_basis(6, 2, 8)
    occ = basis.occupations
    assert occ.min() >= 0
    assert (occ.sum(axis=1) == 6).all()
    ms = np.array([m.m for m in basis.modes])
    weights = np.array([landau_weight(m) for m in basis.modes])
    assert (occ @ ms == basis.L).all()
    assert basis.L.max() <= 8
    assert (1 + occ @ weights <= 2).all()
    # deterministic ordering: L blocks ascending, occupations lexicographic
    assert (np.diff(basis.L) >= 0).all()
    rows = [tuple(r) for r in occ]
    for a, b in zip(rows, rows[1:]):
        la, lb = total_dot(a, ms), total_dot(b, ms)
        assert (la, a) < (lb, b)
    # every row is a distinct state
    assert len(set(rows)) == basis.size
    # the condensate state is present
    assert row_of(basis, {Mode(0, 0): 6}) in range(basis.size)


def total_dot(row, ms):
    return int(sum(r * m for r, m in zip(row, ms)))


def test_enumerate_basis_leaves_no_garbage_cycle():
    """The scan's recursive closure is released on return, so its list of
    found states does not wait for a full garbage collection."""
    enumerate_basis(3, 2, 5)
    gc.collect()
    gc.disable()
    try:
        enumerate_basis(3, 2, 5)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_determinism():
    b1 = enumerate_basis(4, 2, 6)
    b2 = enumerate_basis(4, 2, 6)
    assert b1.modes == b2.modes
    assert np.array_equal(b1.occupations, b2.occupations)


def test_hop_closure_exhaustive_n3():
    """a+_k1 a_k2 with m_k1 = m_k2 +- 2 keeps states inside the basis or
    violates a truncation; it never lands on a missing valid state."""
    basis = enumerate_basis(3, 2, 5)
    modes = basis.modes
    weights = [landau_weight(m) for m in modes]
    states = set(map(tuple, basis.occupations.tolist()))
    for row in basis.occupations:
        for j, kj in enumerate(modes):
            if row[j] == 0:
                continue
            for i, ki in enumerate(modes):
                if abs(ki.m - kj.m) != 2:
                    continue
                new = row.copy()
                new[j] -= 1
                new[i] += 1
                total_l = int(new @ np.array([m.m for m in modes]))
                weight = int(new @ np.array(weights))
                inside = total_l <= 5 and 1 + weight <= 2
                assert (tuple(new.tolist()) in states) == inside


def test_dump_csv(tmp_path):
    basis = enumerate_basis(2, 2, 4)
    path = tmp_path / "basis.csv"
    basis.dump_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,L,occupations"
    assert len(lines) == basis.size + 1


def test_key_index_finds_every_row():
    basis = enumerate_basis(6, 2, 8)
    index = KeyIndex.build(basis.occupations)
    assert len(np.unique(index.keys)) == basis.size
    assert np.array_equal(index.rows(index.keys), np.arange(basis.size))
    assert np.array_equal(index.caps, basis.occupations.max(axis=0))
    # one particle moved (0,0) -> (0,1) from the condensate
    i00, i01 = basis.modes.index(Mode(0, 0)), basis.modes.index(Mode(0, 1))
    hop = index.keys[row_of(basis, {Mode(0, 0): 6})] - index.shifts[i00] + index.shifts[i01]
    assert index.rows(np.array([hop, -1]))[0] == row_of(basis, {Mode(0, 0): 5, Mode(0, 1): 1})
    assert index.rows(np.array([hop, -1]))[1] == -1


def test_key_index_packs_bases_beyond_uniform_widths():
    # 28 modes: uniform 3-bit fields would need 84 bits
    basis = enumerate_basis(6, 7, 0)
    index = KeyIndex.build(basis.occupations)
    assert np.array_equal(index.rows(index.keys), np.arange(basis.size))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=3),
    n_ll=st.integers(min_value=1, max_value=3),
    l_max=st.integers(min_value=0, max_value=5),
)
def test_basis_matches_oracle_property(n, n_ll, l_max):
    basis = enumerate_basis(n, n_ll, l_max)
    _, states = oracle_basis(n, n_ll, l_max)
    assert basis.size == len(states)
    assert sorted(map(tuple, basis.occupations.tolist())) == states
