import numpy as np
import pytest
from itertools import product
from math import factorial, pi, prod, sqrt

from critgyro import melem
from critgyro.cli import main
from critgyro.errors import ParameterError
from critgyro.fock import Mode, enumerate_basis, enumerate_modes
from critgyro.hamiltonian import build_operators
from critgyro.melem import (
    ElementCache,
    pairs_by_total_m,
    integral_i1,
    integral_i2,
)
from oracle import default_rule, make_rule, oracle_i1, oracle_i2, oracle_u, oracle_v


def test_rule_weights_sum_to_one():
    rule = default_rule()
    assert abs(rule.weights.sum() - 1.0) < 1e-12


def test_rule_monomial_exactness_spot():
    rule = make_rule(40)
    for k in (0, 1, 7, 20, 50, 79):
        quad = rule.integrate(rule.nodes**k)
        assert quad == pytest.approx(float(factorial(k)), rel=1e-10)


def test_i1_examples():
    # pinned from the exact Gamma-expansion oracle
    assert oracle_i1((0, 0), (0, 2)) == 2.0
    assert oracle_i1((0, 1), (0, 3)) == 6.0
    assert oracle_i1((1, 0), (0, 2)) == -4.0
    assert integral_i1(Mode(0, 0), Mode(0, 2)) == pytest.approx(2.0, abs=1e-10)
    assert integral_i1(Mode(0, 1), Mode(0, 3)) == pytest.approx(6.0, abs=1e-10)
    assert integral_i1(Mode(1, 0), Mode(0, 2)) == pytest.approx(-4.0, abs=1e-10)


def test_i2_examples():
    assert oracle_i2((0, 0), (0, 0), (0, 0), (0, 0)) == 1.0
    assert oracle_i2((0, 0), (0, 1), (0, 1), (0, 0)) == 1.0
    assert oracle_i2((0, 2), (0, 0), (0, 1), (0, 1)) == 2.0
    g = Mode(0, 0)
    assert integral_i2(g, g, g, g) == pytest.approx(1.0, abs=1e-12)
    assert integral_i2(g, Mode(0, 1), Mode(0, 1), g) == pytest.approx(1.0, abs=1e-12)
    assert integral_i2(Mode(0, 2), g, Mode(0, 1), Mode(0, 1)) == pytest.approx(
        2.0, abs=1e-12
    )


def test_vanishing_integrals_are_exactly_zero():
    # a Q = 40 Gauss-Laguerre sum left 0.028 and -3.9e-10 here, the
    # remainders of terms of order 16! that cancel
    assert integral_i2(Mode(0, 8), Mode(1, 7), Mode(1, 7), Mode(1, 8)) == 0.0
    assert integral_i1(Mode(0, 6), Mode(1, 8)) == 0.0


def test_integrals_reject_odd_m_sums():
    with pytest.raises(ParameterError):
        integral_i1(Mode(0, 0), Mode(0, 1))
    with pytest.raises(ParameterError):
        integral_i2(Mode(0, 0), Mode(0, 0), Mode(0, 0), Mode(0, 1))


def _images(a, b, c, d):
    """The index quadruple under the two-body symmetries: swaps within the
    creation pair, within the annihilation pair, and of the two pairs."""
    return {(a, b, c, d), (b, a, c, d), (a, b, d, c), (b, a, d, c),
            (c, d, a, b), (d, c, a, b), (c, d, b, a), (d, c, b, a)}


def _cached_u(cache, *quad):
    """The cached contact element of the modes `quad` with g divided out:
    the value of its stored image, the least one, or 0.0 where none is
    stored."""
    rows = [cache.modes.index(mode) for mode in quad]
    return cache.u_raw.get(min(_images(*rows)), 0.0)


def _norm(quad) -> float:
    """sqrt of prod n!/(n+|m|)! over the modes, as one int / int quotient."""
    return sqrt(prod(factorial(n) for n, _ in quad)
                / prod(factorial(n + abs(m)) for n, m in quad))


def _h_without_d(ops, g, anisotropy):
    """H(g, A, Omega = 0) of the operators minus their one-body diagonal D,
    dense."""
    return ops.hamiltonian(g, anisotropy, 0.0).toarray() - np.diag(ops.d)


def test_v_selection_rule_and_zero_anisotropy():
    modes = enumerate_modes(2, 3)
    cache = ElementCache.build(modes)
    i = modes.index(Mode(0, 0))
    assert cache.v_raw[i, modes.index(Mode(0, 1))] == 0.0
    assert cache.v_raw[i, modes.index(Mode(0, 3))] == 0.0
    for (i, ki), (j, kj) in product(enumerate(modes), repeat=2):
        if abs(ki.m - kj.m) != 2:
            assert cache.v_raw[i, j] == 0.0
    # at A = 0 (and g = 0) H is its one-body diagonal alone
    basis = enumerate_basis(2, 2, 3)
    ops = build_operators(basis, ElementCache.build(basis.modes))
    assert np.array_equal(_h_without_d(ops, 0.0, 0.0), np.zeros((basis.size,) * 2))


def test_v_element_value():
    # quadrupole element between the condensate mode and m = 2:
    # (A/4) * sqrt(1/2) * 2 = A * sqrt(2)/4, cross-checked by the oracle
    expect = 0.04 * sqrt(2) / 4
    assert oracle_v((0, 0), (0, 2), 0.04) == pytest.approx(expect, rel=1e-12)
    modes = enumerate_modes(2, 3)
    i, j = modes.index(Mode(0, 0)), modes.index(Mode(0, 2))
    assert ElementCache.build(modes).v_raw[i, j] * 0.04 == pytest.approx(
        expect, rel=1e-10
    )


def test_u_conservation_and_values():
    cache = ElementCache.build(enumerate_modes(2, 3))
    m0 = Mode(0, 0)
    m1 = Mode(0, 1)
    assert _cached_u(cache, m0, m0, m0, m1) * 0.5 == 0.0
    # condensate self-interaction: g / (2 pi)
    assert _cached_u(cache, m0, m0, m0, m0) * 0.5 == pytest.approx(
        0.5 / (2 * pi), rel=1e-12
    )
    assert oracle_u((0, 0), (0, 0), (0, 0), (0, 0), 0.5) == pytest.approx(
        0.5 / (2 * pi), rel=1e-12
    )
    # one unit of angular momentum exchanged: extra factor 1/2
    assert _cached_u(cache, m0, m1, m1, m0) * 0.5 == pytest.approx(
        0.5 / (4 * pi), rel=1e-12
    )


def test_u_symmetries():
    """The contact integral, the one factor of an element that is not a
    product over its modes, is the same bits under every two-body symmetry,
    so one stored image serves all eight."""
    rng = np.random.default_rng(3)
    modes = enumerate_modes(2, 4)
    for _ in range(40):
        k1, k2, l1, l2 = (modes[i] for i in rng.integers(0, len(modes), 4))
        if k1.m + k2.m != l1.m + l2.m:
            continue
        base = integral_i2(k1, k2, l1, l2)
        assert integral_i2(k2, k1, l1, l2) == base
        assert integral_i2(k1, k2, l2, l1) == base
        assert integral_i2(l1, l2, k1, k2) == base


def test_v_symmetric_and_linear():
    modes = enumerate_modes(2, 3)
    v_raw = ElementCache.build(modes).v_raw
    i, j = modes.index(Mode(0, 1)), modes.index(Mode(0, 3))
    assert v_raw[i, j] == v_raw[j, i] != 0.0
    assert np.array_equal(v_raw, v_raw.T)
    basis = enumerate_basis(3, 2, 5)
    ops = build_operators(basis, ElementCache.build(basis.modes))
    assert np.allclose(_h_without_d(ops, 0.0, 0.06), 2 * _h_without_d(ops, 0.0, 0.03),
                       rtol=1e-12, atol=0)


def test_u_linear_in_g():
    basis = enumerate_basis(3, 2, 5)
    ops = build_operators(basis, ElementCache.build(basis.modes))
    assert np.allclose(_h_without_d(ops, 0.25, 0.0), 0.25 * _h_without_d(ops, 1.0, 0.0),
                       rtol=1e-12, atol=0)


def test_quadrature_matches_oracle_over_small_mode_set():
    modes = enumerate_modes(2, 4)
    for k1 in modes:
        for k2 in modes:
            if (abs(k1.m) + abs(k2.m)) % 2:
                continue
            assert integral_i1(k1, k2) == pytest.approx(
                oracle_i1(k1, k2), rel=1e-9, abs=1e-9
            )


def test_cache_matches_free_functions():
    """The cache against the oracle's own element functions, image by
    image."""
    modes = enumerate_modes(2, 3)
    cache = ElementCache.build(modes)
    for i, k1 in enumerate(modes):
        for j, k2 in enumerate(modes):
            assert cache.v_raw[i, j] * 0.05 == pytest.approx(
                oracle_v(k1, k2, 0.05), rel=1e-12, abs=1e-15
            )
    covered = set()
    for key, raw in cache.u_raw.items():
        for a, b, c, d in _images(*key):
            assert raw * 0.5 == pytest.approx(
                oracle_u(modes[a], modes[b], modes[c], modes[d], 0.5),
                rel=1e-12, abs=1e-15,
            )
        covered |= _images(*key)
    # every quadruple that conserves m is an image of a stored key, and
    # every other one has a vanishing element
    nm = len(modes)
    for quad in np.ndindex(nm, nm, nm, nm):
        a, b, c, d = (modes[t] for t in quad)
        conserving = a.m + b.m == c.m + d.m
        assert (quad in covered) == conserving
        if not conserving:
            assert oracle_u(a, b, c, d, 0.5) == 0.0


def test_cache_equals_free_functions_exactly_on_production_modes():
    """Each stored element is the product of its norm, its |m| factor and
    the integral `integral_i1` or `integral_i2` of its modes, bit for bit,
    and a contact element reads the same for its modes in reverse."""
    modes = enumerate_basis(6, 2, 8).modes
    cache = ElementCache.build(modes)
    for i, k1 in enumerate(modes):
        for j, k2 in enumerate(modes):
            expect = 0.25 * _norm((k1, k2)) * integral_i1(k1, k2) \
                if abs(k1.m - k2.m) == 2 else 0.0
            assert cache.v_raw[i, j] == expect
    assert len(cache.u_raw) == 1330
    for key, raw in cache.u_raw.items():
        a, b, c, d = key
        assert a <= b and c <= d and (a, b) <= (c, d)
        quad = [modes[t] for t in key]
        s = sum(abs(m) for _, m in quad)
        assert raw == 2.0 ** (-s / 2) / (2 * pi) * _norm(quad) * integral_i2(*quad)
        assert raw == 2.0 ** (-s / 2) / (2 * pi) * _norm(quad) * integral_i2(*quad[::-1])


@pytest.mark.parametrize("n_ll, l_max", [(3, 5), (4, 2)])
def test_cache_equals_the_oracle_exactly_beyond_the_lowest_two_levels(n_ll, l_max):
    """Modes with n >= 2 expand Laguerre factors of degree 2 and 3, which
    the production modes (n <= 1) never reach. The rational oracle's I2 is
    correctly rounded, and so is every exact division, so they agree bit for
    bit."""
    modes = enumerate_modes(n_ll, l_max)
    assert max(n for n, _ in modes) == n_ll - 1
    cache = ElementCache.build(modes)
    for key, raw in cache.u_raw.items():
        quad = [modes[t] for t in key]
        s = sum(abs(m) for _, m in quad)
        assert raw == 2.0 ** (-s / 2) / (2 * pi) * _norm(quad) * oracle_i2(*quad), key


def test_cache_forms_each_pair_factor_once(monkeypatch):
    """The bulk path forms one pair factor per mode pair, and no key expands
    Laguerre factors of its own."""
    modes = enumerate_basis(6, 2, 8).modes
    real_pair, real_laguerre = melem._pair_factor, melem._laguerre_ints
    pairs, halved = [], []

    def counting_pair(ka, kb):
        pairs.append((modes.index(ka), modes.index(kb)))
        return real_pair(ka, kb)

    def counting_laguerre(n, alpha, halve):
        halved.append(halve)
        return real_laguerre(n, alpha, halve)

    monkeypatch.setattr(melem, "_pair_factor", counting_pair)
    monkeypatch.setattr(melem, "_laguerre_ints", counting_laguerre)
    cache = ElementCache.build(modes)
    expected = [pair for group in pairs_by_total_m(modes).values() for pair in group]
    assert len(expected) == 190 and len(cache.u_raw) == 1330
    assert sorted(pairs) == sorted(expected)
    assert halved.count(True) == 2 * len(expected)


def test_cache_dump(tmp_path):
    """`critgyro curve --dump-elements` writes the raw tables of the cache
    over its basis's modes."""
    cache = ElementCache.build(enumerate_modes(2, 2))
    path = tmp_path / "elements.csv"
    assert main(["curve", "--n", "2", "--l-max", "2", "--g", "0.5", "--A", "0.04",
                 "--grid", "0.8:0.9:3", "--out", str(tmp_path / "curve.csv"),
                 "--dump-elements", str(path)]) == 0
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "kind,i,j,k,l,raw"
    v_dumped, u_dumped = {}, {}
    for line in lines[1:]:
        kind, *index, raw = line.split(",")
        if kind == "V":
            v_dumped[int(index[0]), int(index[1])] = float(raw)
        else:
            assert kind == "U"
            u_dumped[tuple(map(int, index))] = float(raw)
    # every raw field parses as a number and round-trips bit for bit
    assert v_dumped and u_dumped
    assert v_dumped == {(i, j): cache.v_raw[i, j] for i, j in zip(*np.nonzero(cache.v_raw))}
    assert u_dumped == cache.u_raw
