"""Single-particle modes and the truncated many-body Fock basis.

A mode is labelled k = (n, m): radial (Landau) index n and angular momentum
m in units of hbar. Two truncations define the basis of N-boson states:

  * Landau-level cap: 1 + sum over particles of [n + (|m| - m)/2] <= n_LL,
  * total angular momentum L = sum(m_k N_k) <= L_max.

With the default n_LL = 2 the whole state may carry at most one unit of
radial excitation or one particle at m = -1.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .errors import ParameterError


class Mode(NamedTuple):
    n: int
    m: int


def landau_weight(mode: Mode) -> int:
    """Landau index n + (|m| - m)/2 of a single-particle mode."""
    n, m = mode
    return n + (abs(m) - m) // 2


def enumerate_modes(n_ll: int, l_max: int) -> list[Mode]:
    """All modes with landau_weight <= n_ll - 1 and m <= l_max, sorted by (n, m)."""
    if n_ll < 1:
        raise ParameterError(f"n_ll must be >= 1, got {n_ll}")
    if l_max < 0:
        raise ParameterError(f"l_max must be >= 0, got {l_max}")
    modes = []
    for n in range(n_ll):
        # negative m costs (|m| - m)/2 = -m units of weight, so m >= n - (n_ll - 1)
        for m in range(-(n_ll - 1 - n), l_max + 1):
            modes.append(Mode(n, m))
    return sorted(modes)


@dataclass(frozen=True)
class FockBasis:
    """Ordered truncated basis. Rows are found through `key_index`.

    Three parameter-free tables are built on first use and kept on the
    instance, read-only: `key_index`, `zero_momentum_mask` and
    `spdm_hop_table`.
    """

    n_particles: int
    n_ll: int
    l_max: int
    modes: tuple[Mode, ...]
    occupations: np.ndarray  # (size, n_modes) int64
    L: np.ndarray            # (size,) int64 total angular momentum

    @property
    def size(self) -> int:
        return self.occupations.shape[0]

    @cached_property
    def key_index(self) -> "KeyIndex":
        """`KeyIndex` of the occupations."""
        return KeyIndex.build(self.occupations)

    @cached_property
    def zero_momentum_mask(self) -> np.ndarray:
        """Read-only boolean mask of states whose particles all sit at m = 0."""
        nonzero_m = np.array([mode.m != 0 for mode in self.modes])
        mask = ~(self.occupations[:, nonzero_m].any(axis=1))
        mask.flags.writeable = False
        return mask

    @cached_property
    def spdm_hop_table(self) -> tuple[np.ndarray, np.ndarray, sp.csr_matrix]:
        """(src, tgt, table_t): every move h of one particle from mode k to a
        mode l > k, from basis row src[h] to row tgt[h], and the CSR matrix
        table_t whose entry [k * n_modes + l, h] is its amplitude
        sqrt(n_k (n_l + 1)). Every array is read-only."""
        occ = self.occupations
        nm = occ.shape[1]
        index = self.key_index
        hops = []
        for k in range(nm):
            tgt, src, q, amp = ladder_entries(occ, index, [k], np.arange(k + 1, nm)[:, None])
            hops.append((src, tgt, k * nm + k + 1 + q, amp))
        src, tgt, slot, amp = (np.concatenate(x) for x in zip(*hops))
        table_t = sp.csr_matrix((amp, (slot, np.arange(len(amp)))), shape=(nm * nm, len(amp)))
        for arr in (src, tgt, table_t.data, table_t.indices, table_t.indptr):
            arr.flags.writeable = False
        return src, tgt, table_t


def enumerate_basis(n_particles: int, n_ll: int, l_max: int) -> FockBasis:
    """Enumerate every N-particle state surviving both truncations.

    States are ordered by (total L, lexicographic occupations over the sorted
    mode list), which keeps the L blocks contiguous.
    """
    if n_particles < 0:
        raise ParameterError(f"n_particles must be >= 0, got {n_particles}")
    modes = enumerate_modes(n_ll, l_max)
    weights = [landau_weight(mode) for mode in modes]
    ms = [mode.m for mode in modes]
    n_modes = len(modes)
    # suffix minima of m for pruning the L bound during the scan
    suf_min = [0] * (n_modes + 1)
    for i in range(n_modes - 1, -1, -1):
        suf_min[i] = min(ms[i], suf_min[i + 1]) if i < n_modes - 1 else ms[i]

    found: list[tuple[int, tuple[int, ...]]] = []
    occ = [0] * n_modes

    def scan(i: int, left: int, wleft: int, lsum: int) -> None:
        if left == 0:
            if lsum <= l_max:
                found.append((lsum, tuple(occ)))
            return
        if i == n_modes:
            return
        if lsum + left * suf_min[i] > l_max:
            return  # even all-minimal-m placements overshoot L_max
        max_count = left if weights[i] == 0 else min(left, wleft // weights[i])
        for c in range(max_count + 1):
            occ[i] = c
            scan(i + 1, left - c, wleft - c * weights[i], lsum + c * ms[i])
        occ[i] = 0

    scan(0, n_particles, n_ll - 1, 0)
    del scan  # its closure holds itself, and `found` with it, until a full GC
    found.sort()
    occupations = np.array([s for _, s in found], dtype=np.int64).reshape(
        len(found), n_modes
    )
    L = np.array([l for l, _ in found], dtype=np.int64)
    return FockBasis(
        n_particles=n_particles,
        n_ll=n_ll,
        l_max=l_max,
        modes=tuple(modes),
        occupations=occupations,
        L=L,
    )


@dataclass(frozen=True)
class KeyIndex:
    """Basis rows of occupation vectors, found through int64 keys.

    Each mode holds a bit field just wide enough for its largest occupation
    in the basis, so keys are exact for every vector within those caps; a
    vector above a cap lies outside the basis. Moving particles between
    modes changes a key by sums of `shifts`. Every array is read-only.
    """

    shifts: np.ndarray  # (n_modes,) key of one particle in each mode
    caps: np.ndarray    # (n_modes,) largest occupation of each mode
    keys: np.ndarray    # (size,) key of each basis row
    _sorted: np.ndarray = field(repr=False)
    _order: np.ndarray = field(repr=False)

    @classmethod
    def build(cls, occupations: np.ndarray) -> "KeyIndex":
        occupations = np.asarray(occupations, dtype=np.int64)
        caps = occupations.max(axis=0, initial=0)
        widths = [int(c).bit_length() for c in caps]
        if sum(widths) > 63:
            raise ParameterError(
                f"occupations need {sum(widths)} key bits, more than int64 holds"
            )
        offsets = np.cumsum([0] + widths[:0:-1])[::-1]
        shifts = np.left_shift(np.int64(1), offsets.astype(np.int64))
        keys = occupations @ shifts
        order = np.argsort(keys, kind="stable")
        index = cls(shifts=shifts, caps=caps, keys=keys, _sorted=keys[order], _order=order)
        for arr in (shifts, caps, keys, index._sorted, order):
            arr.flags.writeable = False
        return index

    def rows(self, keys: np.ndarray) -> np.ndarray:
        """Row of each key, -1 where no basis state has it."""
        pos = np.minimum(np.searchsorted(self._sorted, keys), len(self._sorted) - 1)
        return np.where(self._sorted[pos] == keys, self._order[pos], -1)


def ladder_entries(occupations: np.ndarray, index: KeyIndex, ann, cre):
    """Nonzero elements <t| a+_cre[q,0] a+_cre[q,1] .. a_ann[0] a_ann[1] .. |s>.

    Operators act right to left on every basis state s, for every row q of
    the (Q, r) creation array `cre` at once. Returns (t, s, q, amplitude)
    arrays, row-major in (s, q). Targets that leave the basis are dropped:
    the operator is projected onto the basis.
    """
    ann = np.asarray(ann, dtype=np.int64)
    cre = np.asarray(cre, dtype=np.int64)
    src = np.arange(occupations.shape[0])
    amp = np.ones(len(src))
    for pos in range(len(ann) - 1, -1, -1):
        n = occupations[src, ann[pos]] - np.count_nonzero(ann[pos + 1:] == ann[pos])
        keep = n > 0
        src, amp = src[keep], amp[keep] * np.sqrt(n[keep])
    occ = occupations[src]
    key = (index.keys[src] - index.shifts[ann].sum())[:, None]
    amp = amp[:, None]
    inside = np.ones((len(src), len(cre)), dtype=bool)
    for pos in range(cre.shape[1] - 1, -1, -1):
        modes = cre[:, pos]
        n = (occ[:, modes]
             - (ann[None, :] == modes[:, None]).sum(axis=1)
             + (cre[:, pos + 1:] == modes[:, None]).sum(axis=1))
        amp = amp * np.sqrt(n + 1.0)
        key = key + index.shifts[modes]
        inside &= n < index.caps[modes]
    rows = np.where(inside, index.rows(np.where(inside, key, -1)), -1)
    s_hit, q_hit = np.nonzero(rows >= 0)
    return rows[s_hit, q_hit], src[s_hit], q_hit, amp[s_hit, q_hit]
