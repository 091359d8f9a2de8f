"""Sorted-array intersection kernels.

WCO plans spend essentially all of their time intersecting adjacency lists.
The paper performs "iterative 2-way in-tandem intersections" over lists that
are sorted by vertex id; we expose the same primitives here, implemented on
NumPy arrays so that the Python reproduction stays tractable on non-trivial
graphs.

Two kernels are provided and :func:`intersect_sorted` picks between them:

* a merge-style kernel (``np.intersect1d``), linear in the combined length,
  which wins when the two lists have comparable sizes, and
* a galloping kernel (:func:`intersect_sorted_gallop`) that binary-probes the
  larger list once per element of the smaller list, ``O(s log L)``, which wins
  on skewed list pairs — exactly the regime the paper's i-cost model rewards
  (a hub's adjacency list intersected with a low-degree vertex's).

The crossover follows the textbook cost comparison
``s * log2(L) < s + L``.

Under the galloping kernel sits one membership kernel: :func:`locate_sorted`
/ :func:`member_sorted`.  The batch operators of
:mod:`repro.executor.vectorized` test membership in a :class:`KeySet`
instead: the same sorted codes behind a one-hash bit filter, which rejects
most absent probes before :func:`locate_sorted` binary-searches the rest.
The answer is exactly :func:`member_sorted`'s; only the work differs.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

_EMPTY = np.array([], dtype=np.int64)
# The empty singleton is shared by every kernel; freeze it so a caller that
# mutates a returned "empty" result gets a loud ValueError instead of silently
# corrupting every later empty intersection.
_EMPTY.setflags(write=False)


def _as_int64(a) -> np.ndarray:
    """Return ``a`` as an int64 array without copying when it already is one."""
    if isinstance(a, np.ndarray) and a.dtype == np.int64:
        return a
    return np.asarray(a, dtype=np.int64)


def locate_sorted(sorted_keys: np.ndarray, probe: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Binary-probe every element of ``probe`` into ``sorted_keys``.

    Returns ``(loc, hit)``: ``hit[i]`` says whether ``probe[i]`` occurs in
    ``sorted_keys`` and, where it does, ``loc[i]`` is its (leftmost) position.
    One ``searchsorted`` plus a clamped gather-compare: a probe above the last
    key is clamped onto it, where the compare fails by itself, so no
    validity mask is built.  This is the one membership kernel under the batch
    operators (SCAN extra-edge checks, E/I survivor filters, HASH-JOIN probe
    and post-filter) and the galloping intersection.
    """
    if len(sorted_keys) == 0:
        return np.zeros(len(probe), dtype=np.intp), np.zeros(len(probe), dtype=bool)
    loc = np.searchsorted(sorted_keys, probe)
    np.minimum(loc, len(sorted_keys) - 1, out=loc)
    return loc, sorted_keys[loc] == probe


def member_sorted(sorted_keys: np.ndarray, probe: np.ndarray) -> np.ndarray:
    """Vectorized ``probe in sorted_keys`` (boolean mask over ``probe``)."""
    return locate_sorted(sorted_keys, probe)[1]


# Fibonacci multiplier (2^64 / golden ratio, odd) for multiply-shift hashing.
_MULTIPLIER = np.uint64(0x9E3779B97F4A7C15)
_BITS_PER_KEY = 16


class KeySet:
    """Sorted ``int64`` codes with a one-hash bit filter in front of them.

    The filter has one bit per slot of a power-of-two table of at least
    ``16 * len(codes)`` slots (2-4 bytes per code); a code sets the bit at
    the top bits of ``code * _MULTIPLIER`` (multiply-shift).  :meth:`contains`
    tests that bit first and runs :func:`member_sorted` only on the probes
    whose bit is set: every code's bit is set, so no member is rejected,
    and at 16 or more slots per code at most ~6 % of absent probes pass.
    The bit test is one load per probe; a binary search into 130 k codes is
    ~17 dependent ones.  Duplicate codes are allowed.
    """

    __slots__ = ("codes", "_bits", "_shift")

    def __init__(self, codes: np.ndarray) -> None:
        codes = _as_int64(codes)
        codes.setflags(write=False)
        self.codes = codes
        table_bits = (_BITS_PER_KEY * len(codes) - 1).bit_length()
        self._shift = np.uint64(64 - table_bits)
        slots = np.zeros(1 << table_bits, dtype=bool)
        slots[self._slots(codes)] = True
        self._bits = np.packbits(slots, bitorder="little")

    def _slots(self, values: np.ndarray) -> np.ndarray:
        slot = values.view(np.uint64) * _MULTIPLIER
        slot >>= self._shift
        return slot

    def contains(self, probe: np.ndarray) -> np.ndarray:
        """Vectorized ``probe in codes`` (boolean mask over ``probe``)."""
        probe = _as_int64(probe)
        if len(self.codes) == 0:
            return np.zeros(len(probe), dtype=bool)
        slot = self._slots(probe)
        # The byte index is below the table size, so its uint64 bits read as
        # the same int64, which numpy indexes with without a conversion pass.
        byte = self._bits[(slot >> np.uint64(3)).view(np.int64)]
        passed = ((byte >> (slot.astype(np.uint8) & np.uint8(7))) & np.uint8(1)).view(bool)
        candidates = np.flatnonzero(passed)
        passed[candidates] = member_sorted(self.codes, probe[candidates])
        return passed


def intersect_sorted_gallop(small: np.ndarray, large: np.ndarray) -> np.ndarray:
    """Galloping intersection of two sorted, duplicate-free int arrays.

    Every element of ``small`` is located in ``large`` with a binary probe
    (:func:`member_sorted` vectorises the probes; each is the endpoint of the
    exponential "gallop" an LFTJ-style seek performs).  Cost is
    ``O(len(small) * log2(len(large)))``, so it beats the linear merge when
    ``small`` is much shorter than ``large``.
    """
    if len(small) == 0 or len(large) == 0:
        return _EMPTY
    return small[member_sorted(large, small)]


def intersect_sorted(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Intersect two sorted, duplicate-free int arrays.

    Selects the galloping kernel when the skew makes binary probes cheaper
    than the in-tandem merge (``s * log2(L) < s + L``); otherwise falls back
    to the merge-style kernel.  Returns a sorted array either way.
    """
    la, lb = len(a), len(b)
    if la == 0 or lb == 0:
        return _EMPTY
    small, large = (a, b) if la <= lb else (b, a)
    if len(small) * math.log2(len(large)) < len(small) + len(large):
        return intersect_sorted_gallop(small, large)
    # np.intersect1d with assume_unique uses sorting/searchsorted internally,
    # which is the vectorised analogue of the in-tandem merge.
    return np.intersect1d(a, b, assume_unique=True)


def intersect_multiway(lists: Sequence[np.ndarray]) -> np.ndarray:
    """Intersect any number of sorted lists via iterative 2-way intersections.

    Lists are processed smallest-first, which mirrors the standard WCOJ
    optimisation of seeding the intersection with the most selective list.
    """
    if not lists:
        return _EMPTY
    ordered: List[np.ndarray] = sorted((_as_int64(l) for l in lists), key=len)
    result = ordered[0]
    for other in ordered[1:]:
        if len(result) == 0:
            return _EMPTY
        result = intersect_sorted(result, other)
    return result


def contains_sorted(a: np.ndarray, value: int) -> bool:
    """Binary-search membership test on a sorted array (the scalar form of
    :func:`member_sorted`, for the tuple-at-a-time operators)."""
    pos = np.searchsorted(a, value)
    return bool(pos < len(a) and a[pos] == value)
