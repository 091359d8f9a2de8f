"""Pure-Python reference kernels that the intersection tests check the NumPy
kernels of :mod:`repro.graph.intersect` against (and that document the
textbook algorithms)."""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np


def gallop_search(arr: Sequence[int], value: int, lo: int = 0) -> int:
    """Exponential-then-binary search: the insertion point of ``value`` in the
    sorted ``arr`` at or after ``lo`` (the textbook gallop of LFTJ seeks)."""
    n = len(arr)
    if lo >= n or arr[lo] >= value:
        return lo
    step = 1
    while lo + step < n and arr[lo + step] < value:
        step *= 2
    left, right = lo + step // 2, min(lo + step, n)
    while left < right:
        mid = (left + right) // 2
        if arr[mid] < value:
            left = mid + 1
        else:
            right = mid
    return left


def intersect_sorted_gallop_python(
    small: Iterable[int], large: Iterable[int]
) -> List[int]:
    """Galloping intersection: one :func:`gallop_search` per element of
    ``small``, each starting where the previous one stopped."""
    small = list(small)
    large = list(large)
    out: List[int] = []
    pos = 0
    for value in small:
        pos = gallop_search(large, value, pos)
        if pos == len(large):
            break
        if large[pos] == value:
            out.append(value)
            pos += 1
    return out


def intersect_sorted_python(a: Iterable[int], b: Iterable[int]) -> List[int]:
    """In-tandem merge of two sorted lists."""
    a = list(a)
    b = list(b)
    i = j = 0
    out: List[int] = []
    while i < len(a) and j < len(b):
        if a[i] == b[j]:
            out.append(a[i])
            i += 1
            j += 1
        elif a[i] < b[j]:
            i += 1
        else:
            j += 1
    return out


def is_sorted_unique(a: np.ndarray) -> bool:
    """True when ``a`` is strictly increasing (sorted and duplicate free)."""
    a = np.asarray(a)
    return bool(len(a) < 2 or np.all(a[1:] > a[:-1]))
