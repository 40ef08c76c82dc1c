"""Partition combinatorics: enumeration, conjugates, hooks and contents.

Partitions are plain tuples of weakly decreasing positive integers, e.g.
``(3, 1, 1)``; the empty partition is ``()``.  Cells are 1-based ``(i, j)``
pairs, row ``i`` and column ``j``, and the content of a cell is ``j - i``.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import prod

Partition = tuple


def check_partition(parts) -> Partition:
    lam = tuple(int(p) for p in parts)
    if any(p < 1 for p in lam):
        raise ValueError(f"partition parts must be positive: {lam}")
    if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {lam}")
    return lam


def _check_skew(outer, inner) -> tuple[Partition, Partition]:
    """The checked pair (outer, inner) of a skew shape outer/inner; refuses an inner not contained in outer."""
    outer, inner = check_partition(outer), check_partition(inner)
    if not contains(outer, inner):
        raise ValueError(f"inner {inner} not contained in outer {outer}")
    return outer, inner


@cache
def partitions_of(n: int) -> tuple[Partition, ...]:
    """All partitions of n, reverse-lex (largest part first): one read-only tuple per grade, built once from lower ones."""
    if n == 0:
        return ((),)
    return tuple((k,) + rest for k in range(n, 0, -1) for rest in partitions_of(n - k) if not rest or rest[0] <= k)


def enumerate_up_to(d: int) -> list[Partition]:
    """All partitions of weight 0..d, grade ascending then reverse-lex, in a new list over the cached grades."""
    if d < 0:
        raise ValueError("d must be >= 0")
    return [lam for n in range(d + 1) for lam in partitions_of(n)]


def conjugate(lam: Partition) -> Partition:
    if not lam:
        return ()
    cols = [0] * lam[0]
    for part in lam:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def cells(lam: Partition) -> list[tuple[int, int]]:
    return [(i, j) for i, part in enumerate(lam, start=1) for j in range(1, part + 1)]


def contents(lam: Partition) -> list[int]:
    return [j - i for i, j in cells(lam)]


def contains(outer: Partition, inner: Partition) -> bool:
    if len(inner) > len(outer):
        return False
    return all(inner[i] <= outer[i] for i in range(len(inner)))


def hook_lengths(lam: Partition) -> tuple:
    conj = conjugate(lam)
    return tuple(lam[i - 1] + conj[j - 1] - i - j + 1 for i, j in cells(lam))


def n_statistic(lam: Partition) -> int:
    return sum((i - 1) * part for i, part in enumerate(lam, start=1))


def hook_data(lam: Partition, q: Fraction | None = None) -> Fraction:
    """The hook product of lam: H = prod h at q = None, H(q) = prod (1 - q^h) otherwise."""
    if q == 0:
        raise ValueError("q must be nonzero")
    hooks = hook_lengths(lam)
    if q is None:
        return Fraction(prod(hooks))
    # prod (1 - (a/b)^h) = prod (b^h - a^h) / b^(sum h), reduced once
    a, b = Fraction(q).as_integer_ratio()
    return Fraction(prod(b**h - a**h for h in hooks), b ** sum(hooks))
