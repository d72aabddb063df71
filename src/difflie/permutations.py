"""Shuffles and Koszul signs.

Permutations are tuples ``images`` with ``images[k] = sigma(k+1)``, i.e.
1-based bijections of {1..n} stored 0-indexed.  Shuffle enumeration is
lexicographic in the position subsets of the blocks, so all downstream sums
are deterministic.
"""

from functools import lru_cache
from itertools import combinations


class LengthMismatch(Exception):
    pass


def koszul_sign(images, degrees):
    """epsilon(sigma; x_1..x_n) for x_i of the given degrees.

    Defined by x_1 (.) ... (.) x_n = eps * x_{s(1)} (.) ... (.) x_{s(n)} in
    the graded symmetric algebra: a factor (-1)^{|x_s(i)||x_s(j)|} for every
    inversion i < j with s(i) > s(j).
    """
    if len(images) != len(degrees):
        raise LengthMismatch("permutation and degree vector lengths differ")
    exp = 0
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j]:
                exp += degrees[images[i] - 1] * degrees[images[j] - 1]
    return -1 if exp % 2 else 1


def shuffles(block_sizes):
    """All (i_1,...,i_r)-shuffles of {1..n}, n = sum of block sizes.

    A shuffle is increasing on each block of positions
    [1..i_1], [i_1+1..i_1+i_2], ...  Enumeration: choose the value subset of
    each successive block, lexicographically.  The enumeration is memoized
    per block tuple; each call returns a fresh list.
    """
    return list(_shuffles(tuple(block_sizes)))


@lru_cache(maxsize=None)
def _shuffles(block_sizes):
    n = sum(block_sizes)
    out = []

    def rec(remaining, prefix):
        if not remaining:
            out.append(tuple(prefix))
            return
        k = remaining[0]
        for subset in combinations(sorted(set(range(1, n + 1)) - set(prefix)), k):
            rec(remaining[1:], prefix + list(subset))

    rec(list(block_sizes), [])
    return tuple(out)
