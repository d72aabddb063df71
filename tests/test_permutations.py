import random
from math import comb

import pytest

from difflie.permutations import LengthMismatch, koszul_sign, shuffles


def signature(images):
    """Sign of the permutation, +1 or -1."""
    n = len(images)
    sign = 1
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j]:
                sign = -sign
    return sign


def is_permutation(images):
    return sorted(images) == list(range(1, len(images) + 1))


def chi_sign(images, degrees):
    """chi(sigma) = epsilon(sigma) * sgn(sigma)."""
    return koszul_sign(images, degrees) * signature(images)


def multinomial(block_sizes):
    n = sum(block_sizes)
    total = 1
    for k in block_sizes:
        total *= comb(n, k)
        n -= k
    return total


def compose(sigma, tau):
    # (sigma tau)(k) = sigma(tau(k))
    return tuple(sigma[tau[k] - 1] for k in range(len(tau)))


def test_signature_basics():
    assert signature((1, 2, 3)) == 1
    assert signature((2, 1, 3)) == -1
    assert signature((2, 3, 1)) == 1  # 3-cycle = two transpositions


def test_shuffles_1_1():
    assert set(shuffles((1, 1))) == {(1, 2), (2, 1)}


def test_shuffles_2_1():
    out = shuffles((2, 1))
    assert len(out) == 3
    assert set(out) == {(1, 2, 3), (1, 3, 2), (2, 3, 1)}


def test_shuffles_empty_block():
    assert shuffles((0, 3)) == [(1, 2, 3)]


def test_shuffles_block_increasing_and_count():
    for blocks in [(2, 2), (1, 2, 1), (3, 1), (2, 1, 2)]:
        out = shuffles(blocks)
        assert len(out) == multinomial(blocks)
        assert len(set(out)) == len(out)
        for sigma in out:
            assert is_permutation(sigma)
            start = 0
            for b in blocks:
                chunk = sigma[start:start + b]
                assert list(chunk) == sorted(chunk)
                start += b


def test_koszul_even_degrees():
    degs = [0, 0, 0]
    for sigma in shuffles((1, 1, 1)):
        assert koszul_sign(sigma, degs) == 1


def test_koszul_odd_swap():
    assert koszul_sign((2, 1), [1, 1]) == -1
    assert koszul_sign((2, 1), [1, 2]) == 1
    assert koszul_sign((2, 1), [2, 2]) == 1


def test_koszul_length_mismatch():
    with pytest.raises(LengthMismatch):
        koszul_sign((1, 2), [0])


def test_chi_sign():
    assert chi_sign((1, 2), [0, 0]) == 1
    assert chi_sign((2, 1), [0, 0]) == -1
    assert chi_sign((2, 1), [1, 1]) == 1
    for sigma in shuffles((2, 1)):
        for degs in [[0, 1, 2], [1, 1, 1]]:
            assert chi_sign(sigma, degs) == \
                koszul_sign(sigma, degs) * signature(sigma)


def test_koszul_multiplicative():
    rng = random.Random(7)
    n = 4
    for _ in range(40):
        sigma = tuple(rng.sample(range(1, n + 1), n))
        tau = tuple(rng.sample(range(1, n + 1), n))
        degs = [rng.randrange(0, 3) for _ in range(n)]
        # degrees seen by sigma are those of the tau-reordered arguments
        degs_tau = [degs[tau[k] - 1] for k in range(n)]
        lhs = koszul_sign(compose(tau, sigma), degs)
        rhs = koszul_sign(sigma, degs_tau) * koszul_sign(tau, degs)
        assert lhs == rhs
