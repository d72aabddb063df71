import random
from fractions import Fraction

import pytest
from hypothesis import settings

# Property tests draw the same examples on every run (no example database,
# no wall-clock deadline), so the suite stays deterministic and its running
# time stays fixed.
settings.register_profile("difflie", derandomize=True, deadline=None,
                          max_examples=20, database=None)
settings.load_profile("difflie")


@pytest.fixture
def rng():
    return random.Random(20260823)


def basis_of_degree(space, deg):
    """The basis indices of a graded space that sit in degree deg."""
    return [i for i in range(space.dim) if space.degrees[i] == deg]


def exact_scalar(x):
    """The scalar contract of difflie.linalg: an int, or a Fraction whose
    value is not integral; never a float, a bool or a Fraction of
    denominator 1."""
    return type(x) is int or type(x) is Fraction and x.denominator != 1


def filled(f, coeffs):
    """The map f with the coefficient table {key: vector} set key by key,
    through the validating item assignment."""
    for key, vec in coeffs.items():
        f[key] = vec
    return f


def kernel_basis(m):
    """Exact basis of the right null space of the Matrix m, read off its
    reduced row echelon form; len = cols - rank."""
    R, pivots = m.rref()
    pivot_set = set(pivots)
    basis = []
    for fc in (c for c in range(m.cols) if c not in pivot_set):
        v = [0] * m.cols
        v[fc] = 1
        for r, pc in enumerate(pivots):
            v[pc] = -R.data[r][fc]
        basis.append(v)
    return basis
