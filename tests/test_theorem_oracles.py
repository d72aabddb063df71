"""Cohomology dimensions that theorems fix in closed form.

These answers hold at sizes where no dense oracle of the differentials can
run, so they check the builders and the elimination on their own terms:

* Kuenneth and Hopf: H*(sl2) with trivial coefficients is the exterior
  algebra on one generator of degree 3, so H*(sl2^k) is the exterior
  algebra on k generators of degree 3;
* cone splitting: with d = 0 and trivial coefficients with d_V = 0, the
  connecting map delta and the operator's twist of rho vanish, so the
  combined complex is C_ce (+) C_ce[-1] at every weight and
  H^n = H^n(g) + H^(n-1)(g);
* Whitehead: a semisimple algebra has no cohomology with coefficients in
  its adjoint representation, so the combined complex with d = 0 and
  weight 0 is acyclic.

Each case runs in the catalog basis and again after a seeded unimodular
change of basis, which leaves every dimension unchanged but destroys the
sparsity that the catalog basis gives the differentials.
"""

from random import Random

import pytest

from difflie.cohomology import CochainComplexSpec, cohomology_dims
from difflie.linalg import Matrix
from difflie.liealg import adjoint_rep
from samples import (WEIGHTS, conjugate_diff_lie, diff_lie, direct_sum,
                     heisenberg, rand_unimodular, sl2, trivial_rep)


def sl2_sum(k):
    L = sl2()
    for _ in range(k - 1):
        L = direct_sum(L, sl2())
    return L


def zero_operator(L, lam=0):
    return diff_lie(L, Matrix.zero(L.dim, L.dim), lam)


def in_basis(A, scrambled):
    """A itself, or A in a seeded unimodular basis that moves its bracket."""
    if not scrambled:
        return A
    B = conjugate_diff_lie(A, rand_unimodular(Random(A.dim), A.dim,
                                              steps=4 * A.dim))
    assert B.algebra.bracket != A.algebra.bracket
    return B


def dims_H(A, rep, flavor, max_degree):
    return cohomology_dims(CochainComplexSpec(A, rep, flavor, max_degree))


@pytest.mark.parametrize("scrambled", [False, True],
                         ids=["catalog", "scrambled"])
@pytest.mark.parametrize("k, betti", [(2, [1, 0, 0, 2, 0, 0, 1]),
                                      (3, [1, 0, 0, 3, 0, 0, 3])])
def test_kuenneth_hopf(k, betti, scrambled):
    A = in_basis(zero_operator(sl2_sum(k)), scrambled)
    assert dims_H(A, trivial_rep(A, 1), "ce", 7) == betti


@pytest.mark.parametrize("scrambled", [False, True],
                         ids=["catalog", "scrambled"])
@pytest.mark.parametrize("name, L, want", [
    ("sl2+sl2", sl2_sum(2), [1, 1, 0, 2, 2, 0]),
    ("heisenberg", heisenberg(), [1, 3, 4])], ids=["sl2+sl2", "heisenberg"])
def test_cone_splitting(name, L, want, scrambled):
    for lam in WEIGHTS:
        A = in_basis(zero_operator(L, lam), scrambled)
        assert dims_H(A, trivial_rep(A, 1), "difflie", len(want)) == want, \
            (name, lam)


@pytest.mark.parametrize("k, scrambled, max_degree", [
    (2, False, 4), (3, False, 4), (2, True, 3)],
    ids=["sl2+sl2", "sl2^3", "sl2+sl2-scrambled"])
def test_whitehead(k, scrambled, max_degree):
    A = in_basis(zero_operator(sl2_sum(k)), scrambled)
    assert dims_H(A, adjoint_rep(A), "difflie", max_degree) == \
        [0] * max_degree
