"""The cochain differentials built from the structure constants equal the
column-by-column matrices of ce_apply and delta_apply, the insertion kernel.

The oracle feeds every basis cochain through the cochain-level maps and
reads off its image.  Those maps are calls of nr: delta is the pointed
insertion of d minus d_V after the cochain, and d_ce the NR bracket with
the bracket of the semidirect product g (+) V.  So the direct builders,
which write the same entries from the bracket constants, rho, d and d_V,
are certified against the kernel that every axiom residual reads.  They must agree entry for entry on
catalog and scrambled algebras, weight 0 and a rational weight, dense
conjugated operators, non-adjoint coefficients with a nonzero d_V, and
degrees where the cochain space is empty.
"""

import random
from fractions import Fraction

import pytest

from conftest import exact_scalar
from difflie.cohomology import (altmap_to_coords, ce_apply, ce_differential,
                                cochain_dim, coords_to_altmap, delta_apply,
                                delta_matrix, difflie_differential,
                                do_differential)
from difflie.linalg import Matrix, vec_zero
from difflie.liealg import adjoint_rep, rho_lambda
from samples import (block, catalog_diff_lie, conjugate_diff_lie,
                     conjugate_rep, diff_lie, rand_matrix, rand_unimodular,
                     random_rep, rep_of, trivial_rep)


def operator_matrix(op, gdim, vdim, n, m):
    """Matrix of a linear map from n-cochains to m-cochains, one basis
    cochain per column."""
    src = cochain_dim(gdim, vdim, n)
    tgt = cochain_dim(gdim, vdim, m)
    out = Matrix.zero(tgt, src)
    for j in range(src):
        e = vec_zero(src)
        e[j] = Fraction(1)
        image = op(coords_to_altmap(e, gdim, vdim, n))
        assert image.arity == m
        col = altmap_to_coords(image)
        for i in range(tgt):
            out.data[i][j] = col[i]
    return out


def oracle_ce(A, rep, n):
    return operator_matrix(lambda f: ce_apply(A.algebra, rep, f),
                           A.dim, rep.space_dim, n, n + 1)


def oracle_delta(A, rep, n):
    return operator_matrix(lambda f: delta_apply(A, rep, f),
                           A.dim, rep.space_dim, n, n)


def oracle_difflie(A, rep, n, tilde=False):
    gdim, vdim = A.dim, rep.space_dim
    if tilde and n == 0:
        return Matrix.zero(cochain_dim(gdim, vdim, 1), 0)
    lie = block([[oracle_ce(A, rep, n)],
                 [oracle_delta(A, rep, n).scale(-1)]])
    if n == 0 or (tilde and n == 1):
        return lie
    op = block([
        [Matrix.zero(cochain_dim(gdim, vdim, n + 1),
                     cochain_dim(gdim, vdim, n - 1))],
        [oracle_ce(A, rho_lambda(rep, A), n - 1).scale(-1)],
    ])
    return block([[lie, op]])


def assert_same(got, want):
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert got.data == want.data
    assert all(exact_scalar(x) for row in got.data for x in row)


def check_all_degrees(A, rep):
    for n in range(A.dim + 2):
        assert_same(ce_differential(A, rep, n), oracle_ce(A, rep, n))
        assert_same(do_differential(A, rep, n),
                    oracle_ce(A, rho_lambda(rep, A), n))
        assert_same(delta_matrix(A, rep, n), oracle_delta(A, rep, n))
        for tilde in (False, True):
            assert_same(difflie_differential(A, rep, n, tilde),
                        oracle_difflie(A, rep, n, tilde))


def trivial_with_dV(rng, A, m=2):
    dV = rand_matrix(rng, m, m)
    while dV.is_zero():
        dV = rand_matrix(rng, m, m)
    return trivial_rep(A, m, dV)


def conjugated_rep(rng, A, rep):
    return conjugate_rep(rep, A.dim, rand_unimodular(rng, rep.space_dim))


WEIGHT_CASES = [Fraction(0), Fraction(-2, 3), Fraction(3)]


@pytest.mark.parametrize("lam", WEIGHT_CASES, ids=str)
@pytest.mark.parametrize("seed", range(4))
def test_catalog_algebras_with_random_coefficients(lam, seed):
    rng = random.Random(1000 * seed + 7)
    A = catalog_diff_lie(rng, lam)
    check_all_degrees(A, random_rep(rng, A))


@pytest.mark.parametrize("lam", WEIGHT_CASES, ids=str)
@pytest.mark.parametrize("seed", range(3))
def test_dense_conjugated_operator(lam, seed):
    rng = random.Random(2000 * seed + 11)
    A = catalog_diff_lie(rng, lam)
    A = conjugate_diff_lie(A, rand_unimodular(rng, A.dim))
    check_all_degrees(A, adjoint_rep(A))
    check_all_degrees(A, conjugated_rep(rng, A, rho_lambda(adjoint_rep(A), A)))


@pytest.mark.parametrize("lam", WEIGHT_CASES, ids=str)
def test_non_adjoint_coefficients_with_nonzero_dV(lam):
    rng = random.Random(31)
    A = catalog_diff_lie(rng, lam)
    rep = trivial_with_dV(rng, A)
    check_all_degrees(A, rep)
    check_all_degrees(A, conjugated_rep(rng, A, rep))


def test_operator_and_coefficients_that_fail_the_axioms():
    # the builders are linear in the structure constants, so they agree
    # with the oracle on documents that are no differential Lie algebra
    rng = random.Random(5)
    A = catalog_diff_lie(rng, Fraction(1, 2))
    B = diff_lie(A.algebra, rand_matrix(rng, A.dim, A.dim), Fraction(5, 7))
    rep = rep_of([rand_matrix(rng, 2, 2) for _ in range(B.dim)],
                 rand_matrix(rng, 2, 2))
    check_all_degrees(B, rep)

