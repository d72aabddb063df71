"""Operators and actions are maps; the matrix routes they replaced are the
oracles here.

A differential Lie algebra holds its operator d, and a representation its
d_V, as arity-1 maps, and the action of g on V as one arity-2 map on
g (+) V into V whose keys are (x, v).  Before, each was a matrix: rho was
one matrix per basis vector of g, rho_lambda combined them with the
columns of Id + lambda d (mat_combination), adjoint_rep read them off
LieAlgebra.ad, and the operators of the trivial extension, of a built
extension and of a lifted relative operator were assembled from
blocks (samples.block).  Those routes are written out below on matrices and compared
exactly, as rationals, with the map routes, over every weight of
samples.WEIGHTS, on valid and random (axiom-breaking) inputs.
"""

import random
from itertools import combinations

from conftest import exact_scalar, kernel_basis
from difflie.cohomology import CochainComplexSpec, CocyclePair
from difflie.extensions import build_extension
from difflie.linalg import Matrix, basis_vec, vec_is_zero, vec_zero
from difflie.liealg import (adjoint_rep, lift_tilde_D, rho_lambda,
                            semidirect_bracket, trivial_extension)
from difflie.multilinear import AltMap
from axiom_oracles import mat_combination
from samples import (WEIGHTS, ad_matrices, altmap1_from_matrix, block,
                     diff_lie, identity_matrix, matrix_from_altmap1,
                     rand_matrix, rand_vec, random_diff_lie, random_lieact,
                     random_relative_operator, random_rep, rep_of,
                     rho_matrices, transpose)


def fixtures(rng, lam):
    """(A, rep) pairs at the weight: valid algebras with valid
    representations, and random operators and actions on them."""
    out = []
    for _ in range(3):
        A = random_diff_lie(rng, lam, max_dim=4)
        out.append((A, random_rep(rng, A)))
        m = rng.randrange(1, 4)
        B = diff_lie(A.algebra, rand_matrix(rng, A.dim, A.dim), lam)
        out.append((B, rep_of([rand_matrix(rng, m, m) for _ in range(B.dim)],
                              rand_matrix(rng, m, m))))
    return out


def old_semidirect_bracket(gdim, vdim, rho, g_bracket, psi=None,
                           h_bracket=None):
    """The bracket on g (+) V from the matrices rho, one per basis vector
    of g, as semidirect_bracket assembled it."""
    N = gdim + vdim
    b = AltMap(2, N, N)
    for key in combinations(range(gdim), 2):
        vval = vec_zero(vdim) if psi is None else psi.value_on_basis(key)
        b[key] = g_bracket.value_on_basis(key) + vval
    for i in range(gdim):
        for a in range(vdim):
            col = [rho[i].data[r][a] for r in range(vdim)]
            if not vec_is_zero(col):
                b.coeffs[(i, gdim + a)] = vec_zero(gdim) + col
    if h_bracket is not None:
        for (a, c), vec in h_bracket.coeffs.items():
            b.coeffs[(gdim + a, gdim + c)] = vec_zero(gdim) + list(vec)
    return b


def exact_map(f):
    return all(exact_scalar(x) for vec in f.coeffs.values() for x in vec)


def test_rho_lambda_matches_the_combination_of_matrices():
    rng = random.Random(41)
    for lam in WEIGHTS:
        for A, rep in fixtures(rng, lam):
            mats, m = rho_matrices(rep.rho, A.dim), rep.space_dim
            # x_i + lambda d x_i is column i of Id + lambda d
            e = identity_matrix(A.dim) + \
                matrix_from_altmap1(A.d).scale(A.weight)
            want = [mat_combination(x, mats, m) for x in transpose(e).data]
            shifted = rho_lambda(rep, A)
            assert rho_matrices(shifted.rho, A.dim) == want
            assert shifted.dV == rep.dV and exact_map(shifted.rho)


def test_adjoint_action_matches_ad():
    rng = random.Random(42)
    for lam in WEIGHTS:
        for A, _ in fixtures(rng, lam):
            rep = adjoint_rep(A)
            assert rho_matrices(rep.rho, A.dim) == ad_matrices(A.algebra)
            assert rep.dV == A.d and exact_map(rep.rho)
            # column a of ad(x_i) is [x_i, x_a]
            for i in range(A.dim):
                for a in range(A.dim):
                    assert rep.rho.value_on_basis((i, A.dim + a)) == \
                        A.algebra.bracket.value_on_basis((i, a))


def test_trivial_extension_matches_the_block_matrices():
    rng = random.Random(43)
    for lam in WEIGHTS:
        for A, rep in fixtures(rng, lam):
            n, m = A.dim, rep.space_dim
            E = trivial_extension(A, rep)
            assert matrix_from_altmap1(E.d) == block([
                [matrix_from_altmap1(A.d), Matrix.zero(n, m)],
                [Matrix.zero(m, n), matrix_from_altmap1(rep.dV)]])
            assert E.algebra.bracket == old_semidirect_bracket(
                n, m, rho_matrices(rep.rho, n), A.algebra.bracket)
            assert E.weight == A.weight


def test_built_extension_matches_the_block_matrices():
    rng = random.Random(44)
    built = 0
    for lam in WEIGHTS:
        for _ in range(3):
            A = random_diff_lie(rng, lam, max_dim=3)
            rep = random_rep(rng, A, max_dim=2)
            n, m = A.dim, rep.space_dim
            spec = CochainComplexSpec(A, rep, "difflie", max_degree=3)
            for v in kernel_basis(spec.d[2])[:2]:
                pair = CocyclePair.from_coords(v, n, m, 2)
                E = build_extension(A, rep, pair.f, pair.g)
                assert matrix_from_altmap1(E.d) == block([
                    [matrix_from_altmap1(A.d), Matrix.zero(n, m)],
                    [matrix_from_altmap1(pair.g),
                     matrix_from_altmap1(rep.dV)]])
                assert E.algebra.bracket == old_semidirect_bracket(
                    n, m, rho_matrices(rep.rho, n), A.algebra.bracket, pair.f)
                built += 1
    assert built >= 10


def test_lifted_operator_matches_the_block_matrices():
    rng = random.Random(45)
    for lam in WEIGHTS:
        for _ in range(6):
            T = random_lieact(rng)
            n, m = T.g.dim, T.h.dim
            for D in (random_relative_operator(rng, T, lam),
                      altmap1_from_matrix(rand_matrix(rng, m, n))):
                lifted = lift_tilde_D(T, D, lam)
                assert matrix_from_altmap1(lifted.d) == block([
                    [Matrix.zero(n, n), Matrix.zero(n, m)],
                    [matrix_from_altmap1(D), identity_matrix(m).scale(-1)]])
                assert lifted.algebra.bracket == old_semidirect_bracket(
                    n, m, rho_matrices(T.rho, n), T.g.bracket,
                    h_bracket=T.h.bracket.scale(lam))


def test_semidirect_bracket_places_each_part():
    # g-bracket and psi share the g-pairs, the action the mixed pairs and
    # the h-bracket the V-pairs; a part left out is zero
    rng = random.Random(46)
    for _ in range(10):
        n, m = rng.randrange(1, 4), rng.randrange(1, 4)
        parts = [AltMap(2, n, n), AltMap(2, n, m), AltMap(2, m, m)]
        for f in parts:
            for key in combinations(range(f.src_dim), 2):
                if rng.random() < 0.5:
                    f[key] = rand_vec(rng, f.tgt_dim)
        mats = [rand_matrix(rng, m, m) for _ in range(n)]
        rho = rep_of(mats, Matrix.zero(m, m)).rho
        g_br, psi, h_br = parts
        assert semidirect_bracket(g_br, rho, psi, h_br) == \
            old_semidirect_bracket(n, m, mats, g_br, psi, h_br)
        assert semidirect_bracket(g_br, rho) == \
            old_semidirect_bracket(n, m, mats, g_br)
        for i in range(n):
            for a in range(m):
                assert rho.value_on_basis((i, n + a)) == \
                    mats[i].matvec(basis_vec(m, a))
