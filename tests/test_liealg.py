from fractions import Fraction
from itertools import combinations

import pytest

from axiom_oracles import (is_diff_representation, mat_combination,
                           relative_oracle)
from conftest import filled, kernel_basis
from difflie import multilinear
from difflie.linalg import Matrix, basis_vec, vec_is_zero
from difflie.liealg import (ZeroScale, adjoint_rep,
                            difflie_from_json, difflie_to_json,
                            is_diff_lie_algebra, is_lie_algebra, is_lieact,
                            jacobi_residual,
                            lift_tilde_D, LieActTriple, SchemaError,
                            relative_diff_residual, rep_from_json,
                            rep_to_json, rescale_operator, rho_lambda,
                            semidirect_weighted,
                            trivial_extension,
                            weighted_derivation_residual)
from samples import (WEIGHTS, abelian, action, ad_action, aff1,
                     altmap1_from_matrix, conjugate_algebra, derivation_basis,
                     diff_lie, direct_sum, from_rows, heisenberg,
                     identity_matrix, matrix_from_altmap1, rand_matrix,
                     rand_unimodular, random_diff_lie, random_lieact,
                     random_relative_operator, random_rep, rho_matrices, sl2,
                     trivial_rep)


def aff1_d():
    """aff(1) with d = diag(0,1), valid for every weight."""
    return diff_lie(aff1(), from_rows([[0, 0], [0, 1]]), Fraction(3))


def test_jacobi_catalog():
    for L in [abelian(3), aff1(), heisenberg(), sl2(),
              direct_sum(sl2(), aff1())]:
        assert is_lie_algebra(L)


def test_jacobi_violation():
    from difflie.liealg import LieAlgebra
    from difflie.multilinear import AltMap
    L = LieAlgebra(3, filled(AltMap(2, 3, 3),
                             {(0, 1): [1, 0, 0], (0, 2): [0, 0, 1]}))
    assert not is_lie_algebra(L)
    assert not jacobi_residual(L).is_zero()


def test_weighted_residual_zero_operator():
    for lam in WEIGHTS:
        A = diff_lie(sl2(), Matrix.zero(3, 3), lam)
        assert is_diff_lie_algebra(A)


def test_identity_has_weight_minus_one():
    A = diff_lie(sl2(), identity_matrix(3), Fraction(-1))
    assert is_diff_lie_algebra(A)
    B = diff_lie(sl2(), identity_matrix(3), Fraction(1))
    assert not is_diff_lie_algebra(B)


def test_aff1_diagonal_operator_any_weight():
    for lam in WEIGHTS:
        A = diff_lie(aff1(), from_rows([[0, 0], [0, 1]]), lam)
        assert is_diff_lie_algebra(A)


def test_rescale_identity_scale():
    A = aff1_d()
    B = rescale_operator(A, 1)
    assert B.d == A.d and B.weight == A.weight


def test_rescale_example():
    A = diff_lie(sl2(), identity_matrix(3), Fraction(-1))
    B = rescale_operator(A, 2)
    assert matrix_from_altmap1(B.d) == identity_matrix(3).scale(2)
    assert B.weight == Fraction(-1, 2)
    assert is_diff_lie_algebra(B)


def test_rescale_zero_operator():
    A = diff_lie(sl2(), Matrix.zero(3, 3), Fraction(4))
    B = rescale_operator(A, 5)
    assert B.weight == Fraction(4, 5)
    assert is_diff_lie_algebra(B)


def test_rescale_zero_raises():
    with pytest.raises(ZeroScale):
        rescale_operator(aff1_d(), 0)


def test_rescale_random(rng):
    for _ in range(50):
        A = random_diff_lie(rng)
        kappa = Fraction(rng.choice([1, -1, 2, 3, -2]), rng.choice([1, 2]))
        B = rescale_operator(A, kappa)
        assert B.weight == A.weight / kappa
        assert weighted_derivation_residual(B).is_zero()


def test_adjoint_rep_valid():
    for A in [diff_lie(abelian(2), Matrix.zero(2, 2), 1),
              aff1_d(),
              diff_lie(sl2(), Matrix.zero(3, 3), 2)]:
        assert is_diff_representation(A, adjoint_rep(A))
    assert adjoint_rep(diff_lie(abelian(2), Matrix.zero(2, 2), 1)).rho \
        .is_zero()


def test_rho_lambda_weight_zero_unchanged():
    A = diff_lie(aff1(), from_rows([[0, 0], [0, 1]]), Fraction(0))
    rep = adjoint_rep(A)
    shifted = rho_lambda(rep, A)
    assert shifted.rho == rep.rho


def test_rho_lambda_identity_weight_minus_one_kills():
    A = diff_lie(sl2(), identity_matrix(3), Fraction(-1))
    shifted = rho_lambda(adjoint_rep(A), A)
    assert shifted.rho.is_zero()


def test_rho_lambda_aff1_formula():
    A = aff1_d()
    rep = adjoint_rep(A)
    shifted = rho_lambda(rep, A)
    lam = A.weight
    for i in range(2):
        x = basis_vec(2, i)
        dx = matrix_from_altmap1(A.d).matvec(x)
        expected = mat_combination([x[k] + lam * dx[k] for k in range(2)],
                                   rho_matrices(rep.rho, 2), rep.space_dim)
        assert rho_matrices(shifted.rho, 2)[i] == expected


def test_rho_lambda_preserves_validity(rng):
    for _ in range(25):
        A = random_diff_lie(rng)
        rep = random_rep(rng, A)
        assert is_diff_representation(A, rep)
        assert is_diff_representation(A, rho_lambda(rep, A))


def test_trivial_extension_aff1_adjoint():
    A = aff1_d()
    ext = trivial_extension(A, adjoint_rep(A))
    assert ext.dim == 4
    assert is_diff_lie_algebra(ext)


def test_trivial_extension_abelian():
    A = diff_lie(abelian(2), Matrix.zero(2, 2), 1)
    ext = trivial_extension(A, trivial_rep(A, 2))
    assert ext.dim == 4
    assert is_diff_lie_algebra(ext)
    assert not ext.algebra.bracket.coeffs


def test_trivial_extension_random(rng):
    for _ in range(15):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        assert is_diff_lie_algebra(trivial_extension(A, rep))


def test_lieact_zero_rho():
    T = LieActTriple(aff1(), heisenberg(), action([Matrix.zero(3, 3)] * 2, 3))
    assert is_lieact(T)


def test_lieact_self_adjoint():
    g = aff1()
    T = LieActTriple(g, g, ad_action(g))
    assert is_lieact(T)


def test_lieact_random(rng):
    for _ in range(20):
        T = random_lieact(rng)
        assert is_lieact(T)


def test_relative_zero_operator():
    g = aff1()
    T = LieActTriple(g, g, ad_action(g))
    assert all(vec_is_zero(r)
               for r in relative_diff_residual(
                   T, altmap1_from_matrix(Matrix.zero(2, 2)), 7))


def test_relative_matches_weighted_rule():
    g = sl2()
    T = LieActTriple(g, g, ad_action(g))
    D = altmap1_from_matrix(identity_matrix(3))
    assert all(vec_is_zero(r) for r in relative_diff_residual(T, D, -1))
    assert any(not vec_is_zero(r) for r in relative_diff_residual(T, D, 1))


def test_semidirect_direct_product():
    g, h = aff1(), heisenberg()
    T = LieActTriple(g, h, action([Matrix.zero(3, 3)] * 2, 3))
    L = semidirect_weighted(T, 1)
    assert is_lie_algebra(L)
    # no cross terms between g and h
    for (i, j) in L.bracket.coeffs:
        assert (i < 2) == (j < 2)


def test_semidirect_self_adjoint():
    g = aff1()
    T = LieActTriple(g, g, ad_action(g))
    assert is_lie_algebra(semidirect_weighted(T, 1))


def test_semidirect_random(rng):
    for _ in range(20):
        T = random_lieact(rng)
        lam = rng.choice(WEIGHTS)
        assert is_lie_algebra(semidirect_weighted(T, lam))


def test_lift_tilde_equivalence(rng):
    hits = 0
    for _ in range(40):
        T = random_lieact(rng)
        lam = rng.choice(WEIGHTS)
        if rng.random() < 0.5:
            D = random_relative_operator(rng, T, lam)
        else:
            D = altmap1_from_matrix(rand_matrix(rng, T.h.dim, T.g.dim))
        # the relative axiom by its basis-vector formula, since
        # relative_diff_residual itself reads the lifted operator
        rel_ok = all(vec_is_zero(r) for r in relative_oracle(T, D, lam))
        lifted = lift_tilde_D(T, D, lam)
        lift_ok = weighted_derivation_residual(lifted).is_zero()
        assert rel_ok == lift_ok
        hits += rel_ok
    assert 0 < hits < 40  # both branches genuinely exercised


def test_json_round_trip(rng):
    for _ in range(5):
        A = random_diff_lie(rng)
        B = difflie_from_json(difflie_to_json(A))
        assert B.dim == A.dim and B.weight == A.weight
        assert B.algebra.bracket == A.algebra.bracket and B.d == A.d
        rep = random_rep(rng, A)
        rep2 = rep_from_json(rep_to_json(rep), A.dim)
        assert rep2.rho == rep.rho and rep2.dV == rep.dV


def test_algebra_dim_is_backed_by_d_rows(monkeypatch):
    # a dim the document's d does not back allocates no dim-sized space
    real = multilinear.suspend_space

    def guarded(dim):
        if dim > 10 ** 6:
            raise MemoryError("space of dimension %d allocated" % dim)
        return real(dim)

    monkeypatch.setattr(multilinear, "suspend_space", guarded)
    with pytest.raises(SchemaError, match=r"^d must be"):
        difflie_from_json({"dim": 10 ** 9, "brackets": [], "d": [],
                           "weight": 0})


def explicit_derivation_basis(L):
    """Kernel basis of d[x_i,x_j] - [d x_i, x_j] - [x_i, d x_j] = 0, written
    out entry by entry (the oracle for samples.derivation_basis)."""
    n = L.dim
    rows = []
    for i, j in combinations(range(n), 2):
        coeff = [[0] * (n * n) for _ in range(n)]
        b_ij = L.bracket.value_on_basis((i, j))
        for a in range(n):
            for b in range(n):
                col = a * n + b  # entry d[a][b]
                for r in range(n):
                    val = 0
                    if a == r:
                        val += b_ij[b]
                    if b == i:
                        val -= L.bracket.value_on_basis((a, j))[r]
                    if b == j:
                        val -= L.bracket.value_on_basis((i, a))[r]
                    coeff[r][col] += val
        rows.extend(coeff)
    m = from_rows(rows) if rows else Matrix.zero(0, n * n)
    return [Matrix(n, n, [v[k * n:(k + 1) * n] for k in range(n)])
            for v in kernel_basis(m)]


def test_derivation_basis_matches_explicit_system(rng):
    catalog = [abelian(1), abelian(3), aff1(), heisenberg(), sl2(),
               direct_sum(aff1(), abelian(2))]
    scrambled = [conjugate_algebra(L, rand_unimodular(rng, L.dim))
                 for L in catalog for _ in range(3)]
    for L in catalog + scrambled:
        assert derivation_basis(L) == explicit_derivation_basis(L)


def test_random_fixtures_are_valid(rng):
    for _ in range(30):
        A = random_diff_lie(rng)
        assert is_diff_lie_algebra(A)
