from fractions import Fraction

import pytest

from conftest import kernel_basis
from difflie.linalg import Matrix, vec_is_zero
from difflie.liealg import DiffLieAlgebra, adjoint_rep
from difflie.multilinear import AltMap, DimensionMismatch, \
    altmap1_from_matrix
from difflie.cohomology import (CochainComplexSpec, CocyclePair,
                                altmap_to_coords, coords_to_altmap,
                                pair_residual)
from difflie.deformations import (NotDeformation, Obstructed,
                                  TruncatedDeformation, apply_formal_iso,
                                  deformation_residuals, failed_equations,
                                  first_nontrivial_order, infinitesimal,
                                  rigidify, rigidify_step)
from samples import (abelian, aff1, sl2, constant_deformation, deformation,
                     formal_iso, rand_matrix, random_diff_lie)
from test_deformation_kernels import iso_matrices, oracle_inverse_series


def aff1_d(lam=2):
    return DiffLieAlgebra(aff1(), Matrix.from_rows([[0, 0], [0, 1]]),
                          Fraction(lam))


def order1_deformation(A, pair):
    return TruncatedDeformation(A, [A.algebra.bracket, pair.f],
                                [altmap1_from_matrix(A.d), pair.g])


def rand_iso(rng, dim, order):
    return formal_iso([rand_matrix(rng, dim, dim) for _ in range(order)])


def same_series(D, E):
    return D.order == E.order and \
        all((a - b).is_zero() for a, b in zip(D.mu + D.d, E.mu + E.d))


def test_constant_deformation_valid(rng):
    for _ in range(5):
        A = random_diff_lie(rng, max_dim=3)
        D = constant_deformation(A, 2)
        assert not failed_equations(D)
        pair, res = infinitesimal(D)
        assert pair.f.is_zero() and pair.g.is_zero() and vec_is_zero(res)


def test_order_zero_residuals_detect_broken_base():
    A = aff1_d()
    broken = AltMap(2, 2, 2)
    broken[(0, 1)] = [1, 0]
    D = deformation(A, [A.algebra.bracket, AltMap(2, 2, 2)],
                    [A.d, Matrix.identity(2)])
    res = deformation_residuals(D)
    jac0, op0 = res[0]
    assert jac0.is_zero() and op0.is_zero()  # base itself is fine


def test_order1_valid_iff_cocycle(rng):
    # the order-1 equations agree exactly with the degree-2 cocycle test
    valid = invalid = 0
    for _ in range(12):
        A = random_diff_lie(rng, max_dim=3)
        dim = A.dim
        spec = CochainComplexSpec(A, adjoint_rep(A), "difflie",
                                  max_degree=3)
        if rng.random() < 0.5:
            basis = kernel_basis(spec.d[2])
            coords = basis[rng.randrange(len(basis))] if basis else \
                [Fraction(0)] * spec.dims[2]
        else:
            coords = [Fraction(rng.randrange(-2, 3))
                      for _ in range(spec.dims[2])]
        pair = CocyclePair.from_coords(coords, dim, dim, 2)
        D = order1_deformation(A, pair)
        ok = not failed_equations(D)
        is_cocycle = vec_is_zero(pair_residual(A, adjoint_rep(A), pair))
        assert ok == is_cocycle
        valid += ok
        invalid += not ok
    assert valid and invalid


def test_infinitesimal_requires_deformation(rng):
    # a pair violating the order-1 equations is rejected
    raised = 0
    for _ in range(8):
        A = aff1_d()
        mu1 = AltMap(2, 2, 2)
        mu1[(0, 1)] = [rng.randrange(-2, 3), rng.randrange(-2, 3)]
        D = deformation(A, [A.algebra.bracket, mu1],
                        [A.d, rand_matrix(rng, 2, 2)])
        try:
            _, res = infinitesimal(D)
            assert vec_is_zero(res)
        except NotDeformation:
            raised += 1
    assert raised > 0


def test_coboundary_deformation_infinitesimal(rng):
    from difflie.cohomology import difflie_differential
    for _ in range(5):
        A = random_diff_lie(rng, max_dim=3)
        dim = A.dim
        iso = rand_iso(rng, dim, 1)
        D = apply_formal_iso(constant_deformation(A, 2), iso)
        assert not failed_equations(D)
        pair, res = infinitesimal(D)
        assert vec_is_zero(res)
        d1 = difflie_differential(A, adjoint_rep(A), 1, tilde=True)
        assert pair.coords() == d1.matvec(altmap_to_coords(iso[1]))


def test_operator_only_deformation_one_cocycle(rng):
    # mu_t frozen: the order-1 operator term is killed by the shifted
    # coboundary alone
    from difflie.cohomology import do_differential
    hits = 0
    for _ in range(8):
        A = random_diff_lie(rng, max_dim=3)
        dim = A.dim
        rep = adjoint_rep(A)
        d1m = do_differential(A, rep, 1)
        basis = kernel_basis(d1m)
        if not basis:
            continue
        coords = basis[rng.randrange(len(basis))]
        D = TruncatedDeformation(A, [A.algebra.bracket, AltMap(2, dim, dim)],
                                 [altmap1_from_matrix(A.d),
                                  coords_to_altmap(coords, dim, dim, 1)])
        jac, op = deformation_residuals(D)[1]
        assert jac.is_zero() and op.is_zero()
        hits += 1
    assert hits >= 3


def test_apply_identity_iso(rng):
    # the identity is the empty family: every order of phi is missing
    for _ in range(3):
        A = random_diff_lie(rng, max_dim=3)
        D = apply_formal_iso(constant_deformation(A, 2),
                             rand_iso(rng, A.dim, 2))
        assert same_series(apply_formal_iso(D, {}), D)


def test_apply_ignores_orders_above_the_truncation(rng):
    # terms of phi above the order N of D reach no order of D, so the
    # family with terms at N + 1 and N + 2 pulls D back as its cut at N
    for N in (1, 2):
        A = random_diff_lie(rng, max_dim=3)
        D = apply_formal_iso(constant_deformation(A, N),
                             rand_iso(rng, A.dim, N))
        phi = rand_iso(rng, A.dim, N + 2)
        cut = {c: p for c, p in phi.items() if c <= N}
        assert same_series(apply_formal_iso(D, phi),
                           apply_formal_iso(D, cut))


@pytest.mark.parametrize("phi", [
    Matrix.from_rows([[1, 1], [1, 1]]), Matrix.from_rows([[1] * 4] * 4),
    Matrix.identity(4)], ids=["2x2", "4x4", "identity-4x4"])
def test_apply_rejects_mis_sized_iso(phi):
    A = DiffLieAlgebra(sl2(), Matrix.identity(3), Fraction(-1))
    with pytest.raises(DimensionMismatch):
        apply_formal_iso(constant_deformation(A, 1), formal_iso([phi]))


def test_iso_round_trip(rng):
    for _ in range(4):
        A = random_diff_lie(rng, max_dim=3)
        dim = A.dim
        iso = rand_iso(rng, dim, 2)
        D = apply_formal_iso(constant_deformation(A, 2), iso)
        inverse = oracle_inverse_series(iso_matrices(iso, dim), 2)
        back = apply_formal_iso(D, formal_iso(inverse[1:]))
        assert same_series(back, constant_deformation(A, 2))


def test_equivalence_preserves_equations(rng):
    for _ in range(4):
        A = random_diff_lie(rng, max_dim=3)
        D = apply_formal_iso(constant_deformation(A, 3),
                             rand_iso(rng, A.dim, 3))
        assert not failed_equations(D)


def test_rigidify_trivial_is_identity():
    A = aff1_d()
    D = constant_deformation(A, 2)
    iso, D2 = rigidify_step(D)
    assert iso == {}
    assert first_nontrivial_order(D2) is None


def test_rigidify_clears_coboundary_orders(rng):
    for _ in range(4):
        A = random_diff_lie(rng, max_dim=3)
        D = apply_formal_iso(constant_deformation(A, 2),
                             rand_iso(rng, A.dim, 2))
        for iso in rigidify(D):
            D = apply_formal_iso(D, iso)
        assert first_nontrivial_order(D) is None


def test_rigid_fixture_clears_any_valid_deformation(rng):
    # weight -1 with the identity operator on a simple algebra has trivial
    # degree-2 cohomology, so every valid order-1 pair rigidifies
    A = DiffLieAlgebra(sl2(), Matrix.identity(3), Fraction(-1))
    spec = CochainComplexSpec(A, adjoint_rep(A), "difflie", max_degree=3)
    cleared = 0
    for coords in kernel_basis(spec.d[2]):
        pair = CocyclePair.from_coords(coords, 3, 3, 2)
        D = order1_deformation(A, pair)
        if failed_equations(D):
            continue
        _, D2 = rigidify_step(D)
        assert first_nontrivial_order(D2) is None
        cleared += 1
    assert cleared >= 1


def test_obstructed_class_raises():
    A = DiffLieAlgebra(abelian(2), Matrix.zero(2, 2), Fraction(1))
    mu1 = AltMap(2, 2, 2)
    mu1[(0, 1)] = [1, 0]  # a bracket deformation: not exact for abelian g
    D = deformation(A, [A.algebra.bracket, mu1], [A.d, Matrix.zero(2, 2)])
    assert not failed_equations(D)
    for clear in (rigidify_step, rigidify):
        with pytest.raises(Obstructed) as exc:
            clear(D)
        assert exc.value.order == 1
        assert not exc.value.pair.f.is_zero()
