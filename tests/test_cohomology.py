from fractions import Fraction
from itertools import combinations

import pytest

from difflie.linalg import (Matrix, basis_vec, homology_dim, vec_add,
                            vec_is_zero)
from difflie.liealg import DiffLieAlgebra, adjoint_rep, trivial_extension
from difflie.multilinear import AltMap, ArityMismatch
from difflie.cohomology import (FLAVORS, CochainComplexSpec, CocyclePair,
                                UnknownFlavor, _twisted_l1, altmap_to_coords,
                                ce_apply, ce_differential, cochain_dim, cochain_keys,
                                cohomology_dims, coords_to_altmap,
                                delta_apply, delta_matrix, do_differential,
                                difflie_differential, pair_dim,
                                pair_primitive, pair_residual,
                                planned_cells, twist_bridge_residual)
from samples import (abelian, aff1, sl2, rand_vec, random_diff_lie,
                     random_rep, trivial_rep)


def aff1_d(lam=3):
    return DiffLieAlgebra(aff1(), Matrix.from_rows([[0, 0], [0, 1]]),
                          Fraction(lam))


def rand_cochain(rng, gdim, vdim, n):
    f = AltMap(n, gdim, vdim)
    for key in combinations(range(gdim), n):
        f[key] = rand_vec(rng, vdim, -2, 2)
    return f


def test_coords_round_trip(rng):
    for n in (0, 1, 2):
        f = rand_cochain(rng, 3, 2, n)
        coords = altmap_to_coords(f)
        assert len(coords) == cochain_dim(3, 2, n)
        assert coords_to_altmap(coords, 3, 2, n) == f


def test_ce_degree_zero_is_minus_action():
    A = aff1_d()
    rep = adjoint_rep(A)
    m = ce_differential(A, rep, 0)
    for t in range(2):
        v = basis_vec(2, t)
        img = coords_to_altmap(m.matvec(v), 2, 2, 1)
        for i in range(2):
            expected = [-x for x in rep.rho[i].matvec(v)]
            assert img.value_on_basis((i,)) == expected


def test_ce_trivial_rep_abelian_is_zero():
    A = DiffLieAlgebra(abelian(3), Matrix.zero(3, 3), 1)
    rep = trivial_rep(A, 2)
    for n in range(4):
        assert ce_differential(A, rep, n).is_zero()


def test_ce_squares_to_zero_aff1_adjoint():
    A = aff1_d()
    rep = adjoint_rep(A)
    d0 = ce_differential(A, rep, 0)
    d1 = ce_differential(A, rep, 1)
    assert (d1 * d0).is_zero()


def test_do_weight_zero_equals_ce(rng):
    A = DiffLieAlgebra(sl2(), Matrix.zero(3, 3), 0)
    rep = adjoint_rep(A)
    for n in range(3):
        assert do_differential(A, rep, n) == ce_differential(A, rep, n)


def test_do_identity_weight_minus_one_degree_zero():
    A = DiffLieAlgebra(sl2(), Matrix.identity(3), Fraction(-1))
    rep = adjoint_rep(A)
    # rho_lambda(x) = ad(x - d x) = 0, so degree 0 vanishes
    assert do_differential(A, rep, 0).is_zero()


def test_do_squares_to_zero(rng):
    for _ in range(6):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        mats = [do_differential(A, rep, n) for n in range(4)]
        for n in range(3):
            assert (mats[n + 1] * mats[n]).is_zero()


def test_delta_degree_zero_is_minus_dv():
    A = aff1_d()
    rep = adjoint_rep(A)
    v = [Fraction(1), Fraction(5)]
    f = AltMap(0, 2, 2)
    f[()] = v
    assert delta_apply(A, rep, f).value_on_basis(()) == \
        [-x for x in rep.dV.matvec(v)]


@pytest.mark.parametrize("n", range(4))
def test_coboundaries_of_the_zero_cochain_are_V_valued(n):
    # dim V = 3 differs from dim g = 2: the zero cochain's images are the
    # zero cochains into V, of the right arity
    A = aff1_d()
    rep = trivial_rep(A, 3, Matrix.identity(3))
    zero = AltMap(n, 2, 3)
    assert delta_apply(A, rep, zero) == zero
    assert ce_apply(A.algebra, rep, zero) == AltMap(n + 1, 2, 3)


def test_delta_identity_cochain_commuting_with_d():
    A = aff1_d()
    rep = adjoint_rep(A)
    ident = AltMap(1, 2, 2)
    for i in range(2):
        ident[(i,)] = basis_vec(2, i)
    assert delta_apply(A, rep, ident).is_zero()


def test_delta_frozen_example():
    # f(x)=y, f(y)=0 on aff(1), d=diag(0,1): delta f sends x to -y, y to 0
    A = aff1_d()
    rep = adjoint_rep(A)
    f = AltMap(1, 2, 2)
    f[(0,)] = [0, 1]
    out = delta_apply(A, rep, f)
    assert out.value_on_basis((0,)) == [Fraction(0), Fraction(-1)]
    assert out.value_on_basis((1,)) == [Fraction(0), Fraction(0)]


def test_cochain_map_identity(rng):
    # d_do . delta = delta . d_ce in every degree
    for _ in range(5):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        for n in range(3):
            lhs = do_differential(A, rep, n) * delta_matrix(A, rep, n)
            rhs = delta_matrix(A, rep, n + 1) * ce_differential(A, rep, n)
            assert lhs == rhs


def test_all_flavors_build_and_square_to_zero(rng):
    for _ in range(4):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        for flavor in ("ce", "do", "difflie", "tilde"):
            # checks d^2 = 0 internally, through d^4 d^3
            CochainComplexSpec(A, rep, flavor, max_degree=5)


def test_spec_builds_the_reported_differentials_only(rng):
    # max_degree N: d^0..d^{N-1}, and C^0..C^N read off their shapes
    for _ in range(3):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        gdim, vdim = A.dim, rep.space_dim
        ce = [cochain_dim(gdim, vdim, n) for n in range(5)]
        pairs = [pair_dim(gdim, vdim, n) for n in range(5)]
        closed = {"ce": ce, "do": ce, "difflie": pairs,
                  "tilde": [0, ce[1]] + pairs[2:]}
        for flavor in FLAVORS:
            for N in range(1, 5):
                spec = CochainComplexSpec(A, rep, flavor, max_degree=N)
                assert len(spec.d) == N
                assert spec.dims == closed[flavor][:N + 1]
                assert len(cohomology_dims(spec)) == N
            with pytest.raises(ValueError):
                CochainComplexSpec(A, rep, flavor, max_degree=0)


def test_spec_builds_no_differential_above_dim_plus_one(monkeypatch):
    # C^n = 0 for n > dim + 1, so from degree dim + 2 on d[n] is listed as
    # 0 x 0 without a build: max_degree 50 on sl2 builds at most 5
    A = DiffLieAlgebra(sl2(), Matrix.zero(3, 3), Fraction(1))
    rep = adjoint_rep(A)
    built = []
    build = CochainComplexSpec._differential

    def counted(self, n):
        built.append(n)
        return build(self, n)

    monkeypatch.setattr(CochainComplexSpec, "_differential", counted)
    for flavor in FLAVORS:
        del built[:]
        spec = CochainComplexSpec(A, rep, flavor, max_degree=50)
        assert len(built) <= A.dim + 2 and len(spec.d) == 50
        assert spec.dims[A.dim + 2:] == [0] * (50 - A.dim - 1)
        assert cohomology_dims(spec)[A.dim + 2:] == [0] * (48 - A.dim)
        low = CochainComplexSpec(A, rep, flavor, max_degree=A.dim + 2)
        assert spec.d[:A.dim + 2] == low.d


def test_unknown_flavor():
    A = aff1_d()
    with pytest.raises(UnknownFlavor):
        CochainComplexSpec(A, adjoint_rep(A), "nope")


def test_degree_zero_central_killed_vector():
    # abelian algebra, d = 0: every vector is a 0-cocycle
    A = DiffLieAlgebra(abelian(2), Matrix.zero(2, 2), 1)
    spec = CochainComplexSpec(A, adjoint_rep(A), "difflie")
    assert spec.d[0].is_zero()


def test_h0_trivial_line():
    A = DiffLieAlgebra(abelian(1), Matrix.zero(1, 1), 1)
    rep = trivial_rep(A, 1)
    spec = CochainComplexSpec(A, rep, "difflie", max_degree=3)
    assert cohomology_dims(spec)[0] == 1


def test_h0_aff1_adjoint_vanishes():
    spec = CochainComplexSpec(aff1_d(), adjoint_rep(aff1_d()), "difflie")
    assert cohomology_dims(spec)[0] == 0


def test_tilde_dims_and_high_degrees_agree(rng):
    for _ in range(4):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        full = CochainComplexSpec(A, rep, "difflie", max_degree=4)
        tilde = CochainComplexSpec(A, rep, "tilde", max_degree=4)
        assert tilde.dims[0] == 0
        assert tilde.dims[1] == cochain_dim(A.dim, rep.space_dim, 1)
        hf = cohomology_dims(full)
        ht = cohomology_dims(tilde)
        assert hf[3] == ht[3]


def test_trivial_rep_h2_equals_tilde_h2(rng):
    for _ in range(3):
        A = random_diff_lie(rng, max_dim=3)
        rep = trivial_rep(A, 2, Matrix.identity(2))
        full = CochainComplexSpec(A, rep, "difflie")
        tilde = CochainComplexSpec(A, rep, "tilde")
        assert cohomology_dims(full)[2] == cohomology_dims(tilde)[2]


def test_rank_nullity_bookkeeping(rng):
    A = random_diff_lie(rng, max_dim=3)
    rep = random_rep(rng, A, max_dim=2)
    spec = CochainComplexSpec(A, rep, "difflie")
    hs = cohomology_dims(spec)
    for n in range(spec.max_degree):
        r_in = spec.d[n - 1].rank() if n >= 1 else 0
        assert spec.dims[n] == hs[n] + spec.d[n].rank() + r_in


def test_cohomology_dims_match_homology_oracle(rng):
    for _ in range(3):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        gdim, vdim = A.dim, rep.space_dim
        for flavor in FLAVORS:
            spec = CochainComplexSpec(A, rep, flavor, max_degree=3)
            hs = cohomology_dims(spec)
            for n in range(spec.max_degree):
                d_in = spec.d[n - 1] if n else Matrix.zero(spec.dims[0], 0)
                assert hs[n] == homology_dim(spec.d[n], d_in)
            if flavor == "difflie":
                assert spec.dims == [pair_dim(gdim, vdim, n)
                                     for n in range(4)]
            elif flavor in ("ce", "do"):
                assert spec.dims == [cochain_dim(gdim, vdim, n)
                                     for n in range(4)]


def test_pair_helpers_match_full_complex_and_solve(rng):
    for _ in range(4):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        gdim, vdim = A.dim, rep.space_dim
        spec = CochainComplexSpec(A, rep, "difflie", max_degree=3)
        d1 = difflie_differential(A, rep, 1, tilde=True)
        phi = [Fraction(rng.randrange(-2, 3)) for _ in range(d1.cols)]
        exact = CocyclePair.from_coords(d1.matvec(phi), gdim, vdim, 2)
        generic = CocyclePair(rand_cochain(rng, gdim, vdim, 2),
                              rand_cochain(rng, gdim, vdim, 1))
        assert pair_primitive(A, rep, exact) is not None
        for pair in (exact, generic):
            coords = pair.coords()
            assert CocyclePair.from_coords(coords, gdim, vdim,
                                           2).coords() == coords
            assert pair_residual(A, rep, pair) == \
                spec.d[2].matvec(coords)
            x = d1.solve(coords)
            got = pair_primitive(A, rep, pair)
            neg = pair_primitive(A, rep, CocyclePair(-pair.f, -pair.g))
            if x is None:
                assert got is None and neg is None
            else:
                assert got == coords_to_altmap(x, gdim, vdim, 1)
                assert neg == -got


def test_coboundaries_are_cocycles(rng):
    for _ in range(5):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        spec = CochainComplexSpec(A, rep, "difflie")
        n = rng.randrange(1, 3)
        gdim, vdim = A.dim, rep.space_dim
        phi_coords = [Fraction(rng.randrange(-2, 3))
                      for _ in range(spec.dims[n])]
        image = spec.d[n].matvec(phi_coords)
        f = coords_to_altmap(image[:cochain_dim(gdim, vdim, n + 1)],
                             gdim, vdim, n + 1)
        g = coords_to_altmap(image[cochain_dim(gdim, vdim, n + 1):],
                             gdim, vdim, n)
        assert vec_is_zero(spec.d[n + 1].matvec(
            CocyclePair(f, g).coords()))


def test_random_pair_generically_not_cocycle(rng):
    A = aff1_d()
    spec = CochainComplexSpec(A, adjoint_rep(A), "difflie")
    hits = 0
    for _ in range(10):
        pair = CocyclePair(rand_cochain(rng, 2, 2, 2),
                           rand_cochain(rng, 2, 2, 1))
        hits += not vec_is_zero(spec.d[2].matvec(pair.coords()))
    assert hits > 0


def bridge(A, pair):
    """The bridge residual of one pair, basis or not: the formal twisted l_1
    plus the combined differential with adjoint coefficients."""
    return vec_add(_twisted_l1(A, pair),
                   pair_residual(A, adjoint_rep(A), pair))


def test_twist_bridge_zero_pair():
    A = aff1_d()
    pair = CocyclePair(AltMap(2, 2, 2), AltMap(1, 2, 2))
    assert vec_is_zero(bridge(A, pair))


def test_twist_bridge_degree_one(rng):
    A = aff1_d()
    for _ in range(6):
        pair = CocyclePair(rand_cochain(rng, 2, 2, 1),
                           rand_cochain(rng, 2, 2, 0))
        assert vec_is_zero(bridge(A, pair))


def test_twist_bridge_random(rng):
    for _ in range(6):
        A = random_diff_lie(rng, max_dim=3)
        n = rng.randrange(2, 4)
        pair = CocyclePair(rand_cochain(rng, A.dim, A.dim, n),
                           rand_cochain(rng, A.dim, A.dim, n - 1))
        assert vec_is_zero(bridge(A, pair))


def test_twist_bridge_matrix_columns_are_basis_pairs(rng):
    # column k is the bridge residual of the k-th basis pair: the twisted
    # l_1 of that pair is minus column k of the combined differential
    for A in [aff1_d()] + [random_diff_lie(rng, max_dim=3) for _ in range(3)]:
        for n in range(1, 4):
            m = twist_bridge_residual(A, n)
            size = pair_dim(A.dim, A.dim, n)
            assert (m.rows, m.cols) == (pair_dim(A.dim, A.dim, n + 1), size)
            assert m.is_zero()
            d = difflie_differential(A, adjoint_rep(A), n)
            cols = d.transpose().data
            for k in range(size):
                pair = CocyclePair.from_coords(basis_vec(size, k),
                                               A.dim, A.dim, n)
                assert vec_add(_twisted_l1(A, pair), cols[k]) == \
                    [0] * d.rows


def test_pair_arities_must_match():
    with pytest.raises(ArityMismatch):
        CocyclePair(AltMap(2, 2, 2), AltMap(2, 2, 2))
    with pytest.raises(ArityMismatch):
        CocyclePair(AltMap(0, 2, 2), AltMap(0, 2, 2))


# ---------------------------------------------------------------------------
# coefficients in a general representation via the split-zero extension


def extension_embedding(A, rep, n):
    """The matrix embedding Hom(wedge^n g, V) into Hom(wedge^n(g (+) V),
    g (+) V): restrict along wedge^n g, kill every summand with a V-factor,
    corestrict along V.  Together with the analogous map on the operator
    part this identifies the coefficient complex with a subcomplex of the
    adjoint complex of the split-zero extension."""
    gdim, vdim = A.dim, rep.space_dim
    N = gdim + vdim
    src = cochain_dim(gdim, vdim, n)
    tgt = cochain_dim(N, N, n)
    out = Matrix.zero(tgt, src)
    big_keys = {key: k for k, key in enumerate(cochain_keys(N, n))}
    for k, key in enumerate(cochain_keys(gdim, n)):
        for t in range(vdim):
            col = k * vdim + t
            row = big_keys[key] * N + gdim + t
            out.data[row][col] = 1
    return out


def embedding_commutes_residual(A, rep, n):
    """E . d  -  d_ext . E on the combined complexes, where E is the block
    embedding of C^n(g,V) into C^n of the split-zero extension with adjoint
    coefficients.  Returns the difference matrix (zero)."""
    ext = trivial_extension(A, rep)
    ext_rep = adjoint_rep(ext)

    def embed_block(m):
        lie = extension_embedding(A, rep, m)
        if m == 0:
            return lie
        op = extension_embedding(A, rep, m - 1)
        z1 = Matrix.zero(lie.rows, op.cols)
        z2 = Matrix.zero(op.rows, lie.cols)
        return Matrix.block([[lie, z1], [z2, op]])

    E_n = embed_block(n)
    E_n1 = embed_block(n + 1)
    d_small = difflie_differential(A, rep, n)
    d_big = difflie_differential(ext, ext_rep, n)
    return d_big * E_n - E_n1 * d_small


def test_embedding_commutes(rng):
    for _ in range(3):
        A = random_diff_lie(rng, max_dim=2)
        rep = random_rep(rng, A, max_dim=2)
        for n in range(3):
            assert embedding_commutes_residual(A, rep, n).is_zero()


@pytest.mark.parametrize("flavor", FLAVORS)
def test_planned_cells_are_the_built_shapes(rng, flavor):
    # the plan that cohomology and extension classify admit by is the sum
    # of the shapes CochainComplexSpec builds, also at degrees above
    # dim + 1, where it builds 0 x 0 matrices
    sl2_id = DiffLieAlgebra(sl2(), Matrix.identity(3), Fraction(-1))
    fixtures = [(aff1_d(), trivial_rep(aff1_d(), 1)),
                (sl2_id, adjoint_rep(sl2_id))]
    for _ in range(3):
        A = random_diff_lie(rng, max_dim=3)
        fixtures.append((A, random_rep(rng, A, max_dim=2)))
    for A, rep in fixtures:
        for max_degree in (1, 2, A.dim + 3):
            spec = CochainComplexSpec(A, rep, flavor, max_degree)
            assert planned_cells(A.dim, rep.space_dim, flavor,
                                 max_degree) == \
                sum(m.rows * m.cols for m in spec.d)
