import random
from fractions import Fraction

import pytest

from axiom_oracles import (derivation_oracle, is_diff_representation,
                           jacobi_oracle)
from conftest import filled, kernel_basis
from difflie.linalg import Matrix, vec_is_zero
from difflie.liealg import (DiffRepresentation, LieAlgebra,
                            adjoint_rep, trivial_extension)
from difflie.multilinear import AltMap, DimensionMismatch
from difflie.cohomology import (CochainComplexSpec, CocyclePair,
                                altmap_to_coords, cochain_dim,
                                coords_to_altmap, difflie_differential)
from difflie.extensions import (AbelianExtension, InvalidExtension,
                                NotCocycle, build_extension,
                                check_coefficients, classify,
                                equivalence_witness, extract_cocycle)
from samples import (WEIGHTS, abelian, aff1, altmap1_from_matrix, block,
                     built_extension, conjugate_diff_lie, diff_lie, from_rows,
                     identity_matrix, invert_matrix, rand_matrix,
                     rand_unimodular, random_diff_lie, random_rep,
                     section_change, trivial_rep)
from test_axiom_kernel import algebras, reps


def cocycle_basis(A, rep):
    spec = CochainComplexSpec(A, rep, "difflie", max_degree=3)
    return [CocyclePair.from_coords(v, A.dim, rep.space_dim, 2)
            for v in kernel_basis(spec.d[2])]


def coboundary_coords(A, rep, phi):
    """The coordinates of the truncated coboundary of the 1-cochain of the
    vdim x gdim matrix phi."""
    return difflie_differential(A, rep, 1, tilde=True).matvec(
        altmap_to_coords(altmap1_from_matrix(phi)))


def test_trivial_extension_extracts_zero(rng):
    # the coordinate section extracts the zero pair; the section s + i phi
    # extracts the coboundary of phi
    A = random_diff_lie(rng, max_dim=3)
    rep = random_rep(rng, A, max_dim=2)
    total = trivial_extension(A, rep)
    E = AbelianExtension(total, A.dim, rep.space_dim)
    rep2, psi, chi = extract_cocycle(E)
    assert psi.is_zero() and chi.is_zero()
    assert rep2.rho == rep.rho and rep2.dV == rep.dV
    base = E.base()
    assert base.algebra.bracket == A.algebra.bracket and base.d == A.d
    phi = rand_matrix(rng, rep.space_dim, A.dim)
    rep3, psi, chi = extract_cocycle(section_change(E, phi))
    assert CocyclePair(psi, chi).coords() == coboundary_coords(A, rep, phi)
    assert rep3.rho == rep.rho and rep3.dV == rep.dV


def test_build_zero_pair_is_trivial_extension(rng):
    A = random_diff_lie(rng, max_dim=3)
    rep = random_rep(rng, A, max_dim=2)
    built = build_extension(A, rep, AltMap(2, A.dim, rep.space_dim),
                            AltMap(1, A.dim, rep.space_dim))
    total = trivial_extension(A, rep)
    assert built.algebra.bracket == total.algebra.bracket
    assert built.d == total.d and built.weight == total.weight


def test_build_extract_round_trip(rng):
    hits = 0
    for _ in range(6):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        for pair in cocycle_basis(A, rep)[:2]:
            E = built_extension(A, rep, pair.f, pair.g)
            rep2, psi, chi = extract_cocycle(E)
            assert psi == pair.f or (psi - pair.f).is_zero()
            assert (chi - pair.g).is_zero()
            assert rep2.rho == rep.rho
            hits += 1
    assert hits >= 3


def test_extracted_coefficients_are_a_representation(rng):
    # extract_cocycle does not check its coefficients: an accepted
    # extension always induces a differential representation of its base,
    # in the coordinate section, in another section, and in a random basis
    # of the total space that keeps V on the last coordinates
    for _ in range(8):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        gdim, vdim = A.dim, rep.space_dim
        pairs = cocycle_basis(A, rep)
        pair = pairs[rng.randrange(len(pairs))] if pairs else \
            CocyclePair(AltMap(2, gdim, vdim), AltMap(1, gdim, vdim))
        E = built_extension(A, rep, pair.f, pair.g)
        U = block([[rand_unimodular(rng, gdim),
                    Matrix.zero(gdim, vdim)],
                   [rand_matrix(rng, vdim, gdim),
                    rand_unimodular(rng, vdim)]])
        for F in (E, section_change(E, rand_matrix(rng, vdim, gdim)),
                  AbelianExtension(conjugate_diff_lie(E.total, U,
                                                      invert_matrix(U)),
                                   gdim, vdim)):
            rep2, _, _ = extract_cocycle(F)
            assert is_diff_representation(F.base(), rep2)


def test_build_non_cocycle_raises(rng):
    A = diff_lie(aff1(), from_rows([[0, 0], [0, 1]]),
                 Fraction(2))
    rep = adjoint_rep(A)
    raised = 0
    for _ in range(8):
        psi = AltMap(2, 2, 2)
        psi[(0, 1)] = [rng.randrange(-2, 3), rng.randrange(-2, 3)]
        chi = altmap1_from_matrix(rand_matrix(rng, 2, 2))
        try:
            build_extension(A, rep, psi, chi)
        except NotCocycle as e:
            assert not vec_is_zero(e.residual)
            raised += 1
    assert raised > 0


def test_invalid_extension_detected(rng):
    A = random_diff_lie(rng, max_dim=2)
    rep = random_rep(rng, A, max_dim=2)
    total = trivial_extension(A, rep)
    N = A.dim + rep.space_dim
    for gdim, vdim in ((A.dim, rep.space_dim + 1), (A.dim + 1, rep.space_dim),
                       (A.dim - 1, rep.space_dim), (-1, N + 1), (N + 1, -1)):
        with pytest.raises(InvalidExtension,
                           match="^dimension count is not exact$"):
            AbelianExtension(total, gdim, vdim)


@pytest.mark.parametrize("gdim, bracket, d, message", [
    # aff1, [e1,e2] = e2, as the kernel of an extension of the zero algebra
    (0, {(0, 1): [0, 1]}, [[0, 0], [0, 1]], "kernel is not abelian"),
    # V = <e2> with [e1,e2] = e1: the bracket leaves V
    (1, {(0, 1): [1, 0]}, [[0, 0], [0, 0]], "kernel is not an ideal"),
    # abelian, with d e2 = e1
    (1, {}, [[0, 1], [0, 0]], "operator does not preserve kernel"),
])
def test_kernel_defects_are_named(gdim, bracket, d, message):
    total = diff_lie(LieAlgebra(2, filled(AltMap(2, 2, 2), bracket)),
                     from_rows(d), 3)
    with pytest.raises(InvalidExtension, match="^%s$" % message):
        AbelianExtension(total, gdim, 2 - gdim)


def test_zero_dimensional_extension():
    A = diff_lie(abelian(0), Matrix.zero(0, 0), 1)
    rep = trivial_rep(A, 0)
    E = built_extension(A, rep, AltMap(2, 0, 0), AltMap(1, 0, 0))
    assert E.total.dim == 0 and E.total.algebra.bracket.is_zero()
    rep2, psi, chi = extract_cocycle(E)
    assert rep2.rho == AltMap(2, 0, 0) and rep2.dV == AltMap(1, 0, 0)
    assert psi.is_zero() and chi.is_zero()
    assert E.base().dim == 0


def test_section_change_is_coboundary(rng):
    for _ in range(5):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        gdim, vdim = A.dim, rep.space_dim
        pairs = cocycle_basis(A, rep)
        pair = pairs[rng.randrange(len(pairs))] if pairs else \
            CocyclePair(AltMap(2, gdim, vdim), AltMap(1, gdim, vdim))
        E = built_extension(A, rep, pair.f, pair.g)
        phi = rand_matrix(rng, vdim, gdim)
        _, psi2, chi2 = extract_cocycle(section_change(E, phi))
        diff = CocyclePair(psi2 - pair.f, chi2 - pair.g).coords()
        assert diff == coboundary_coords(A, rep, phi)


def test_equivalence_trivial(rng):
    A = random_diff_lie(rng, max_dim=3)
    rep = random_rep(rng, A, max_dim=2)
    E = built_extension(A, rep, AltMap(2, A.dim, rep.space_dim),
                        AltMap(1, A.dim, rep.space_dim))
    ok, phi = equivalence_witness(E, E, AltMap(1, A.dim, rep.space_dim))
    assert ok and phi.is_zero()


def test_cohomologous_cocycles_give_equivalent_extensions(rng):
    hits = 0
    for _ in range(5):
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        gdim, vdim = A.dim, rep.space_dim
        pairs = cocycle_basis(A, rep)
        base_pair = pairs[rng.randrange(len(pairs))] if pairs else \
            CocyclePair(AltMap(2, gdim, vdim), AltMap(1, gdim, vdim))
        d1 = difflie_differential(A, rep, 1, tilde=True)
        phi_flat = [Fraction(rng.randrange(-2, 3))
                    for _ in range(cochain_dim(gdim, vdim, 1))]
        img = d1.matvec(phi_flat)
        cut = cochain_dim(gdim, vdim, 2)
        psi2 = base_pair.f + coords_to_altmap(img[:cut], gdim, vdim, 2)
        chi2 = base_pair.g + coords_to_altmap(img[cut:], gdim, vdim, 1)
        E1 = built_extension(A, rep, base_pair.f, base_pair.g)
        E2 = built_extension(A, rep, psi2, chi2)
        ok, phi = equivalence_witness(E1, E2)
        assert ok
        ok2, _ = equivalence_witness(E1, E2, phi)
        assert ok2
        hits += 1
    assert hits == 5


def test_inequivalent_extensions_detected():
    # 2-dim abelian g with d = 0, trivial line coefficients: the pair with
    # psi(x,y) = 1 is not a coboundary, so its extension (the Heisenberg
    # algebra) is not equivalent to the product
    A = diff_lie(abelian(2), Matrix.zero(2, 2), 1)
    rep = trivial_rep(A, 1)
    psi = AltMap(2, 2, 1)
    psi[(0, 1)] = [1]
    chi = AltMap(1, 2, 1)
    E1 = built_extension(A, rep, psi, chi)
    E0 = built_extension(A, rep, AltMap(2, 2, 1), AltMap(1, 2, 1))
    ok, _ = equivalence_witness(E1, E0)
    assert not ok


def aff1_line_extension(dV=0, vdim=1):
    """aff1 with d = 0, weight 0, extended by the zero pair with trivial
    coefficients of operator dV * Id on a vdim-dimensional V."""
    A = diff_lie(aff1(), Matrix.zero(2, 2), 0)
    rep = trivial_rep(A, vdim, identity_matrix(vdim).scale(dV))
    return built_extension(A, rep, AltMap(2, 2, vdim), AltMap(1, 2, vdim))


@pytest.mark.parametrize("phi, ok", [([[0, 1]], False), ([[1, 0]], True),
                                     ([[0, 0]], True)])
def test_equivalence_witness_compares_brackets(phi, ok):
    # [x, y] = y and V is central, so zeta = Id + i phi p gives
    # [zeta x, zeta y] = y but zeta [x, y] = y + phi(y) v: zeta preserves
    # the bracket iff phi(y) = 0
    E = aff1_line_extension()
    phi = altmap1_from_matrix(from_rows(phi))
    assert equivalence_witness(E, E, phi) == ((True, phi) if ok
                                              else (False, None))


def test_equivalence_witness_rejections():
    E = aff1_line_extension()
    # V of another dimension
    assert equivalence_witness(E, aff1_line_extension(vdim=2)) == \
        (False, None)
    # other coefficients: d_V = Id instead of 0
    assert equivalence_witness(E, aff1_line_extension(dV=1)) == (False, None)
    # with d_V = Id, phi(x) = 1 gives d zeta x = v but zeta d x = 0
    Ed = aff1_line_extension(dV=1)
    assert equivalence_witness(Ed, Ed, altmap1_from_matrix(
        from_rows([[1, 0]]))) == (False, None)
    # a phi that is not a map g -> V
    for phi in (AltMap(1, 1, 2), AltMap(1, 2, 2), AltMap(2, 2, 1)):
        with pytest.raises(DimensionMismatch):
            equivalence_witness(Ed, Ed, phi)


def test_classify_line_example():
    A = diff_lie(abelian(1), Matrix.zero(1, 1), 1)
    rep = trivial_rep(A, 1)
    # hand count: degree-2 space is Hom(g,V) = k, both neighboring
    # differentials vanish, so the dimension is 1
    assert classify(A, rep) == 1


def test_classify_trivial_rep_matches_full_complex(rng):
    from difflie.cohomology import cohomology_dims
    for _ in range(3):
        A = random_diff_lie(rng, max_dim=3)
        rep = trivial_rep(A, 2, identity_matrix(2))
        full = CochainComplexSpec(A, rep, "difflie")
        assert classify(A, rep) == cohomology_dims(full)[2]


def test_classification_count_sanity():
    # every basis cocycle of the classifying group gives an extension not
    # equivalent to the trivial one, and basis elements are pairwise
    # inequivalent
    A = diff_lie(abelian(2), Matrix.zero(2, 2), 1)
    rep = trivial_rep(A, 1)
    spec = CochainComplexSpec(A, rep, "tilde", max_degree=3)
    kernel = kernel_basis(spec.d[2])
    image_rank = spec.d[1].rank()
    assert classify(A, rep) == len(kernel) - image_rank
    exts = []
    for v in kernel:
        cut = cochain_dim(2, 1, 2)
        pair = CocyclePair(coords_to_altmap(v[:cut], 2, 1, 2),
                           coords_to_altmap(v[cut:], 2, 1, 1))
        exts.append(built_extension(A, rep, pair.f, pair.g))
    distinct = 0
    for a in range(len(exts)):
        for b in range(a + 1, len(exts)):
            ok, _ = equivalence_witness(exts[a], exts[b])
            distinct += not ok
    assert distinct >= 1


def two_step_verdict(A, rep):
    """The message check_coefficients raises, None when it raises nothing,
    by the basis-vector formulas: the algebra first, then the
    representation."""
    if not all(vec_is_zero(r)
               for r in jacobi_oracle(A.algebra) + derivation_oracle(A)):
        return "base algebra axioms fail"
    if not is_diff_representation(A, rep):
        return "coefficients fail representation axioms"
    return None


def one_pass_verdict(A, rep):
    try:
        check_coefficients(A, rep)
    except InvalidExtension as e:
        return str(e)
    return None


def test_check_coefficients_agrees_with_the_two_step_check():
    # valid and corrupted algebras (random d, non-Lie bracket) with valid
    # and corrupted coefficients (random rho and d_V, or only d_V)
    rng = random.Random(27)
    seen = set()
    for lam in WEIGHTS:
        for A in algebras(rng, lam):
            for rep in reps(rng, A):
                m = rep.space_dim
                for R in (rep, DiffRepresentation(rep.rho, altmap1_from_matrix(
                        rand_matrix(rng, m, m)))):
                    verdict = one_pass_verdict(A, R)
                    assert verdict == two_step_verdict(A, R)
                    seen.add(verdict)
    assert seen == {None, "base algebra axioms fail",
                    "coefficients fail representation axioms"}


def test_split_extension_accepts_every_built_total():
    # for every weight, each basis cocycle and a random combination of
    # them; the extracted pair is the one built from
    rng = random.Random(28)
    built = 0
    for lam in WEIGHTS:
        for _ in range(3):
            A = random_diff_lie(rng, lam=lam, max_dim=3)
            rep = random_rep(rng, A, max_dim=2)
            gdim, vdim = A.dim, rep.space_dim
            pairs = cocycle_basis(A, rep)
            mix = CocyclePair(AltMap(2, gdim, vdim), AltMap(1, gdim, vdim))
            for pair in pairs:
                c = rng.randrange(-2, 3)
                mix = CocyclePair(mix.f + pair.f.scale(c),
                                  mix.g + pair.g.scale(c))
            for pair in pairs + [mix]:
                total = build_extension(A, rep, pair.f, pair.g)
                E = AbelianExtension(total, gdim, vdim)
                assert E.total is total
                rep2, psi, chi = extract_cocycle(E)
                assert (psi - pair.f).is_zero() and (chi - pair.g).is_zero()
                assert rep2.rho == rep.rho and rep2.dV == rep.dV
                built += 1
    assert built >= 30

