"""End-to-end acceptance suite.

One test per top-level guarantee of the package; each prints a single
"criterion N (...): PASS/FAIL" line and then asserts.  Every check is exact
(rational arithmetic, tolerance zero).
"""

from fractions import Fraction
from itertools import combinations, product
import random

import pytest

from axiom_oracles import relative_oracle
from conftest import kernel_basis
from difflie.linalg import Matrix, basis_vec, vec_is_zero, vec_scale
from difflie.liealg import (DiffLieAlgebra, LieAlgebra, adjoint_rep,
                            is_diff_lie_algebra, is_lieact, lift_tilde_D,
                            relative_diff_residual, rescale_operator,
                            weighted_derivation_residual)
from difflie.multilinear import AltMap, GradedVectorSpace
from difflie.cohomology import (CochainComplexSpec, CocyclePair,
                                altmap_to_coords, ce_differential, cochain_dim,
                                cohomology_dims, coords_to_altmap,
                                delta_matrix,
                                difflie_differential, do_differential,
                                twist_bridge_residual)
from difflie.linfty import (AbsoluteStructure, Term,
                            iota_M, iota_a_abs, key_formula_check,
                            mc_check_absolute, mc_check_relative,
                            morphism_residual, project_M_embed,
                            project_a_rel, relative_structure, twist_l1_formal)
from difflie.extensions import (equivalence_witness, extract_cocycle,
                                matrix_from_altmap1, altmap1_from_matrix)
from difflie.deformations import (TruncatedDeformation,
                                  apply_formal_iso, deformation_residuals,
                                  failed_equations, first_nontrivial_order,
                                  infinitesimal, rigidify)
from difflie.homotopy import (HomotopyDiffLie, homotopy_mc_check,
                              lambda_rescale, linfty_residual,
                              residual_tables, suspend_diff_lie)
from samples import (WEIGHTS, abelian, aff1, heisenberg, sl2,
                     built_extension, constant_deformation, deformation,
                     formal_iso, rand_matrix,
                     random_diff_lie, random_lieact, random_relative_operator,
                     random_rep, trivial_rep)

from test_cohomology import bridge, embedding_commutes_residual
from test_linfty import all_zero, jacobi_holds, project_M_rel
from test_homotopy import (display_residual_n1, display_residual_n2,
                           operator_family_by_vectors, rand_homotopy,
                           two_term, two_term_space)


def report(num, name, bad):
    verdict = "PASS" if not bad else "FAIL"
    print("criterion %d (%s): %s" % (num, name, verdict))
    assert not bad, "%d failing checks, first: %r" % (len(bad), bad[0])


@pytest.fixture
def rng():
    return random.Random(883002)


def rand_altmap(rng, arity, dim, tgt=None, lo=-2, hi=3):
    f = AltMap(arity, dim, tgt or dim)
    for key in combinations(range(dim), arity):
        v = [Fraction(rng.randrange(lo, hi)) for _ in range(tgt or dim)]
        if not vec_is_zero(v):
            f[key] = v
    return f


def sterm(f):
    return Term("s", f)


def aterm(f):
    return Term("a", f)


# ---------------------------------------------------------------------------
# 1. the three cochain complexes square to zero; the connecting map
#    intertwines the algebra and operator differentials


def test_criterion_01_complex_axioms(rng):
    bad = []
    samples = 0
    for _ in range(50):
        A = random_diff_lie(rng, max_dim=4)
        for rep in (adjoint_rep(A), random_rep(rng, A, max_dim=3)):
            ce = [ce_differential(A, rep, n) for n in range(5)]
            do = [do_differential(A, rep, n) for n in range(5)]
            dl = [difflie_differential(A, rep, n) for n in range(5)]
            dt = [delta_matrix(A, rep, n) for n in range(5)]
            for n in range(4):
                if not (ce[n + 1] * ce[n]).is_zero():
                    bad.append(("ce^2", n))
                if not (do[n + 1] * do[n]).is_zero():
                    bad.append(("do^2", n))
                if not (dl[n + 1] * dl[n]).is_zero():
                    bad.append(("combined^2", n))
                if do[n] * dt[n] != dt[n + 1] * ce[n]:
                    bad.append(("intertwine", n))
        samples += 1
    if samples < 50:
        bad.append("too few samples")
    report(1, "cochain complexes square to zero through degree 4 and the "
              "connecting map is a cochain map", bad)


# ---------------------------------------------------------------------------
# 2/3. the Maurer-Cartan characterizations agree with the axioms


def rand_bracket(rng, dim):
    return rand_altmap(rng, 2, dim)


def test_criterion_02_absolute_mc_iff_structure(rng):
    bad = []
    yes = no = 0
    for _ in range(100):
        A = random_diff_lie(rng, max_dim=3)
        dim = A.dim
        br, d = A.algebra.bracket, A.d
        u = rng.random()
        if u < 0.35:
            d = rand_matrix(rng, dim, dim)
        elif u < 0.55:
            br = rand_bracket(rng, dim)
        A2 = DiffLieAlgebra(LieAlgebra(dim, br), d, A.weight)
        axioms = is_diff_lie_algebra(A2)
        mc, res = mc_check_absolute(br, d, A2.weight)
        if mc != axioms or mc != all_zero(res):
            bad.append((br.coeffs, d.data, A2.weight))
        yes += axioms
        no += not axioms
    if not (yes and no):
        bad.append("one-sided sampling")
    report(2, "absolute Maurer-Cartan elements are exactly the "
              "weight-lambda differential Lie structures", bad)


def test_criterion_03_relative_mc_iff_structure(rng):
    bad = []
    yes = no = 0
    for _ in range(100):
        T = random_lieact(rng)
        lam = rng.choice(WEIGHTS)
        if rng.random() < 0.5:
            D = random_relative_operator(rng, T, lam)
        else:
            D = rand_matrix(rng, T.h.dim, T.g.dim)
        rho = T.rho
        if rng.random() < 0.25:
            rho = [Matrix(m.rows, m.cols, m.data) for m in rho]
            rho[0].data[0][0] += Fraction(1)
        from difflie.liealg import LieActTriple
        T2 = LieActTriple(T.g, T.h, rho)
        axioms = is_lieact(T2) and all(
            vec_is_zero(r) for r in relative_diff_residual(T2, D, lam))
        mc, res = mc_check_relative(T2.g.bracket, rho, T2.h.bracket, D, lam)
        if mc != axioms or mc != all_zero(res):
            bad.append((T2.g.dim, T2.h.dim, lam))
        yes += axioms
        no += not axioms
    if not (yes and no):
        bad.append("one-sided sampling")
    report(3, "relative Maurer-Cartan elements are exactly the action "
              "triples with a relative weighted operator", bad)


# ---------------------------------------------------------------------------
# 4. the derived-bracket structures satisfy generalized Jacobi


def test_criterion_04_generalized_jacobi(rng):
    bad = []
    for trial in range(24):
        n = 2 + trial % 3  # cycles through 2, 3, 4
        lam = rng.choice(WEIGHTS)
        if trial % 2 == 0:
            dim = rng.randrange(2, 4)
            S = AbsoluteStructure(lam)
            pool = [sterm(rand_altmap(rng, rng.randrange(1, 4), dim)),
                    aterm(rand_altmap(rng, rng.randrange(1, 4), dim)),
                    aterm(rand_altmap(rng, rng.randrange(1, 3), dim))]
        else:
            gdim, hdim = 2, rng.randrange(1, 3)
            N = gdim + hdim
            S = relative_structure(gdim, lam)
            pool = [sterm(project_M_rel(
                        rand_altmap(rng, rng.randrange(1, 4), N), gdim)),
                    aterm(project_a_rel(
                        rand_altmap(rng, rng.randrange(1, 4), N), gdim)),
                    aterm(project_a_rel(
                        rand_altmap(rng, rng.randrange(1, 3), N), gdim))]
        terms = [rng.choice(pool) for _ in range(n)]
        if not jacobi_holds(S, terms):
            bad.append((trial, n, lam))
    report(4, "generalized Jacobi identities of the one-algebra and "
              "pair structures hold up to arity 4", bad)


# ---------------------------------------------------------------------------
# 5. the iterated-insertion key formula and its arity-3 specialization


def unit_altmap(arity, dim, key, t):
    f = AltMap(arity, dim, dim)
    f[key] = basis_vec(dim, t)
    return f


def test_criterion_05_key_formula(rng):
    bad = []
    # exhaustive over basis coefficients in dimensions 1 and 2
    for dim in (1, 2):
        xis = [unit_altmap(a, dim, key, t)
               for a in range(1, dim + 1)
               for key in combinations(range(dim), a)
               for t in range(dim)]
        for a in range(1, dim + 1):
            for fkey in combinations(range(dim), a):
                for t in range(dim):
                    f = unit_altmap(a, dim, fkey, t)
                    for r in range(1, min(3, a) + 1):
                        for chosen in product(xis, repeat=r):
                            if not key_formula_check(
                                    f, list(chosen)).is_zero():
                                bad.append((dim, fkey, t, r))
    # random samples in dimension 3
    for _ in range(200):
        dim = 3
        n = rng.randrange(1, 3)
        f = rand_altmap(rng, n + 1, dim)
        r = rng.randrange(1, min(3, n + 1) + 1)
        chosen = [rand_altmap(rng, rng.randrange(1, 3), dim)
                  for _ in range(r)]
        if not key_formula_check(f, chosen).is_zero():
            bad.append(("random", n, r))
    # frozen arity-3 value: l_3(s pi, D, D) = 2 lambda pi(D., D.)
    for L in (aff1(), sl2(), heisenberg()):
        dim = L.dim
        D = rand_matrix(rng, dim, dim)
        Dmap = altmap1_from_matrix(D)
        for lam in WEIGHTS:
            S = AbsoluteStructure(lam)
            out = S.bracket([sterm(L.bracket), aterm(Dmap), aterm(Dmap)])
            expected = AltMap(2, dim, dim)
            for key in combinations(range(dim), 2):
                v = vec_scale(2 * Fraction(lam),
                              L.bracket.evaluate(
                                  [D.matvec(basis_vec(dim, key[0])),
                                   D.matvec(basis_vec(dim, key[1]))]))
                if not vec_is_zero(v):
                    expected[key] = v
            got = AltMap(2, dim, dim)
            for term in out:
                if term.kind != "a" or term.f.arity != 2:
                    bad.append(("l3 shape", dim, lam))
                    continue
                got = got + term.f
            if not (got - expected).is_zero():
                bad.append(("l3 value", dim, lam))
    report(5, "insertion of arity-1 elements into an embedded map matches "
              "the closed shuffle formula; the arity-3 bracket is "
              "2*lambda*pi(D.,D.)", bad)


# ---------------------------------------------------------------------------
# 6. the twisted structure reproduces the combined differential


def test_criterion_06_twist_bridge(rng):
    bad = []
    algebras = [random_diff_lie(rng, max_dim=3) for _ in range(20)]
    for A in algebras:
        dim = A.dim
        for n in range(1, 4):
            units = []
            for key in combinations(range(dim), n):
                for t in range(dim):
                    units.append(CocyclePair(unit_altmap(n, dim, key, t),
                                             AltMap(n - 1, dim, dim)))
            for key in combinations(range(dim), n - 1):
                for t in range(dim):
                    units.append(CocyclePair(AltMap(n, dim, dim),
                                             unit_altmap(n - 1, dim, key, t)))
            for pair in units:
                if not vec_is_zero(bridge(A, pair)):
                    bad.append(("bridge", dim, n))
            if not twist_bridge_residual(A, n).is_zero():
                bad.append(("bridge matrix", dim, n))
    # the twisted arity-1 bracket squares to zero
    for A in algebras[:5]:
        dim = A.dim
        S = AbsoluteStructure(A.weight)
        mu = A.algebra.bracket
        dmap = altmap1_from_matrix(A.d)
        seeds = [sterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                 aterm(rand_altmap(rng, 1, dim))]
        for t in seeds:
            f, g = twist_l1_formal(S, mu, dmap, t)
            fs, fa = twist_l1_formal(S, mu, dmap, sterm(f))
            gs, ga = twist_l1_formal(S, mu, dmap, aterm(g))
            if not all_zero((fs + gs, fa + ga)):
                bad.append(("l1 square", dim, t.kind))
    # the coefficient embedding into the split-zero extension is a cochain map
    for _ in range(5):
        A = random_diff_lie(rng, max_dim=2)
        rep = random_rep(rng, A, max_dim=2)
        for n in range(3):
            if not embedding_commutes_residual(A, rep, n).is_zero():
                bad.append(("embedding", A.dim, n))
    report(6, "twisting by the structure element reproduces the combined "
              "differential, the twisted differential squares to zero, and "
              "the coefficient embedding commutes", bad)


# ---------------------------------------------------------------------------
# 7. abelian extensions <-> degree-2 cocycle pairs


def cocycle_basis(A, rep):
    spec = CochainComplexSpec(A, rep, "difflie", max_degree=3)
    return spec, [CocyclePair.from_coords(v, A.dim, rep.space_dim, 2)
                  for v in kernel_basis(spec.d[2])]


def test_criterion_07_extensions(rng):
    from difflie.extensions import AbelianExtension
    bad = []
    fixtures = 0
    while fixtures < 20:
        A = random_diff_lie(rng, max_dim=3)
        rep = random_rep(rng, A, max_dim=2)
        gdim, vdim = A.dim, rep.space_dim
        spec, pairs = cocycle_basis(A, rep)
        pair = pairs[rng.randrange(len(pairs))] if pairs else \
            CocyclePair(AltMap(2, gdim, vdim), AltMap(1, gdim, vdim))
        E = built_extension(A, rep, pair.f, pair.g)
        rep2, psi, chi = extract_cocycle(E)
        if not ((psi - pair.f).is_zero() and (chi - pair.g).is_zero()
                and rep2.rho == rep.rho and rep2.dV == rep.dV):
            bad.append(("round trip", gdim, vdim))
        # changing the section shifts the cocycle by an exact coboundary
        phi = rand_matrix(rng, vdim, gdim)
        E2 = AbelianExtension(E.total, E.i, E.p, E.s + E.i * phi)
        _, psi2, chi2 = extract_cocycle(E2)
        diff = CocyclePair(psi2 - pair.f, chi2 - pair.g).coords()
        d1 = difflie_differential(A, rep, 1, tilde=True)
        flat = []
        for j in range(gdim):
            vec = altmap1_from_matrix(phi).coeffs.get((j,))
            flat.extend(vec if vec else [Fraction(0)] * vdim)
        if diff != d1.matvec(flat):
            bad.append(("section change", gdim, vdim))
        # a cohomologous pair yields an equivalent extension
        phi_flat = [Fraction(rng.randrange(-2, 3))
                    for _ in range(cochain_dim(gdim, vdim, 1))]
        img = d1.matvec(phi_flat)
        shifted = CocyclePair.from_coords(img, gdim, vdim, 2)
        E3 = built_extension(A, rep, pair.f + shifted.f,
                             pair.g + shifted.g)
        ok, witness = equivalence_witness(E, E3)
        if not ok or not equivalence_witness(E, E3, witness)[0]:
            bad.append(("equivalence", gdim, vdim))
        fixtures += 1
    # a non-coboundary cocycle gives an inequivalent extension
    A = DiffLieAlgebra(abelian(2), Matrix.zero(2, 2), 1)
    rep = trivial_rep(A, 1)
    psi = AltMap(2, 2, 1)
    psi[(0, 1)] = [1]
    E1 = built_extension(A, rep, psi, AltMap(1, 2, 1))
    E0 = built_extension(A, rep, AltMap(2, 2, 1), AltMap(1, 2, 1))
    if equivalence_witness(E1, E0)[0]:
        bad.append("inequivalent pair accepted")
    report(7, "extensions round-trip through their cocycle pairs, "
              "cohomologous pairs give equivalent extensions, "
              "non-cohomologous pairs do not, and section changes are "
              "coboundaries", bad)


# ---------------------------------------------------------------------------
# 8. deformations: infinitesimals, equivalence, rigidity


def order1_deformation(A, pair):
    return TruncatedDeformation(A, [A.algebra.bracket, pair.f],
                                [altmap1_from_matrix(A.d), pair.g])


def order2_coords(A, mu_list, d_list):
    D = deformation(A, mu_list, d_list)
    jac, op = deformation_residuals(D)[2]
    dim = A.dim
    return altmap_to_coords(jac) + altmap_to_coords(op)


def complete_to_order2(A, pair):
    """Solve the linear order-2 equations for (mu_2, d_2); None if
    obstructed."""
    dim = A.dim
    mu1, d1 = pair.f, matrix_from_altmap1(pair.g)
    z2, zm = AltMap(2, dim, dim), Matrix.zero(dim, dim)
    base = order2_coords(A, [A.algebra.bracket, mu1, z2], [A.d, d1, zm])
    cols = []
    n2 = cochain_dim(dim, dim, 2)
    for k in range(n2):
        unit = [Fraction(i == k) for i in range(n2)]
        mu2 = coords_to_altmap(unit, dim, dim, 2)
        col = order2_coords(A, [A.algebra.bracket, mu1, mu2], [A.d, d1, zm])
        cols.append([c - b for c, b in zip(col, base)])
    for i in range(dim):
        for j in range(dim):
            m = Matrix.zero(dim, dim)
            m.data[i][j] = Fraction(1)
            col = order2_coords(A, [A.algebra.bracket, mu1, z2],
                                [A.d, d1, m])
            cols.append([c - b for c, b in zip(col, base)])
    L = Matrix(len(base), len(cols),
               [[cols[j][i] for j in range(len(cols))]
                for i in range(len(base))])
    x = L.solve([-b for b in base])
    if x is None:
        return None
    mu2 = coords_to_altmap(x[:n2], dim, dim, 2)
    d2 = Matrix(dim, dim, [[x[n2 + i * dim + j] for j in range(dim)]
                           for i in range(dim)])
    return deformation(A, [A.algebra.bracket, mu1, mu2], [A.d, d1, d2])


def rigidifies(D):
    for iso in rigidify(D):
        D = apply_formal_iso(D, iso)
    return first_nontrivial_order(D) is None


def test_criterion_08_deformations(rng):
    bad = []
    # infinitesimals of valid order-1 deformations are cocycle pairs
    for _ in range(8):
        A = random_diff_lie(rng, max_dim=3)
        spec, pairs = cocycle_basis(A, adjoint_rep(A))
        pair = pairs[rng.randrange(len(pairs))] if pairs else \
            CocyclePair(AltMap(2, A.dim, A.dim), AltMap(1, A.dim, A.dim))
        D = order1_deformation(A, pair)
        if failed_equations(D):
            bad.append(("order-1 validity", A.dim))
            continue
        got, res = infinitesimal(D)
        if not vec_is_zero(res) or \
                not vec_is_zero(spec.d[2].matvec(got.coords())):
            bad.append(("infinitesimal cocycle", A.dim))
        # equivalent deformations: infinitesimals differ by a coboundary
        phi1 = rand_matrix(rng, A.dim, A.dim)
        D2 = apply_formal_iso(D, formal_iso([phi1]))
        got2, _ = infinitesimal(D2)
        diff = CocyclePair(got2.f - got.f, got2.g - got.g).coords()
        d1 = difflie_differential(A, adjoint_rep(A), 1, tilde=True)
        flat = []
        for j in range(A.dim):
            flat.extend(phi1.data[i][j] for i in range(A.dim))
        if diff != d1.matvec(flat):
            bad.append(("coboundary difference", A.dim))
    # rigidity: trivial truncated degree-2 cohomology forces every valid
    # order-2 deformation to be equivalent to the constant one
    A = DiffLieAlgebra(sl2(), Matrix.identity(3), Fraction(-1))
    rep = adjoint_rep(A)
    tilde = CochainComplexSpec(A, rep, "tilde", max_degree=3)
    if cohomology_dims(tilde)[2] != 0:
        bad.append("fixture is not rigid")
    spec = CochainComplexSpec(A, rep, "difflie", max_degree=3)
    cleared = 0
    for coords in kernel_basis(spec.d[2]):
        pair = CocyclePair.from_coords(coords, 3, 3, 2)
        D = complete_to_order2(A, pair)
        if D is None or failed_equations(D):
            bad.append("order-2 completion failed")
            continue
        if not rigidifies(D):
            bad.append("kernel pair not rigidified")
        cleared += 1
    if cleared < 1:
        bad.append("no kernel pairs exercised")
    for _ in range(5):
        iso = formal_iso([rand_matrix(rng, 3, 3), rand_matrix(rng, 3, 3)])
        D = apply_formal_iso(constant_deformation(A, 2), iso)
        if failed_equations(D) or not rigidifies(D):
            bad.append("pulled-back constant not rigidified")
    report(8, "deformation infinitesimals are cocycles, equivalent "
              "deformations differ by coboundaries, and the rigid fixture "
              "trivializes every valid order-2 deformation", bad)


# ---------------------------------------------------------------------------
# 9. relative <-> absolute bridges


def test_criterion_09_relative_absolute(rng):
    bad = []
    hits = 0
    for _ in range(100):
        T = random_lieact(rng)
        lam = rng.choice(WEIGHTS)
        if rng.random() < 0.5:
            D = random_relative_operator(rng, T, lam)
        else:
            D = rand_matrix(rng, T.h.dim, T.g.dim)
        # the relative axiom by its basis-vector formula, since
        # relative_diff_residual itself reads the lifted operator
        rel_ok = all(vec_is_zero(r) for r in relative_oracle(T, D, lam))
        lifted = lift_tilde_D(T, D, lam)
        lift_ok = weighted_derivation_residual(lifted).is_zero()
        if rel_ok != lift_ok:
            bad.append(("lift", T.g.dim, T.h.dim, lam))
        hits += rel_ok
    if not (0 < hits < 100):
        bad.append("one-sided lift sampling")
    # the one-algebra structure embeds strictly into the pair structure
    for _ in range(6):
        dim = 2
        lam = rng.choice(WEIGHTS)
        src = AbsoluteStructure(lam)
        tgt = relative_structure(dim, lam)

        def phi(t):
            if t.kind == "s":
                return Term("s", iota_M(t.f))
            return Term("a", iota_a_abs(t.f))
        pool = [sterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, 1, dim))]
        samples = [tuple(rng.choice(pool) for _ in range(n)) for n in (1, 2)]
        for res in morphism_residual(phi, src, tgt, samples):
            if not all_zero(res.values()):
                bad.append(("abs->rel", dim, lam))
    # the pair structure maps into the one-algebra structure on the
    # single-h-input payload subalgebra (its maximal strict scope)
    for _ in range(6):
        gdim, hdim = 2, rng.randrange(1, 3)
        N = gdim + hdim
        lam = rng.choice(WEIGHTS)
        src = relative_structure(gdim, lam)
        tgt = AbsoluteStructure(lam)
        pool = [sterm(project_M_embed(
                    rand_altmap(rng, rng.randrange(1, 3), N), gdim)),
                aterm(project_a_rel(
                    rand_altmap(rng, rng.randrange(1, 3), N), gdim)),
                aterm(project_a_rel(rand_altmap(rng, 1, N), gdim))]
        samples = [tuple(rng.choice(pool) for _ in range(n)) for n in (1, 2)]
        for res in morphism_residual(lambda t: t, src, tgt, samples):
            if not all_zero(res.values()):
                bad.append(("rel->abs", gdim, hdim, lam))
    report(9, "lifting a relative operator to the weighted semidirect "
              "product preserves validity exactly, and both strict "
              "embeddings have vanishing morphism residuals", bad)


# ---------------------------------------------------------------------------
# 10. homotopy structures: the displayed low-arity identities, the residual
#     characterization, and the pointed-shuffle normal form


def test_criterion_10_homotopy(rng):
    bad = []
    # the two-term fixture: displayed identities hold and match the families
    H = two_term()
    ops = {n: op for n, (_, op) in residual_tables(H, 2).items()}
    for k in range(2):
        x = basis_vec(2, k)
        if not vec_is_zero(display_residual_n1(H, x)) or \
                not vec_is_zero(ops[1].evaluate([x])):
            bad.append(("valid n=1", k))
    for i in range(2):
        for j in range(i, 2):
            x, y = basis_vec(2, i), basis_vec(2, j)
            disp = display_residual_n2(H, x, y)
            if not vec_is_zero(disp) or \
                    ops[2].evaluate([x, y]) != vec_scale(-1, disp):
                bad.append(("valid n=2", i, j))
    for pert, n in ((two_term(alpha=1, beta=2), 1), (two_term(q=3), 2)):
        op = residual_tables(pert, n)[n][1]
        failed = any(not vec_is_zero(op.evaluate(
            [basis_vec(2, k) for k in key]))
            for key in pert.space.spanning_tuples(n))
        if not failed:
            bad.append(("perturbation passes", n))
        oracle = display_residual_n1(pert, basis_vec(2, 0)) if n == 1 else \
            display_residual_n2(pert, basis_vec(2, 0), basis_vec(2, 0))
        if vec_is_zero(oracle):
            bad.append(("oracle disagrees", n))
    # the residual characterization on random candidates, both directions,
    # with the pointed form checked against the per-vector factorial form
    # (plain shuffles with 1/(p-1)! weights) throughout
    spaces = [two_term_space(),
              GradedVectorSpace([(0, 2), (1, 1)]),
              GradedVectorSpace([(0, 1), (1, 1), (2, 1)])]
    yes = no = 0
    for trial in range(50):
        if trial % 3 == 0:
            cand = suspend_diff_lie(random_diff_lie(rng, max_dim=3))
        elif trial % 3 == 1:
            cand = two_term(lam=rng.choice((1, 2)),
                            q=rng.choice((1, 3)), r=2)
        else:
            cand = rand_homotopy(rng, rng.choice(spaces))
        max_n = min(cand.residual_range(), 4)
        mc, tables = homotopy_mc_check(cand, max_n)
        direct = True
        for n, (bracket, pointed) in tables.items():
            for key in cand.space.spanning_tuples(n):
                args = [basis_vec(cand.space.dim, k) for k in key]
                value = pointed.evaluate(args)
                if value != operator_family_by_vectors(cand, n, args,
                                                       pointed=False):
                    bad.append(("pointed vs factorial", trial, n))
                if not vec_is_zero(value) or \
                        not vec_is_zero(bracket.evaluate(args)):
                    direct = False
        if mc != direct:
            bad.append(("mc vs residuals", trial))
        yes += mc
        no += not mc
    if not (yes and no):
        bad.append("one-sided homotopy sampling")
    report(10, "the two-term identities hold exactly for valid data and "
               "fail for perturbed data; the structure check agrees with "
               "the residual families; pointed and factorial forms "
               "coincide", bad)


# ---------------------------------------------------------------------------
# 11. rescaling the weight and the operator


def mixed_arity_structures():
    """Valid structures with both an arity-1 and an arity-2 bracket: the
    bracket families of valid two-term homotopy fixtures."""
    out = []
    for p in (1, 3):
        H = two_term(p=p, q=1, r=0)  # only the bracket family matters here
        out.append(HomotopyDiffLie(H.space, H.mu, {}, 0))
    return out


def spanning_args(space, n):
    return [[basis_vec(space.dim, k) for k in key]
            for key in space.spanning_tuples(n)]


def test_criterion_11_rescaling(rng):
    bad = []
    structures = mixed_arity_structures()
    for _ in range(10):
        L = random_diff_lie(rng, max_dim=3).algebra
        structures.append(HomotopyDiffLie(L.bracket.space, {2: L.bracket},
                                          {}, 0))
    for idx, S in enumerate(structures):
        for lam in WEIGHTS:
            for variant in ("full", "reduced"):
                R = lambda_rescale(S, lam, variant)
                for n in range(1, 4):
                    for args in spanning_args(S.space, n):
                        if not vec_is_zero(linfty_residual(R, n, args)):
                            bad.append((idx, lam, variant, n))
    count = 0
    for _ in range(50):
        A = random_diff_lie(rng, max_dim=3)
        kappa = Fraction(rng.choice((1, -1, 2, 3)),
                         rng.choice((1, 2, 5)))
        B = rescale_operator(A, kappa)
        if B.weight != A.weight / kappa:
            bad.append(("weight", kappa))
        if not weighted_derivation_residual(B).is_zero():
            bad.append(("axiom", kappa))
        count += 1
    if count < 50:
        bad.append("too few rescale fixtures")
    report(11, "weight rescaling preserves the generalized Jacobi "
               "identities and operator rescaling by kappa yields a valid "
               "structure of weight lambda/kappa", bad)
