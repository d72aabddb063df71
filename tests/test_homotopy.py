from fractions import Fraction
from math import factorial

import pytest

from conftest import basis_of_degree
from difflie.linalg import basis_vec, vec_add, vec_is_zero, vec_scale, \
    vec_sub, vec_zero
from difflie.liealg import LieAlgebra, is_diff_lie_algebra
from difflie.multilinear import AltMap, GradedSymMap, GradedVectorSpace
from difflie.nr import graded_circ_bar
from difflie.homotopy import (DegreeMismatch, HomotopyDiffLie,
                              NotMaurerCartan, bracket_family,
                              homotopy_diff_residual, homotopy_mc_check,
                              linfty_residual, mc_residual, operator_family,
                              residual_tables, suspend_diff_lie, twist)
from difflie.permutations import koszul_sign, shuffles
from samples import WEIGHTS, diff_lie, from_rows, rand_matrix, random_diff_lie


# ---------------------------------------------------------------------------
# oracles: the per-vector shuffle loops the map-level sums replaced


def _compositions(total, parts):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def family_circ_by_vectors(outer, inner, args, degs, dim):
    """sum_{i=1}^{n} sum_{sigma in Sh(i,n-i)} eps(sigma)
    outer_{n-i+1}(inner_i(x_{sigma(1)}, ..), x_{sigma(i+1)}, ..)

    for families {arity: map} (a missing arity is zero), on n homogeneous
    vectors of the given degrees, in a space of dimension dim."""
    n = len(args)
    out = vec_zero(dim)
    for i in range(1, n + 1):
        f, g = outer.get(n - i + 1), inner.get(i)
        if f is None or g is None:
            continue
        for sigma in shuffles((i, n - i)):
            perm = [args[k - 1] for k in sigma]
            val = g.evaluate(perm[:i])
            if vec_is_zero(val):
                continue
            val = f.evaluate([val] + perm[i:])
            if not vec_is_zero(val):
                out = vec_add(out, vec_scale(koszul_sign(sigma, degs), val))
    return out


def mu_of_D_by_vectors(H, n, args, degs, pointed):
    """The positive half of the operator family, mu applied to D-outputs,
    on n homogeneous vectors: with pointed=True the first p-1 block leaders
    must increase; with pointed=False every shuffle counts, weighted by
    1/(p-1)!."""
    out = vec_zero(H.space.dim)
    lam = H.weight
    for p in range(2, n + 2):
        coeff = lam ** (p - 2)
        if coeff == 0:
            continue
        if not pointed:
            coeff = Fraction(coeff) / factorial(p - 1)
        for t in range(p - 1, n + 1):
            outer = H.mu.get(n - t + p - 1)
            if outer is None:
                continue
            for comp in _compositions(t, p - 1):
                # comp = (m_{p-1}, .., m_1) in block order
                if any(m not in H.D for m in comp):
                    continue
                blocks = comp + (n - t,)
                starts = [0]
                for m in blocks[:-1]:
                    starts.append(starts[-1] + m)
                for sigma in shuffles(blocks):
                    if pointed:
                        leaders = [sigma[starts[b]] for b in range(p - 1)]
                        if any(a > b for a, b in
                               zip(leaders, leaders[1:])):
                            continue
                    eps = koszul_sign(sigma, degs)
                    perm = [args[k - 1] for k in sigma]
                    heads = []
                    pos = 0
                    for m in comp:
                        heads.append(H.D[m].evaluate(perm[pos:pos + m]))
                        pos += m
                    val = outer.evaluate(heads + perm[pos:])
                    if not vec_is_zero(val):
                        out = vec_add(out, vec_scale(eps * coeff, val))
    return out


def operator_family_by_vectors(H, n, args, pointed=True):
    degs = [H.space.degree_of_vector(v) for v in args]
    return vec_sub(mu_of_D_by_vectors(H, n, args, degs, pointed),
                   family_circ_by_vectors(H.D, H.mu, args, degs,
                                          H.space.dim))


def rand_homogeneous(rng, space):
    """A random vector of one degree with every coordinate of that degree
    nonzero and none equal to 1, so never a basis vector."""
    deg = rng.choice([d for d, dim in space.components if dim])
    v = vec_zero(space.dim)
    for i in basis_of_degree(space, deg):
        v[i] = rng.choice((-2, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3)))
    return v


def twisted_by_vectors(mu, alpha, args, dim):
    """sum_i 1/i! mu_{n+i}(alpha, .., alpha, args) for n = len(args): the
    per-basis-tuple twist that the insertion sums replaced."""
    out = vec_zero(dim)
    for m, f in mu.items():
        i = m - len(args)
        if i >= 0:
            term = f.evaluate([alpha] * i + args)
            out = vec_add(out, vec_scale(Fraction(1, factorial(i)), term))
    return out


def two_term_space():
    return GradedVectorSpace([(0, 1), (1, 1)])


def two_term(lam=1, a=1, alpha=1, beta=1, q=1, r=2, p=0):
    """Degrees {0,1}: mu_1 e0 = a e1, mu_2(e0,e0) = p e1, D_1 = diag(alpha,
    beta), D_2(e0,e0) = r e0, D_2(e0,e1) = q e1.  With alpha = beta = 1 the
    arity-1 identity holds; the arity-2 identity is p(1+lam) + r - 2q = 0."""
    space = two_term_space()
    mu = {}
    mu1 = GradedSymMap(1, 1, space)
    mu1[(0,)] = [0, a]
    mu[1] = mu1
    if p:
        mu2 = GradedSymMap(2, 1, space)
        mu2[(0, 0)] = [0, p]
        mu[2] = mu2
    d1 = GradedSymMap(1, 0, space)
    d1[(0,)] = [alpha, 0]
    d1[(1,)] = [0, beta]
    d2 = GradedSymMap(2, 0, space)
    d2[(0, 0)] = [r, 0]
    d2[(0, 1)] = [0, q]
    return HomotopyDiffLie(space, mu, {1: d1, 2: d2}, Fraction(lam))


def ev(family, i, args, space):
    f = family.get(i)
    return f.evaluate(args) if f is not None else vec_zero(space.dim)


def display_residual_n1(H, x):
    # the arity-1 identity: D_1 is a chain map for mu_1
    return vec_sub(ev(H.mu, 1, [ev(H.D, 1, [x], H.space)], H.space),
                   ev(H.D, 1, [ev(H.mu, 1, [x], H.space)], H.space))


def display_residual_n2(H, x, y):
    # the arity-2 identity, written out with its graded swap sign
    sp = H.space
    lam = H.weight
    eps = -1 if (sp.degree_of_vector(x) * sp.degree_of_vector(y)) % 2 else 1
    d1x, d1y = ev(H.D, 1, [x], sp), ev(H.D, 1, [y], sp)
    m1x, m1y = ev(H.mu, 1, [x], sp), ev(H.mu, 1, [y], sp)
    lhs = ev(H.D, 1, [ev(H.mu, 2, [x, y], sp)], sp)
    lhs = vec_sub(lhs, ev(H.mu, 2, [d1x, y], sp))
    lhs = vec_sub(lhs, vec_scale(eps, ev(H.mu, 2, [d1y, x], sp)))
    lhs = vec_sub(lhs, vec_scale(lam, ev(H.mu, 2, [d1x, d1y], sp)))
    rhs = ev(H.mu, 1, [ev(H.D, 2, [x, y], sp)], sp)
    rhs = vec_sub(rhs, ev(H.D, 2, [m1x, y], sp))
    rhs = vec_sub(rhs, vec_scale(eps, ev(H.D, 2, [m1y, x], sp)))
    return vec_sub(lhs, rhs)


def rand_graded(rng, space, arity, degree, density=0.7):
    """Random graded-symmetric map whose values land in the right degree."""
    from itertools import combinations_with_replacement
    f = GradedSymMap(arity, degree, space)
    for key in combinations_with_replacement(range(space.dim), arity):
        odd = [i for i in key if space.degrees[i] % 2]
        if len(odd) != len(set(odd)):
            continue
        tgt_deg = sum(space.degrees[i] for i in key) + degree
        support = basis_of_degree(space, tgt_deg)
        if not support or rng.random() > density:
            continue
        vec = vec_zero(space.dim)
        for i in support:
            vec[i] = Fraction(rng.randrange(-2, 3))
        if not vec_is_zero(vec):
            f[key] = vec
    return f


def rand_homotopy(rng, space, max_arity=3):
    mu = {}
    D = {}
    for i in range(1, max_arity + 1):
        mu_i = rand_graded(rng, space, i, 1)
        if not mu_i.is_zero():
            mu[i] = mu_i
        D_i = rand_graded(rng, space, i, 0)
        if not D_i.is_zero():
            D[i] = D_i
    return HomotopyDiffLie(space, mu, D,
                           WEIGHTS[rng.randrange(len(WEIGHTS))])


def test_empty_structure_is_valid():
    space = two_term_space()
    H = HomotopyDiffLie(space, {}, {}, Fraction(1))
    ok, tables = homotopy_mc_check(H)
    assert ok
    for n in (1, 2):
        args = [basis_vec(2, 0)] * n
        assert vec_is_zero(linfty_residual(H, n, args))
        assert vec_is_zero(homotopy_diff_residual(H, n, args))


def test_arity1_bracket_residual_is_square():
    # three degrees chained by mu_1: the square is visible at arity 1
    space = GradedVectorSpace([(0, 1), (1, 1), (2, 1)])
    mu1 = GradedSymMap(1, 1, space)
    mu1[(0,)] = [0, 1, 0]
    mu1[(1,)] = [0, 0, 1]
    H = HomotopyDiffLie(space, {1: mu1}, {}, Fraction(0))
    res = linfty_residual(H, 1, [basis_vec(3, 0)])
    assert res == mu1.evaluate([mu1.evaluate([basis_vec(3, 0)])])
    assert not vec_is_zero(res)
    assert not homotopy_mc_check(H)[0]
    mu1b = GradedSymMap(1, 1, space)
    mu1b[(0,)] = [0, 1, 0]
    H2 = HomotopyDiffLie(space, {1: mu1b}, {}, Fraction(0))
    assert homotopy_mc_check(H2)[0]


def test_arity1_identity_is_chain_map_condition():
    H = two_term()
    for k in range(2):
        x = basis_vec(2, k)
        assert vec_is_zero(homotopy_diff_residual(H, 1, [x]))
    bad = two_term(alpha=1, beta=2)
    x = basis_vec(2, 0)
    res = homotopy_diff_residual(bad, 1, [x])
    assert res == display_residual_n1(bad, x)
    assert not vec_is_zero(res)


def test_arity2_identity_matches_display(rng):
    fixtures = [two_term(),
                two_term(lam=1, p=3, r=2, q=4),
                two_term(q=5),        # breaks the arity-2 constraint
                two_term(lam=2, p=1, r=1, q=2)]
    for H in fixtures:
        for i in range(2):
            for j in range(i, 2):
                x, y = basis_vec(2, i), basis_vec(2, j)
                res = homotopy_diff_residual(H, 2, [x, y])
                assert res == vec_scale(-1, display_residual_n2(H, x, y))
    # the display also matches on random graded structures
    for _ in range(6):
        H = rand_homotopy(rng, two_term_space(), max_arity=2)
        for i in range(2):
            for j in range(i, 2):
                x, y = basis_vec(2, i), basis_vec(2, j)
                res = homotopy_diff_residual(H, 2, [x, y])
                assert res == vec_scale(-1, display_residual_n2(H, x, y))


def test_two_term_fixture_valid_and_perturbations_fail():
    ok, _ = homotopy_mc_check(two_term())
    assert ok
    # operator arity-2 part off the constraint surface: arity-2 fails
    bad = two_term(q=3)
    ok, tables = homotopy_mc_check(bad)
    assert not ok
    assert tables[1][1].is_zero() and not tables[2][1].is_zero()
    # unequal diagonal arity-1 part: already the chain-map identity fails
    bad2 = two_term(alpha=1, beta=-1)
    ok2, tables2 = homotopy_mc_check(bad2)
    assert not ok2 and not tables2[1][1].is_zero()


def test_bracket_rich_fixture_fails_only_at_arity_four():
    # nonzero mu_2 alongside D_2 satisfies the displayed identities and the
    # arity-3 family, but the arity-4 operator identity obstructs it
    H = two_term(lam=1, p=3, r=2, q=4)
    tables = residual_tables(H, max_n=4)
    for n in (1, 2, 3):
        jac, op = tables[n]
        assert jac.is_zero() and op.is_zero()
    assert not tables[4][1].is_zero()
    e0 = basis_vec(2, 0)
    res = homotopy_diff_residual(H, 4, [e0] * 4)
    # 3 pointed (2,2)-shuffles of lam*mu_2(D_2(.,.), D_2(.,.)): 3*1*2*2*3
    assert res == [0, Fraction(36)]
    assert not homotopy_mc_check(H)[0]


def test_pointed_form_agrees_with_factorial_form(rng):
    # the kernel's pointed sum against the per-vector sum over plain
    # shuffles with 1/(p-1)! weights
    spaces = [two_term_space(),
              GradedVectorSpace([(0, 2), (1, 1)]),
              GradedVectorSpace([(-1, 3)])]
    for _ in range(10):
        space = spaces[rng.randrange(len(spaces))]
        H = rand_homotopy(rng, space)
        n = rng.randrange(1, 5)
        key = sorted(rng.randrange(space.dim) for _ in range(n))
        args = [basis_vec(space.dim, k) for k in key]
        a = homotopy_diff_residual(H, n, args)
        b = operator_family_by_vectors(H, n, args, pointed=False)
        assert a == b


def test_families_match_per_vector_oracles(rng):
    # every weight, on vectors that are not basis vectors, mixed degrees
    spaces = [GradedVectorSpace([(0, 2), (1, 2)]),
              GradedVectorSpace([(-1, 1), (0, 2), (1, 1)]),
              GradedVectorSpace([(-1, 3)])]
    nonzero = set()
    for lam in WEIGHTS:
        for space in spaces:
            H = rand_homotopy(rng, space)
            H = HomotopyDiffLie(space, H.mu, H.D, lam)
            for n in range(1, 5):
                bracket = bracket_family(H, n)
                pointed = operator_family(H, n)
                assert residual_tables(H, n)[n] == (bracket, pointed)
                for _ in range(3):
                    args = [rand_homogeneous(rng, space) for _ in range(n)]
                    degs = [space.degree_of_vector(v) for v in args]
                    jac = family_circ_by_vectors(H.mu, H.mu, args, degs,
                                                 space.dim)
                    op = operator_family_by_vectors(H, n, args)
                    assert bracket.evaluate(args) == jac
                    assert linfty_residual(H, n, args) == jac
                    assert pointed.evaluate(args) == op
                    assert homotopy_diff_residual(H, n, args) == op
                    assert operator_family_by_vectors(
                        H, n, args, pointed=False) == op
                    nonzero.add((lam != 0, n, any(jac), any(op)))
    assert {(w, n) for w, n, _, op in nonzero if op} == \
        {(w, n) for w in (False, True) for n in range(1, 5)}
    assert {w for w, _, jac, _ in nonzero if jac} == {False, True}


def test_bracket_family_matches_circle_products(rng):
    for _ in range(6):
        space = GradedVectorSpace([(0, 2), (1, 1)]) \
            if rng.random() < 0.5 else two_term_space()
        H = rand_homotopy(rng, space)
        for n in range(1, 5):
            total = GradedSymMap(n, 2, space)
            for b in range(1, n + 1):
                a = n - b + 1
                if a in H.mu and b in H.mu:
                    total = total + graded_circ_bar(H.mu[a], H.mu[b])
            for key in space.spanning_tuples(n):
                args = [basis_vec(space.dim, k) for k in key]
                assert linfty_residual(H, n, args) == \
                    total.value_on_basis(key)


def test_suspended_diff_lie_reduction_two_sided(rng):
    agree_true = agree_false = 0
    for _ in range(14):
        if rng.random() < 0.5:
            A = random_diff_lie(rng, max_dim=3)
        else:
            dim = rng.randrange(2, 4)
            br = AltMap(2, dim, dim)
            for i in range(dim):
                for j in range(i + 1, dim):
                    br[(i, j)] = [Fraction(rng.randrange(-2, 3))
                                  for _ in range(dim)]
            A = diff_lie(LieAlgebra(dim, br),
                         rand_matrix(rng, dim, dim),
                         WEIGHTS[rng.randrange(len(WEIGHTS))])
        ok, _ = homotopy_mc_check(suspend_diff_lie(A))
        assert ok == is_diff_lie_algebra(A)
        agree_true += ok
        agree_false += not ok
    assert agree_true and agree_false


def test_suspended_reduction_residuals_are_axiom_residuals():
    # weight 2 on the 2-dim nonabelian algebra with a non-derivation: the
    # arity-2 operator residual reproduces the weighted Leibniz defect
    from samples import aff1
    from difflie.liealg import weighted_derivation_residual
    A = diff_lie(aff1(), from_rows([[1, 0], [0, 0]]),
                 Fraction(2))
    H = suspend_diff_lie(A)
    defect = weighted_derivation_residual(A).value_on_basis((0, 1))
    res = homotopy_diff_residual(H, 2, [basis_vec(2, 0), basis_vec(2, 1)])
    assert res == vec_scale(-1, defect)
    assert not vec_is_zero(res)



# ---------------------------------------------------------------------------
# L-infinity[1]-algebras: twisting by a Maurer-Cartan element


def test_twist_of_the_two_term_bracket_family():
    # mu_1 e0 = e1, mu_2(e0,e0) = 2 e1: alpha = -e0 is Maurer-Cartan,
    # -e1 + 1/2 * 2 e1 = 0, and twisting flips mu_1
    H = two_term(p=2)
    L = HomotopyDiffLie(H.space, H.mu, {}, H.weight)
    alpha = [-1, 0]
    assert vec_is_zero(mc_residual(L, alpha))
    T = twist(L, alpha)
    assert T.mu[1].evaluate([basis_vec(2, 0)]) == [0, -1]
    assert T.mu[2] == H.mu[2] and T.D == {}
    for n in (1, 2, 3):
        for key in H.space.spanning_tuples(n):
            args = [basis_vec(2, k) for k in key]
            assert vec_is_zero(linfty_residual(T, n, args))
    assert homotopy_mc_check(T, max_n=3)[0]


def test_twist_matches_per_basis_oracle(rng):
    # random mixed-degree bracket families, mu_1 corrected on one degree-0
    # basis vector so that a random degree-0 alpha is Maurer-Cartan
    spaces = [GradedVectorSpace([(-1, 1), (0, 2), (1, 1)]),
              GradedVectorSpace([(0, 2), (1, 1)]),
              GradedVectorSpace([(-1, 2), (0, 1), (1, 2)])]
    checked = 0
    for _ in range(12):
        space = spaces[rng.randrange(len(spaces))]
        mu = rand_homotopy(rng, space).mu
        zero = basis_of_degree(space, 0)
        alpha = vec_zero(space.dim)
        for k in zero:
            alpha[k] = rng.choice((-1, 2, Fraction(1, 2)))
        res = twisted_by_vectors(mu, alpha, [], space.dim)
        assert mc_residual(HomotopyDiffLie(space, mu, {}, 0), alpha) == res
        c = GradedSymMap(1, 1, space)
        c[(zero[0],)] = vec_scale(Fraction(1) / alpha[zero[0]], res)
        mu[1] = mu.get(1, GradedSymMap(1, 1, space)) - c
        H = HomotopyDiffLie(space, mu, {}, 0)
        assert vec_is_zero(mc_residual(H, alpha))
        T = twist(H, alpha)
        for n in range(1, max(mu) + 1):
            for key in space.spanning_tuples(n):
                args = [basis_vec(space.dim, k) for k in key]
                want = twisted_by_vectors(mu, alpha, args, space.dim)
                got = T.mu[n].value_on_basis(key) if n in T.mu \
                    else vec_zero(space.dim)
                assert got == want
                checked += not vec_is_zero(want)
    assert checked > 100


def test_twist_rejections():
    H = two_term(p=2)
    L = HomotopyDiffLie(H.space, H.mu, {}, H.weight)
    with pytest.raises(NotMaurerCartan):
        twist(L, [1, 0])  # e1 + e1 != 0
    with pytest.raises(DegreeMismatch):
        mc_residual(L, [0, 1])  # e1 sits in degree 1
    with pytest.raises(ValueError):
        twist(H, [-1, 0])  # H carries operators
