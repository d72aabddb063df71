from fractions import Fraction
from math import factorial

import pytest

from difflie.linalg import Matrix, basis_vec, vec_is_zero, vec_scale
from difflie.multilinear import AltMap, alt_to_graded
from difflie.linfty import (AbsoluteStructure, DerivedBrackets, FormalElement,
                            InvalidVData, LInftyStructure, Term,
                            absolute_structure, absolute_vdata,
                            generalized_jacobi_residual,
                            generalized_jacobi_residual_formal, iota_M,
                            iota_a_abs, in_M_rel, key_formula_check,
                            lambda_rescale, mc_check_absolute,
                            mc_check_relative, mc_residual, mc_residual_formal,
                            morphism_residual, pack_D, project_M_rel,
                            project_a_rel, relative_structure, twist,
                            twist_l1_formal)
from difflie.liealg import (DiffLieAlgebra, adjoint_rep,
                            is_diff_lie_algebra, is_lieact,
                            relative_diff_residual)
from difflie.nr import nr_bracket
from difflie.samples import (aff1, heisenberg, sl2, rand_matrix, rand_vec,
                             random_diff_lie, random_lieact,
                             random_relative_operator, WEIGHTS)


def rand_altmap(rng, arity, dim, tgt=None):
    from itertools import combinations
    f = AltMap(arity, dim, tgt or dim)
    for key in combinations(range(dim), arity):
        f[key] = rand_vec(rng, tgt or dim, -2, 2)
    return f


def matrix_as_altmap(m):
    f = AltMap(1, m.cols, m.rows)
    for j in range(m.cols):
        f[(j,)] = [m.data[i][j] for i in range(m.rows)]
    return f


def sterm(f):
    return Term("s", f)


def aterm(f):
    return Term("a", f)


# ---------------------------------------------------------------------------
# closed-form brackets of the absolute structure


def test_l3_on_two_operators_frozen():
    # l_3(s pi, D, D)(x, y) = 2 lambda pi(Dx, Dy)
    g = aff1()
    pi = g.bracket
    D = Matrix.from_rows([[1, 2], [3, 5]])
    for lam in WEIGHTS:
        S = absolute_structure(2, lam)
        out = S.bracket([sterm(pi), aterm(matrix_as_altmap(D)),
                         aterm(matrix_as_altmap(D))])
        terms = out.terms()
        x, y = basis_vec(2, 0), basis_vec(2, 1)
        expected = vec_scale(2 * Fraction(lam),
                             g.br(D.matvec(x), D.matvec(y)))
        if vec_is_zero(expected):
            assert out.is_zero()
        else:
            assert len(terms) == 1 and terms[0].kind == "a"
            assert terms[0].f.value_on_basis((0, 1)) == expected


def test_l2_matches_nr_bracket(rng):
    for _ in range(6):
        dim = 3
        f = rand_altmap(rng, rng.randrange(1, 4), dim)
        g = rand_altmap(rng, rng.randrange(1, 4), dim)
        S = absolute_structure(dim, 1)
        out = S.bracket([sterm(f), sterm(g)])
        sign = -1 if (f.arity - 1) % 2 else 1
        assert out == FormalElement([sterm(nr_bracket(f, g).scale(sign))])


def test_bracket_vanishes_beyond_arity():
    pi = aff1().bracket  # arity 2, so l_i = 0 for i > 3
    D = matrix_as_altmap(Matrix.identity(2))
    S = absolute_structure(2, 2)
    assert S.bracket([sterm(pi)] + [aterm(D)] * 3).is_zero()


def test_closed_form_matches_derived_brackets(rng):
    # the shuffle formula against iterated brackets in the double space
    for _ in range(12):
        dim = rng.randrange(2, 4)
        lam = rng.choice(WEIGHTS)
        closed = absolute_structure(dim, lam)
        derived = DerivedBrackets(absolute_vdata(dim), lam, "reduced")
        n_a = rng.randrange(1, 3)
        terms = [sterm(rand_altmap(rng, rng.randrange(1, 4), dim))] + \
            [aterm(rand_altmap(rng, rng.randrange(1, 3), dim))
             for _ in range(n_a)]
        pos = rng.randrange(len(terms))
        terms.insert(pos, terms.pop(0))  # exercise the reordering sign
        assert closed.bracket(terms) == derived.bracket(terms)


def test_bracket_symmetric_in_a_arguments(rng):
    for _ in range(8):
        dim = 3
        f = rand_altmap(rng, 3, dim)
        x1 = aterm(rand_altmap(rng, rng.randrange(1, 3), dim))
        x2 = aterm(rand_altmap(rng, rng.randrange(1, 3), dim))
        S = absolute_structure(dim, 2)
        sign = -1 if (x1.degree * x2.degree) % 2 else 1
        assert S.bracket([sterm(f), x1, x2]) == \
            S.bracket([sterm(f), x2, x1]).scale(sign)


def test_bracket_graded_symmetric_in_s_position(rng):
    # moving an odd s-term (arity 1) past an odd a-term costs a sign
    cases = [(absolute_structure(3, 2), lambda F: F, lambda F: F),
             (relative_structure(2, 1, 2), lambda F: project_M_rel(F, 2, 1),
              lambda F: project_a_rel(F, 2, 1))]
    for S, to_s, to_a in cases:
        nonzero = 0
        for _ in range(4):
            f = sterm(to_s(rand_altmap(rng, 1, 3)))
            x = aterm(to_a(rand_altmap(rng, 2, 3)))
            out = S.bracket([f, x])
            nonzero += not out.is_zero()
            assert S.bracket([x, f]) == out.scale(-1)
        assert nonzero


def test_key_formula(rng):
    for _ in range(10):
        dim = rng.randrange(2, 4)
        n = rng.randrange(1, 3)
        f = rand_altmap(rng, n + 1, dim)
        r = rng.randrange(1, n + 2)
        xis = [rand_altmap(rng, rng.randrange(1, 3), dim) for _ in range(r)]
        assert key_formula_check(f, xis, dim).is_zero()


def test_iota_M_is_bracket_map(rng):
    # iota_M takes the NR bracket on maps over g to the one on the double
    # space, up to terms killed by the projection constraints; on the nose it
    # is a graded Lie homomorphism.
    for _ in range(6):
        dim = 2
        f = rand_altmap(rng, rng.randrange(1, 3), dim)
        g = rand_altmap(rng, rng.randrange(1, 3), dim)
        lhs = iota_M(nr_bracket(f, g), dim)
        rhs = nr_bracket(iota_M(f, dim), iota_M(g, dim))
        assert lhs == rhs


def test_generalized_jacobi_absolute(rng):
    for _ in range(8):
        dim = 2
        lam = rng.choice(WEIGHTS)
        S = absolute_structure(dim, lam)
        pool = [sterm(rand_altmap(rng, rng.randrange(1, 4), dim)),
                aterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, rng.randrange(1, 3), dim))]
        n = rng.randrange(2, 4)
        terms = [rng.choice(pool) for _ in range(n)]
        assert generalized_jacobi_residual_formal(S, terms).is_zero()


def test_generalized_jacobi_relative(rng):
    for _ in range(6):
        gdim, hdim = 2, rng.randrange(1, 3)
        lam = rng.choice(WEIGHTS)
        S = relative_structure(gdim, hdim, lam)
        N = gdim + hdim
        pool = []
        for _ in range(2):
            raw = rand_altmap(rng, rng.randrange(1, 4), N)
            from difflie.linfty import project_M_rel
            pool.append(sterm(project_M_rel(raw, gdim, hdim)))
        for _ in range(2):
            raw = rand_altmap(rng, rng.randrange(1, 3), N)
            pool.append(aterm(project_a_rel(raw, gdim, hdim)))
        n = rng.randrange(2, 4)
        terms = [rng.choice(pool) for _ in range(n)]
        assert generalized_jacobi_residual_formal(S, terms).is_zero()


def test_relative_m_closed_under_bracket(rng):
    from difflie.linfty import project_M_rel
    for _ in range(8):
        gdim, hdim = 2, 2
        f = project_M_rel(rand_altmap(rng, rng.randrange(1, 4), 4), 2, 2)
        g = project_M_rel(rand_altmap(rng, rng.randrange(1, 4), 4), 2, 2)
        assert in_M_rel(nr_bracket(f, g), gdim, hdim)


# ---------------------------------------------------------------------------
# Maurer-Cartan characterizations


def test_mc_absolute_matches_axioms(rng):
    ok = bad = 0
    for _ in range(25):
        A = random_diff_lie(rng, max_dim=3)
        if rng.random() < 0.5:
            A = DiffLieAlgebra(A.algebra, rand_matrix(rng, A.dim, A.dim),
                               A.weight)
        axioms = is_diff_lie_algebra(A)
        mc, _ = mc_check_absolute(A.algebra.bracket, A.d, A.weight)
        assert mc == axioms
        ok += axioms
        bad += not axioms
    assert ok and bad


def test_mc_relative_matches_axioms(rng):
    ok = bad = 0
    for _ in range(20):
        T = random_lieact(rng)
        lam = rng.choice(WEIGHTS)
        if rng.random() < 0.5:
            D = random_relative_operator(rng, T, lam)
        else:
            D = rand_matrix(rng, T.h.dim, T.g.dim)
        axioms = is_lieact(T) and all(
            vec_is_zero(r) for r in relative_diff_residual(T, D, lam))
        mc, _ = mc_check_relative(T.g.bracket, T.rho, T.h.bracket, D, lam)
        assert mc == axioms
        ok += axioms
        bad += not axioms
    assert ok and bad


def test_mc_relative_broken_action(rng):
    T = random_lieact(rng)
    rho = [m.copy() for m in T.rho]
    rho[0].data[0][0] += Fraction(1)
    mu = T.h.bracket
    if mu.is_zero() and T.h.dim >= 2:
        pass
    mc, res = mc_check_relative(T.g.bracket, rho, mu,
                                Matrix.zero(T.h.dim, T.g.dim), 1)
    # perturbing rho generically breaks the action-homomorphism equations
    from difflie.liealg import LieActTriple, lieact_residuals
    T2 = LieActTriple(T.g, T.h, rho)
    broken = any(not m.is_zero() for m in lieact_residuals(T2)["hom"]) or \
        any(not m.is_zero() for m in lieact_residuals(T2)["derivation"])
    assert mc == (not broken)


# ---------------------------------------------------------------------------
# strict morphisms between the structures


def _abs_to_rel_phi(dim):
    def phi(t):
        if t.kind == "s":
            return Term("s", iota_M(t.f, dim))
        return Term("a", iota_a_abs(t.f, dim))
    return phi


def test_morphism_absolute_to_relative(rng):
    # with h = g, suspending-and-doubling embeds the one-algebra structure
    # into the pair structure strictly
    for _ in range(5):
        dim = 2
        lam = rng.choice(WEIGHTS)
        src = absolute_structure(dim, lam)
        tgt = relative_structure(dim, dim, lam)
        phi = _abs_to_rel_phi(dim)
        pool = [sterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, 1, dim))]
        samples = []
        for n in (2, 3):
            samples.append(tuple(rng.choice(pool) for _ in range(n)))
        for res in morphism_residual(phi, src, tgt, samples):
            assert res.is_zero()


def test_morphism_relative_to_absolute(rng):
    # the pair structure for (g, h) maps into the one-algebra structure on
    # g (+) h strictly on payloads with at most one h input (all of M' when
    # dim h = 1): there the pair projection never drops a bracket component
    from difflie.linfty import project_M_embed
    for _ in range(8):
        gdim, hdim = 2, rng.randrange(1, 3)
        N = gdim + hdim
        lam = rng.choice(WEIGHTS)
        src = relative_structure(gdim, hdim, lam)
        tgt = absolute_structure(N, lam)
        phi = lambda t: t  # payloads already live on g (+) h
        pool = [sterm(project_M_embed(rand_altmap(rng, rng.randrange(1, 3),
                                                  N), gdim, hdim)),
                aterm(project_a_rel(rand_altmap(rng, rng.randrange(1, 3), N),
                                    gdim, hdim)),
                aterm(project_a_rel(rand_altmap(rng, 1, N), gdim, hdim))]
        samples = []
        for n in (2, 3):
            samples.append(tuple(rng.choice(pool) for _ in range(n)))
        for res in morphism_residual(phi, src, tgt, samples):
            assert res.is_zero()


def test_morphism_relative_to_absolute_breaks_with_two_h_inputs():
    # a payload with two h inputs (an h-bracket) is a genuine obstruction:
    # its bracket with an a'-element has a mixed-input component that the
    # pair projection drops but the one-algebra structure keeps
    gdim, hdim = 1, 2
    N = gdim + hdim
    lam = Fraction(1)
    src = relative_structure(gdim, hdim, lam)
    tgt = absolute_structure(N, lam)
    mu = AltMap(2, N, N)            # [h1, h2] = h1
    mu[(1, 2)] = [0, 1, 0]
    from difflie.linfty import in_M_rel
    assert in_M_rel(mu, gdim, hdim)
    xi = AltMap(1, N, N)            # g -> h1
    xi[(0,)] = [0, 1, 0]
    sample = (sterm(mu), aterm(xi))
    res = morphism_residual(lambda t: t, src, tgt, [sample])[0]
    assert not res.is_zero()


# ---------------------------------------------------------------------------
# concrete finite-dimensional structures


def lie_linfty(L):
    F = alt_to_graded(L.bracket)
    return LInftyStructure(F.space, {2: F})


def test_concrete_jacobi_from_lie():
    S = lie_linfty(sl2())
    vs = [basis_vec(3, i) for i in range(3)]
    for n in (2, 3):
        args = vs[:n] if n <= 3 else vs
        assert vec_is_zero(generalized_jacobi_residual(S, n, args))


def test_lambda_rescale_variants():
    S = lie_linfty(heisenberg())
    full = lambda_rescale(S, 3, "full")
    red = lambda_rescale(S, 3, "reduced")
    assert full.brackets[2] == S.brackets[2].scale(3)
    assert red.brackets[2] == S.brackets[2]
    assert lambda_rescale(S, 0, "full").arity_bound == 0


def test_twist_by_zero_is_identity():
    S = lie_linfty(aff1())
    zero = [Fraction(0)] * 2
    T = twist(S, zero)
    assert T.brackets == S.brackets
    assert vec_is_zero(mc_residual(S, zero))


def test_mc_residual_formal_zero_structure():
    # an abelian algebra with zero operator is MC with zero residual
    dim = 3
    pi = AltMap(2, dim, dim)
    ok, res = mc_check_absolute(pi, Matrix.zero(dim, dim), 1)
    assert ok and res.is_zero()


# ---------------------------------------------------------------------------
# where the formal series stops


def mc_residual_bounded(struct, S, A, bound):
    """The fixed-bound MC residual: every bracket through `bound`
    arguments, vanishing or not."""
    out = struct.bracket([sterm(S)]) + struct.bracket([aterm(A)])
    out = out + struct.bracket([sterm(S), sterm(S)]).scale(Fraction(1, 2))
    for k in range(1, bound):
        term = struct.bracket([sterm(S)] + [aterm(A)] * k)
        out = out + term.scale(Fraction(1, factorial(k)))
    for k in range(2, bound):
        term = struct.bracket([aterm(A)] * k)
        out = out + term.scale(Fraction(1, factorial(k)))
    return out


def twist_l1_bounded(struct, S, A, term, bound):
    """The fixed-bound twisted l_1: every bracket through `bound`
    arguments, vanishing or not."""
    out = struct.bracket([term])
    for k in range(1, bound):
        for j in range(k + 1):
            args = [sterm(S)] * j + [aterm(A)] * (k - j) + [term]
            out = out + struct.bracket(args).scale(
                Fraction(1, factorial(j) * factorial(k - j)))
    return out


class RecordingStructure(AbsoluteStructure):
    """Records the argument count of every bracket it is asked for."""

    def __init__(self, dim):
        super().__init__(dim, 1)
        self.counts = []

    def bracket(self, terms):
        self.counts.append(len(terms))
        return FormalElement()


def test_twist_series_reaches_top_bracket():
    # l_1 of the twist on an s-term of arity 9 needs l_10(sf, A^9): a
    # series cut at a fixed bound drops it
    S = RecordingStructure(9)
    twist_l1_formal(S, AltMap(2, 9, 9), AltMap(1, 9, 9),
                    sterm(AltMap(9, 9, 9)))
    assert max(S.counts) == 10


def test_formal_series_needs_zero_delta():
    # with Delta the pure a-term brackets need not vanish: no finite cut
    v = absolute_vdata(2)
    v.Delta = AltMap(2, 4, 4)
    with pytest.raises(InvalidVData):
        mc_residual_formal(DerivedBrackets(v, 1, "full"), aff1().bracket,
                           AltMap(1, 2, 2))


def random_formal_case(rng):
    """A structure, an m-element S, an a-element A and a pool of Terms."""
    lam = rng.choice(WEIGHTS)
    if rng.random() < 0.5:
        dim = rng.randrange(2, 4)
        struct = absolute_structure(dim, lam)
        to_s = to_a = lambda F: F
    else:
        gdim, hdim = 2, rng.randrange(1, 3)
        dim = gdim + hdim
        struct = relative_structure(gdim, hdim, lam)
        to_s = lambda F: project_M_rel(F, gdim, hdim)
        to_a = lambda F: project_a_rel(F, gdim, hdim)
    S = to_s(rand_altmap(rng, rng.randrange(1, 4), dim))
    A = to_a(rand_altmap(rng, 1, dim))
    pool = [sterm(to_s(rand_altmap(rng, rng.randrange(1, 4), dim))),
            aterm(to_a(rand_altmap(rng, rng.randrange(1, 3), dim)))]
    return struct, S, A, pool


def test_formal_series_matches_fixed_bound(rng):
    # every s-term here has arity <= 3, so no bracket past 4 arguments is
    # nonzero and the bound 6 covers the whole series
    for _ in range(10):
        struct, S, A, pool = random_formal_case(rng)
        assert mc_residual_formal(struct, S, A) == \
            mc_residual_bounded(struct, S, A, 6)
        for term in pool:
            assert twist_l1_formal(struct, S, A, term) == \
                twist_l1_bounded(struct, S, A, term, 6)
