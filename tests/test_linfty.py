from fractions import Fraction
from math import factorial

import pytest

from axiom_oracles import relative_oracle
from difflie.linalg import basis_vec, vec_is_zero, vec_scale
from difflie.multilinear import AltMap
from difflie.homotopy import (HomotopyDiffLie, lambda_rescale, linfty_residual,
                              mc_residual, twist)
from difflie.linfty import (AbsoluteStructure, DerivedBrackets, Term, _add,
                            _project, _split_s, iota_M, iota_a_abs,
                            key_formula_check, mc_check_absolute,
                            mc_check_relative, mc_residual_formal,
                            morphism_residual, project_a_rel,
                            relative_structure, twist_l1_formal)
from difflie.liealg import (is_diff_lie_algebra, is_lieact,
                            semidirect_bracket)
from difflie.nr import nr_bracket
from difflie.permutations import koszul_sign, shuffles
from samples import (WEIGHTS, aff1, altmap1_from_matrix, diff_lie, from_rows,
                     heisenberg, identity_matrix, rand_matrix, rand_vec,
                     random_diff_lie, random_lieact, random_relative_operator,
                     sl2)


def parts(terms, c=1):
    """c times the Terms' maps, summed by kind: {kind: map}."""
    return _add({}, c, terms)


def all_zero(maps):
    return all(f.is_zero() for f in maps)


def generalized_jacobi_residual_formal(struct, terms):
    """The generalised Jacobi sum of a formal structure on a Term list, its
    parts summed by kind ({kind: map}, every part of one degree): the
    brackets of sM (+) a return Terms, not maps on one space, so this is a
    plain shuffle loop rather than an insertion sum."""
    n = len(terms)
    degs = [t.degree for t in terms]
    out = {}
    for i in range(1, n + 1):
        for sigma in shuffles((i, n - i)):
            eps = koszul_sign(sigma, degs)
            inner = struct.bracket([terms[sigma[t] - 1] for t in range(i)])
            tail = [terms[sigma[t] - 1] for t in range(i, n)]
            for t_in in inner:
                _add(out, eps, struct.bracket([t_in] + tail))
    return out


def jacobi_holds(struct, terms):
    return all_zero(generalized_jacobi_residual_formal(struct, terms).values())


def project_M_rel(F, gdim):
    """Component of F in M' = Hom(~g,g) + Hom(~g (x) ~h, h) + Hom(~h,h)."""
    return _project(F, gdim, lambda gs, hs: (hs == 0, hs >= 1 or gs == 0))


def P_abs(F, dim):
    """Project a double-space map to Hom(wedge g, g): keep the components
    with all inputs unprimed and output primed, unpriming the output."""
    out = AltMap(F.arity, dim, dim)
    for key, vec in F.coeffs.items():
        if all(i < dim for i in key):
            val = vec[dim:]
            if not vec_is_zero(val):
                out.coeffs[key] = list(val)
    return out


def iterated_bracket(terms, dim, lam):
    """l_i(terms) of the absolute structure by the iterated double-space
    route: the reduced derived brackets with P = P_abs, applied to the
    embedded terms, so that l_{r+1}(sf, xi_1, .., xi_r) is lambda^{r-1}
    P_abs[...[iota_M f, iota_a xi_1], ..., iota_a xi_r].  The oracle of
    the closed form that AbsoluteStructure evaluates."""
    embed = {"s": iota_M, "a": iota_a_abs}
    double = DerivedBrackets(lambda F: P_abs(F, dim), lam)
    return double.bracket([Term(t.kind, embed[t.kind](t.f)) for t in terms])


class FullDerivedBrackets(DerivedBrackets):
    """The derived brackets of the V-data (P, Delta) for a nonzero Delta:
    a degree-1 map in Ker(P) that squares to zero and preserves M, on an M
    where P need not vanish.  l_1 of sf adds the s-part -[Delta, f], the
    bracket of a-terms only is P of the iterated bracket that starts at
    [Delta, xi_1], l_2 of two s-terms carries lambda and every other l_i
    carries lambda^{i-1}.  The reduced brackets of the package are its case
    Delta = 0, P = 0 on M, with one power of lambda fewer."""

    def __init__(self, P, lam, Delta):
        super().__init__(P, lam)
        self.Delta = Delta

    def bracket(self, terms):
        i = len(terms)
        sign, s_term, a_terms = _split_s(terms)
        if sign == 0:
            out = [Term(t.kind, t.f.scale(self.lam))
                   for t in super().bracket(terms)]
            return [t for t in out if not t.f.is_zero()]
        c = sign * self.lam ** (i - 1)
        xis = [t.f for t in a_terms]
        out = []
        if s_term is not None:
            res = self._composite(s_term.f, xis)
            if i == 1:
                br = nr_bracket(self.Delta, s_term.f)
                out.append(Term("s", br.scale(-1)))
        elif xis:
            res = self._composite(nr_bracket(self.Delta, xis[0]), xis[1:])
        else:
            return []
        out.append(Term("a", res.scale(c)))
        return [t for t in out if not t.f.is_zero()]


def in_M_rel(F, gdim):
    return (F - project_M_rel(F, gdim)).is_zero()


def rand_altmap(rng, arity, dim, tgt=None):
    from itertools import combinations
    f = AltMap(arity, dim, tgt or dim)
    for key in combinations(range(dim), arity):
        f[key] = rand_vec(rng, tgt or dim, -2, 2)
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
    D = from_rows([[1, 2], [3, 5]])
    for lam in WEIGHTS:
        S = AbsoluteStructure(lam)
        out = S.bracket([sterm(pi), aterm(altmap1_from_matrix(D)),
                         aterm(altmap1_from_matrix(D))])
        x, y = basis_vec(2, 0), basis_vec(2, 1)
        expected = vec_scale(2 * Fraction(lam),
                             g.bracket.evaluate([D.matvec(x), D.matvec(y)]))
        if vec_is_zero(expected):
            assert out == []
        else:
            assert len(out) == 1 and out[0].kind == "a"
            assert out[0].f.value_on_basis((0, 1)) == expected


def test_l2_matches_nr_bracket(rng):
    for _ in range(6):
        dim = 3
        f = rand_altmap(rng, rng.randrange(1, 4), dim)
        g = rand_altmap(rng, rng.randrange(1, 4), dim)
        S = AbsoluteStructure(1)
        out = S.bracket([sterm(f), sterm(g)])
        sign = -1 if (f.arity - 1) % 2 else 1
        want = nr_bracket(f, g).scale(sign)
        assert parts(out) == ({} if want.is_zero() else {"s": want})


def test_bracket_vanishes_beyond_arity():
    pi = aff1().bracket  # arity 2, so l_i = 0 for i > 3
    D = altmap1_from_matrix(identity_matrix(2))
    S = AbsoluteStructure(2)
    assert S.bracket([sterm(pi)] + [aterm(D)] * 3) == []


def test_closed_form_matches_derived_brackets(rng):
    # the shuffle formula against iterated brackets in the double space
    for _ in range(12):
        dim = rng.randrange(2, 4)
        lam = rng.choice(WEIGHTS)
        closed = AbsoluteStructure(lam)
        n_a = rng.randrange(1, 3)
        terms = [sterm(rand_altmap(rng, rng.randrange(1, 4), dim))] + \
            [aterm(rand_altmap(rng, rng.randrange(1, 3), dim))
             for _ in range(n_a)]
        pos = rng.randrange(len(terms))
        terms.insert(pos, terms.pop(0))  # exercise the reordering sign
        assert parts(closed.bracket(terms)) == \
            parts(iterated_bracket(terms, dim, lam))
    # a-terms of mixed parities, where the sign of the closed form shows
    for dim, arity, a_arities in [(3, 2, [2, 1]), (3, 2, [1, 2]),
                                  (4, 3, [2, 1]), (4, 3, [1, 2, 1])]:
        terms = [sterm(rand_altmap(rng, arity, dim))] + \
            [aterm(rand_altmap(rng, m, dim)) for m in a_arities]
        out = iterated_bracket(terms, dim, 2)
        assert out
        assert parts(AbsoluteStructure(2).bracket(terms)) == parts(out)


def test_bracket_symmetric_in_a_arguments(rng):
    # an arity-2 f takes exactly two insertions, so l_3 of an arity-2 and
    # an arity-1 a-term, of mixed parities, is nonzero
    for f_arity in [3] * 8 + [2] * 4:
        dim = 3
        f = rand_altmap(rng, f_arity, dim)
        x1, x2 = [aterm(rand_altmap(rng, m or rng.randrange(1, 3), dim))
                  for m in ([2, 1] if f_arity == 2 else [None, None])]
        S = AbsoluteStructure(2)
        sign = -1 if (x1.degree * x2.degree) % 2 else 1
        out = S.bracket([sterm(f), x1, x2])
        assert f_arity == 3 or out
        assert parts(out) == parts(S.bracket([sterm(f), x2, x1]), sign)


def test_bracket_graded_symmetric_in_s_position(rng):
    # moving an odd s-term (arity 1) past an odd a-term costs a sign
    cases = [(AbsoluteStructure(2), lambda F: F, lambda F: F),
             (relative_structure(2, 2), lambda F: project_M_rel(F, 2),
              lambda F: project_a_rel(F, 2))]
    for S, to_s, to_a in cases:
        nonzero = 0
        for _ in range(4):
            f = sterm(to_s(rand_altmap(rng, 1, 3)))
            x = aterm(to_a(rand_altmap(rng, 2, 3)))
            out = S.bracket([f, x])
            nonzero += bool(out)
            assert parts(S.bracket([x, f])) == parts(out, -1)
        assert nonzero


def test_key_formula(rng):
    for _ in range(10):
        dim = rng.randrange(2, 4)
        n = rng.randrange(1, 3)
        f = rand_altmap(rng, n + 1, dim)
        r = rng.randrange(1, n + 2)
        xis = [rand_altmap(rng, rng.randrange(1, 3), dim) for _ in range(r)]
        assert key_formula_check(f, xis).is_zero()


def test_iota_M_is_bracket_map(rng):
    # iota_M takes the NR bracket on maps over g to the one on the double
    # space, up to terms killed by the projection constraints; on the nose it
    # is a graded Lie homomorphism.
    for _ in range(6):
        dim = 2
        f = rand_altmap(rng, rng.randrange(1, 3), dim)
        g = rand_altmap(rng, rng.randrange(1, 3), dim)
        lhs = iota_M(nr_bracket(f, g))
        rhs = nr_bracket(iota_M(f), iota_M(g))
        assert lhs == rhs


def test_generalized_jacobi_absolute(rng):
    for _ in range(8):
        dim = 2
        lam = rng.choice(WEIGHTS)
        S = AbsoluteStructure(lam)
        pool = [sterm(rand_altmap(rng, rng.randrange(1, 4), dim)),
                aterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, rng.randrange(1, 3), dim))]
        n = rng.randrange(2, 4)
        terms = [rng.choice(pool) for _ in range(n)]
        assert jacobi_holds(S, terms)
    # arity 4 on sl2 with the parity-0 operator D = diag(1, 0, 1)
    pi = sterm(sl2().bracket)
    D = aterm(altmap1_from_matrix(from_rows([[1, 0, 0], [0, 0, 0],
                                             [0, 0, 1]])))
    for lam in WEIGHTS:
        S = AbsoluteStructure(lam)
        for terms in ([pi, D, D, pi], [pi, pi, D, D]):
            assert jacobi_holds(S, terms)


def test_generalized_jacobi_relative(rng):
    for _ in range(6):
        gdim, hdim = 2, rng.randrange(1, 3)
        lam = rng.choice(WEIGHTS)
        S = relative_structure(gdim, lam)
        N = gdim + hdim
        pool = []
        for _ in range(2):
            raw = rand_altmap(rng, rng.randrange(1, 4), N)
            pool.append(sterm(project_M_rel(raw, gdim)))
        for _ in range(2):
            raw = rand_altmap(rng, rng.randrange(1, 3), N)
            pool.append(aterm(project_a_rel(raw, gdim)))
        n = rng.randrange(2, 4)
        terms = [rng.choice(pool) for _ in range(n)]
        assert jacobi_holds(S, terms)


def test_generalized_jacobi_full_variant(rng):
    # V-data with M = all maps on g (+) h, so that P != 0 on M, and
    # Delta = the bracket of g (+) h from a LieAct triple, which squares to
    # zero under the NR bracket and has no a'-component: the "full"
    # brackets (l_1 from Delta, l_i with lambda^{i-1}) satisfy the
    # generalized Jacobi identities
    for _ in range(80):
        T = random_lieact(rng)
        gdim, hdim = T.g.dim, T.h.dim
        N = gdim + hdim
        Delta = semidirect_bracket(T.g.bracket, T.rho, h_bracket=T.h.bracket)
        S = FullDerivedBrackets(lambda F: project_a_rel(F, gdim),
                                rng.choice(WEIGHTS), Delta)
        pool = [sterm(rand_altmap(rng, rng.randrange(1, 3), N))
                for _ in range(2)] + \
            [aterm(project_a_rel(rand_altmap(rng, rng.randrange(1, 3), N),
                                 gdim)) for _ in range(2)]
        terms = [rng.choice(pool) for _ in range(rng.randrange(1, 5))]
        assert jacobi_holds(S, terms)


def test_relative_m_closed_under_bracket(rng):
    for _ in range(8):
        f = project_M_rel(rand_altmap(rng, rng.randrange(1, 4), 4), 2)
        g = project_M_rel(rand_altmap(rng, rng.randrange(1, 4), 4), 2)
        assert in_M_rel(nr_bracket(f, g), 2)


# ---------------------------------------------------------------------------
# Maurer-Cartan characterizations


def test_mc_absolute_matches_axioms(rng):
    ok = bad = 0
    for _ in range(25):
        A = random_diff_lie(rng, max_dim=3)
        if rng.random() < 0.5:
            A = diff_lie(A.algebra, rand_matrix(rng, A.dim, A.dim), A.weight)
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
            D = altmap1_from_matrix(rand_matrix(rng, T.h.dim, T.g.dim))
        axioms = is_lieact(T) and all(
            vec_is_zero(r) for r in relative_oracle(T, D, lam))
        mc, _ = mc_check_relative(T.g.bracket, T.rho, T.h.bracket, D, lam)
        assert mc == axioms
        ok += axioms
        bad += not axioms
    assert ok and bad


def test_mc_relative_broken_action(rng):
    T = random_lieact(rng)
    bump = AltMap(2, T.g.dim + T.h.dim, T.h.dim)
    bump[(0, T.g.dim)] = basis_vec(T.h.dim, 0)
    rho = T.rho + bump
    mu = T.h.bracket
    mc, res = mc_check_relative(T.g.bracket, rho, mu,
                                AltMap(1, T.g.dim, T.h.dim), 1)
    # perturbing rho generically breaks the action-homomorphism equations
    from difflie.liealg import LieActTriple, lieact_residuals
    res = lieact_residuals(LieActTriple(T.g, T.h, rho))
    broken = any(not vec_is_zero(v) for cols in res["hom"] for v in cols) \
        or any(not vec_is_zero(v) for v in res["derivation"])
    assert mc == (not broken)


# ---------------------------------------------------------------------------
# strict morphisms between the structures


def abs_to_rel(t):
    if t.kind == "s":
        return Term("s", iota_M(t.f))
    return Term("a", iota_a_abs(t.f))


def test_morphism_absolute_to_relative(rng):
    # with h = g, suspending-and-doubling embeds the one-algebra structure
    # into the pair structure strictly
    for _ in range(5):
        dim = 2
        lam = rng.choice(WEIGHTS)
        src = AbsoluteStructure(lam)
        tgt = relative_structure(dim, lam)
        pool = [sterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, rng.randrange(1, 3), dim)),
                aterm(rand_altmap(rng, 1, dim))]
        samples = []
        for n in (2, 3):
            samples.append(tuple(rng.choice(pool) for _ in range(n)))
        for res in morphism_residual(abs_to_rel, src, tgt, samples):
            assert all_zero(res.values())
    # dim 3, a-terms of arity 2 and 1: l_3(sf, xi_2, xi_1) is nonzero and
    # inserts a-terms of mixed parities
    f, xi2, xi1 = sterm(rand_altmap(rng, 2, 3)), \
        aterm(rand_altmap(rng, 2, 3)), aterm(rand_altmap(rng, 1, 3))
    for lam in WEIGHTS:
        src = AbsoluteStructure(lam)
        assert lam == 0 or src.bracket([f, xi2, xi1])
        res, = morphism_residual(abs_to_rel, src, relative_structure(3, lam),
                                 [(f, xi2, xi1)])
        assert all_zero(res.values())


def test_morphism_relative_to_absolute(rng):
    # the pair structure for (g, h) maps into the one-algebra structure on
    # g (+) h strictly on payloads with at most one h input (all of M' when
    # dim h = 1): there the pair projection never drops a bracket component
    from difflie.linfty import project_M_embed
    for _ in range(8):
        gdim, hdim = 2, rng.randrange(1, 3)
        N = gdim + hdim
        lam = rng.choice(WEIGHTS)
        src = relative_structure(gdim, lam)
        tgt = AbsoluteStructure(lam)
        phi = lambda t: t  # payloads already live on g (+) h
        pool = [sterm(project_M_embed(rand_altmap(rng, rng.randrange(1, 3),
                                                  N), gdim)),
                aterm(project_a_rel(rand_altmap(rng, rng.randrange(1, 3), N),
                                    gdim)),
                aterm(project_a_rel(rand_altmap(rng, 1, N), gdim))]
        samples = []
        for n in (2, 3):
            samples.append(tuple(rng.choice(pool) for _ in range(n)))
        for res in morphism_residual(phi, src, tgt, samples):
            assert all_zero(res.values())


def test_morphism_relative_to_absolute_breaks_with_two_h_inputs():
    # a payload with two h inputs (an h-bracket) is a genuine obstruction:
    # its bracket with an a'-element has a mixed-input component that the
    # pair projection drops but the one-algebra structure keeps
    gdim, hdim = 1, 2
    N = gdim + hdim
    lam = Fraction(1)
    src = relative_structure(gdim, lam)
    tgt = AbsoluteStructure(lam)
    mu = AltMap(2, N, N)            # [h1, h2] = h1
    mu[(1, 2)] = [0, 1, 0]
    assert in_M_rel(mu, gdim)
    xi = AltMap(1, N, N)            # g -> h1
    xi[(0,)] = [0, 1, 0]
    sample = (sterm(mu), aterm(xi))
    res = morphism_residual(lambda t: t, src, tgt, [sample])[0]
    assert not all_zero(res.values())


# ---------------------------------------------------------------------------
# concrete finite-dimensional structures: a HomotopyDiffLie with no D


def lie_linfty(L):
    return HomotopyDiffLie(L.bracket.space, {2: L.bracket}, {}, 0)


def test_concrete_jacobi_from_lie():
    S = lie_linfty(sl2())
    vs = [basis_vec(3, i) for i in range(3)]
    for n in (2, 3):
        args = vs[:n] if n <= 3 else vs
        assert vec_is_zero(linfty_residual(S, n, args))


def test_lambda_rescale_variants():
    S = lie_linfty(heisenberg())
    full = lambda_rescale(S, 3, "full")
    red = lambda_rescale(S, 3, "reduced")
    assert full.mu[2] == S.mu[2].scale(3)
    assert red.mu[2] == S.mu[2]
    assert lambda_rescale(S, 0, "full").mu == {}
    # a misspelt variant is an error, not the reduced rescaling
    with pytest.raises(ValueError, match="'full' and 'reduced'"):
        lambda_rescale(S, 3, "ful")


def test_twist_by_zero_is_identity():
    S = lie_linfty(aff1())
    zero = [Fraction(0)] * 2
    T = twist(S, zero)
    assert T.mu == S.mu and T.D == {}
    assert vec_is_zero(mc_residual(S, zero))


def test_mc_residual_formal_zero_structure():
    # an abelian algebra with zero operator is MC with zero residual
    dim = 3
    pi = AltMap(2, dim, dim)
    ok, res = mc_check_absolute(pi, AltMap(1, dim, dim), 1)
    assert ok and all_zero(res)


# ---------------------------------------------------------------------------
# where the formal series stops


def mc_residual_bounded(struct, S, A, bound):
    """The fixed-bound MC residual: every bracket through `bound`
    arguments, vanishing or not, summed by kind."""
    out = parts(struct.bracket([sterm(S)]) + struct.bracket([aterm(A)]))
    _add(out, Fraction(1, 2), struct.bracket([sterm(S), sterm(S)]))
    for k in range(1, bound):
        _add(out, Fraction(1, factorial(k)),
             struct.bracket([sterm(S)] + [aterm(A)] * k))
    for k in range(2, bound):
        _add(out, Fraction(1, factorial(k)), struct.bracket([aterm(A)] * k))
    return out


def twist_l1_bounded(struct, S, A, term, bound):
    """The fixed-bound twisted l_1: every bracket through `bound`
    arguments, vanishing or not, summed by kind."""
    out = parts(struct.bracket([term]))
    for k in range(1, bound):
        for j in range(k + 1):
            args = [sterm(S)] * j + [aterm(A)] * (k - j) + [term]
            _add(out, Fraction(1, factorial(j) * factorial(k - j)),
                 struct.bracket(args))
    return out


def pair_of(sums, k, dim):
    """A {kind: map} sum of degree k as its cochain pair, a missing part
    read as the zero map."""
    return (sums.get("s", AltMap(k + 2, dim, dim)),
            sums.get("a", AltMap(k + 1, dim, dim)))


class RecordingStructure(AbsoluteStructure):
    """Records the argument count of every bracket it is asked for."""

    def __init__(self):
        super().__init__(1)
        self.counts = []

    def bracket(self, terms):
        self.counts.append(len(terms))
        return []


def test_twist_series_reaches_top_bracket():
    # l_1 of the twist on an s-term of arity 9 needs l_10(sf, A^9): a
    # series cut at a fixed bound drops it
    S = RecordingStructure()
    twist_l1_formal(S, AltMap(2, 9, 9), AltMap(1, 9, 9),
                    sterm(AltMap(9, 9, 9)))
    assert max(S.counts) == 10


def random_formal_case(rng):
    """A structure, an m-element S of arity 2 (so alpha = (sS, A) has
    degree 0), an a-element A of arity 1, and a pool of Terms."""
    lam = rng.choice(WEIGHTS)
    if rng.random() < 0.5:
        dim = rng.randrange(2, 4)
        struct = AbsoluteStructure(lam)
        to_s = to_a = lambda F: F
    else:
        gdim, hdim = 2, rng.randrange(1, 3)
        dim = gdim + hdim
        struct = relative_structure(gdim, lam)
        to_s = lambda F: project_M_rel(F, gdim)
        to_a = lambda F: project_a_rel(F, gdim)
    S = to_s(rand_altmap(rng, 2, dim))
    A = to_a(rand_altmap(rng, 1, dim))
    pool = [sterm(to_s(rand_altmap(rng, rng.randrange(1, 4), dim))),
            aterm(to_a(rand_altmap(rng, rng.randrange(1, 3), dim)))]
    return struct, S, A, pool


def test_formal_series_matches_fixed_bound(rng):
    # every s-term here has arity <= 3, so no bracket past 4 arguments is
    # nonzero and the bound 6 covers the whole series
    for _ in range(10):
        struct, S, A, pool = random_formal_case(rng)
        dim = S.src_dim
        assert mc_residual_formal(struct, S, A) == \
            pair_of(mc_residual_bounded(struct, S, A, 6), 1, dim)
        for term in pool:
            assert twist_l1_formal(struct, S, A, term) == pair_of(
                twist_l1_bounded(struct, S, A, term, 6), term.degree + 1, dim)


def test_series_returns_the_cochain_pair_of_its_degree(rng):
    # the MC residual has degree 1 and the twisted l_1 of a degree-k term
    # degree k + 1, zero parts included
    for _ in range(10):
        struct, S, A, pool = random_formal_case(rng)
        s, a = mc_residual_formal(struct, S, A)
        assert (s.arity, a.arity) == (3, 2)
        for term in pool:
            s, a = twist_l1_formal(struct, S, A, term)
            assert (s.arity, a.arity) == (term.degree + 3, term.degree + 2)
    # at alpha = 0 every value is zero, and still a pair of its degree
    dim = 3
    S, A = AltMap(2, dim, dim), AltMap(1, dim, dim)
    struct = AbsoluteStructure(1)
    s, a = mc_residual_formal(struct, S, A)
    assert (s.arity, a.arity) == (3, 2) and all_zero((s, a))
    for term in [sterm(AltMap(1, dim, dim)), aterm(AltMap(0, dim, dim)),
                 sterm(rand_altmap(rng, 3, dim)),
                 aterm(rand_altmap(rng, 2, dim))]:
        s, a = twist_l1_formal(struct, S, A, term)
        k = term.degree
        assert (s.arity, a.arity) == (k + 3, k + 2) and all_zero((s, a))


def test_morphism_residual_below_degree_minus_one_is_zero(rng):
    # three arity-1 s-terms have degree -3, so l_3 of them has degree -2,
    # where a cochain pair would need an a-part of arity -1; every bracket
    # of three s-terms vanishes, and the residual holds no nonzero part
    for dim in (0, 2):
        ones = [sterm(rand_altmap(rng, 1, dim)) for _ in range(3)]
        for lam in WEIGHTS:
            res, = morphism_residual(abs_to_rel, AbsoluteStructure(lam),
                                     relative_structure(dim, lam),
                                     [tuple(ones)])
            assert all_zero(res.values())
