"""Formal L-infinity[1] structures: derived brackets on sM (+) a, where M
and a are Hom-spaces of alternating maps.  (A concrete L-infinity[1]-algebra
on a finite-dimensional graded space is a homotopy.HomotopyDiffLie with no
operators; its twisting and rescaling live there.)

An element of sM (+) a of degree k is a cochain pair: an s-part of arity
k + 2 and an a-part of arity k + 1.  A Term is one of the two parts and is
the one input type; a bracket returns the list of its nonzero parts as
Terms, and the Maurer-Cartan residual and the twisted l_1 return the pair
of maps itself.

The derived-bracket construction (after Voronov): M and a are graded Lie
subalgebras of the maps on one ambient space under the Nijenhuis-Richardson
bracket, a abelian, and P a projection onto a whose kernel is a subalgebra
containing M.  With Delta = 0 the space sM (+) a carries the reduced higher
brackets: l_2 = (-1)^{|f|} s[f,g] on two s-terms, and l_i with one s-term
sf is lambda^max(i-2, 0) times P of the iterated bracket that starts at f
(so l_1 = P f = 0).  Every structure the cohomology theory uses is of this
case.

The relative structure (a pair g, h acted on) is the instance with P the
projection onto Hom(~g, h).  The absolute structure (one Lie algebra g) is
its closed form: DerivedBrackets.bracket with the s-term composite evaluated
by _closed_form_sum, the one closed form of the signed insertion, so it
needs no P and reads dim g off the maps.  key_formula_check compares that
same function against the iterated circle product in the double space
g (+) g', and the tests compare the brackets against P of the iterated
brackets there, so both certify the closed form the brackets use.
Maurer-Cartan residuals and the twisted l_1 are one finite series at
alpha = (sS, A) of degree 0, cut where the brackets vanish.
"""

from itertools import combinations
from math import factorial

from .linalg import Matrix, div, frac, vec_zero, vec_is_zero
from .liealg import semidirect_bracket
from .multilinear import AltMap, DimensionMismatch, altmap1_from_matrix
from .nr import circ_bar, insertion_sum, nr_bracket


# ---------------------------------------------------------------------------
# elements of sM (+) a


class Term:
    """One part of an element: an s-part (kind 's') or an a-part (kind
    'a'), an AltMap.  Of degree k, an s-part has arity k + 2 and an a-part
    arity k + 1; an element of degree k is the pair of the two."""

    __slots__ = ("kind", "f")

    def __init__(self, kind, f):
        if kind not in ("s", "a"):
            raise ValueError("a term is of kind 's' or 'a', not %r" % (kind,))
        self.kind = kind
        self.f = f

    @property
    def degree(self):
        return self.f.arity - (2 if self.kind == "s" else 1)

    def __repr__(self):
        return "Term(%r, arity=%d)" % (self.kind, self.f.arity)


def _add(parts, c, terms):
    """Add c times each Term to parts, a {kind: map} sum of elements of one
    degree, and return parts."""
    for t in terms:
        f = t.f.scale(c)
        parts[t.kind] = parts[t.kind] + f if t.kind in parts else f
    return parts


def _nonzero(kind, f):
    return [] if f.is_zero() else [Term(kind, f)]


def _split_s(terms):
    """Move the unique s-term to the front, with the Koszul sign of the move.

    Returns (sign, s_term_or_None, a_terms) or (0, None, None) when more
    than one s-term is present (the caller handles the l_2(s,s) case)."""
    s_pos = [k for k, t in enumerate(terms) if t.kind == "s"]
    if len(s_pos) > 1:
        return 0, None, None
    if not s_pos:
        return 1, None, list(terms)
    k = s_pos[0]
    exp = terms[k].degree * sum(t.degree for t in terms[:k])
    sign = -1 if exp % 2 else 1
    return sign, terms[k], [t for t in terms if t.kind == "a"]


class DerivedBrackets:
    """The reduced L-infinity[1]-algebra on sM (+) a of a projection P.

    Elements of M and a are maps on one space, and P projects a map onto a
    and vanishes on M.  l_1 = 0, l_2 carries no lambda and l_i (i >= 3)
    carries lambda^{i-2}.
    """

    def __init__(self, P, lam):
        self.P = P
        self.lam = frac(lam)

    def _composite(self, f, xis):
        """P[...[f, xi_1], ..., xi_r]: the bracket l_{r+1}(sf, xi_1, ..,
        xi_r) without its power of lambda and its sign."""
        for xi in xis:
            f = nr_bracket(f, xi)
        return self.P(f)

    def bracket(self, terms):
        """l_i applied to a list of Terms: the list of its nonzero parts as
        Terms, here at most one.

        Apart from l_2 of two s-terms, l_i vanishes unless exactly one term
        is an s-term sf, and is then lambda^max(i - 2, 0) times P of the
        iterated bracket that starts at f."""
        i = len(terms)
        sign, s_term, a_terms = _split_s(terms)
        if sign == 0:
            # two or more s-terms: only l_2(sf, sg) survives
            if i != 2:
                return []
            f, g = terms[0].f, terms[1].f
            c = -1 if (f.arity - 1) % 2 else 1  # (-1)^{|f|}, NR degree
            return _nonzero("s", nr_bracket(f, g).scale(c))
        c = sign * self.lam ** max(i - 2, 0)
        if c == 0 or s_term is None:
            return []
        res = self._composite(s_term.f, [t.f for t in a_terms])
        return _nonzero("a", res.scale(c))


# ---------------------------------------------------------------------------
# the absolute structure: tagged double space and closed forms


def _gdim(f):
    """dim g of a map on g into g: the double space g (+) g' holds no other
    map."""
    if f.src_dim != f.tgt_dim:
        raise DimensionMismatch("the double space embeds maps g -> g, not "
                                "%d -> %d" % (f.src_dim, f.tgt_dim))
    return f.src_dim


def iota_M(f):
    """Embed f in Hom(wedge^{n+1} g, g) into maps on g (+) g' (dim 2 dim g):
    the component with no primed input lands in g, all others in g',
    forgetting the priming of the inputs."""
    dim = _gdim(f)
    big = AltMap(f.arity, 2 * dim, 2 * dim)
    for key in combinations(range(2 * dim), f.arity):
        base = tuple(i % dim for i in key)
        val = f.value_on_basis(base) if len(set(base)) == len(base) \
            else vec_zero(dim)
        if vec_is_zero(val):
            continue
        primed = any(i >= dim for i in key)
        if primed:
            big.coeffs[key] = vec_zero(dim) + list(val)
        else:
            big.coeffs[key] = list(val) + vec_zero(dim)
    return big


def iota_a_abs(xi):
    """Embed xi in Hom(wedge^{m+1} g, g) as an all-unprimed-input map into
    g' inside the double space."""
    dim = _gdim(xi)
    big = AltMap(xi.arity, 2 * dim, 2 * dim)
    for key, vec in xi.coeffs.items():
        big.coeffs[key] = vec_zero(dim) + list(vec)
    return big


class AbsoluteStructure(DerivedBrackets):
    """The absolute structure on sM (+) a over g: the derived brackets of
    the double space g (+) g', with the composite in closed form on g
    itself, so no P is needed and dim g is read off the maps."""

    def __init__(self, lam):
        super().__init__(None, lam)

    def _composite(self, f, xis):
        """Zero with no a-argument (P o iota_M = 0), the NR bracket with
        one and the closed form with more (zero past arity(f) of them)."""
        if len(xis) == 1:
            return nr_bracket(f, xis[0])
        return _closed_form_sum(f, xis) if xis else f.scale(0)


def _closed_form_sum(f, xis):
    """The insertion of xi_r, .., xi_1 into f (the first shuffle block
    feeds xi_r) with the key-formula sign (-1)^(sum_j m_j (r - 1 - j)),
    m_j = arity(xi_j) - 1: each insertion contributes its degree once for
    every later insertion it is carried past.  It is the one closed form of
    the iterated circle product: on g it is l_{r+1}(sf, xi_1, .., xi_r)
    without its power of lambda, and key_formula_check certifies it against
    the iterated product in the double space."""
    r = len(xis)
    exp = sum((xi.arity - 1) * (r - 1 - j) for j, xi in enumerate(xis))
    return insertion_sum(f, xis[::-1]).scale(-1 if exp % 2 else 1)


def key_formula_check(f, xis):
    """Difference between the iterated circle product of iota_M(f) with the
    embedded xi's and _closed_form_sum of the same maps, both computed in
    the double space; identically zero.  This certifies the closed form
    that the higher brackets of the absolute structure evaluate.  A xi on
    another space than f raises DimensionMismatch."""
    if not 1 <= len(xis) <= f.arity:
        raise ValueError("need 1 <= r <= arity(f)")
    big_f = iota_M(f)
    big_xis = [iota_a_abs(xi) for xi in xis]
    lhs = big_f
    for xi in big_xis:
        lhs = circ_bar(lhs, xi)
    return lhs - _closed_form_sum(big_f, big_xis)


# ---------------------------------------------------------------------------
# the relative structure: maps on g (+) h with component constraints


def _project(F, gdim, keep):
    """The components of a map F on g (+) h that keep(gs, hs) names: for a
    key with gs inputs in g and hs in h, keep gives whether the g block and
    the h block of its output stay."""
    out = AltMap(F.arity, F.src_dim, F.tgt_dim)
    for key, vec in F.coeffs.items():
        hs = sum(1 for i in key if i >= gdim)
        keep_g, keep_h = keep(len(key) - hs, hs)
        val = (vec[:gdim] if keep_g else vec_zero(gdim)) + \
            (vec[gdim:] if keep_h else vec_zero(F.tgt_dim - gdim))
        if not vec_is_zero(val):
            out.coeffs[key] = val
    return out


def project_a_rel(F, gdim):
    """Component of F in a' = Hom(~g, h)."""
    return _project(F, gdim, lambda gs, hs: (False, hs == 0))


def project_M_embed(F, gdim):
    """Component of F in the subalgebra of pair payloads that embed
    strictly into the one-algebra structure on g (+) h: all-g inputs with
    g output, or exactly one h input with h output.

    This is a graded Lie subalgebra of M', and on it every iterated bracket
    with a'-elements already lies in a' (the single h slot is consumed by
    the first insertion), so the pair projection drops nothing.  Components
    with two or more h inputs (for instance an h-bracket) break strictness
    whenever dim h >= 2; for dim h = 1 the subalgebra is all of M'.
    """
    return _project(F, gdim, lambda gs, hs: (hs == 0, hs == 1))


def relative_structure(gdim, lam):
    return DerivedBrackets(lambda F: project_a_rel(F, gdim), lam)


def pack_D(D, gdim, hdim):
    """D: g -> h as an a'-element of the big space."""
    return altmap1_from_matrix(Matrix.block([
        [Matrix.zero(gdim, gdim + hdim)],
        [D, Matrix.zero(hdim, hdim)]]))


# ---------------------------------------------------------------------------
# Maurer-Cartan residuals, checks, and twisting of formal structures


def _formal_series(struct, S, A, rest):
    """sum_{j, a} 1/(j! a!) l(sS^j, A^a, rest) for alpha = (sS, A) of degree
    0 (S of arity 2, A of arity 1) and rest = [] or [term], through its last
    nonzero bracket.  Returns the element as its cochain pair: the s-part of
    arity k + 2 and the a-part of arity k + 1, k = 1 + |rest|, either of
    them possibly zero.

    A bracket with two s-terms vanishes past 2 arguments, one with a single
    s-term of arity p past p + 1, and one with no s-term always; so j <= 2
    and the argument count is read from the arities."""
    k = 1 + sum(t.degree for t in rest)
    dim = S.src_dim
    parts = {"s": AltMap(k + 2, dim, dim), "a": AltMap(k + 1, dim, dim)}
    rest_s = [t.f.arity for t in rest if t.kind == "s"]
    for j in range(3):
        s_arities = [S.arity] * j + rest_s
        if not s_arities:
            continue
        last = 2 if len(s_arities) > 1 else s_arities[0] + 1
        for a in range(last - j - len(rest) + 1):
            _add(parts, div(1, factorial(j) * factorial(a)),
                 struct.bracket([Term("s", S)] * j + [Term("a", A)] * a
                                + rest))
    return parts["s"], parts["a"]


def mc_residual_formal(struct, S, A):
    """MC residual of alpha = (sS, A): sum_n 1/n! l_n(alpha^n), as the
    cochain pair of arities (3, 2).  S is an arity-2 m-element, A an
    arity-1 a-element."""
    return _formal_series(struct, S, A, [])


def mc_check_absolute(pi, D, lam):
    """(s pi, D) is MC in the absolute structure iff (g, pi, D) is a
    differential Lie algebra of weight lam.  Returns (bool, residual pair)."""
    res = mc_residual_formal(AbsoluteStructure(lam), pi,
                             altmap1_from_matrix(D))
    return all(f.is_zero() for f in res), res


def mc_check_relative(pi, rho_mats, mu, D, lam):
    """(s(pi+rho+mu), D) is MC in the relative structure iff (g,h,rho) is a
    LieAct triple and D a relative differential operator of weight lam."""
    gdim, hdim = pi.src_dim, mu.src_dim
    chi = semidirect_bracket(gdim, hdim, rho_mats, pi, h_bracket=mu)
    res = mc_residual_formal(relative_structure(gdim, lam), chi,
                             pack_D(D, gdim, hdim))
    return all(f.is_zero() for f in res), res


def twist_l1_formal(struct, S, A, term):
    """l_1 of the structure twisted by alpha = (sS, A), applied to a Term:
    sum_k 1/k! l_{k+1}(alpha^k, term), as the cochain pair of arities
    (|term| + 3, |term| + 2)."""
    return _formal_series(struct, S, A, [term])


# ---------------------------------------------------------------------------
# strict morphism residuals between formal structures


def morphism_residual(phi, src, tgt, samples):
    """phi(l_n(x_1..x_n)) - l'_n(phi x_1..phi x_n) over sample Term tuples.

    phi: Term -> Term (strict, degree 0).  samples: list of Term tuples.
    Returns one {kind: map} per sample, the parts of its residual summed by
    kind, with no entry for a kind neither side has (all maps zero for a
    strict L-infinity[1] homomorphism on those samples)."""
    out = []
    for args in samples:
        res = _add({}, 1, [phi(t) for t in src.bracket(list(args))])
        out.append(_add(res, -1, tgt.bracket([phi(t) for t in args])))
    return out
