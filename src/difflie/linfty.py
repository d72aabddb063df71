"""L-infinity[1] structures: concrete (graded-symmetric bracket families on a
finite-dimensional graded space) and formal (derived brackets on sM (+) a,
where M and a are Hom-spaces of alternating maps).

The derived-bracket construction: given V-data (L, m, iota_m, a, iota_a, P,
Delta) -- a graded Lie algebra L, a graded Lie subalgebra m, an abelian
graded subalgebra a with projection P splitting iota_a and Ker(P) a
subalgebra, Delta in Ker(P)^1 squaring to zero and preserving iota_m(m) --
the space sm (+) a carries higher brackets built from iterated L-brackets
projected by P.  Two lambda-gradings are provided:

  variant "full"    : l_1 from Delta, l_2 = (-1)^{|f|} lambda s[f,g]_m,
                      higher l_i with lambda^{i-1};
  variant "reduced" : requires Delta = 0 and P o iota_m = 0; l_1 = 0,
                      l_2 = (-1)^{|f|} s[f,g]_m, higher l_i with
                      lambda^{i-2}.

The absolute structure (one Lie algebra g) and the relative structure (a
pair g, h acted on) are both "reduced" instances of the one case analysis in
DerivedBrackets.bracket; the absolute one only evaluates its s-term
composite by a closed-form shuffle expression, certified against the
iterated-bracket route by key_formula_check.  Maurer-Cartan residuals and
the twisted l_1 are one finite series, cut where the brackets vanish.
"""

from itertools import combinations
from math import factorial

from .linalg import (Matrix, basis_vec, div, frac, vec_add, vec_scale,
                     vec_zero, vec_is_zero)
from .liealg import semidirect_bracket
from .multilinear import AltMap, GradedSymMap, altmap1_from_matrix
from .nr import circ_bar, family_circ, nr_bracket
from .permutations import LengthMismatch, koszul_sign, shuffles, signature


class DegreeMismatch(Exception):
    pass


class NotMaurerCartan(Exception):
    pass


class InvalidVData(Exception):
    pass


# ---------------------------------------------------------------------------
# concrete structures on a finite-dimensional graded space


class LInftyStructure:
    """Arity-bounded bracket family {l_n} of GradedSymMaps of degree 1."""

    def __init__(self, space, brackets):
        self.space = space
        self.brackets = dict(brackets)
        for n, l in self.brackets.items():
            if n < 1 or l.arity != n or l.degree != 1 or l.space != space:
                raise ValueError("l_%d must be a degree-1 map of arity %d "
                                 "on the space, n >= 1" % (n, n))

    @property
    def arity_bound(self):
        return max(self.brackets, default=0)

    def l(self, n, args):
        b = self.brackets.get(n)
        if b is None:
            return vec_zero(self.space.dim)
        return b.evaluate(args)


def generalized_jacobi_residual(L, n, args):
    """sum_{i=1}^{n} sum_{sigma in Sh(i,n-i)} eps(sigma)
    l_{n-i+1}(l_i(x_{sigma(1)}..), x_{sigma(i+1)}..)."""
    if len(args) != n:
        raise LengthMismatch("expected %d arguments" % n)
    degs = [L.space.degree_of_vector(v) for v in args]
    return family_circ(L.brackets, L.brackets, args, degs, L.space.dim)


def _twisted_value(L, alpha, args):
    """sum_i 1/i! l_{n+i}(alpha^i, args) for n = len(args), through the top
    arity of L."""
    out = vec_zero(L.space.dim)
    for i in range(L.arity_bound - len(args) + 1):
        term = L.l(len(args) + i, [alpha] * i + args)
        if not vec_is_zero(term):
            out = vec_add(out, vec_scale(div(1, factorial(i)), term))
    return out


def mc_residual(L, alpha):
    """sum_n 1/n! l_n(alpha,..,alpha) for a degree-0 element alpha."""
    if not vec_is_zero(alpha) and L.space.degree_of_vector(alpha) != 0:
        raise DegreeMismatch("Maurer-Cartan elements must have degree 0")
    return _twisted_value(L, alpha, [])


def twist(L, alpha):
    """The twisted structure l_n^alpha(x..) = sum_i 1/i! l_{n+i}(alpha^i, x..)."""
    if not vec_is_zero(mc_residual(L, alpha)):
        raise NotMaurerCartan("twisting element fails the MC equation")
    space = L.space
    brackets = {}
    for n in range(1, L.arity_bound + 1):
        ln = GradedSymMap(n, 1, space)
        for key in space.spanning_tuples(n):
            total = _twisted_value(
                L, alpha, [basis_vec(space.dim, i) for i in key])
            if not vec_is_zero(total):
                ln[key] = total
        if not ln.is_zero():
            brackets[n] = ln
    return LInftyStructure(space, brackets)


def lambda_rescale(L, lam, variant="full"):
    """Rescaled structure: l'_n = lambda^{n-1} l_n ("full"), or the variant
    keeping l_1 and scaling l_n by lambda^{n-2} for n >= 2 ("reduced")."""
    lam = frac(lam)
    brackets = {}
    for n, l in L.brackets.items():
        if variant == "full":
            c = lam ** (n - 1)
        else:
            c = 1 if n == 1 else lam ** (n - 2)
        scaled = l.scale(c)
        if not scaled.is_zero():
            brackets[n] = scaled
    return LInftyStructure(L.space, brackets)


# ---------------------------------------------------------------------------
# formal elements of sM (+) a


class Term:
    """A homogeneous element: s-part map (kind 's') or a-part map (kind 'a').

    The payload is an AltMap; an s-term of arity n+1 has degree n-1, an
    a-term of arity m+1 has degree m.
    """

    __slots__ = ("kind", "f")

    def __init__(self, kind, f):
        if kind not in ("s", "a"):
            raise ValueError("a term is of kind 's' or 'a', not %r" % (kind,))
        self.kind = kind
        self.f = f

    @property
    def degree(self):
        if self.kind == "s":
            return self.f.arity - 2
        return self.f.arity - 1

    def scale(self, c):
        return Term(self.kind, self.f.scale(c))

    def is_zero(self):
        return self.f.is_zero()

    def __repr__(self):
        return "Term(%r, arity=%d)" % (self.kind, self.f.arity)


class FormalElement:
    """A finite sum of homogeneous Terms, kept in normalized form."""

    def __init__(self, terms=()):
        self.parts = {}  # (kind, arity) -> AltMap
        for t in terms:
            self._add_term(t)

    def _add_term(self, t):
        if t.is_zero():
            return
        key = (t.kind, t.f.arity)
        cur = self.parts.get(key)
        s = t.f if cur is None else cur + t.f
        if s.is_zero():
            self.parts.pop(key, None)
        else:
            self.parts[key] = s

    def __add__(self, other):
        out = FormalElement(self.terms())
        for t in other.terms():
            out._add_term(t)
        return out

    def scale(self, c):
        return FormalElement([t.scale(c) for t in self.terms()])

    def terms(self):
        return [Term(kind, f) for (kind, _), f in sorted(
            self.parts.items(), key=lambda kv: kv[0])]

    def is_zero(self):
        return not self.parts

    def __eq__(self, other):
        return isinstance(other, FormalElement) and self.parts == other.parts

    def __repr__(self):
        return "FormalElement(%r)" % (self.terms(),)


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


class VData:
    """Generalised V-data presented operationally.

    All payloads (elements of L, m, a) are AltMaps on one ambient space;
    the maps below mediate between them.
    """

    def __init__(self, L_bracket, m_bracket, iota_m, iota_m_inv, iota_a, P,
                 Delta=None, deg_m=None):
        self.L_bracket = L_bracket
        self.m_bracket = m_bracket
        self.iota_m = iota_m
        self.iota_m_inv = iota_m_inv
        self.iota_a = iota_a
        self.P = P
        self.Delta = Delta  # an element of L, or None for Delta = 0
        # degree of an m-element; defaults to the NR degree arity-1
        self.deg_m = deg_m or (lambda f: f.arity - 1)


class DerivedBrackets:
    """The L-infinity[1]-algebra on sm (+) a obtained from V-data.

    variant "full": the construction for arbitrary Delta, with l_2 carrying
    lambda and l_i (i >= 2) carrying lambda^{i-1}.
    variant "reduced": requires Delta = 0 and P o iota_m = 0; l_1 = 0, l_2
    carries no lambda and l_i (i >= 3) carries lambda^{i-2}.
    """

    def __init__(self, vdata, lam, variant="reduced"):
        if variant not in ("full", "reduced"):
            raise InvalidVData("unknown variant %r" % variant)
        if variant == "reduced" and vdata.Delta is not None:
            raise InvalidVData("reduced variant requires Delta = 0")
        self.v = vdata
        self.lam = frac(lam)
        self.variant = variant

    def _iterated(self, start, xis):
        """[...[start, iota_a xi_1], ..., iota_a xi_k] in L."""
        cur = start
        for xi in xis:
            cur = self.v.L_bracket(cur, self.v.iota_a(xi.f))
        return cur

    def _s_composite(self, f, a_terms):
        """P[...[iota_m f, iota_a xi_1], ..., iota_a xi_r]: the bracket
        l_{r+1}(sf, xi_1, .., xi_r) without its power of lambda and its
        sign."""
        return self.v.P(self._iterated(self.v.iota_m(f), a_terms))

    def bracket(self, terms):
        """l_i applied to a list of Terms; returns a FormalElement."""
        v, lam = self.v, self.lam
        i = len(terms)
        if not i:
            return FormalElement()  # no l_0: every power of lam below is >= 0
        sign, s_term, a_terms = _split_s(terms)
        if sign == 0:
            # two or more s-terms: only l_2(sf, sg) survives
            if i == 2:
                f, g = terms[0].f, terms[1].f
                c = -1 if v.deg_m(f) % 2 else 1
                if self.variant == "full":
                    c = c * lam
                return FormalElement([Term("s", v.m_bracket(f, g).scale(c))])
            return FormalElement()
        if i == 1:
            if self.variant == "reduced":
                return FormalElement()
            # l_1 from Delta
            if s_term is not None:
                f = s_term.f
                out = []
                if v.Delta is not None:
                    br = v.L_bracket(v.Delta, v.iota_m(f))
                    out.append(Term("s", v.iota_m_inv(br).scale(-1)))
                out.append(Term("a", v.P(v.iota_m(f))))
                return FormalElement(out)
            if v.Delta is None:
                return FormalElement()
            return FormalElement(
                [Term("a", v.P(v.L_bracket(v.Delta,
                                           v.iota_a(a_terms[0].f))))])
        if s_term is not None:
            # l_i(sf, xi_1, ..., xi_{i-1}), i >= 2
            if self.variant == "full":
                c = lam ** (i - 1)
            else:
                c = 1 if i == 2 else lam ** (i - 2)
            if c == 0:
                return FormalElement()
            res = self._s_composite(s_term.f, a_terms)
            return FormalElement([Term("a", res.scale(c * sign))])
        # pure a-terms: need Delta
        if v.Delta is None or self.variant == "reduced":
            return FormalElement()
        c = lam ** (i - 1)
        if c == 0:
            return FormalElement()
        res = v.P(self._iterated(v.L_bracket(v.Delta, v.iota_a(a_terms[0].f)),
                                 a_terms[1:]))
        return FormalElement([Term("a", res.scale(c))])


def generalized_jacobi_residual_formal(struct, terms):
    """The generalised Jacobi sum of a formal structure on a Term list."""
    n = len(terms)
    degs = [t.degree for t in terms]
    out = FormalElement()
    for i in range(1, n + 1):
        for sigma in shuffles((i, n - i)):
            eps = koszul_sign(sigma, degs)
            inner = struct.bracket([terms[sigma[t] - 1] for t in range(i)])
            tail = [terms[sigma[t] - 1] for t in range(i, n)]
            for t_in in inner.terms():
                outer = struct.bracket([t_in] + tail)
                out = out + outer.scale(eps)
    return out


# ---------------------------------------------------------------------------
# the absolute structure: tagged double space and closed forms


def iota_M(f, dim):
    """Embed f in Hom(wedge^{n+1} g, g) into maps on g (+) g' (dim 2*dim):
    the component with no primed input lands in g, all others in g',
    forgetting the priming of the inputs."""
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


def iota_a_abs(xi, dim):
    """Embed xi in Hom(wedge^{m+1} g, g) as an all-unprimed-input map into
    g' inside the double space."""
    big = AltMap(xi.arity, 2 * dim, 2 * dim)
    for key, vec in xi.coeffs.items():
        big.coeffs[key] = vec_zero(dim) + list(vec)
    return big


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


def absolute_vdata(dim):
    """The V-data behind the absolute structure (Delta = 0)."""
    return VData(
        L_bracket=nr_bracket,
        m_bracket=nr_bracket,
        iota_m=lambda f: iota_M(f, dim),
        iota_m_inv=None,  # not needed when Delta = 0
        iota_a=lambda xi: iota_a_abs(xi, dim),
        P=lambda F: P_abs(F, dim),
        Delta=None,
    )


class AbsoluteStructure(DerivedBrackets):
    """The absolute structure on sM (+) a over g: the derived brackets of
    absolute_vdata, with the s-term composite in closed form."""

    def __init__(self, dim, lam):
        super().__init__(absolute_vdata(dim), lam, "reduced")
        self.dim = dim

    def _s_composite(self, f, a_terms):
        """The NR bracket for one a-argument, the insertion sum for more,
        and zero past arity(f) of them."""
        xis = [t.f for t in a_terms]
        if len(xis) == 1:
            return nr_bracket(f, xis[0])
        if len(xis) > f.arity:
            return AltMap(f.arity + sum(xi.arity - 1 for xi in xis),
                          self.dim, self.dim)
        return _closed_form_sum(f, xis)


def _closed_form_sum(f, xis):
    """l_{r+1}(sf, xi_1, .., xi_r) without its power of lambda: the
    insertion sum with the graded-symmetric sign (-1)^(sum_{i<j} m_i m_j),
    m_i = arity(xi_i) - 1."""
    ms = [xi.arity - 1 for xi in xis]
    pref_exp = sum(sum(ms[:j]) * ms[j] for j in range(len(ms)))
    return _insertion_sum(f, xis, -1 if pref_exp % 2 else 1)


def _insertion_sum(f, xis, pref):
    """pref times the sum over Sh(m_r+1, .., m_1+1, n+1-r) of the
    sign-weighted f(xi_r (x) ... (x) xi_1 (x) Id^{n+1-r}) tau^{-1}, where
    r = len(xis), n = arity(f)-1, m_i = arity(xi_i) - 1, and the first
    shuffle block feeds the last xi; all maps act on one space."""
    r = len(xis)
    blocks = tuple(xi.arity for xi in reversed(xis)) + (f.arity - r,)
    t = sum(blocks)
    dim = f.src_dim
    out = AltMap(t, dim, dim)
    shs = shuffles(blocks)
    signs = [signature(tau) for tau in shs]
    for key in combinations(range(dim), t):
        total = vec_zero(dim)
        for tau, sign in zip(shs, signs):
            args = []
            pos = 0
            for blk, xi in zip(blocks, reversed(xis)):
                inner = xi.value_on_basis(
                    tuple(key[tau[pos + q] - 1] for q in range(blk)))
                pos += blk
                if vec_is_zero(inner):
                    break
                args.append(inner)
            else:
                tail = tuple(key[tau[p] - 1] for p in range(pos, t))
                val = f.evaluate_head(args, tail)
                if not vec_is_zero(val):
                    total = vec_add(total, vec_scale(sign, val))
        if not vec_is_zero(total):
            out.coeffs[key] = vec_scale(pref, total)
    return out


def absolute_structure(dim, lam):
    return AbsoluteStructure(dim, lam)


def key_formula_check(f, xis, dim):
    """Difference between the iterated circle product of iota_M(f) with the
    embedded xi's (computed in the double space) and the closed-form shuffle
    expression; identically zero.

    The sign of the closed form is (-1)^(sum_{i<j} m_i) with m_i =
    arity(xi_i) - 1: each earlier insertion contributes its degree once for
    every later insertion it is carried past.  (The bracket-family closed
    form in _closed_form_sum uses the graded-symmetric sign
    (-1)^(sum_{i<j} m_i m_j) instead; the two differ on insertions of mixed
    arities, and each is verified against its own from-first-principles
    computation.)"""
    r = len(xis)
    n = f.arity - 1
    if not 1 <= r <= n + 1:
        raise ValueError("need 1 <= r <= arity(f)")
    big_f = iota_M(f, dim)
    big_xis = [iota_a_abs(xi, dim) for xi in xis]
    lhs = big_f
    for xi in big_xis:
        lhs = circ_bar(lhs, xi)
    # closed form, assembled in the double space
    pref_exp = sum((xi.arity - 1) * (r - 1 - j) for j, xi in enumerate(xis))
    rhs = _insertion_sum(big_f, big_xis, -1 if pref_exp % 2 else 1)
    return lhs - rhs


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


def project_M_rel(F, gdim, hdim):
    """Component of F in M' = Hom(~g,g) + Hom(~g (x) ~h, h) + Hom(~h,h)."""
    return _project(F, gdim, lambda gs, hs: (hs == 0, hs >= 1 or gs == 0))


def project_a_rel(F, gdim, hdim):
    """Component of F in a' = Hom(~g, h)."""
    return _project(F, gdim, lambda gs, hs: (False, hs == 0))


def project_M_embed(F, gdim, hdim):
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


def in_M_rel(F, gdim, hdim):
    return (F - project_M_rel(F, gdim, hdim)).is_zero()


def relative_vdata(gdim, hdim):
    """V-data of the relative structure: big maps on g (+) h, Delta = 0."""
    return VData(
        L_bracket=nr_bracket,
        m_bracket=nr_bracket,
        iota_m=lambda f: f,
        iota_m_inv=None,
        iota_a=lambda xi: xi,
        P=lambda F: project_a_rel(F, gdim, hdim),
        Delta=None,
    )


def relative_structure(gdim, hdim, lam):
    return DerivedBrackets(relative_vdata(gdim, hdim), lam, "reduced")


def pack_D(D, gdim, hdim):
    """D: g -> h as an a'-element of the big space."""
    return altmap1_from_matrix(Matrix.block([
        [Matrix.zero(gdim, gdim + hdim)],
        [D, Matrix.zero(hdim, hdim)]]))


# ---------------------------------------------------------------------------
# Maurer-Cartan residuals, checks, and twisting of formal structures


def _formal_series(struct, S, A, rest):
    """sum_{j, a} 1/(j! a!) l(sS^j, A^a, rest) for an m-element S, an
    a-element A and rest = [] or [term], through its last nonzero bracket.

    With Delta = 0 a bracket with two s-terms vanishes past 2 arguments, one
    with a single s-term of arity p past p + 1, and one with no s-term
    always; so j <= 2 and the argument count is read from the arities."""
    if struct.v.Delta is not None:
        raise InvalidVData("the formal series needs Delta = 0")
    rest_s = [t.f.arity for t in rest if t.kind == "s"]
    out = FormalElement()
    for j in range(3):
        s_arities = [S.arity] * j + rest_s
        if not s_arities:
            continue
        last = 2 if len(s_arities) > 1 else s_arities[0] + 1
        for a in range(last - j - len(rest) + 1):
            term = struct.bracket([Term("s", S)] * j + [Term("a", A)] * a
                                  + rest)
            if not term.is_zero():
                out = out + term.scale(div(1, factorial(j) * factorial(a)))
    return out


def mc_residual_formal(struct, S, A):
    """MC residual of alpha = (sS, A): sum_n 1/n! l_n(alpha^n).  S is an
    arity-2 m-element, A an arity-1 a-element."""
    return _formal_series(struct, S, A, [])


def mc_check_absolute(pi, D, lam):
    """(s pi, D) is MC in the absolute structure iff (g, pi, D) is a
    differential Lie algebra of weight lam.  Returns (bool, residual)."""
    res = mc_residual_formal(absolute_structure(pi.src_dim, lam), pi,
                             altmap1_from_matrix(D))
    return res.is_zero(), res


def mc_check_relative(pi, rho_mats, mu, D, lam):
    """(s(pi+rho+mu), D) is MC in the relative structure iff (g,h,rho) is a
    LieAct triple and D a relative differential operator of weight lam."""
    gdim, hdim = pi.src_dim, mu.src_dim
    chi = semidirect_bracket(gdim, hdim, rho_mats, pi, h_bracket=mu)
    res = mc_residual_formal(relative_structure(gdim, hdim, lam), chi,
                             pack_D(D, gdim, hdim))
    return res.is_zero(), res


def twist_l1_formal(struct, S, A, term):
    """l_1 of the structure twisted by alpha = (sS, A), applied to a Term:
    sum_k 1/k! l_{k+1}(alpha^k, term)."""
    return _formal_series(struct, S, A, [term])


# ---------------------------------------------------------------------------
# strict morphism residuals between formal structures


def morphism_residual(phi, src, tgt, samples):
    """phi(l_n(x_1..x_n)) - l'_n(phi x_1..phi x_n) over sample Term tuples.

    phi: Term -> Term (strict, degree 0).  samples: list of Term tuples.
    Returns the list of FormalElement residuals (all zero for a strict
    L-infinity[1] homomorphism on those samples)."""
    out = []
    for args in samples:
        lhs = src.bracket(list(args))
        lhs_mapped = FormalElement([phi(t) for t in lhs.terms()])
        rhs = tgt.bracket([phi(t) for t in args])
        out.append(lhs_mapped + rhs.scale(-1))
    return out
