"""Differential Lie algebras of weight lambda and their representations.

A weight-lambda differential operator on a Lie algebra g satisfies

    d[x,y] = [dx,y] + [x,dy] + lambda [dx,dy].

lambda = 0 gives a classical derivation, lambda = 1 a difference operator;
the identity is such an operator of weight -1.  Everything here is a plain
container plus explicit residual functions, so tests can inspect the
residuals themselves; the is_* helpers check that they vanish.
"""

from itertools import combinations

from .linalg import (Matrix, div, frac, fmt_scalar, mat_combination,
                     parse_scalar, vec_add, vec_sub, vec_scale, vec_zero,
                     vec_is_zero, basis_vec)
from .multilinear import AltMap, ArityMismatch, DimensionMismatch


# the cochain complexes of a differential Lie algebra (see cohomology)
FLAVORS = ("ce", "do", "difflie", "tilde")


class ZeroScale(Exception):
    pass


class AxiomFailure(Exception):
    """Input that parses but fails the axioms a computation assumes (an
    extension that is not one, equations that are not a deformation)."""


class LieAlgebra:
    """Lie algebra given by structure constants (an arity-2 AltMap g -> g)."""

    def __init__(self, dim, bracket=None):
        self.dim = dim
        if bracket is None:
            bracket = AltMap(2, dim, dim)
        if bracket.arity != 2:
            raise ArityMismatch("a bracket has arity 2")
        if bracket.src_dim != dim or bracket.tgt_dim != dim:
            raise DimensionMismatch("bracket dimensions")
        self.bracket = bracket

    def br(self, u, v):
        return self.bracket.evaluate([u, v])

    def basis(self, i):
        return basis_vec(self.dim, i)

    def ad(self, i):
        """Matrix of ad(x_i) acting on g."""
        return Matrix(self.dim, self.dim,
                      [self.bracket.value_on_basis((i, j))
                       for j in range(self.dim)]).transpose()


def jacobi_residual(L):
    """[[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j] over all triples."""
    out = []
    for i, j, k in combinations(range(L.dim), 3):
        xi, xj, xk = L.basis(i), L.basis(j), L.basis(k)
        r = L.br(L.br(xi, xj), xk)
        r = vec_add(r, L.br(L.br(xj, xk), xi))
        r = vec_add(r, L.br(L.br(xk, xi), xj))
        out.append(r)
    return out


def is_lie_algebra(L):
    return all(vec_is_zero(r) for r in jacobi_residual(L))


class DiffLieAlgebra:
    """A Lie algebra with a weighted differential operator d and weight."""

    def __init__(self, algebra, d, weight):
        if not d.rows == d.cols == algebra.dim:
            raise DimensionMismatch("operator matrix shape")
        self.algebra = algebra
        self.d = d
        self.weight = frac(weight)

    @property
    def dim(self):
        return self.algebra.dim

    def br(self, u, v):
        return self.algebra.br(u, v)

    def basis(self, i):
        return self.algebra.basis(i)

    def dv(self, v):
        return self.d.matvec(v)


def weighted_derivation_residual(A):
    """d[x,y] - [dx,y] - [x,dy] - lambda [dx,dy] over basis pairs i < j."""
    lam = A.weight
    out = []
    for i, j in combinations(range(A.dim), 2):
        x, y = A.basis(i), A.basis(j)
        dx, dy = A.dv(x), A.dv(y)
        r = A.dv(A.br(x, y))
        r = vec_sub(r, A.br(dx, y))
        r = vec_sub(r, A.br(x, dy))
        r = vec_sub(r, vec_scale(lam, A.br(dx, dy)))
        out.append(r)
    return out


def is_diff_lie_algebra(A):
    return (is_lie_algebra(A.algebra)
            and all(vec_is_zero(r) for r in weighted_derivation_residual(A)))


def rescale_operator(A, kappa):
    """(g, [.,.], kappa d) is a differential Lie algebra of weight lambda/kappa."""
    kappa = frac(kappa)
    if kappa == 0:
        raise ZeroScale("rescaling by zero is not invertible")
    return DiffLieAlgebra(A.algebra, A.d.scale(kappa),
                          div(A.weight, kappa))


class LinearAction:
    """rho: one space_dim x space_dim matrix per basis vector of a Lie
    algebra."""

    def rho_vec(self, x):
        """rho extended linearly to a vector of the algebra."""
        return mat_combination(x, self.rho, self.space_dim)

    def hom_residuals(self, L):
        """rho([x,y]) - rho(x)rho(y) + rho(y)rho(x) over basis pairs of L."""
        rho = self.rho
        return [self.rho_vec(L.br(L.basis(i), L.basis(j)))
                - rho[i] * rho[j] + rho[j] * rho[i]
                for i, j in combinations(range(L.dim), 2)]


class DiffRepresentation(LinearAction):
    """Representation (V, rho, d_V) over a differential Lie algebra.

    rho: list of space_dim x space_dim matrices, one per basis vector of g.
    """

    def __init__(self, space_dim, rho, dV):
        self.space_dim = space_dim
        self.rho = list(rho)
        for m in self.rho:
            if m.rows != space_dim or m.cols != space_dim:
                raise DimensionMismatch("rho matrix shape")
        if not dV.rows == dV.cols == space_dim:
            raise DimensionMismatch("dV matrix shape")
        self.dV = dV


def rep_residuals(A, rep):
    """Homomorphism + weighted compatibility residuals of a representation.

    Returns {"hom": [matrices], "compat": [matrices]}:
      hom:    rho([x,y]) - rho(x)rho(y) + rho(y)rho(x) over pairs
      compat: d_V rho(x) - rho(dx) - rho(x) d_V - lambda rho(dx) d_V per basis x
    """
    lam = A.weight
    compat = []
    for i in range(A.dim):
        rdx = rep.rho_vec(A.dv(A.basis(i)))
        r = rep.dV * rep.rho[i] - rdx - rep.rho[i] * rep.dV \
            - (rdx * rep.dV).scale(lam)
        compat.append(r)
    return {"hom": rep.hom_residuals(A), "compat": compat}


def is_diff_representation(A, rep):
    res = rep_residuals(A, rep)
    return all(m.is_zero() for m in res["hom"] + res["compat"])


def rho_lambda(rep, A):
    """The shifted representation rho_lambda(x) = rho(x + lambda d x)."""
    lam = A.weight
    rho = [rep.rho_vec(vec_add(A.basis(i), vec_scale(lam, A.dv(A.basis(i)))))
           for i in range(A.dim)]
    return DiffRepresentation(rep.space_dim, rho, rep.dV)


def adjoint_rep(A):
    """rho = ad, d_V = d."""
    return DiffRepresentation(A.dim, [A.algebra.ad(i) for i in range(A.dim)],
                              A.d)


def trivial_rep(A, space_dim, dV=None):
    """rho = 0 with an arbitrary d_V (default 0)."""
    if dV is None:
        dV = Matrix.zero(space_dim, space_dim)
    return DiffRepresentation(
        space_dim, [Matrix.zero(space_dim, space_dim)] * A.dim, dV)


def semidirect_bracket(gdim, vdim, rho, g_bracket=None, psi=None,
                       h_bracket=None):
    """The bracket on g (+) V with [x, y] = g_bracket(x, y) + psi(x, y)
    (psi valued in V), [x, v] = rho(x) v and [u, v] = h_bracket(u, v) on V;
    an absent part is zero."""
    N = gdim + vdim
    b = AltMap(2, N, N)
    for key in combinations(range(gdim), 2):
        gval = vec_zero(gdim) if g_bracket is None \
            else g_bracket.value_on_basis(key)
        vval = vec_zero(vdim) if psi is None else psi.value_on_basis(key)
        b[key] = gval + vval
    for i in range(gdim):
        for a in range(vdim):
            col = [rho[i].data[r][a] for r in range(vdim)]
            if not vec_is_zero(col):
                b.coeffs[(i, gdim + a)] = vec_zero(gdim) + col
    if h_bracket is not None:
        for (a, c), vec in h_bracket.coeffs.items():
            b.coeffs[(gdim + a, gdim + c)] = vec_zero(gdim) + list(vec)
    return b


def trivial_extension(A, rep):
    """The differential Lie algebra g (+) V with bracket
    {x+u, y+v} = [x,y] + rho(x)v - rho(y)u and operator d_g + d_V."""
    n, m = A.dim, rep.space_dim
    alg = LieAlgebra(n + m, semidirect_bracket(n, m, rep.rho,
                                               A.algebra.bracket))
    d = Matrix.block([[A.d, Matrix.zero(n, m)],
                      [Matrix.zero(m, n), rep.dV]])
    return DiffLieAlgebra(alg, d, A.weight)


# ---------------------------------------------------------------------------
# LieAct triples, relative operators, and the weighted semidirect product


class LieActTriple(LinearAction):
    """(g, h, rho) with rho: g -> Der(h) a Lie algebra homomorphism."""

    def __init__(self, g, h, rho):
        self.g = g
        self.h = h
        self.space_dim = h.dim
        self.rho = list(rho)
        if len(self.rho) != g.dim:
            raise DimensionMismatch("one rho matrix per basis vector of g")
        for m in self.rho:
            if m.rows != h.dim or m.cols != h.dim:
                raise DimensionMismatch("rho matrix shape")


def lieact_residuals(T):
    """Homomorphism residuals and derivation-of-h residuals.

    hom:        rho([x,y]_g) - [rho(x), rho(y)] over g-pairs
    derivation: rho(x)[u,v]_h - [rho(x)u, v]_h - [u, rho(x)v]_h per basis x, u<v
    """
    der = []
    for i in range(T.g.dim):
        for a, b in combinations(range(T.h.dim), 2):
            u, v = T.h.basis(a), T.h.basis(b)
            r = T.rho[i].matvec(T.h.br(u, v))
            r = vec_sub(r, T.h.br(T.rho[i].matvec(u), v))
            r = vec_sub(r, T.h.br(u, T.rho[i].matvec(v)))
            der.append(r)
    return {"hom": T.hom_residuals(T.g), "derivation": der}


def is_lieact(T):
    res = lieact_residuals(T)
    return (all(m.is_zero() for m in res["hom"])
            and all(vec_is_zero(v) for v in res["derivation"]))


def relative_diff_residual(T, D, lam):
    """D[x,y]_g - rho(x)Dy + rho(y)Dx - lambda [Dx,Dy]_h over g-pairs."""
    if D.rows != T.h.dim or D.cols != T.g.dim:
        raise DimensionMismatch("relative operator shape")
    lam = frac(lam)
    out = []
    for i, j in combinations(range(T.g.dim), 2):
        x, y = T.g.basis(i), T.g.basis(j)
        Dx, Dy = D.matvec(x), D.matvec(y)
        r = D.matvec(T.g.br(x, y))
        r = vec_sub(r, T.rho_vec(x).matvec(Dy))
        r = vec_add(r, T.rho_vec(y).matvec(Dx))
        r = vec_sub(r, vec_scale(lam, T.h.br(Dx, Dy)))
        out.append(r)
    return out


def semidirect_weighted(T, lam):
    """Lie algebra on g (+) h:
    [x+u, y+v] = [x,y]_g + rho(x)v - rho(y)u + lambda [u,v]_h."""
    n, m = T.g.dim, T.h.dim
    return LieAlgebra(n + m, semidirect_bracket(
        n, m, T.rho, T.g.bracket, h_bracket=T.h.bracket.scale(lam)))


def lift_tilde_D(T, D, lam):
    """Lift D: g -> h to D~(x+u) = D(x) - u on the lam-weighted semidirect
    product.  Since the product's h-bracket already absorbs one factor of
    lam, the weighted rule D~ satisfies there is the weight-1 rule: the
    returned candidate has weight 1, and its derivation residual vanishes
    precisely when D is a relative differential operator of weight lam
    (for lam = 0 the weighted term on the product vanishes and the
    equivalence degenerates correctly as well)."""
    lam = frac(lam)
    n, m = T.g.dim, T.h.dim
    alg = semidirect_weighted(T, lam)
    d = Matrix.block([[Matrix.zero(n, n), Matrix.zero(n, m)],
                      [D, Matrix.identity(m).scale(-1)]])
    return DiffLieAlgebra(alg, d, 1)


# ---------------------------------------------------------------------------
# JSON wire format, 1-based indices on the wire.  These readers are the only
# code that reads it.  Each takes a value with its field name ("d[1]",
# "psi.coeffs.1,2"), as field(), read_list() and read_object() hand them
# out, and raises SchemaError naming that field.  Scalars are JSON ints or
# "p" / "p/q" strings, never floats or bools; no entry may be given twice,
# and each document kind names the keys it may have (only_keys).


class SchemaError(ValueError):
    pass


def _named(value, where, key):
    return value, ("%s[%d]" % (where, key) if isinstance(key, int)
                   else "%s.%s" % (where, key) if where else key)


def _typed(value, where, kind, length=None):
    if not isinstance(value, kind) or length not in (None, len(value)):
        raise SchemaError("%s must be a JSON %s%s" % (
            where or "the document", "list" if kind is list else "object",
            "" if length is None else " of %d entries" % length))
    return value


def only_keys(obj, where, allowed):
    """The JSON object obj, once no key of it is outside allowed, so that a
    misspelled key is an error instead of being dropped."""
    unknown = sorted(set(_typed(obj, where, dict)) - set(allowed))
    if unknown:
        raise SchemaError("%s has unknown key %r (allowed: %s)" % (
            where or "the document", unknown[0], ", ".join(sorted(allowed))))
    return obj


def field(obj, key, where=""):
    """(value, name) of a required key of a JSON object."""
    if key not in _typed(obj, where, dict):
        raise SchemaError("%s is missing" % _named(None, where, key)[1])
    return _named(obj[key], where, key)


def read_list(value, where, length=None):
    """(value, name) of each entry of a JSON list of the given length."""
    return [_named(x, where, k)
            for k, x in enumerate(_typed(value, where, list, length))]


def read_object(value, where):
    """(key, value, name) of each entry of a JSON object."""
    return [(k,) + _named(x, where, k)
            for k, x in _typed(value, where, dict).items()]


def read_int(value, where, low=0, high=None):
    """A JSON integer, not a bool, in low..high (None: unbounded)."""
    if type(value) is not int or (low is not None and value < low) or \
            (high is not None and value > high):
        raise SchemaError("%s must be an integer%s, got %r" % (
            where, "" if low is None else " in %d..%s" % (
                low, "" if high is None else high), value))
    return value


def read_index(text, where, high=None):
    """A 1-based index in 1..high, in decimal digits without leading zeros,
    so that no two keys name one index."""
    return read_int(int(text) if text.isascii() and text.isdigit()
                    and text[0] != "0" else text, where, 1, high)


def read_scalar(value, where):
    try:
        return parse_scalar(value)
    except ValueError as e:
        raise SchemaError("%s: %s" % (where, e)) from None


def read_vector(value, where, length):
    return [read_scalar(*x) for x in read_list(value, where, length)]


def read_matrix(value, where, rows, cols):
    return Matrix(rows, cols, [read_vector(*row, cols)
                               for row in read_list(value, where, rows)])


def _fill(f, entries):
    """The blank map f with f[idx] = the vector read from value for each
    (idx, value, name) entry; no two may name one sorted index tuple."""
    seen = set()
    for idx, value, where in entries:
        if tuple(sorted(idx)) in seen:
            raise SchemaError("%s repeats an earlier entry" % where)
        seen.add(tuple(sorted(idx)))
        vec = read_vector(value, where, f.tgt_dim)
        try:
            f[idx] = vec
        except ValueError as e:
            raise SchemaError("%s: %s" % (where, e)) from None
    return f


def read_map(value, where, f):
    """Fill the blank map f (any GradedSymMap) from {"i,j,..": vector}."""
    return _fill(f, [(tuple(read_index(p, at, f.src_dim) - 1
                            for p in (key.split(",") if key else ())), vec, at)
                     for key, vec, at in read_object(value, where)])


def _matrix_to_json(m):
    return [[fmt_scalar(x) for x in row] for row in m.data]


def difflie_to_json(A):
    brackets = sorted(A.algebra.bracket.coeffs.items())
    return {"dim": A.dim, "weight": fmt_scalar(A.weight),
            "brackets": [[i + 1, j + 1, [fmt_scalar(c) for c in vec]]
                         for (i, j), vec in brackets],
            "d": _matrix_to_json(A.d)}


def difflie_from_json(obj, where="", extra=()):
    """The algebra document; extra names the keys a command reads beside
    it."""
    only_keys(obj, where, ("dim", "brackets", "d", "weight") + extra)
    dim = read_int(*field(obj, "dim", where))
    entries = [read_list(*entry, 3)
               for entry in read_list(*field(obj, "brackets", where))]
    bracket = _fill(AltMap(2, dim, dim), [
        ((read_int(*i, 1, dim) - 1, read_int(*j, 1, dim) - 1),) + vec
        for i, j, vec in entries])
    return DiffLieAlgebra(LieAlgebra(dim, bracket),
                          read_matrix(*field(obj, "d", where), dim, dim),
                          read_scalar(*field(obj, "weight", where)))


def rep_to_json(rep):
    return {"rep_dim": rep.space_dim,
            "rho": {str(i + 1): _matrix_to_json(m)
                    for i, m in enumerate(rep.rho)},
            "dV": _matrix_to_json(rep.dV)}


def rep_from_json(obj, g_dim, where="rep"):
    only_keys(obj, where, ("rep_dim", "rho", "dV"))
    n = read_int(*field(obj, "rep_dim", where))
    rho, at = field(obj, "rho", where)
    if set(_typed(rho, at, dict)) != {str(i + 1) for i in range(g_dim)}:
        raise SchemaError("%s needs one matrix for each of 1..%d"
                          % (at, g_dim))
    return DiffRepresentation(
        n, [read_matrix(*field(rho, str(i + 1), at), n, n)
            for i in range(g_dim)],
        read_matrix(*field(obj, "dV", where), n, n))


def altmap_to_json(f):
    return {"arity": f.arity,
            "coeffs": {",".join(str(i + 1) for i in key):
                       [fmt_scalar(c) for c in vec]
                       for key, vec in sorted(f.coeffs.items())}}


def altmap_from_json(obj, where, src_dim, tgt_dim, arity):
    """The map {"arity": n, "coeffs": {...}}, whose arity must be the one
    its role needs."""
    only_keys(obj, where, ("arity", "coeffs"))
    read_int(*field(obj, "arity", where), arity, arity)
    return read_map(*field(obj, "coeffs", where),
                    AltMap(arity, src_dim, tgt_dim))
