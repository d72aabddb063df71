"""Differential Lie algebras of weight lambda and their representations.

A weight-lambda differential operator on a Lie algebra g satisfies

    d[x,y] = [dx,y] + [x,dy] + lambda [dx,dy].

lambda = 0 gives a classical derivation, lambda = 1 a difference operator;
the identity is such an operator of weight -1.  Everything here is a plain
container plus explicit residual functions, so tests can inspect the
residuals themselves; the is_* helpers check that they vanish.

Each of the two axioms is one map, a weight-0 family of nr whose negative
is an order-0 deformation equation: jacobi_residual, the Jacobiator
nr.pointed_family(mu, mu, 0, 0), and weighted_derivation_residual, the
weighted Leibniz defect, minus nr.operator_family.  Every other check reads
one of them on one differential Lie algebra: the algebra itself; the
trivial extension g (+) V for a representation; the semidirect product
g (+) h for a LieAct triple; and the lifted operator on the weighted
semidirect product for a relative operator.  Each check computes only the
map it reads.
"""

from itertools import combinations

from .linalg import div, frac, fmt_scalar, parse_scalar, vec_zero, \
    vec_is_zero
from .multilinear import AltMap, ArityMismatch, DimensionMismatch, \
    coordinate_map, pullback


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


def _values(f, keys, lo=0):
    """The entries from lo on of the values of f on the basis tuples keys."""
    return [f.value_on_basis(key)[lo:] for key in keys]


def _columns(f, keys, lo):
    """For each tuple of keys, _values of f on that tuple followed by each
    basis index from lo on: f on g (+) V at one V-input, lo = dim g."""
    return [_values(f, [key + (a,) for a in range(lo, f.src_dim)], lo)
            for key in keys]


def jacobi_residual(L):
    """The Jacobiator (x, y, z) -> [[x,y],z] + [[y,z],x] + [[z,x],y] of the
    bracket of L: its weight-0 bracket family, an arity-3 map."""
    from .nr import pointed_family
    mu = {0: L.bracket}
    return pointed_family(mu, mu, 0, 0, 3, 2, L.bracket.space)


def is_lie_algebra(L):
    return jacobi_residual(L).is_zero()


class DiffLieAlgebra:
    """A Lie algebra with a weighted differential operator d: g -> g."""

    def __init__(self, algebra, d, weight):
        if (d.arity, d.src_dim, d.tgt_dim) != (1, algebra.dim, algebra.dim):
            raise DimensionMismatch("the operator is not a map g -> g")
        self.algebra = algebra
        self.d = d
        self.weight = frac(weight)

    @property
    def dim(self):
        return self.algebra.dim


def weighted_derivation_residual(A):
    """The weighted Leibniz defect (x, y) -> d[x,y] - [dx,y] - [x,dy]
    - lambda [dx,dy] of A: minus its weight-0 operator family, an arity-2
    map."""
    from .nr import operator_family
    return -operator_family({0: A.algebra.bracket}, {0: A.d}, 0, A.weight,
                            2, 1, A.algebra.bracket.space)


def is_diff_lie_algebra(A):
    return (is_lie_algebra(A.algebra)
            and weighted_derivation_residual(A).is_zero())


def rescale_operator(A, kappa):
    """(g, [.,.], kappa d) is a differential Lie algebra of weight lambda/kappa."""
    kappa = frac(kappa)
    if kappa == 0:
        raise ZeroScale("rescaling by zero is not invertible")
    return DiffLieAlgebra(A.algebra, A.d.scale(kappa),
                          div(A.weight, kappa))


def _check_action(rho, gdim, vdim):
    """Raise DimensionMismatch unless rho is an action g (+) V -> V: an
    arity-2 map whose keys are (x, v), x in g and v in V."""
    if gdim < 0 or (rho.arity, rho.src_dim, rho.tgt_dim) != (
            2, gdim + vdim, vdim) or any(x >= gdim or v < gdim
                                         for x, v in rho.coeffs):
        raise DimensionMismatch("not an action g (+) V -> V")


class DiffRepresentation:
    """Representation (V, rho, d_V) over a differential Lie algebra g: the
    action rho, with rho(x)v its value on (x, v), and d_V: V -> V."""

    def __init__(self, rho, dV):
        if (dV.arity, dV.src_dim) != (1, dV.tgt_dim):
            raise DimensionMismatch("dV is not a map V -> V")
        _check_action(rho, rho.src_dim - dV.src_dim, dV.src_dim)
        self.space_dim, self.rho, self.dV = dV.src_dim, rho, dV


def rep_residuals(A, rep):
    """Homomorphism + weighted compatibility residuals of a representation.

    Returns {"hom": [...], "compat": [...]}, each entry a map V -> V by its
    columns:
      hom:    rho([x,y]) - rho(x)rho(y) + rho(y)rho(x) over pairs
      compat: d_V rho(x) - rho(dx) - rho(x) d_V - lambda rho(dx) d_V per basis x
    read off the trivial extension g (+) V at one V-input: column v of hom
    is its Jacobiator on (x, y, v), column v of compat its weighted Leibniz
    defect on (x, v).
    """
    n = A.dim
    E = trivial_extension(A, rep)
    return {"hom": _columns(jacobi_residual(E.algebra),
                            combinations(range(n), 2), n),
            "compat": _columns(weighted_derivation_residual(E),
                               [(i,) for i in range(n)], n)}


def rho_lambda(rep, A):
    """The shifted representation rho_lambda(x) = rho(x + lambda d x): the
    action pulled back along Id + lambda d on its g slot (and Id on V)."""
    n, m = A.dim, rep.space_dim
    e = coordinate_map(n, n, 0) + A.d.scale(A.weight)
    along = semidirect_operator(e, AltMap(1, n, m), coordinate_map(m, m, 0))
    return DiffRepresentation(pullback(rep.rho, along), rep.dV)


def adjoint_rep(A):
    """rho = ad, d_V = d: the action (x, v) -> [x, v] is the bracket, with
    its second input in the copy V of g."""
    n = A.dim
    rho = AltMap(2, 2 * n, n)
    for (i, j), vec in A.algebra.bracket.coeffs.items():
        rho.coeffs[(i, n + j)] = vec[:]
        rho.coeffs[(j, n + i)] = [-x for x in vec]
    return DiffRepresentation(rho, A.d)


def _on_sum(arity, gdim, vdim, parts):
    """The map of the arity on g (+) V that the parts (f, shift, lo) write:
    f on each key, at entries lo.. of that key shifted by shift (gdim for
    inputs in V).  An absent part (None) is zero; no two share an entry."""
    out = AltMap(arity, gdim + vdim, gdim + vdim)
    for f, shift, lo in parts:
        for key, vec in ({} if f is None else f.coeffs).items():
            val = out.coeffs.setdefault(tuple(i + shift for i in key),
                                        vec_zero(gdim + vdim))
            val[lo:lo + len(vec)] = vec
    return out


def semidirect_bracket(g_bracket, rho, psi=None, h_bracket=None):
    """The bracket on g (+) V with [x, y] = g_bracket(x, y) + psi(x, y)
    (psi valued in V), [x, v] = rho(x, v) for the action rho and
    [u, v] = h_bracket(u, v) on V; an absent part is zero."""
    n, m = g_bracket.src_dim, rho.tgt_dim
    return _on_sum(2, n, m, [(g_bracket, 0, 0), (psi, 0, n), (rho, 0, n),
                             (h_bracket, n, n)])


def semidirect_operator(d_g, chi, d_V):
    """The operator x + v -> d_g x + chi(x) + d_V v on g (+) V, for the maps
    d_g: g -> g, chi: g -> V and d_V: V -> V."""
    n, m = d_g.src_dim, d_V.src_dim
    return _on_sum(1, n, m, [(d_g, 0, 0), (chi, 0, n), (d_V, n, n)])


def trivial_extension(A, rep):
    """The differential Lie algebra g (+) V with bracket
    {x+u, y+v} = [x,y] + rho(x)v - rho(y)u and operator d_g + d_V."""
    n, m = A.dim, rep.space_dim
    alg = LieAlgebra(n + m, semidirect_bracket(A.algebra.bracket, rep.rho))
    return DiffLieAlgebra(alg, semidirect_operator(A.d, AltMap(1, n, m),
                                                   rep.dV), A.weight)


# ---------------------------------------------------------------------------
# LieAct triples, relative operators, and the weighted semidirect product


class LieActTriple:
    """(g, h, rho) with rho: g -> Der(h) a Lie algebra homomorphism, given
    as the action map on g (+) h into h with keys (x, u)."""

    def __init__(self, g, h, rho):
        _check_action(rho, g.dim, h.dim)
        self.g, self.h, self.rho = g, h, rho


def lieact_residuals(T):
    """Homomorphism residuals and derivation-of-h residuals.

    hom:        rho([x,y]_g) - [rho(x), rho(y)] over g-pairs, as columns
    derivation: rho(x)[u,v]_h - [rho(x)u, v]_h - [u, rho(x)v]_h per basis x, u<v
    read off the Jacobiator of the semidirect product g (+) h of weight 1:
    column u of hom is its value on (x, y, u), and the derivation residual
    minus its value on (x, u, v).
    """
    n, m = T.g.dim, T.h.dim
    jac = jacobi_residual(semidirect_weighted(T, 1))
    der = [(i, n + a, n + b) for i in range(n)
           for a, b in combinations(range(m), 2)]
    return {"hom": _columns(jac, combinations(range(n), 2), n),
            "derivation": _values(-jac, der, n)}


def is_lieact(T):
    res = lieact_residuals(T)
    return all(vec_is_zero(v) for cols in res["hom"] + [res["derivation"]]
               for v in cols)


def relative_diff_residual(T, D, lam):
    """D[x,y]_g - rho(x)Dy + rho(y)Dx - lambda [Dx,Dy]_h over g-pairs, for
    the arity-1 map D: g -> h: the h-part of the weighted Leibniz defect of
    lift_tilde_D(T, D, lam) on g-pairs."""
    n = T.g.dim
    if (D.arity, D.src_dim, D.tgt_dim) != (1, n, T.h.dim):
        raise DimensionMismatch("the relative operator is not a map g -> h")
    return _values(weighted_derivation_residual(lift_tilde_D(T, D, lam)),
                   combinations(range(n), 2), n)


def semidirect_weighted(T, lam):
    """Lie algebra on g (+) h:
    [x+u, y+v] = [x,y]_g + rho(x)v - rho(y)u + lambda [u,v]_h."""
    return LieAlgebra(T.g.dim + T.h.dim, semidirect_bracket(
        T.g.bracket, T.rho, h_bracket=T.h.bracket.scale(lam)))


def lift_tilde_D(T, D, lam):
    """Lift D: g -> h to D~(x+u) = D(x) - u on the lam-weighted semidirect
    product.  Since the product's h-bracket already absorbs one factor of
    lam, the weighted rule D~ satisfies there is the weight-1 rule: the
    returned candidate has weight 1, and its derivation residual vanishes
    precisely when D is a relative differential operator of weight lam
    (for lam = 0 the weighted term on the product vanishes and the
    equivalence degenerates correctly as well)."""
    n = T.g.dim
    return DiffLieAlgebra(semidirect_weighted(T, lam), semidirect_operator(
        AltMap(1, n, n), D, -coordinate_map(T.h.dim, T.h.dim, 0)), 1)


# ---------------------------------------------------------------------------
# JSON wire format, 1-based indices on the wire.  These readers are the only
# code that reads it.  Each takes a value with its field name ("d[1]",
# "psi.coeffs.1,2"), as field(), read_list() and read_object() hand them
# out, and raises SchemaError naming that field.  Scalars are JSON ints or
# "p" / "p/q" strings, never floats or bools; no entry may be given twice,
# and each document kind names the keys it may have (only_keys).  A wire
# matrix (an operator, one rho(x_i), a deformation term) is read straight
# into the arity-1 map of its columns, and _matrix_to_json writes a map's
# columns back as one; no matrix object is built on either side.


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
    """The arity-1 map from dimension cols to dimension rows whose column
    j is column j of the wire matrix, a list of rows rows long."""
    data = [read_vector(*row, cols) for row in read_list(value, where, rows)]
    f = AltMap(1, cols, rows)
    f.coeffs = {(j,): list(col) for j, col in enumerate(zip(*data))
                if not vec_is_zero(col)}
    return f


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


def _matrix_to_json(f, keys):
    """The rows of the matrix whose column j is f on the basis tuple
    keys[j]."""
    cols = _values(f, keys)
    return [[fmt_scalar(c[r]) for c in cols] for r in range(f.tgt_dim)]


def difflie_to_json(A):
    brackets = sorted(A.algebra.bracket.coeffs.items())
    return {"dim": A.dim, "weight": fmt_scalar(A.weight),
            "brackets": [[i + 1, j + 1, [fmt_scalar(c) for c in vec]]
                         for (i, j), vec in brackets],
            "d": _matrix_to_json(A.d, [(j,) for j in range(A.dim)])}


def difflie_from_json(obj, where="", extra=()):
    """The algebra document; extra names the keys a command reads beside
    it."""
    only_keys(obj, where, ("dim", "brackets", "d", "weight") + extra)
    dim = read_int(*field(obj, "dim", where))
    # d first: its dim rows are in the document, so no dim-sized space is
    # allocated for a dim the document does not back
    d = read_matrix(*field(obj, "d", where), dim, dim)
    entries = [read_list(*entry, 3)
               for entry in read_list(*field(obj, "brackets", where))]
    bracket = _fill(AltMap(2, dim, dim), [
        ((read_int(*i, 1, dim) - 1, read_int(*j, 1, dim) - 1),) + vec
        for i, j, vec in entries])
    return DiffLieAlgebra(LieAlgebra(dim, bracket), d,
                          read_scalar(*field(obj, "weight", where)))


def rep_to_json(rep):
    n, g = rep.space_dim, rep.rho.src_dim - rep.space_dim
    return {"rep_dim": n,
            "rho": {str(i + 1): _matrix_to_json(
                rep.rho, [(i, g + a) for a in range(n)]) for i in range(g)},
            "dV": _matrix_to_json(rep.dV, [(a,) for a in range(n)])}


def rep_from_json(obj, g_dim):
    where = "rep"
    only_keys(obj, where, ("rep_dim", "rho", "dV"))
    n = read_int(*field(obj, "rep_dim", where))
    rho, at = field(obj, "rho", where)
    if set(_typed(rho, at, dict)) != {str(i + 1) for i in range(g_dim)}:
        raise SchemaError("%s needs one matrix for each of 1..%d"
                          % (at, g_dim))
    action = AltMap(2, g_dim + n, n)
    for i in range(g_dim):  # column a of rho[i] is the action on (x_i, v_a)
        m = read_matrix(*field(rho, str(i + 1), at), n, n)
        for (a,), col in m.coeffs.items():
            action.coeffs[(i, g_dim + a)] = col
    return DiffRepresentation(action,
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
