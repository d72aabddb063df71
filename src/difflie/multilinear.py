"""Graded symmetric multilinear maps, by coefficient tables.

A GradedSymMap is a graded symmetric n-linear map from a graded space into
a target of dimension tgt_dim (by default the space itself).  Coefficients
live on sorted basis tuples, normalized by the Koszul sign; tuples repeating
an odd-degree index are identically zero.

An alternating map g^n -> V is the same object on the suspension sg, which
sits in the single odd degree -1: there the Koszul sign is the permutation
sign and the sorted tuples without odd repeats are the strictly increasing
ones.  AltMap is only the constructor for that case (degree n - 1, one
shared suspension per dimension), so cochains, Lie brackets and graded
brackets share every operation below, and the suspension isomorphism is a
relabelling.

A linear map is the arity-1 AltMap whose value on basis vector j is its
column j: operators, coordinate inclusions and projections
(coordinate_map) and the maps that pullback transports along are all of
this one type, and no matrix is built here.
"""

from functools import cached_property, lru_cache
from itertools import combinations, combinations_with_replacement, product

from .linalg import (basis_vec, exact, frac, vec_zero, vec_add, vec_scale,
                     vec_is_zero, vec_support)


class ArityMismatch(ValueError):
    pass


class DimensionMismatch(ValueError):
    pass


class NonHomogeneousInput(ValueError):
    pass


class GradedVectorSpace:
    """Finite dimensional graded space, components = [(degree, dim), ...].

    The per-basis lists degrees and odd are built on their first read, so a
    space that only carries zero maps allocates nothing of its size; after
    that read they are plain instance attributes."""

    def __init__(self, components):
        degs = [d for d, _ in components]
        if len(degs) != len(set(degs)):
            raise ValueError("degrees must be distinct")
        if any(dim < 0 for _, dim in components):
            raise ValueError("component dimensions must not be negative")
        self.components = list(components)
        self.dim = sum(dim for _, dim in components)

    @cached_property
    def degrees(self):
        return [deg for deg, dim in self.components for _ in range(dim)]

    @cached_property
    def odd(self):
        return [d % 2 for d in self.degrees]

    def degree_of_vector(self, v):
        """Degree of a homogeneous vector (0 for the zero vector)."""
        degs = {self.degrees[i] for i, x in enumerate(v) if x != 0}
        if len(degs) > 1:
            raise NonHomogeneousInput("vector mixes degrees %s" % sorted(degs))
        return degs.pop() if degs else 0

    def spanning_tuples(self, n):
        """Sorted basis tuples spanning S^n of the space, in lexicographic
        order; odd repeats contribute zero by graded symmetry, so they are
        skipped."""
        odd = self.odd
        if all(odd):
            return combinations(range(self.dim), n)
        return (key for key in combinations_with_replacement(range(self.dim), n)
                if not any(a == b and odd[a] for a, b in zip(key, key[1:])))

    def __eq__(self, other):
        return isinstance(other, GradedVectorSpace) and \
            self.components == other.components


def _sym_sort(idx, odd):
    """Sort an index tuple with Koszul sign; None if an odd index repeats.

    odd[i] is the parity of the degree of basis vector i."""
    lst = list(idx)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            if odd[lst[j - 1]] and odd[lst[j]]:
                sign = -sign
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            j -= 1
    for a, b in zip(lst, lst[1:]):
        if a == b and odd[a]:
            return None, 0
    return tuple(lst), sign


class GradedSymMap:
    """Graded symmetric n-linear map of a given degree on a graded space.

    coeffs maps sorted (non-decreasing) basis tuples to target vectors of
    length tgt_dim; missing tuples are zero.
    """

    def __init__(self, arity, degree, space, tgt_dim=None):
        if arity < 0:
            raise ArityMismatch("negative arity %d" % arity)
        self.arity = arity
        self.degree = degree
        self.space = space
        self.src_dim = space.dim
        self.tgt_dim = space.dim if tgt_dim is None else tgt_dim
        self.coeffs = {}

    def _blank(self):
        return GradedSymMap(self.arity, self.degree, self.space,
                            tgt_dim=self.tgt_dim)

    def __setitem__(self, key, vec):
        if len(key) != self.arity:
            raise ArityMismatch("expected %d indices" % self.arity)
        if key and not (min(key) >= 0 and max(key) < self.src_dim):
            raise IndexError("basis index out of range in %r" % (key,))
        skey, sign = _sym_sort(key, self.space.odd)
        vec = [frac(x) for x in vec]
        if skey is None:
            if not vec_is_zero(vec):
                raise ValueError("repeated odd index with nonzero value")
            return
        if len(vec) != self.tgt_dim:
            raise DimensionMismatch("target vector length")
        if sign < 0:
            vec = vec_scale(-1, vec)
        if vec_is_zero(vec):
            self.coeffs.pop(skey, None)
        else:
            self.coeffs[skey] = vec

    def value_on_basis(self, idx):
        """Value on a tuple of basis indices, any order, with sign."""
        if len(idx) != self.arity:
            raise ArityMismatch("expected %d arguments" % self.arity)
        skey, sign = _sym_sort(idx, self.space.odd)
        vec = self.coeffs.get(skey)
        if vec is None:
            return vec_zero(self.tgt_dim)
        return vec[:] if sign > 0 else [-x for x in vec]

    def evaluate(self, args):
        """Graded symmetric multilinear extension; args must be homogeneous
        (always true on a space concentrated in one degree)."""
        if len(args) != self.arity:
            raise ArityMismatch("expected %d arguments" % self.arity)
        for v in args:
            if len(v) != self.src_dim:
                raise DimensionMismatch("source vector length")
        if len(self.space.components) > 1:
            for v in args:
                self.space.degree_of_vector(v)
        out = vec_zero(self.tgt_dim)
        self.accumulate(out, 1, [vec_support(v) for v in args])
        return exact(out)

    def accumulate(self, out, c, heads, tail=()):
        """out += c f(h_1, .., h_k, e_{t_1}, .., e_{t_l}) in place, for heads
        given by their nonzero (index, entry) pairs; out is left for the
        caller to normalise with linalg.exact.

        Only the nonzero entries of the heads and the stored (nonzero)
        coefficient vectors are visited; factors of 1, as on basis vectors,
        are not applied."""
        odd, coeffs = self.space.odd, self.coeffs
        for combo in product(*heads):
            skey, s = _sym_sort(tuple([i for i, _ in combo]) + tail, odd)
            vec = coeffs.get(skey)
            if vec is None:
                continue
            if c != 1:
                s = s * c
            for _, x in combo:
                if x != 1:
                    s = s * x
            for k, y in enumerate(vec):
                if y:
                    out[k] += y if s == 1 else (-y if s == -1 else s * y)

    def __add__(self, other):
        if (self.arity, self.degree, self.tgt_dim) != \
                (other.arity, other.degree, other.tgt_dim) \
                or self.space != other.space:
            raise ValueError("cannot add %r and %r" % (self, other))
        out = self._blank()
        out.coeffs = dict(self.coeffs)
        for key, vec in other.coeffs.items():
            cur = out.coeffs.get(key)
            s = vec if cur is None else vec_add(cur, vec)
            if vec_is_zero(s):
                out.coeffs.pop(key, None)
            else:
                out.coeffs[key] = s
        return out

    def scale(self, c):
        c = frac(c)
        out = self._blank()
        if c != 0:
            out.coeffs = {key: vec_scale(c, vec)
                          for key, vec in self.coeffs.items()}
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def __neg__(self):
        return self.scale(-1)

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        return (isinstance(other, GradedSymMap)
                and (self.arity, self.degree, self.tgt_dim)
                == (other.arity, other.degree, other.tgt_dim)
                and self.space == other.space and self.coeffs == other.coeffs)

    def __repr__(self):
        return "GradedSymMap(arity=%d, deg=%d, %d->%d, %d terms)" % (
            self.arity, self.degree, self.src_dim, self.tgt_dim,
            len(self.coeffs))


class AltMap(GradedSymMap):
    """Alternating k-linear map from a src_dim-dimensional space into a
    tgt_dim-dimensional one: the graded map on the suspension, of degree
    k - 1, keyed by strictly increasing tuples of 0-based indices."""

    def __init__(self, arity, src_dim, tgt_dim):
        super().__init__(arity, arity - 1, suspend_space(src_dim), tgt_dim)


# ---------------------------------------------------------------------------
# suspension


@lru_cache(maxsize=None)
def suspend_space(dim):
    """The suspension of an ungraded space of dimension dim, in degree -1
    (one shared, never mutated object per dimension)."""
    return GradedVectorSpace([(-1, dim)])


# ---------------------------------------------------------------------------
# arity-1 maps: the linear maps along which structure is transported


def coordinate_map(src_dim, tgt_dim, shift):
    """The arity-1 map that sends basis vector j to basis vector j + shift,
    and to zero where j + shift is not an index of the target: for a sum
    g (+) V, the inclusion of V (shift dim g) and the projection onto it
    (shift -dim g), and the identity at shift 0."""
    f = AltMap(1, src_dim, tgt_dim)
    f.coeffs = {(j,): basis_vec(tgt_dim, j + shift)
                for j in range(max(0, -shift), min(src_dim, tgt_dim - shift))}
    return f


def pullback(f, S, T=None):
    """The alternating map (x_1, .., x_n) -> T f(S x_1, .., S x_n) on the
    source of S: f transported along the arity-1 maps S and T, where T =
    None is the identity.  Each stored value of S is read once, and each
    sorted key of stored values is accumulated once; a key with a zero
    value is zero."""
    if (S.arity, S.tgt_dim) != (1, f.src_dim) or T is not None and \
            (T.arity, T.src_dim) != (1, f.tgt_dim):
        raise DimensionMismatch("pullback of a map %d -> %d along maps "
                                "that do not fit it" % (f.src_dim, f.tgt_dim))
    supports = {j: vec_support(col) for (j,), col in S.coeffs.items()}
    out = AltMap(f.arity, S.src_dim, f.tgt_dim if T is None else T.tgt_dim)
    for key in combinations(sorted(j for j, c in supports.items() if c),
                            f.arity):
        val = vec_zero(f.tgt_dim)
        f.accumulate(val, 1, [supports[x] for x in key])
        if T is not None:
            head = vec_support(val)
            val = vec_zero(T.tgt_dim)
            T.accumulate(val, 1, [head])
        exact(val)
        if not vec_is_zero(val):
            out.coeffs[key] = val
    return out
