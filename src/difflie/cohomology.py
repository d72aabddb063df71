"""Cochain complexes of a differential Lie algebra with coefficients in a
differential representation, as exact matrix families.

Four flavors are available:

  "ce"      : the Chevalley-Eilenberg complex of the underlying Lie algebra,
              C^n = Hom(wedge^n g, V);
  "do"      : the complex of the weighted operator -- the Chevalley-Eilenberg
              complex of the shifted representation rho_lambda;
  "difflie" : the combined complex C^n = C^n_ce (+) C^{n-1}_do, a negative
              shift of the mapping cone of the connecting map delta;
  "tilde"   : the subcomplex with degree 0 removed and degree 1 truncated to
              the Lie part (the receptacle of extension classes).

Degree-0 sign note: the combined differential uses the uniform mapping-cone
rule (f, g) |-> (d_ce f, -d_do g - delta f) in every degree, including the
extension of that rule to degree 0 (where g = 0), which is what d o d = 0
forces.

An n-cochain is an AltMap of arity n for every n >= 0 (a 0-cochain is the
arity-0 map, whose one key () holds a vector of V); its coordinates, and a
cocycle pair's, are read off the maps.  The coboundaries of one cochain
move along coordinate maps, arity-1 maps like every other linear map of
the package.  This module is the only one besides linalg that names
Matrix: the differentials and their d^2 check, the solve of
pair_primitive, and the differential that the bridge to the twisted formal
structure reads, one residual column per basis pair.
"""

from itertools import combinations, product
from math import comb

from .linalg import CompositionNonzero, Matrix, exact, frac, vec_add, \
    vec_is_zero, vec_support, vec_zero, basis_vec
from . import FLAVORS
from .liealg import adjoint_rep, rho_lambda, semidirect_bracket
from .multilinear import AltMap, ArityMismatch, _sym_sort, coordinate_map, \
    pullback


class UnknownFlavor(Exception):
    pass


# ---------------------------------------------------------------------------
# cochain coordinates: Hom(wedge^n g, V) on the increasing-tuple basis,
# ordered lexicographically by tuple, then by target index


def cochain_keys(gdim, n):
    return list(combinations(range(gdim), n))


def cochain_dim(gdim, vdim, n):
    return comb(gdim, n) * vdim


def altmap_to_coords(f):
    """Coordinates of a cochain, an AltMap of any arity (a 0-cochain is the
    arity-0 map, whose one key () holds a vector of V)."""
    out = []
    for key in cochain_keys(f.src_dim, f.arity):
        vec = f.coeffs.get(key)
        out.extend(vec if vec is not None else vec_zero(f.tgt_dim))
    return out


def coords_to_altmap(coords, gdim, vdim, n):
    f = AltMap(n, gdim, vdim)
    for k, key in enumerate(cochain_keys(gdim, n)):
        vec = coords[k * vdim:(k + 1) * vdim]
        if not vec_is_zero(vec):
            f.coeffs[key] = [frac(x) for x in vec]
    return f


# ---------------------------------------------------------------------------
# the coboundaries of one cochain, read off the insertion kernel of nr: the
# operators that the matrix builders below are tested against


def ce_apply(L, rep, f):
    """The Chevalley-Eilenberg coboundary of an n-cochain f, an
    (n+1)-cochain: the NR bracket [mu, f^] on g (+) V, mu the bracket of
    the semidirect product and f^ the map f on g, zero on V, read on
    g-inputs and projected to V."""
    from .nr import nr_bracket
    gdim, vdim = L.dim, rep.space_dim
    N = gdim + vdim
    f_hat = pullback(f, coordinate_map(N, gdim, 0),
                     coordinate_map(vdim, N, gdim))
    mu = semidirect_bracket(L.bracket, rep.rho)
    return pullback(nr_bracket(mu, f_hat), coordinate_map(gdim, N, 0),
                    coordinate_map(N, vdim, -gdim))


def delta_apply(A, rep, f):
    """The connecting map delta on an n-cochain f: the pointed insertion of
    d into f, with weight lambda^(k-1) on k slots, minus d_V after f."""
    from .nr import pointed_family
    n = f.arity
    return pointed_family({0: f}, {0: A.d}, 0, A.weight, n, n - 1, f.space) - \
        pullback(f, coordinate_map(A.dim, A.dim, 0), rep.dV)


# ---------------------------------------------------------------------------
# the differentials as matrices, written entry by entry from the structure
# constants


def _add_ce(out, r0, c0, sign, L, rho, vdim, n):
    """Add sign times the matrix of the Chevalley-Eilenberg coboundary on
    n-cochains, with coefficients the action rho on g (+) V, into out with
    its corner at row r0, column c0."""
    gdim = L.dim
    src = {key: k for k, key in enumerate(cochain_keys(gdim, n))}
    odd = (True,) * gdim
    rho_nz = [[] for _ in range(gdim)]
    for (i, v), vec in rho.coeffs.items():
        rho_nz[i] += [(s, v - gdim, x) for s, x in enumerate(vec) if x]
    br_nz = {key: [(c, x) for c, x in enumerate(vec) if x]
             for key, vec in L.bracket.coeffs.items()}
    data = out.data
    for k, J in enumerate(combinations(range(gdim), n + 1)):
        r = r0 + k * vdim
        # rho(x_{J[p]}) f(J without J[p]), sign (-1)^(p+1+n)
        for p in range(n + 1):
            sp = -sign if (p + 1 + n) % 2 else sign
            col = c0 + src[J[:p] + J[p + 1:]] * vdim
            for s, t, x in rho_nz[J[p]]:
                data[r + s][col + t] += sp * x
        # f([x_{J[p]}, x_{J[q]}], rest), sign (-1)^(p+q+n+1); the bracket
        # coefficient c enters f's arguments at its sorted place
        ident = {}
        for p, q in combinations(range(n + 1), 2):
            terms = br_nz.get((J[p], J[q]))
            if not terms:
                continue
            spq = -sign if (p + q + n + 1) % 2 else sign
            rest = J[:p] + J[p + 1:q] + J[q + 1:]
            for c, x in terms:
                key, s = _sym_sort((c,) + rest, odd)
                if key is not None:
                    ident[key] = ident.get(key, 0) + spq * s * x
        _add_identity_blocks(data, r, c0, src, ident, vdim)


def _add_delta(out, r0, c0, sign, A, rep, n):
    """Add sign times the matrix of the connecting map delta on n-cochains
    into out with its corner at row r0, column c0: -d_V on the diagonal
    blocks, and for every slot subset S the weight lambda^(|S|-1) times
    the expansion of d over the slots in S."""
    gdim, vdim, lam = A.dim, rep.space_dim, A.weight
    keys = cochain_keys(gdim, n)
    src = {key: k for k, key in enumerate(keys)}
    odd = (True,) * gdim
    dV_nz = [(s, t, x) for (t,), col in rep.dV.coeffs.items()
             for s, x in enumerate(col) if x]
    dcols = [vec_support(A.d.value_on_basis((j,))) for j in range(gdim)]
    data = out.data
    for k, K in enumerate(keys):
        r = r0 + k * vdim
        for s, t, x in dV_nz:
            data[r + s][c0 + k * vdim + t] -= sign * x
        ident = {}
        for size in range(1, n + 1):
            weight = lam ** (size - 1)
            if weight == 0:
                break
            for S in combinations(range(n), size):
                slots = [dcols[K[p]] if p in S else ((K[p], 1),)
                         for p in range(n)]
                for combo in product(*slots):
                    key, s = _sym_sort(tuple(i for i, _ in combo), odd)
                    if key is None:
                        continue
                    c = sign * s * weight
                    for _, x in combo:
                        c *= x
                    ident[key] = ident.get(key, 0) + c
        _add_identity_blocks(data, r, c0, src, ident, vdim)


def _exact_rows(m):
    """m, with the integral Fractions that the sums above may leave in its
    entries turned into ints."""
    for row in m.data:
        exact(row)
    return m


def _add_identity_blocks(data, r, c0, src, coeffs, vdim):
    """Add c times the vdim x vdim identity at block row r, block column
    c0 + src[key] * vdim, for each key -> c of coeffs."""
    for key, c in coeffs.items():
        if c:
            col = c0 + src[key] * vdim
            for t in range(vdim):
                data[r + t][col + t] += c


def ce_differential(A, rep, n):
    gdim, vdim = A.dim, rep.space_dim
    out = Matrix.zero(cochain_dim(gdim, vdim, n + 1),
                      cochain_dim(gdim, vdim, n))
    _add_ce(out, 0, 0, 1, A.algebra, rep.rho, vdim, n)
    return _exact_rows(out)


def do_differential(A, rep, n):
    return ce_differential(A, rho_lambda(rep, A), n)


def delta_matrix(A, rep, n):
    size = cochain_dim(A.dim, rep.space_dim, n)
    out = Matrix.zero(size, size)
    _add_delta(out, 0, 0, 1, A, rep, n)
    return _exact_rows(out)


def difflie_differential(A, rep, n, tilde=False):
    """Block matrix of the combined differential in degree n,
    (f, g) |-> (d_ce f, -delta f - d_do g); tilde truncates degree 0 to
    nothing and degree 1 to the Lie part.

    Layout: Lie part first, operator part second, in both source and target.
    """
    gdim, vdim = A.dim, rep.space_dim
    lie_src = cochain_dim(gdim, vdim, n)
    lie_tgt = cochain_dim(gdim, vdim, n + 1)
    if tilde and n == 0:
        return Matrix.zero(lie_tgt, 0)
    op_src = 0 if n == 0 or (tilde and n == 1) else \
        cochain_dim(gdim, vdim, n - 1)
    out = Matrix.zero(lie_tgt + lie_src, lie_src + op_src)
    _add_ce(out, 0, 0, 1, A.algebra, rep.rho, vdim, n)
    _add_delta(out, lie_tgt, 0, -1, A, rep, n)
    if op_src:
        _add_ce(out, lie_tgt, lie_src, -1, A.algebra,
                rho_lambda(rep, A).rho, vdim, n - 1)
    return _exact_rows(out)


def planned_cells(gdim, vdim, flavor, max_degree):
    """The matrix cells, rows times columns summed over d[0..N-1], of the
    differentials that CochainComplexSpec builds for the flavor and
    N = max_degree on dim g = gdim and dim V = vdim, read off the binomials
    of cochain_dim before anything is built; the shapes are those of
    ce_differential and difflie_differential, whose degrees above
    dim + 1 are empty."""
    total = 0
    for n in range(max_degree):
        lie_src = cochain_dim(gdim, vdim, n)
        lie_tgt = cochain_dim(gdim, vdim, n + 1)
        if flavor in ("ce", "do"):
            total += lie_tgt * lie_src
        elif n or flavor != "tilde":
            op_src = 0 if n == 0 or (flavor == "tilde" and n == 1) else \
                cochain_dim(gdim, vdim, n - 1)
            total += (lie_tgt + lie_src) * (lie_src + op_src)
    return total


class CochainComplexSpec:
    """A validated complex: the differentials that H^0..H^{N-1} rest on,
    d[n] from n-cochains to (n+1)-cochains for 0 <= n < N = max_degree,
    and the dimensions of C^0..C^N read off their shapes.  C^n is zero for
    n > dim + 1, so d[n] is 0 x 0 from n = dim + 2 on and is not built.  As
    they are listed, d[n] * d[n-1] = 0 is checked for 1 <= n < N, raising
    CompositionNonzero at the first degree where it fails."""

    def __init__(self, algebra, rep, flavor="difflie", max_degree=4):
        if flavor not in FLAVORS:
            raise UnknownFlavor(flavor)
        if max_degree < 1:
            raise ValueError("max_degree %r is below 1" % (max_degree,))
        self.algebra = algebra
        self.rep = rep
        self.flavor = flavor
        self.max_degree = max_degree
        self.d = []
        for n in range(max_degree):
            self.d.append(self._differential(n) if n < algebra.dim + 2
                          else Matrix.zero(0, 0))
            if n and not (self.d[n] * self.d[n - 1]).is_zero():
                raise CompositionNonzero(
                    "d^2 != 0 at degree %d (flavor %s)" % (n - 1, flavor))
        self.dims = [m.cols for m in self.d] + [self.d[-1].rows]

    def _differential(self, n):
        A, rep = self.algebra, self.rep
        if self.flavor == "ce":
            return ce_differential(A, rep, n)
        if self.flavor == "do":
            return do_differential(A, rep, n)
        return difflie_differential(A, rep, n, tilde=(self.flavor == "tilde"))


def cohomology_dims(spec):
    """dim H^n = dim C^n - rank d[n] - rank d[n-1] for 0 <= n < max_degree,
    ranking each differential once (linalg.homology_dim is the two-step
    oracle)."""
    ranks = [spec.d[n].rank() for n in range(spec.max_degree)]
    return [spec.dims[n] - ranks[n] - (ranks[n - 1] if n else 0)
            for n in range(spec.max_degree)]


# ---------------------------------------------------------------------------
# cocycle pairs and residuals


def pair_dim(gdim, vdim, n):
    """dim C^n = dim C^n_ce + dim C^{n-1}_do of the combined complex."""
    return cochain_dim(gdim, vdim, n) + \
        (cochain_dim(gdim, vdim, n - 1) if n >= 1 else 0)


class CocyclePair:
    """(f, g) in degree n >= 1: f an n-cochain into V and g an (n-1)-cochain
    into V, both AltMaps (g of arity 0 in degree 1)."""

    def __init__(self, f, g):
        if g.arity != f.arity - 1:
            raise ArityMismatch("a pair of arities %d and %d"
                                % (f.arity, g.arity))
        self.f = f
        self.g = g

    def coords(self):
        """Coordinates in C^n: the Lie part first, then the operator part."""
        return altmap_to_coords(self.f) + altmap_to_coords(self.g)

    @classmethod
    def from_coords(cls, coords, gdim, vdim, n):
        """The inverse of coords."""
        cut = cochain_dim(gdim, vdim, n)
        return cls(coords_to_altmap(coords[:cut], gdim, vdim, n),
                   coords_to_altmap(coords[cut:], gdim, vdim, n - 1))


def pair_residual(A, rep, pair):
    """The combined differential of (A, rep) on the pair (f, g), (d_ce f,
    -delta f - d_do g) in degree-(n+1) coordinates, read off the
    coboundaries of f and g; zero exactly for cocycles."""
    L, do = A.algebra, rho_lambda(rep, A)
    return altmap_to_coords(ce_apply(L, rep, pair.f)) + altmap_to_coords(
        -delta_apply(A, rep, pair.f) - ce_apply(L, do, pair.g))


def pair_primitive(A, rep, pair):
    """A 1-cochain phi: g -> V, an arity-1 map, whose truncated
    differential (phi with zero operator part) is the degree-2 pair, or
    None when the pair has no such primitive.  The solve is linear in the
    pair, so the negated pair gives the negated phi."""
    x = difflie_differential(A, rep, 1, tilde=True).solve(pair.coords())
    if x is None:
        return None
    return coords_to_altmap(x, A.dim, rep.space_dim, 1)


# ---------------------------------------------------------------------------
# bridge to the twisted formal structure (adjoint coefficients)


def _twisted_l1(A, pair):
    """l_1 of the absolute structure twisted by (s mu, d), applied to
    (sf, g), in degree-(n+1) coordinates: the sum of the cochain pairs of
    its two terms."""
    from .linfty import AbsoluteStructure, Term, twist_l1_formal
    struct = AbsoluteStructure(A.weight)
    mu = A.algebra.bracket
    fs, fa = twist_l1_formal(struct, mu, A.d, Term("s", pair.f))
    gs, ga = twist_l1_formal(struct, mu, A.d, Term("a", pair.g))
    return altmap_to_coords(fs + gs) + altmap_to_coords(fa + ga)


def twist_bridge_residual(A, n):
    """The degree-n bridge residual, one column per basis pair (sf, g):
    l_1 of the absolute structure twisted by (s mu, d) on the k-th pair,
    plus column k of the combined differential with adjoint coefficients.
    The twisted l_1 is the combined differential up to sign, so every
    column is zero."""
    size = pair_dim(A.dim, A.dim, n)
    d = difflie_differential(A, adjoint_rep(A), n)
    cols = []
    for k in range(size):
        pair = CocyclePair.from_coords(basis_vec(size, k), A.dim, A.dim, n)
        cols.append(vec_add(_twisted_l1(A, pair), [row[k] for row in d.data]))
    return cols
