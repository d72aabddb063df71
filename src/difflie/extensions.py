"""Abelian extensions of a differential Lie algebra by a differential
representation: building from 2-cocycles, extracting cocycles via sections,
equivalence testing, and classification by the truncated degree-2 cohomology.

An extension is always presented in the coordinates of g (+) V, V spanned
by the last coordinates and carrying the zero bracket: i and t are the
inclusion of V and the projection onto it, s and p those of g, and s is
the section.  All four are coordinate maps, arity-1 maps like every other
linear map of the package.  Another section s + i phi is a change of basis
of the total by Id + i phi p, the operator with parts (Id, phi, Id) of
g (+) V, so it is the same presentation of a conjugated total.  The kernel
checks and rho are read off the total's bracket; the base, psi and chi
are multilinear.pullbacks along s, d_V along i.

A total built from a 2-cocycle is certified by the 2-cocycle <-> extension
correspondence (build_extension), so it is not validated again.
"""

from .linalg import vec_is_zero
from .liealg import (AxiomFailure, DiffLieAlgebra, DiffRepresentation,
                     LieAlgebra, is_diff_lie_algebra, semidirect_bracket,
                     semidirect_operator, trivial_extension)
from .multilinear import AltMap, DimensionMismatch, coordinate_map, \
    pullback


class InvalidExtension(AxiomFailure):
    pass


class NotCocycle(Exception):
    """Carries the nonzero degree-3 residual of the offending pair."""

    def __init__(self, residual):
        super().__init__("pair is not a 2-cocycle")
        self.residual = residual


class AbelianExtension:
    """A differential Lie algebra structure on g (+) V with abelian V.

    total: DiffLieAlgebra on the sum, g on the first gdim coordinates and V
    on the last vdim; s, i: g, V -> total and p, t: total -> g, V are the
    coordinate inclusions and projections.
    """

    def __init__(self, total, gdim, vdim):
        if min(gdim, vdim) < 0 or gdim + vdim != total.dim:
            raise InvalidExtension("dimension count is not exact")
        if not is_diff_lie_algebra(total):
            raise InvalidExtension("total space axioms fail")
        self.total, self.gdim, self.vdim = total, gdim, vdim
        N = total.dim
        self.s, self.p = coordinate_map(gdim, N, 0), coordinate_map(N, gdim, 0)
        self.i = coordinate_map(vdim, N, gdim)
        self.t = coordinate_map(N, vdim, -gdim)
        # V must be an abelian ideal preserved by the operator: no g-part of
        # d on V, no bracket of two V-inputs and no g-part of one with one
        if not pullback(total.d, self.i, self.p).is_zero():
            raise InvalidExtension("operator does not preserve kernel")
        br = total.algebra.bracket.coeffs
        if any(a >= gdim for a, _ in br):
            raise InvalidExtension("kernel is not abelian")
        if any(b >= gdim and not vec_is_zero(vec[:gdim])
               for (_, b), vec in br.items()):
            raise InvalidExtension("kernel is not an ideal")

    def base(self):
        """The induced differential Lie algebra structure on g."""
        br = pullback(self.total.algebra.bracket, self.s, self.p)
        return DiffLieAlgebra(LieAlgebra(self.gdim, br),
                              pullback(self.total.d, self.s, self.p),
                              self.total.weight)


def extract_cocycle(E):
    """The representation and the pair (psi, chi) of the coordinate
    section: psi(x,y) = [s x, s y] - s[x,y], chi(x) = d(s x) - s(d x), both
    valued in V via t; rho(x)v = t[s x, i v], read off the bracket.

    The induced coefficients are always a differential representation of
    E.base(), so they are not checked.  V is an abelian ideal, so
    [s x, i v] = i rho(x)v and [s x, s y] = s[x,y] + i psi(x,y), and the
    Jacobi identity on (s x, s y, i v) is rho([x,y]) = [rho(x), rho(y)].
    V is d-stable (p d i = 0), so d i v = i d_V v and d s x = s d_g x +
    i chi(x), and the operator identity on (s x, i v) is
    d_V rho(x) = rho(d_g x) + rho(x) d_V + lambda rho(d_g x) d_V."""
    g = E.gdim
    rho = AltMap(2, g + E.vdim, E.vdim)
    rho.coeffs = {key: vec[g:] for key, vec in
                  E.total.algebra.bracket.coeffs.items() if key[1] >= g}
    rep = DiffRepresentation(rho, pullback(E.total.d, E.i, E.t))
    psi = pullback(E.total.algebra.bracket, E.s, E.t)
    return rep, psi, pullback(E.total.d, E.s, E.t)


def check_coefficients(g, rep):
    """Raise InvalidExtension unless g is a differential Lie algebra and
    rep a differential representation of it: exactly when the trivial
    extension g (+) V is one, whose families are g's own on g-inputs, rho's
    hom and compat residuals on one V-input and zero on two.  g alone is
    checked only on failure, to name the culprit."""
    if not is_diff_lie_algebra(trivial_extension(g, rep)):
        if not is_diff_lie_algebra(g):
            raise InvalidExtension("base algebra axioms fail")
        raise InvalidExtension("coefficients fail representation axioms")


def build_extension(g, rep, psi, chi):
    """The total g (+) V of the split extension with bracket [x+u, y+v] =
    [x,y] + rho(x)v - rho(y)u + psi(x,y) and operator d(x+v) = d x + chi(x)
    + d_V v.

    Raises InvalidExtension when (g, rep) fails the axioms and NotCocycle
    with the exact residual when (psi, chi) fails the degree-2 cocycle
    condition.  Past both, V is an abelian d-stable ideal by construction,
    and the total's axioms hold on g-inputs exactly for 2-cocycles and on
    V-inputs exactly for representations, so AbelianExtension accepts it."""
    from .cohomology import CocyclePair, pair_residual
    check_coefficients(g, rep)
    res = pair_residual(g, rep, CocyclePair(psi, chi))
    if not vec_is_zero(res):
        raise NotCocycle(res)
    br = semidirect_bracket(g.algebra.bracket, rep.rho, psi)
    return DiffLieAlgebra(LieAlgebra(g.dim + rep.space_dim, br),
                          semidirect_operator(g.d, chi, rep.dV), g.weight)


def equivalence_witness(E1, E2, phi=None):
    """Equivalence of two extensions of the same (g, V).

    With phi, an arity-1 map g -> V, given: checks that zeta = Id + i phi p,
    which fixes i and p, is an isomorphism of the totals; returns (ok,
    phi).  With phi = None: searches for phi by solving the linear system
    (combined differential)(phi) = extracted cocycle difference; returns
    (found, phi_or_None)."""
    if (E1.gdim, E1.vdim) != (E2.gdim, E2.vdim):
        return False, None
    if phi is None:
        from .cohomology import CocyclePair, pair_primitive
        rep1, psi1, chi1 = extract_cocycle(E1)
        rep2, psi2, chi2 = extract_cocycle(E2)
        if rep1.rho != rep2.rho or rep1.dV != rep2.dV:
            return False, None
        phi = pair_primitive(E1.base(), rep1,
                             CocyclePair(psi1 - psi2, chi1 - chi2))
        if phi is None:
            return False, None
    g, v = E1.gdim, E1.vdim
    if (phi.arity, phi.src_dim, phi.tgt_dim) != (1, g, v):
        raise DimensionMismatch("phi is not a map g -> V")
    zeta = semidirect_operator(coordinate_map(g, g, 0), phi,
                               coordinate_map(v, v, 0))
    for f1, f2 in ((E1.total.d, E2.total.d),
                   (E1.total.algebra.bracket, E2.total.algebra.bracket)):
        if pullback(f1, coordinate_map(g + v, g + v, 0), zeta) != \
                pullback(f2, zeta):
            return False, None
    return True, phi


def classify(g, rep):
    """dim of the truncated degree-2 cohomology, the group classifying
    abelian extensions of g by the coefficients."""
    from .cohomology import CochainComplexSpec, cohomology_dims
    check_coefficients(g, rep)
    spec = CochainComplexSpec(g, rep, "tilde", max_degree=3)
    return cohomology_dims(spec)[2]
