"""Abelian extensions of a differential Lie algebra by a differential
representation: building from 2-cocycles, extracting cocycles via sections,
equivalence testing, and classification by the truncated degree-2 cohomology.

An extension is always presented on the split underlying space g (+) V with
the inclusion i, projection p and a chosen section s as matrices; the kernel
carries the zero bracket.  Every structure read is a multilinear.pullback:
the bracket in the basis (s, i), valued in (p, t), carries the kernel
checks and rho; the base bracket and psi are its pullbacks along s.

A total built from a 2-cocycle is certified by the 2-cocycle <-> extension
correspondence (build_extension), so it is not validated again.
"""

from .linalg import Matrix, invert_matrix, vec_is_zero
from .liealg import (AxiomFailure, DiffLieAlgebra, DiffRepresentation,
                     LieAlgebra, _matrices, is_diff_lie_algebra,
                     semidirect_bracket, trivial_extension)
from .multilinear import altmap1_from_matrix, matrix_from_altmap1, pullback


class InvalidExtension(AxiomFailure):
    pass


class NotCocycle(Exception):
    """Carries the nonzero degree-3 residual of the offending pair."""

    def __init__(self, residual):
        super().__init__("pair is not a 2-cocycle")
        self.residual = residual


class AbelianExtension:
    """A differential Lie algebra structure on g (+) V with abelian V.

    total: DiffLieAlgebra on the sum; i: V -> total; p: total -> g;
    s: g -> total a section of p.
    """

    def __init__(self, total, i, p, s):
        self.total = total
        self.i = i
        self.p = p
        self.s = s
        self.gdim = p.rows
        self.vdim = i.cols
        N = total.dim
        if i.rows != N or p.cols != N or s.rows != N or s.cols != self.gdim:
            raise InvalidExtension("shape mismatch")
        if self.gdim + self.vdim != N:
            raise InvalidExtension("dimension count is not exact")
        if not (self.p * self.i).is_zero():
            raise InvalidExtension("p . i != 0")
        if self.p * self.s != Matrix.identity(self.gdim):
            raise InvalidExtension("s is not a section of p")
        basis = Matrix.block([[s, i]])
        inv = invert_matrix(basis)
        if inv is None:
            raise InvalidExtension("i and s do not split the total space")
        # s p + i t = Id with t s = 0, t i = Id: the rows of inv are p, t
        self.t = Matrix(self.vdim, N, inv.data[self.gdim:])
        if not is_diff_lie_algebra(total):
            raise InvalidExtension("total space axioms fail")
        # the kernel must be abelian and an ideal preserved by the operator;
        # split is the bracket in the basis (s, i), valued in (p, t)
        if not (p * total.d * i).is_zero():
            raise InvalidExtension("operator does not preserve kernel")
        self.split = pullback(total.algebra.bracket, basis, inv)
        g = self.gdim
        if any(a >= g for a, _ in self.split.coeffs):
            raise InvalidExtension("kernel is not abelian")
        if any(b >= g and not vec_is_zero(vec[:g])
               for (_, b), vec in self.split.coeffs.items()):
            raise InvalidExtension("kernel is not an ideal")

    def base(self):
        """The induced differential Lie algebra structure on g."""
        br = pullback(self.total.algebra.bracket, self.s, self.p)
        d_g = self.p * self.total.d * self.s
        return DiffLieAlgebra(LieAlgebra(self.gdim, br), d_g,
                              self.total.weight)


def extract_cocycle(E):
    """The representation and the pair (psi, chi) of a section:
    psi(x,y) = [s x, s y] - s[x,y], chi(x) = d(s x) - s(d x), both valued in
    V via t; rho(x)v = t[s x, i v].

    The induced coefficients are always a differential representation of
    E.base(), so they are not checked.  V is an abelian ideal, so
    [s x, i v] = i rho(x)v and [s x, s y] = s[x,y] + i psi(x,y), and the
    Jacobi identity on (s x, s y, i v) is rho([x,y]) = [rho(x), rho(y)].
    V is d-stable (p d i = 0), so d i v = i d_V v and d s x = s d_g x +
    i chi(x), and the operator identity on (s x, i v) is
    d_V rho(x) = rho(d_g x) + rho(x) d_V + lambda rho(d_g x) d_V."""
    rho = _matrices(E.split, [(x,) for x in range(E.gdim)], E.gdim, E.vdim)
    rep = DiffRepresentation(E.vdim, rho, E.t * E.total.d * E.i)
    psi = pullback(E.total.algebra.bracket, E.s, E.t)
    chi_m = E.t * E.total.d * E.s
    return rep, psi, altmap1_from_matrix(chi_m)


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
    V-inputs exactly for representations, so split_extension accepts it."""
    gdim, vdim = g.dim, rep.space_dim
    from .cohomology import CocyclePair, pair_residual
    check_coefficients(g, rep)
    res = pair_residual(g, rep, CocyclePair(psi, chi))
    if not vec_is_zero(res):
        raise NotCocycle(res)
    br = semidirect_bracket(gdim, vdim, rep.rho, g.algebra.bracket, psi)
    d_hat = Matrix.block([
        [g.d, Matrix.zero(gdim, vdim)],
        [matrix_from_altmap1(chi), rep.dV],
    ])
    return DiffLieAlgebra(LieAlgebra(gdim + vdim, br), d_hat, g.weight)


def split_extension(total, gdim, vdim):
    """total on g (+) V as an extension with the canonical inclusion of V,
    projection onto g and section of the projection."""
    i = Matrix.block([[Matrix.zero(gdim, vdim)], [Matrix.identity(vdim)]])
    p = Matrix.block([[Matrix.identity(gdim), Matrix.zero(gdim, vdim)]])
    s = Matrix.block([[Matrix.identity(gdim)], [Matrix.zero(vdim, gdim)]])
    return AbelianExtension(total, i, p, s)


def equivalence_witness(E1, E2, phi=None):
    """Equivalence of two extensions of the same (g, V).

    With phi given: checks that zeta = Id + i . phi . p is an isomorphism of
    the totals commuting with i and p; returns (ok, phi).  With phi = None:
    searches for phi by solving the linear system
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
        phi = matrix_from_altmap1(phi)
    N = E1.total.dim
    zeta = Matrix.identity(N) + E1.i * phi * E1.p
    if zeta * E1.i != E2.i or E2.p * zeta != E1.p:
        return False, None
    if zeta * E1.total.d != E2.total.d * zeta:
        return False, None
    if pullback(E1.total.algebra.bracket, Matrix.identity(N), zeta) != \
            pullback(E2.total.algebra.bracket, zeta):
        return False, None
    return True, phi


def classify(g, rep):
    """dim of the truncated degree-2 cohomology, the group classifying
    abelian extensions of g by the coefficients."""
    from .cohomology import CochainComplexSpec, cohomology_dims
    check_coefficients(g, rep)
    spec = CochainComplexSpec(g, rep, "tilde", max_degree=3)
    return cohomology_dims(spec)[2]
