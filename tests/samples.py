"""Seeded random generators of valid (and deliberately broken) fixtures.

Strategy for weighted operators: for weight lambda != 0, d satisfies the
weighted rule iff e = Id + lambda*d is a Lie algebra endomorphism, so we
sample endomorphisms from per-family catalogs and transport back; for
lambda = 0 we solve the linear derivation system exactly and sample its
kernel.  Everything is scrambled by random integer basis changes with
determinant +-1, which preserve validity.
"""

from fractions import Fraction

from conftest import filled, kernel_basis
from difflie.deformations import TruncatedDeformation
from difflie.extensions import AbelianExtension, build_extension
from difflie.linalg import Matrix, div, frac, vec_is_zero
from difflie.multilinear import AltMap, pullback
from difflie.liealg import (LieAlgebra, DiffLieAlgebra, DiffRepresentation,
                            LieActTriple, adjoint_rep, relative_diff_residual,
                            rho_lambda, semidirect_bracket)

WEIGHTS = [0, 1, -1, 2, Fraction(1, 2)]


def rand_int(rng, lo=-3, hi=3):
    return rng.randrange(lo, hi + 1)


def rand_vec(rng, n, lo=-3, hi=3):
    return [rand_int(rng, lo, hi) for _ in range(n)]


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix(rows, cols, [[rng.randrange(lo, hi + 1)
                                for _ in range(cols)] for _ in range(rows)])


# ---------------------------------------------------------------------------
# matrices of the fixtures and the oracles: the package keeps Matrix for its
# cochain differentials and holds every other linear map as an arity-1 map,
# so the conversions and the assembly of matrices live here


def from_rows(rows):
    """The matrix of the list of rows."""
    return Matrix(len(rows), len(rows[0]) if rows else 0, rows)


def identity_matrix(n):
    return Matrix(n, n, [[int(i == j) for j in range(n)] for i in range(n)])


def transpose(m):
    return Matrix(m.cols, m.rows, [[row[j] for row in m.data]
                                   for j in range(m.cols)])


def block(grid):
    """The matrix assembled from a 2D grid of matrices; the blocks of one
    grid row must have one height."""
    rows = []
    for brow in grid:
        h = brow[0].rows
        if any(m.rows != h for m in brow):
            raise ValueError("blocks of one grid row differ in height")
        for i in range(h):
            rows.append([x for m in brow for x in m.data[i]])
    return from_rows(rows) if rows else \
        Matrix(0, sum(m.cols for m in grid[0]) if grid else 0)


def altmap1_from_matrix(m):
    """The arity-1 map whose value on basis vector j is column j of m."""
    f = AltMap(1, m.cols, m.rows)
    for j in range(m.cols):
        col = [m.data[i][j] for i in range(m.rows)]
        if not vec_is_zero(col):
            f.coeffs[(j,)] = col
    return f


def matrix_from_altmap1(f):
    """The matrix whose column j is the value of the arity-1 map f on basis
    vector j."""
    out = Matrix.zero(f.tgt_dim, f.src_dim)
    for (j,), vec in f.coeffs.items():
        for i in range(f.tgt_dim):
            out.data[i][j] = vec[i]
    return out


def invert_matrix(m):
    """The inverse of a square matrix, or None when it is singular: the
    right half of the reduced row echelon form of [m | Id]."""
    n = m.rows
    if m.cols != n:
        raise ValueError("only a square matrix has an inverse")
    R, pivots = block([[m, identity_matrix(n)]]).rref()
    if pivots[:n] != list(range(n)):
        return None
    return Matrix(n, n, [row[n:] for row in R.data])


def rand_unimodular(rng, n, steps=6):
    """Random integer matrix of determinant +-1 (product of elementaries)."""
    m = identity_matrix(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        e = identity_matrix(n)
        e.data[i][j] = rng.randrange(-2, 3)
        m = m * e
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        p = identity_matrix(n)
        p.data[i][i] = p.data[j][j] = 0
        p.data[i][j] = p.data[j][i] = 1
        m = m * p
    return m


# ---------------------------------------------------------------------------
# operators and actions given as matrices: the package holds them as maps,
# and these build or read the maps from the matrices the fixtures draw


def diff_lie(L, d, lam):
    """The differential Lie algebra of L, the operator matrix d and the
    weight lam."""
    return DiffLieAlgebra(L, altmap1_from_matrix(d), lam)


def action(mats, vdim):
    """The action map on g (+) V into V of the vdim x vdim matrices
    rho(x_i), one per basis vector of g: its value on (x_i, v_a) is column
    a of mats[i]."""
    gdim = len(mats)
    rho = AltMap(2, gdim + vdim, vdim)
    for i, m in enumerate(mats):
        for (a,), col in altmap1_from_matrix(m).coeffs.items():
            rho.coeffs[(i, gdim + a)] = col
    return rho


def rep_of(mats, dV):
    """The representation of the matrices rho(x_i) and the matrix d_V."""
    return DiffRepresentation(action(mats, dV.rows), altmap1_from_matrix(dV))


def rho_matrices(rho, gdim):
    """The matrices rho(x_i) of an action map of a gdim-dimensional
    algebra: column a of the i-th is its value on (x_i, v_a)."""
    vdim = rho.tgt_dim
    return [Matrix(vdim, vdim, [[rho.value_on_basis((i, gdim + a))[s]
                                 for a in range(vdim)]
                                for s in range(vdim)])
            for i in range(gdim)]


def ad_matrices(L):
    """The matrices ad(x_i) of L, column a of the i-th [x_i, x_a]: the
    per-basis route that adjoint_rep's action, the bracket itself,
    replaced."""
    n = L.dim
    return [Matrix(n, n, [[L.bracket.value_on_basis((i, a))[s]
                           for a in range(n)] for s in range(n)])
            for i in range(n)]


def ad_action(L):
    """The adjoint action of L as a map on L (+) L."""
    return adjoint_rep(DiffLieAlgebra(L, AltMap(1, L.dim, L.dim), 0)).rho


# ---------------------------------------------------------------------------
# catalog Lie algebras


def abelian(n):
    return LieAlgebra(n)


def aff1():
    """[x, y] = y."""
    return LieAlgebra(2, filled(AltMap(2, 2, 2), {(0, 1): [0, 1]}))


def heisenberg():
    """[x, y] = z."""
    return LieAlgebra(3, filled(AltMap(2, 3, 3), {(0, 1): [0, 0, 1]}))


def sl2():
    """Basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return LieAlgebra(3, filled(AltMap(2, 3, 3), {
        (0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}))


def direct_sum(a, b):
    n, m = a.dim, b.dim
    return LieAlgebra(n + m, semidirect_bracket(
        a.bracket, AltMap(2, n + m, m), h_bracket=b.bracket))


def conjugate_algebra(L, P, Pinv=None):
    """The same bracket in the basis P e_i."""
    if Pinv is None:
        Pinv = invert_matrix(P)
    return LieAlgebra(L.dim, pullback(L.bracket, altmap1_from_matrix(P),
                                      altmap1_from_matrix(Pinv)))


# ---------------------------------------------------------------------------
# weighted operators


def derivation_basis(L):
    """Kernel basis of the linear system 'd is a derivation of L': d is one
    exactly when it is a relative operator for rho = ad acting on the
    space of L with zero bracket."""
    return relative_operator_basis(LieActTriple(
        L, abelian(L.dim), ad_action(L)))


def _endomorphism_samples(name, L, rng):
    """A few Lie algebra endomorphisms of the catalog algebra."""
    n = L.dim
    out = [Matrix.zero(n, n), identity_matrix(n)]
    if name == "abelian":
        out.append(rand_matrix(rng, n, n))
    elif name == "aff1":
        a, b = rand_int(rng), rand_int(rng)
        e = Matrix.zero(2, 2)
        e.data[0][0] = 1
        e.data[1][0] = a
        e.data[1][1] = b
        out.append(e)
    elif name == "heis":
        alpha, beta = rand_int(rng), rand_int(rng)
        e = Matrix.zero(3, 3)
        e.data[0][0] = alpha
        e.data[1][1] = beta
        e.data[2][2] = alpha * beta
        out.append(e)
    # sl2: only 0 and Id from this catalog (plus conjugation downstream)
    return out


def catalog_diff_lie(rng, lam, max_dim=4):
    """A valid weight-lam differential Lie algebra from the catalog."""
    lam = frac(lam)
    names = ["abelian", "aff1", "heis", "sl2"]
    if max_dim >= 3:
        names.append("sum")
    if max_dim < 3:
        names = ["abelian", "aff1"]
    name = rng.choice(names)
    if name == "abelian":
        L = abelian(rng.randrange(1, max_dim + 1))
    elif name == "aff1":
        L = aff1()
    elif name == "heis":
        L = heisenberg()
    elif name == "sl2":
        L = sl2()
    else:
        L = direct_sum(aff1(), abelian(rng.randrange(1, max_dim - 1)))
        name = "aff1sum"
    if lam == 0:
        basis = derivation_basis(L)
        d = Matrix.zero(L.dim, L.dim)
        for b in basis:
            d = d + b.scale(rand_int(rng, -2, 2))
    else:
        if name == "abelian":
            d = rand_matrix(rng, L.dim, L.dim)
        elif name == "aff1sum":
            e1 = _endomorphism_samples("aff1", aff1(), rng)[-1]
            k = L.dim - 2
            e = block([[e1, Matrix.zero(2, k)],
                       [Matrix.zero(k, 2), rand_matrix(rng, k, k)]])
            d = (e - identity_matrix(L.dim)).scale(div(1, lam))
        else:
            e = rng.choice(_endomorphism_samples(name, L, rng))
            d = (e - identity_matrix(L.dim)).scale(div(1, lam))
    return diff_lie(L, d, lam)


def conjugate_diff_lie(A, P, Pinv=None):
    if Pinv is None:
        Pinv = invert_matrix(P)
    return DiffLieAlgebra(conjugate_algebra(A.algebra, P, Pinv),
                          pullback(A.d, altmap1_from_matrix(P),
                                   altmap1_from_matrix(Pinv)), A.weight)


def random_diff_lie(rng, lam=None, max_dim=4):
    """A random valid differential Lie algebra, basis-scrambled."""
    if lam is None:
        lam = rng.choice(WEIGHTS)
    A = catalog_diff_lie(rng, lam, max_dim)
    P = rand_unimodular(rng, A.dim)
    return conjugate_diff_lie(A, P)


def trivial_rep(A, space_dim, dV=None):
    """rho = 0 with an arbitrary d_V (default 0)."""
    if dV is None:
        dV = Matrix.zero(space_dim, space_dim)
    return DiffRepresentation(AltMap(2, A.dim + space_dim, space_dim),
                              altmap1_from_matrix(dV))


def random_rep(rng, A, max_dim=3):
    """A random valid differential representation over A."""
    kind = rng.choice(["adjoint", "trivial", "shifted"])
    if kind == "adjoint":
        rep = adjoint_rep(A)
    elif kind == "trivial":
        m = rng.randrange(1, max_dim + 1)
        rep = trivial_rep(A, m, rand_matrix(rng, m, m))
    else:
        rep = rho_lambda(adjoint_rep(A), A)
    if rng.random() < 0.5:
        rep = conjugate_rep(rep, A.dim, rand_unimodular(rng, rep.space_dim))
    return rep


def conjugate_rep(rep, gdim, Q):
    """The same representation in the basis Q v_a of V."""
    Qinv = invert_matrix(Q)
    return rep_of([Qinv * r * Q for r in rho_matrices(rep.rho, gdim)],
                  Qinv * matrix_from_altmap1(rep.dV) * Q)


def deformation(base, mu, d):
    """The deformation of the brackets mu and the operators d, the d_i
    given as matrices."""
    return TruncatedDeformation(base, mu, [altmap1_from_matrix(m) for m in d])


def formal_iso(phis):
    """The formal isomorphism Id + phi_1 t + .. + phi_r t^r of the matrices
    phis = [phi_1, .., phi_r], as the family {c: phi_c} of arity-1 maps."""
    return {c: altmap1_from_matrix(m) for c, m in enumerate(phis, 1)}


def constant_deformation(base, order):
    """The base structure with zero terms up to the order."""
    dim = base.dim
    mu = [base.algebra.bracket] + [AltMap(2, dim, dim)] * order
    return deformation(base, mu, [matrix_from_altmap1(base.d)] +
                       [Matrix.zero(dim, dim)] * order)


# ---------------------------------------------------------------------------
# LieAct triples and relative operators


def random_lieact(rng, max_dim=3):
    """A random valid LieAct triple (g, h, rho)."""
    kind = rng.choice(["self_ad", "abelian_h", "zero"])
    A = random_diff_lie(rng, rng.choice(WEIGHTS), max_dim)
    g = A.algebra
    if kind == "self_ad":
        return LieActTriple(g, g, ad_action(g))
    if kind == "abelian_h":
        # h = underlying space of g with zero bracket, rho = ad
        return LieActTriple(g, abelian(g.dim), ad_action(g))
    m = rng.randrange(1, max_dim + 1)
    h = rng.choice([abelian(m), aff1(), heisenberg()])
    return LieActTriple(g, h, AltMap(2, g.dim + h.dim, h.dim))


def relative_operator_basis(T):
    """For h abelian: kernel basis of the linear relative-operator system,
    whose column a * dim g + b is the residual of the matrix unit E_ab."""
    n, m = T.g.dim, T.h.dim
    cols = []
    for a in range(m):
        for b in range(n):
            unit = AltMap(1, n, m)
            unit[(b,)] = [int(a == c) for c in range(m)]
            cols.append([x for r in relative_diff_residual(T, unit, 0)
                         for x in r])
    system = transpose(Matrix(m * n, len(cols[0]), cols))
    return [Matrix(m, n, [v[k * n:(k + 1) * n] for k in range(m)])
            for v in kernel_basis(system)]


def random_relative_operator(rng, T, lam):
    """A valid relative differential operator of weight lam for T, if we can
    produce one cheaply; otherwise the zero operator; an arity-1 map."""
    return altmap1_from_matrix(_relative_operator_matrix(rng, T, lam))


def _relative_operator_matrix(rng, T, lam):
    lam = frac(lam)
    n, m = T.g.dim, T.h.dim
    if all(vec_is_zero(v) for v in T.h.bracket.coeffs.values()):
        basis = relative_operator_basis(T)
        D = Matrix.zero(m, n)
        for b in basis:
            D = D + b.scale(rand_int(rng, -2, 2))
        return D
    same_ad = T.h.dim == T.g.dim and T.rho == ad_action(T.g)
    if same_ad:
        # any weight-lam operator on g works
        if lam == 0:
            basis = derivation_basis(T.g)
            D = Matrix.zero(n, n)
            for b in basis:
                D = D + b.scale(rand_int(rng, -2, 2))
            return D
        if rng.random() < 0.5:
            return identity_matrix(n).scale(div(-1, lam))
        return Matrix.zero(n, n)
    return Matrix.zero(m, n)


def built_extension(A, rep, psi, chi):
    """The total that extensions.build_extension assembles from (psi, chi),
    as an extension in the coordinates of g (+) V."""
    return AbelianExtension(build_extension(A, rep, psi, chi), A.dim,
                            rep.space_dim)


def section_change(E, phi):
    """E read through the section s + i phi, for a vdim x gdim matrix phi:
    the extension whose total is E's conjugated by zeta = Id + i phi p,
    whose inverse is Id - i phi p.  zeta fixes i and p and sends the
    coordinate section s to s + i phi, so the cocycle this extension
    extracts is the one of the section s + i phi of E."""
    g, v = E.gdim, E.vdim
    ident = identity_matrix(g + v)
    shift = block([[Matrix.zero(g, g + v)], [phi, Matrix.zero(v, v)]])
    return AbelianExtension(conjugate_diff_lie(E.total, ident + shift,
                                               ident - shift),
                            E.gdim, E.vdim)
