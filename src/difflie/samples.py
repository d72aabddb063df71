"""Seeded random generators of valid (and deliberately broken) fixtures.

Strategy for weighted operators: for weight lambda != 0, d satisfies the
weighted rule iff e = Id + lambda*d is a Lie algebra endomorphism, so we
sample endomorphisms from per-family catalogs and transport back; for
lambda = 0 we solve the linear derivation system exactly and sample its
kernel.  Everything is scrambled by random integer basis changes with
determinant +-1, which preserve validity.
"""

from fractions import Fraction
from itertools import combinations

from .linalg import Matrix, div, frac, invert_matrix, vec_is_zero
from .multilinear import AltMap
from .liealg import (LieAlgebra, DiffLieAlgebra, DiffRepresentation,
                     LieActTriple, adjoint_rep, trivial_rep, rho_lambda,
                     semidirect_bracket)

WEIGHTS = [0, 1, -1, 2, Fraction(1, 2)]


def rand_int(rng, lo=-3, hi=3):
    return rng.randrange(lo, hi + 1)


def rand_vec(rng, n, lo=-3, hi=3):
    return [rand_int(rng, lo, hi) for _ in range(n)]


def rand_matrix(rng, rows, cols, lo=-3, hi=3):
    return Matrix(rows, cols, [[rng.randrange(lo, hi + 1)
                                for _ in range(cols)] for _ in range(rows)])


def rand_unimodular(rng, n, steps=6):
    """Random integer matrix of determinant +-1 (product of elementaries)."""
    m = Matrix.identity(n)
    for _ in range(steps):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        e = Matrix.identity(n)
        e.data[i][j] = rng.randrange(-2, 3)
        m = m * e
    if rng.random() < 0.5 and n > 1:
        i, j = rng.sample(range(n), 2)
        p = Matrix.identity(n)
        p.data[i][i] = p.data[j][j] = 0
        p.data[i][j] = p.data[j][i] = 1
        m = m * p
    return m


# ---------------------------------------------------------------------------
# catalog Lie algebras


def abelian(n):
    return LieAlgebra(n)


def aff1():
    """[x, y] = y."""
    return LieAlgebra(2, AltMap(2, 2, 2, {(0, 1): [0, 1]}))


def heisenberg():
    """[x, y] = z."""
    return LieAlgebra(3, AltMap(2, 3, 3, {(0, 1): [0, 0, 1]}))


def sl2():
    """Basis (h, e, f): [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return LieAlgebra(3, AltMap(2, 3, 3, {
        (0, 1): [0, 2, 0], (0, 2): [0, 0, -2], (1, 2): [1, 0, 0]}))


def direct_sum(a, b):
    n, m = a.dim, b.dim
    return LieAlgebra(n + m, semidirect_bracket(
        n, m, [Matrix.zero(m, m)] * n, a.bracket, h_bracket=b.bracket))


def conjugate_algebra(L, P, Pinv=None):
    """The same bracket in the basis P e_i."""
    if Pinv is None:
        Pinv = invert_matrix(P)
    br = AltMap(2, L.dim, L.dim)
    for i, j in combinations(range(L.dim), 2):
        val = Pinv.matvec(L.br(P.matvec(L.basis(i)), P.matvec(L.basis(j))))
        if not vec_is_zero(val):
            br[(i, j)] = val
    return LieAlgebra(L.dim, br)


# ---------------------------------------------------------------------------
# weighted operators


def derivation_basis(L):
    """Kernel basis of the linear system 'd is a derivation of L'."""
    n = L.dim
    rows = []
    for i, j in combinations(range(n), 2):
        # d[x_i,x_j] - [d x_i, x_j] - [x_i, d x_j] = 0, one row per output coord
        coeff = [[0] * (n * n) for _ in range(n)]
        b_ij = L.bracket.value_on_basis((i, j))
        for a in range(n):
            for b in range(n):
                # entry d[a][b]
                col = a * n + b
                for r in range(n):
                    val = 0
                    if a == r:
                        val += b_ij[b]  # (d[x_i,x_j])_r picks d_{r b} c_b
                    # [d x_i, x_j]: d x_i = sum_a d[a][i] e_a
                    if b == i:
                        val -= L.bracket.value_on_basis((a, j))[r]
                    if b == j:
                        val -= L.bracket.value_on_basis((i, a))[r]
                    coeff[r][col] += val
        rows.extend(coeff)
    m = Matrix.from_rows(rows) if rows else Matrix.zero(0, n * n)
    return [Matrix(n, n, [v[k * n:(k + 1) * n] for k in range(n)])
            for v in m.kernel_basis()]


def _endomorphism_samples(name, L, rng):
    """A few Lie algebra endomorphisms of the catalog algebra."""
    n = L.dim
    out = [Matrix.zero(n, n), Matrix.identity(n)]
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
            e = Matrix.block([[e1, Matrix.zero(2, k)],
                              [Matrix.zero(k, 2), rand_matrix(rng, k, k)]])
            d = (e - Matrix.identity(L.dim)).scale(div(1, lam))
        else:
            e = rng.choice(_endomorphism_samples(name, L, rng))
            d = (e - Matrix.identity(L.dim)).scale(div(1, lam))
    return DiffLieAlgebra(L, d, lam)


def conjugate_diff_lie(A, P, Pinv=None):
    if Pinv is None:
        Pinv = invert_matrix(P)
    return DiffLieAlgebra(conjugate_algebra(A.algebra, P, Pinv),
                          Pinv * A.d * P, A.weight)


def random_diff_lie(rng, lam=None, max_dim=4):
    """A random valid differential Lie algebra, basis-scrambled."""
    if lam is None:
        lam = rng.choice(WEIGHTS)
    A = catalog_diff_lie(rng, lam, max_dim)
    P = rand_unimodular(rng, A.dim)
    return conjugate_diff_lie(A, P)


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
        Q = rand_unimodular(rng, rep.space_dim)
        Qinv = invert_matrix(Q)
        rep = DiffRepresentation(rep.space_dim,
                                 [Qinv * r * Q for r in rep.rho],
                                 Qinv * rep.dV * Q)
    return rep


# ---------------------------------------------------------------------------
# LieAct triples and relative operators


def random_lieact(rng, max_dim=3):
    """A random valid LieAct triple (g, h, rho)."""
    kind = rng.choice(["self_ad", "abelian_h", "zero"])
    A = random_diff_lie(rng, rng.choice(WEIGHTS), max_dim)
    g = A.algebra
    if kind == "self_ad":
        return LieActTriple(g, g, [g.ad(i) for i in range(g.dim)])
    if kind == "abelian_h":
        # h = underlying space of g with zero bracket, rho = ad
        h = abelian(g.dim)
        return LieActTriple(g, h, [g.ad(i) for i in range(g.dim)])
    m = rng.randrange(1, max_dim + 1)
    h = rng.choice([abelian(m), aff1(), heisenberg()])
    return LieActTriple(g, h, [Matrix.zero(h.dim, h.dim)] * g.dim)


def relative_operator_basis(T):
    """For h abelian: kernel basis of the linear relative-operator system."""
    n, m = T.g.dim, T.h.dim
    rows = []
    for i, j in combinations(range(n), 2):
        coeff = [[0] * (m * n) for _ in range(m)]
        b_ij = T.g.bracket.value_on_basis((i, j))
        for a in range(m):
            for b in range(n):
                col = a * n + b
                for r in range(m):
                    val = 0
                    if a == r:
                        val += b_ij[b]
                    if b == j:
                        val -= T.rho[i].data[r][a]
                    if b == i:
                        val += T.rho[j].data[r][a]
                    coeff[r][col] += val
        rows.extend(coeff)
    mat = Matrix.from_rows(rows) if rows else Matrix.zero(0, m * n)
    return [Matrix(m, n, [v[k * n:(k + 1) * n] for k in range(m)])
            for v in mat.kernel_basis()]


def random_relative_operator(rng, T, lam):
    """A valid relative differential operator of weight lam for T, if we can
    produce one cheaply; otherwise the zero operator."""
    lam = frac(lam)
    n, m = T.g.dim, T.h.dim
    if all(vec_is_zero(v) for v in T.h.bracket.coeffs.values()):
        basis = relative_operator_basis(T)
        D = Matrix.zero(m, n)
        for b in basis:
            D = D + b.scale(rand_int(rng, -2, 2))
        return D
    same_ad = (T.h.dim == T.g.dim
               and all(T.rho[i] == T.g.ad(i) for i in range(T.g.dim)))
    if same_ad:
        # any weight-lam operator on g works
        if lam == 0:
            basis = derivation_basis(T.g)
            D = Matrix.zero(n, n)
            for b in basis:
                D = D + b.scale(rand_int(rng, -2, 2))
            return D
        if rng.random() < 0.5:
            return Matrix.identity(n).scale(div(-1, lam))
        return Matrix.zero(n, n)
    return Matrix.zero(m, n)
