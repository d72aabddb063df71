"""The axiom residuals written out on basis vectors, as test oracles.

``difflie.liealg`` reads every axiom residual off the weight-0 families of
one differential Lie algebra (``nr.pointed_family`` at lambda = 0 and
``nr.operator_family``), whose negatives are its order-0 deformation
equations.
These are the direct formulas it replaced: each bracket and operator is
applied to basis vectors one term at a time, so they share no code with the
insertion kernel.  They read the operators and actions as matrices and
return the shapes of the liealg readers, with a matrix where a reader
returns an arity-1 map.
"""

from itertools import combinations

from difflie.linalg import (Matrix, basis_vec, frac, vec_add, vec_scale,
                            vec_sub)
from samples import matrix_from_altmap1, rho_matrices


def mat_combination(coeffs, mats, n):
    """sum_i coeffs[i] * mats[i] as an n x n matrix, over the nonzero
    coefficients."""
    out = Matrix.zero(n, n)
    for c, m in zip(coeffs, mats):
        if c != 0:
            out = out + m.scale(c)
    return out


def jacobi_oracle(L):
    """[[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j] over all triples."""
    out = []
    for i, j, k in combinations(range(L.dim), 3):
        xi, xj, xk = (basis_vec(L.dim, t) for t in (i, j, k))
        br = L.bracket.evaluate
        r = br([br([xi, xj]), xk])
        r = vec_add(r, br([br([xj, xk]), xi]))
        r = vec_add(r, br([br([xk, xi]), xj]))
        out.append(r)
    return out


def derivation_oracle(A):
    """d[x,y] - [dx,y] - [x,dy] - lambda [dx,dy] over basis pairs i < j."""
    L, d, lam = A.algebra, matrix_from_altmap1(A.d), A.weight
    out = []
    for i, j in combinations(range(A.dim), 2):
        x, y = basis_vec(A.dim, i), basis_vec(A.dim, j)
        dx, dy = d.matvec(x), d.matvec(y)
        r = d.matvec(L.bracket.evaluate([x, y]))
        r = vec_sub(r, L.bracket.evaluate([dx, y]))
        r = vec_sub(r, L.bracket.evaluate([x, dy]))
        r = vec_sub(r, vec_scale(lam, L.bracket.evaluate([dx, dy])))
        out.append(r)
    return out


def hom_oracle(rho, L):
    """rho([x,y]) - rho(x)rho(y) + rho(y)rho(x) over basis pairs of L."""
    size = rho[0].rows if rho else 0
    return [mat_combination(L.bracket.evaluate([basis_vec(L.dim, i),
                                                basis_vec(L.dim, j)]),
                            rho, size)
            - rho[i] * rho[j] + rho[j] * rho[i]
            for i, j in combinations(range(L.dim), 2)]


def rep_oracle(A, rep):
    """{"hom": [...], "compat": [...]} as liealg.rep_residuals, as
    matrices;
    compat: d_V rho(x) - rho(dx) - rho(x) d_V - lambda rho(dx) d_V."""
    lam = A.weight
    rho, dV = rho_matrices(rep.rho, A.dim), matrix_from_altmap1(rep.dV)
    d = matrix_from_altmap1(A.d)
    compat = []
    for i in range(A.dim):
        rdx = mat_combination(d.matvec(basis_vec(A.dim, i)), rho,
                              rep.space_dim)
        r = dV * rho[i] - rdx - rho[i] * dV - (rdx * dV).scale(lam)
        compat.append(r)
    return {"hom": hom_oracle(rho, A.algebra), "compat": compat}


def is_diff_representation(A, rep):
    """Whether rep is a differential representation of A: every residual
    of rep_oracle vanishes.  The package checks this inside
    extensions.check_coefficients, through the trivial extension."""
    res = rep_oracle(A, rep)
    return all(m.is_zero() for m in res["hom"] + res["compat"])


def lieact_oracle(T):
    """{"hom": [...], "derivation": [...]} as liealg.lieact_residuals;
    derivation: rho(x)[u,v]_h - [rho(x)u, v]_h - [u, rho(x)v]_h."""
    rho = rho_matrices(T.rho, T.g.dim)
    der = []
    for i in range(T.g.dim):
        for a, b in combinations(range(T.h.dim), 2):
            u, v = basis_vec(T.h.dim, a), basis_vec(T.h.dim, b)
            r = rho[i].matvec(T.h.bracket.evaluate([u, v]))
            r = vec_sub(r, T.h.bracket.evaluate([rho[i].matvec(u), v]))
            r = vec_sub(r, T.h.bracket.evaluate([u, rho[i].matvec(v)]))
            der.append(r)
    return {"hom": hom_oracle(rho, T.g), "derivation": der}


def relative_oracle(T, D, lam):
    """D[x,y]_g - rho(x)Dy + rho(y)Dx - lambda [Dx,Dy]_h over g-pairs."""
    lam = frac(lam)
    D, rho = matrix_from_altmap1(D), rho_matrices(T.rho, T.g.dim)
    out = []
    for i, j in combinations(range(T.g.dim), 2):
        x, y = basis_vec(T.g.dim, i), basis_vec(T.g.dim, j)
        Dx, Dy = D.matvec(x), D.matvec(y)
        r = D.matvec(T.g.bracket.evaluate([x, y]))
        r = vec_sub(r, mat_combination(x, rho, T.h.dim).matvec(Dy))
        r = vec_add(r, mat_combination(y, rho, T.h.dim).matvec(Dx))
        r = vec_sub(r, vec_scale(lam, T.h.bracket.evaluate([Dx, Dy])))
        out.append(r)
    return out
