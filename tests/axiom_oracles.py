"""The axiom residuals written out on basis vectors, as test oracles.

``difflie.liealg`` reads every axiom residual off the weight-0 families of
one differential Lie algebra (``nr.family_circ`` and
``nr.operator_family``), whose negatives are its order-0 deformation
equations.
These are the direct formulas it replaced: each bracket and operator is
applied to basis vectors one term at a time, so they share no code with the
insertion kernel.  They return the same shapes as the liealg readers.
"""

from itertools import combinations

from difflie.linalg import frac, mat_combination, vec_add, vec_scale, vec_sub


def jacobi_oracle(L):
    """[[x_i,x_j],x_k] + [[x_j,x_k],x_i] + [[x_k,x_i],x_j] over all triples."""
    out = []
    for i, j, k in combinations(range(L.dim), 3):
        xi, xj, xk = L.basis(i), L.basis(j), L.basis(k)
        r = L.br(L.br(xi, xj), xk)
        r = vec_add(r, L.br(L.br(xj, xk), xi))
        r = vec_add(r, L.br(L.br(xk, xi), xj))
        out.append(r)
    return out


def derivation_oracle(A):
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


def hom_oracle(rho, L):
    """rho([x,y]) - rho(x)rho(y) + rho(y)rho(x) over basis pairs of L."""
    size = rho[0].rows if rho else 0
    return [mat_combination(L.br(L.basis(i), L.basis(j)), rho, size)
            - rho[i] * rho[j] + rho[j] * rho[i]
            for i, j in combinations(range(L.dim), 2)]


def rep_oracle(A, rep):
    """{"hom": [...], "compat": [...]} as liealg.rep_residuals;
    compat: d_V rho(x) - rho(dx) - rho(x) d_V - lambda rho(dx) d_V."""
    lam = A.weight
    compat = []
    for i in range(A.dim):
        rdx = rep.rho_vec(A.dv(A.basis(i)))
        r = rep.dV * rep.rho[i] - rdx - rep.rho[i] * rep.dV \
            - (rdx * rep.dV).scale(lam)
        compat.append(r)
    return {"hom": hom_oracle(rep.rho, A), "compat": compat}


def lieact_oracle(T):
    """{"hom": [...], "derivation": [...]} as liealg.lieact_residuals;
    derivation: rho(x)[u,v]_h - [rho(x)u, v]_h - [u, rho(x)v]_h."""
    der = []
    for i in range(T.g.dim):
        for a, b in combinations(range(T.h.dim), 2):
            u, v = T.h.basis(a), T.h.basis(b)
            r = T.rho[i].matvec(T.h.br(u, v))
            r = vec_sub(r, T.h.br(T.rho[i].matvec(u), v))
            r = vec_sub(r, T.h.br(u, T.rho[i].matvec(v)))
            der.append(r)
    return {"hom": hom_oracle(T.rho, T.g), "derivation": der}


def relative_oracle(T, D, lam):
    """D[x,y]_g - rho(x)Dy + rho(y)Dx - lambda [Dx,Dy]_h over g-pairs."""
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
