"""The Nijenhuis-Richardson circle product and bracket.

Both act on graded symmetric maps of one graded space.  For f of arity n
and g of arity m, f o-bar g is the map of arity m + n - 1 and degree
|f| + |g| given by

    sum over (m, n-1)-shuffles sigma of
    eps(sigma) f(g(v_sigma(1), .., v_sigma(m)), v_sigma(m+1), ..),

and [f, g]_NR = f o-bar g - (-1)^{|f||g|} g o-bar f.  An alternating map on
an ungraded space is the graded map on its suspension, which sits in one odd
degree; there eps is the permutation sign and |f| = arity - 1, so the same
two functions are the classical product and bracket on Hom(wedge V, V).  In
both pictures [mu,mu]_NR = 0 characterizes (L-infinity[1]-) algebra
structures.

family_circ evaluates the same sum summed over arities, for bracket and
operator families, on arbitrary homogeneous vectors.
"""

from .linalg import vec_zero, vec_add, vec_scale, vec_is_zero
from .multilinear import GradedSymMap, DimensionMismatch
from .permutations import shuffles, koszul_sign


def circ_bar(f, g):
    """f o-bar g, f of arity n, g of arity m, as a map of arity m + n - 1
    (arity 0 and zero when f is a constant, which has no slot)."""
    space = f.space
    if g.space != space or f.tgt_dim != space.dim or g.tgt_dim != space.dim:
        raise DimensionMismatch("circle product needs maps on one space")
    m = g.arity
    arity = m + f.arity - 1
    out = GradedSymMap(max(arity, 0), f.degree + g.degree, space)
    if f.arity == 0:
        return out
    shs = shuffles((m, f.arity - 1))
    eps_of = {}  # the Koszul signs of shs depend only on the parities
    for key in space.spanning_tuples(arity):
        parity = tuple(space.odd[i] for i in key)
        eps = eps_of.get(parity)
        if eps is None:
            eps = eps_of[parity] = [koszul_sign(s, parity) for s in shs]
        total = vec_zero(space.dim)
        for sigma, e in zip(shs, eps):
            inner = g.value_on_basis(tuple(key[sigma[t] - 1]
                                           for t in range(m)))
            if vec_is_zero(inner):
                continue
            tail = tuple(key[sigma[t] - 1] for t in range(m, arity))
            val = f.evaluate_head([inner], tail)
            if not vec_is_zero(val):
                total = vec_add(total, vec_scale(e, val))
        if not vec_is_zero(total):
            out.coeffs[key] = total
    return out


def nr_bracket(f, g):
    """[f,g]_NR = f o-bar g - (-1)^{|f||g|} g o-bar f."""
    sign = -1 if (f.degree * g.degree) % 2 else 1
    return circ_bar(f, g) - circ_bar(g, f).scale(sign)


# the graded names of the same two operations
graded_circ_bar = circ_bar
graded_nr_bracket = nr_bracket


def family_circ(outer, inner, args, degs, dim):
    """sum_{i=1}^{n} sum_{sigma in Sh(i,n-i)} eps(sigma)
    outer_{n-i+1}(inner_i(x_{sigma(1)}, ..), x_{sigma(i+1)}, ..)

    for families {arity: map} (a missing arity is zero), on n homogeneous
    vectors of the given degrees, in a space of dimension dim."""
    n = len(args)
    out = vec_zero(dim)
    for i in range(1, n + 1):
        f, g = outer.get(n - i + 1), inner.get(i)
        if f is None or g is None:
            continue
        for sigma in shuffles((i, n - i)):
            perm = [args[k - 1] for k in sigma]
            val = g.evaluate(perm[:i])
            if vec_is_zero(val):
                continue
            val = f.evaluate([val] + perm[i:])
            if not vec_is_zero(val):
                out = vec_add(out, vec_scale(koszul_sign(sigma, degs), val))
    return out
