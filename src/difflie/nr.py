"""The insertion sum, and with it the Nijenhuis-Richardson circle product
and bracket.

All act on graded symmetric maps of one graded space.  For f of arity n and
inner maps g_1, .., g_r of arities a_1, .., a_r, the insertion sum is the
map of arity a_1 + .. + a_r + n - r and degree |f| + |g_1| + .. + |g_r|

    sum over (a_1, .., a_r, n-r)-shuffles sigma of
    eps(sigma) f(g_1(v_sigma(1), .., v_sigma(a_1)), .., g_r(..),
                 v_sigma(..), .., v_sigma(..)),

eps the Koszul sign; with pointed=True only the shuffles whose inner-block
leaders sigma(1), sigma(a_1 + 1), .. increase are kept.  Every identity of
the package that inserts maps into maps is such a sum: f o-bar g is the
insertion of the one map g, [f, g]_NR = f o-bar g - (-1)^{|f||g|} g o-bar f,
family_circ sums circle products over arities (the generalised Jacobi
identity and both homotopy families), the closed form of the higher derived
brackets inserts several maps, and the operator families of homotopy
differential Lie algebras and of formal deformations insert operators at
pointed shuffles.  The two deformation equations of a series (mu_t, d_t)
are written once, order by order, in jacobi_equation and
operator_equation; every axiom of a differential Lie algebra, its
representations and its relative operators is read off their order-0 part,
each reader computing only the family it reads.

An alternating map on an ungraded space is the graded map on its
suspension, which sits in one odd degree; there eps is the permutation sign
and |f| = arity - 1, so the same functions are the classical product and
bracket on Hom(wedge V, V).  In both pictures [mu,mu]_NR = 0 characterizes
(L-infinity[1]-) algebra structures.
"""

from .linalg import exact, vec_is_zero, vec_support
from .multilinear import GradedSymMap, DimensionMismatch
from .permutations import shuffles, koszul_sign


def insertion_sum(f, inners, pointed=False):
    """The insertion of the maps inners into the first slots of f, summed
    over shuffles (see the module docstring); the zero map of arity
    max(.., 0) when there are more inner maps than slots of f."""
    space = f.space
    r = len(inners)
    if any(g.space != space or g.tgt_dim != space.dim for g in inners) \
            or f.tgt_dim != space.dim:
        raise DimensionMismatch("insertion needs maps on one space")
    blocks = tuple(g.arity for g in inners) + (f.arity - r,)
    if pointed and 0 in blocks[:r]:
        raise ValueError("pointed insertion needs inner maps of arity >= 1")
    arity = sum(blocks)
    out = GradedSymMap(max(arity, 0), f.degree + sum(g.degree for g in inners),
                       space)
    if r > f.arity or f.is_zero() or any(g.is_zero() for g in inners):
        return out
    starts = [sum(blocks[:b]) for b in range(r + 1)]
    shs = [s for s in shuffles(blocks) if not pointed or
           all(s[starts[b]] < s[starts[b + 1]] for b in range(r - 1))]
    # each shuffle as the key positions of its inner blocks and of its tail;
    # a sorted key read at increasing positions is again sorted, so the
    # inner values are stored coefficients, looked up without a sort
    slots = [(tuple(tuple(s[p] - 1 for p in range(starts[b], starts[b + 1]))
                    for b in range(r)),
              tuple(s[p] - 1 for p in range(starts[r], arity)))
             for s in shs]
    supports = [{key: vec_support(vec) for key, vec in g.coeffs.items()}
                for g in inners]
    odd, eps_of = space.odd, {}  # the signs of shs depend on the parities
    for key in space.spanning_tuples(arity):
        parity = tuple([odd[i] for i in key])
        eps = eps_of.get(parity)
        if eps is None:
            eps = eps_of[parity] = [koszul_sign(s, parity) for s in shs]
        total = [0] * space.dim
        for (heads, tail), e in zip(slots, eps):
            args = []
            for g_supp, pos in zip(supports, heads):
                head = g_supp.get(tuple([key[p] for p in pos]))
                if head is None:
                    break
                args.append(head)
            else:
                f.accumulate(total, e, args, tuple([key[p] for p in tail]))
        exact(total)
        if not vec_is_zero(total):
            out.coeffs[key] = total
    return out


def circ_bar(f, g):
    """f o-bar g, f of arity n, g of arity m, as a map of arity m + n - 1
    (arity 0 and zero when f is a constant, which has no slot)."""
    return insertion_sum(f, [g])


def nr_bracket(f, g):
    """[f,g]_NR = f o-bar g - (-1)^{|f||g|} g o-bar f."""
    sign = -1 if (f.degree * g.degree) % 2 else 1
    return circ_bar(f, g) - circ_bar(g, f).scale(sign)


# the graded name of the same operation
graded_circ_bar = circ_bar


def family_circ(outer, inner, n, degree, space):
    """The arity-n map sum_{i=1}^{n} outer_{n-i+1} o-bar inner_i of degree
    `degree` on `space`, for families {arity: map} (a missing arity is
    zero)."""
    out = GradedSymMap(n, degree, space)
    for i in range(1, n + 1):
        f, g = outer.get(n - i + 1), inner.get(i)
        if f is not None and g is not None:
            out = out + circ_bar(f, g)
    return out


def _nonzero(terms):
    return {k: f for k, f in terms.items() if not f.is_zero()}


def jacobi_equation(mu, n):
    """The order-n jacobi-type residual - sum_k mu_k o-bar mu_{n-k} of the
    series mu_t = sum mu_k t^k on one space, given as {order: term} with
    mu[0] present, each mu_k an arity-2 map of degree 1 (a missing term is
    zero).  On an ungraded space its value on (x, y, z) is minus the cyclic
    sum of mu_i(mu_{n-i}(x, y), z); at n = 0 it is the Jacobi identity.
    Only the nonzero terms enter the sum."""
    jac = GradedSymMap(3, 2, mu[0].space)
    mu = _nonzero(mu)
    for k, mk in mu.items():
        if n - k in mu:
            jac = jac + circ_bar(mk, mu[n - k])
    return jac.scale(-1)


def operator_equation(mu, d, n, lam):
    """The order-n operator-type residual of the series mu_t (as in
    jacobi_equation) and d_t = sum d_l t^l, each d_l an arity-1 map of
    degree 0 given as {order: term}:

      sum_{k+l=n} (d_l o-bar mu_k - I(mu_k; d_l))
      - lam sum_{k+l+m=n} I_pointed(mu_k; d_l, d_m),

    I the insertion sum.  On an ungraded space its value on (x, y) is
    sum d_l mu_k(x, y) - mu_k(d_l x, y) - mu_k(x, d_l y) - lam
    sum mu_k(d_l x, d_m y); at n = 0 it is the weighted Leibniz rule.
    Only the nonzero terms enter the sums."""
    op = GradedSymMap(2, 1, mu[0].space)
    mu, d = _nonzero(mu), _nonzero(d)
    for k, mk in mu.items():
        if n - k in d:
            op = op + circ_bar(d[n - k], mk) - insertion_sum(mk, [d[n - k]])
        if lam != 0:
            for l, dl in d.items():
                if n - k - l in d:
                    op = op + insertion_sum(mk, [dl, d[n - k - l]],
                                            pointed=True).scale(-lam)
    return op
