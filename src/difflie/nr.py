"""The insertion sum, and with it the Nijenhuis-Richardson circle product
and bracket.

All act on graded symmetric maps on one graded space.  The inner maps land
in the space, and the outer map, as a cochain g^n -> V, in any target.  For
f of arity n and inner maps g_1, .., g_r of arities a_1, .., a_r, the
insertion sum is the map, into the target of f, of arity
a_1 + .. + a_r + n - r and degree |f| + |g_1| + .. + |g_r|

    sum over (a_1, .., a_r, n-r)-shuffles sigma of
    eps(sigma) f(g_1(v_sigma(1), .., v_sigma(a_1)), .., g_r(..),
                 v_sigma(..), .., v_sigma(..)),

eps the Koszul sign; with pointed=True only the shuffles whose inner-block
leaders sigma(1), sigma(a_1 + 1), .. increase are kept.  Every identity of
the package that inserts maps into maps is such a sum: f o-bar g is the
insertion of the one map g, [f, g]_NR = f o-bar g - (-1)^{|f||g|} g o-bar f,
and the closed form of the higher derived brackets inserts several maps.
The coboundaries of one cochain are such sums too: delta f is the pointed
insertion of d into f minus d_V f, and d_ce f is [mu, f]_NR on g (+) V.

The L-infinity[1] structure built by higher derived brackets carries both
formal deformations and homotopy differential Lie algebras, so their
identities are the same sums over a weight grading, written once here for
families {weight: map}:

    pointed_family(mu, d, w, lam) = sum lam^{r-1} I_pointed(mu_a; d_{b_1},
        .., d_{b_r})   (a + b_1 + .. + b_r = w),
    operator_family(mu, d, w, lam) = pointed_family(mu, d, w, lam)
        - pointed_family(d, mu, w, 0).

At lam = 0 it is sum_{a+b=w} mu_a o-bar d_b, and the bracket family of mu
is pointed_family(mu, mu, w, 0).

A series (mu_t, d_t) is graded by its order: its order-n deformation
equations are minus the weight-n families, the pull-back f' of either
series f = mu, d along a formal isomorphism Id + sum phi_c t^c is read off
order by order as
f'_n = f_n + pointed_family(f, phi, n, 1) - pointed_family(phi, f', n, 0),
and every axiom of a differential Lie algebra, its representations and its
relative operators is read off the weight-0 part.  A homotopy structure
(mu_i, D_i) and an L-infinity[1] bracket family are graded by arity - 1
(arity_weights): the bracket family at weight n - 1 is the generalised
Jacobi identity of arity n, and the operator family the arity-n operator
identity.

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
    if any(g.space != space or g.tgt_dim != space.dim for g in inners):
        raise DimensionMismatch("insertion needs inner maps into the space")
    blocks = tuple(g.arity for g in inners) + (f.arity - r,)
    if pointed and 0 in blocks[:r]:
        raise ValueError("pointed insertion needs inner maps of arity >= 1")
    arity = sum(blocks)
    out = GradedSymMap(max(arity, 0), f.degree + sum(g.degree for g in inners),
                       space, tgt_dim=f.tgt_dim)
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
        total = [0] * f.tgt_dim
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


def arity_weights(family):
    """An L-infinity[1] family {arity: map} graded by weight arity - 1."""
    return {i - 1: f for i, f in family.items()}


def _target(outer, space):
    """The target of an outer family as given; the space for no maps."""
    return next((f.tgt_dim for f in outer.values()), space.dim)


def _splits(weights, total, r):
    """The r-tuples of the weights (each >= 0) that sum to total."""
    if r == 0:
        if total == 0:
            yield ()
        return
    for b in weights:
        if b <= total:
            for rest in _splits(weights, total - b, r - 1):
                yield (b,) + rest


def pointed_family(mu, d, w, lam, arity, degree, space):
    """The weight-w pointed insertion sum of a bracket family mu and an
    operator family d, both {weight: map}, of the given arity and degree on
    `space`:

      sum lam^{r-1} I_pointed(mu_a; d_{b_1}, .., d_{b_r}),

    over 1 <= r <= arity(mu_a) and a + b_1 + .. + b_r = w, I the insertion
    sum, into the target of the maps mu.  Zero terms and terms of weight
    > w are skipped, so the sum never looks at the declared arity of a zero
    map.  At lam = 0 only r = 1 survives, and a pointed insertion of one
    map is its circle product: the sum is sum_{a+b=w} mu_a o-bar d_b."""
    out = GradedSymMap(arity, degree, space, tgt_dim=_target(mu, space))
    mu = {a: f for a, f in mu.items() if a <= w and not f.is_zero()}
    d = {b: g for b, g in d.items() if b <= w and not g.is_zero()}
    for a, f in mu.items():
        for r in range(1, (f.arity if lam != 0 else 1) + 1):
            c = lam ** (r - 1)
            for bs in _splits(d, w - a, r):
                term = insertion_sum(f, [d[b] for b in bs], pointed=True)
                out = out + (term if c == 1 else term.scale(c))
    return out


def operator_family(mu, d, w, lam, arity, degree, space):
    """The weight-w operator family of a bracket family mu and an operator
    family d, both {weight: map}, of the given arity and degree on `space`:
    pointed_family(mu, d, w, lam) - pointed_family(d, mu, w, 0)."""
    return pointed_family(mu, d, w, lam, arity, degree, space) - \
        pointed_family(d, mu, w, 0, arity, degree, space)
