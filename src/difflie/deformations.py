"""Truncated 1-parameter formal deformations of a differential Lie algebra.

A deformation is a pair of polynomial families mu_t = sum mu_i t^i,
d_t = sum d_i t^i in k[t]/(t^{N+1}) with (mu_0, d_0) the base structure.
The defining equations, collected per order n, are:

  jacobi-type:  sum_{i=0}^n cyclic sum of mu_i(x, mu_{n-i}(y, z)) = 0;
  operator-type: sum_{k+l=n} d_l mu_k(x,y)
                 = sum_{k+l=n} (mu_k(d_l x, y) + mu_k(x, d_l y))
                 + lambda sum_{k+l+m=n} mu_k(d_l x, d_m y).

Graded by order, the suspended series (mu_t, d_t), each d_l an arity-1
map, has the two weight families of nr, and its order-n equations are
minus the weight-n families nr.pointed_family(mu, mu, n, 0) and
nr.operator_family(mu, d); deformation_residuals reads them order by
order.

The order-1 pair of a deformation is a degree-2 cocycle of the combined
complex with adjoint coefficients; clearing it by a formal isomorphism
Id + phi t^r is a linear solve, obstructed exactly by its cohomology class.
A formal isomorphism Phi_t = Id + sum_{c>=1} phi_c t^c is the family
phi = {c: phi_c} of arity-1 maps: phi_0 = Id is implicit and a missing
order is zero, as in every family sum of nr.  Pulling a deformation back
along it (apply_formal_iso) solves Phi f' = f(Phi .., Phi) order by order,
for f = mu and for f = d.  f(Phi .., Phi) is f plus the pointed insertions
of phi's into its slots, the weight-1 pointed family of (f, phi), and
Phi f' is f' plus phi o-bar f'.  Since phi_0 = Id each order is explicit,
so the series Phi^{-1} is never formed and each product phi_c o-bar f'_k
is computed once:

  f'_n = f_n + pointed_family(f, phi, n, 1) - pointed_family(phi, f', n, 0),

f' holding the orders below n.
"""

from .liealg import AxiomFailure, adjoint_rep
from .multilinear import AltMap, DimensionMismatch, altmap1_from_matrix
from .nr import operator_family, pointed_family


class NotDeformation(AxiomFailure):
    def __init__(self, order, which):
        super().__init__("deformation equations fail at order %d (%s)"
                         % (order, which))
        self.order = order
        self.which = which


class Obstructed(Exception):
    """Carries the unsolvable cocycle pair (a nonzero cohomology class)."""

    def __init__(self, pair, order):
        super().__init__("order-%d class is not a coboundary" % order)
        self.pair = pair
        self.order = order


class TruncatedDeformation:
    """mu = [mu_0..mu_N] (arity-2 maps) and d = [d_0..d_N] (arity-1 maps),
    all on the base space."""

    def __init__(self, base, mu, d):
        dim = base.dim
        if len(mu) != len(d) or not mu:
            raise ValueError("mu and d must list the same number of orders")
        if any((m.arity, m.src_dim, m.tgt_dim) != (2, dim, dim) for m in mu):
            raise ValueError("each mu_i must be a bracket on the base space")
        if any((m.arity, m.src_dim, m.tgt_dim) != (1, dim, dim) for m in d):
            raise ValueError("each d_i must be a %d x %d matrix" % (dim, dim))
        if not (mu[0] - base.algebra.bracket).is_zero():
            raise ValueError("order-0 bracket must be the base bracket")
        if not (d[0] - altmap1_from_matrix(base.d)).is_zero():
            raise ValueError("order-0 operator must be the base operator")
        self.base = base
        self.order = len(mu) - 1
        self.mu = list(mu)
        self.d = list(d)


def deformation_residuals(D):
    """Per-order residual pairs [(jacobi: arity-3 map, operator: arity-2
    map)], order 0..N: minus the weight-n families of nr; the deformation
    equations hold iff all are zero."""
    mu, d = dict(enumerate(D.mu)), dict(enumerate(D.d))
    space, lam = D.mu[0].space, D.base.weight
    return [(-pointed_family(mu, mu, n, 0, 3, 2, space),
             -operator_family(mu, d, n, lam, 2, 1, space))
            for n in range(D.order + 1)]


def failed_equations(D):
    """(order, "jacobi" or "operator") of each deformation equation that
    fails, by order, the jacobi-type before the operator-type."""
    return [(n, which) for n, pair in enumerate(deformation_residuals(D))
            for which, res in zip(("jacobi", "operator"), pair)
            if not res.is_zero()]


def _require_equations(D, through):
    """Raise NotDeformation at the first failed equation of order at most
    through."""
    for n, which in failed_equations(D):
        if n <= through:
            raise NotDeformation(n, which)


def infinitesimal(D):
    """The order-1 pair (mu_1, d_1) with its exact degree-2 cocycle
    residual in the adjoint complex; residual is zero for any valid
    deformation."""
    _require_equations(D, 1)
    from .cohomology import CocyclePair, pair_residual
    dim = D.base.dim
    pair = CocyclePair(D.mu[1], D.d[1]) if D.order >= 1 else \
        CocyclePair(AltMap(2, dim, dim), AltMap(1, dim, dim))
    return pair, pair_residual(D.base, adjoint_rep(D.base), pair)


def apply_formal_iso(D, phi):
    """Pull back along Phi_t = Id + sum_c phi_c t^c, phi = {c: phi_c} the
    arity-1 maps of its orders c >= 1: the deformation (mu', d') with
    Phi mu'(x, y) = mu(Phi x, Phi y) and Phi d' = d Phi, truncated at the
    order of D.

    Each series f, as a family {order: map}, goes through the one formula
    of the module docstring.  Raises DimensionMismatch when a phi_c is not
    a map on the base space."""
    dim = D.base.dim
    if any((p.arity, p.src_dim, p.tgt_dim) != (1, dim, dim)
           for p in phi.values()):
        raise DimensionMismatch("each phi_c must be a %d x %d matrix"
                                % (dim, dim))
    pulled = []
    for f in (dict(enumerate(D.mu)), dict(enumerate(D.d))):
        new = {}
        for n, fn in f.items():
            shape = (fn.arity, fn.degree, fn.space)
            new[n] = fn + pointed_family(f, phi, n, 1, *shape) \
                - pointed_family(phi, new, n, 0, *shape)
        pulled.append(list(new.values()))
    return TruncatedDeformation(D.base, *pulled)


def first_nontrivial_order(D):
    for r in range(1, D.order + 1):
        if not D.mu[r].is_zero() or not D.d[r].is_zero():
            return r
    return None


def _clear_order(D, r):
    """({r: -phi}, pulled-back deformation) clearing the order-r pair of D,
    whose lower orders are zero; Obstructed when that pair is not a
    coboundary."""
    from .cohomology import CocyclePair, pair_primitive
    pair = CocyclePair(D.mu[r], D.d[r])
    phi = pair_primitive(D.base, adjoint_rep(D.base), pair)
    if phi is None:
        raise Obstructed(pair, r)
    # pulling back along Id - phi t^r subtracts d~1 phi = pair at order r
    iso = {r: -phi}
    return iso, apply_formal_iso(D, iso)


def rigidify_step(D):
    """Clear the lowest nonzero order by a formal isomorphism Id + phi t^r.

    Returns (iso, transformed deformation), iso the family {r: -phi}, or
    {} when D has no nonzero order; when the order-r pair is not a
    coboundary raises Obstructed with that pair.  Requires the deformation
    equations to hold through the truncation order."""
    _require_equations(D, D.order)
    r = first_nontrivial_order(D)
    if r is None:
        return {}, D
    return _clear_order(D, r)


def rigidify(D):
    """The isos of rigidify_step that clear D, in order, or Obstructed at
    the first order whose pair is not a coboundary.  D is checked once:
    pulling a deformation back along a formal isomorphism keeps it one, and
    a step clears its order and keeps the lower ones zero, so one forward
    pass over the orders clears D."""
    _require_equations(D, D.order)
    isos = []
    for r in range(1, D.order + 1):
        if not D.mu[r].is_zero() or not D.d[r].is_zero():
            iso, D = _clear_order(D, r)
            isos.append(iso)
    return isos
