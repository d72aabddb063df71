"""Homotopy differential Lie algebras: a graded space l with a family of
degree-1 graded symmetric brackets mu_i and a family of degree-0 graded
symmetric operators D_i, of a fixed weight lambda.

Two residual families characterise the structure:

  bracket family (n >= 1):
    sum_{i=1}^n sum_{Sh(i,n-i)} eps(sigma)
        mu_{n-i+1}(mu_i(x_{sigma(1..i)}), x_{sigma(i+1..n)}) = 0,
  i.e. (l, mu) is an L-infinity[1]-algebra;

  operator family (n >= 1):
    sum_{p>=2} sum_{t=p-1}^{n} sum_{m_1+..+m_{p-1}=t}
      sum_{sigma in Sh(m_{p-1},..,m_1,n-t), pointed on the first p-1 blocks}
        eps(sigma) lambda^{p-2}
        mu_{n-t+p-1}(D_{m_{p-1}}(block_1), .., D_{m_1}(block_{p-1}), tail)
    - sum_{j=1}^n sum_{Sh(j,n-j)} eps(sigma)
        D_{n-j+1}(mu_j(x_{sigma(1..j)}), x_{sigma(j+1..n)}) = 0.

"Pointed" means the images of the first positions of the D-blocks increase.

Graded by weight arity - 1, mu_i and D_i are the weight-(i-1) terms of two
families, and the arity-n identities are the weight-(n-1) sums of nr:
the bracket family is nr.pointed_family(mu, mu) at lambda = 0 and the
operator family nr.operator_family(mu, D), with lambda^{p-2} the
lambda^{r-1} of r = p-1 inserted operators.  The residual functions on
vectors evaluate those maps, and an empty family is the zero map, whatever
the dimension of the space or the declared arity of a zero map.

A differential Lie algebra of weight lambda, suspended into a single degree
with mu_2 the bracket and D_1 the operator, satisfies both families; that
reduction is the bridge to the ungraded residual checks.

An L-infinity[1]-algebra on a finite-dimensional graded space is the case
with no operators, and only there are Maurer-Cartan elements, twisting and
the lambda-rescalings defined.  Twisting by alpha is a sum of insertions of
the constant map a with value alpha:
mu_n^alpha = sum_i 1/i! nr.insertion_sum(mu_{n+i}, [a] * i), and the
Maurer-Cartan residual is its arity-0 value.
"""

from math import factorial

from . import nr
from .linalg import div, frac, vec_is_zero
from .multilinear import GradedSymMap


class DegreeMismatch(Exception):
    pass


class NotMaurerCartan(Exception):
    pass


class HomotopyDiffLie:
    """Graded space with brackets mu = {i: GradedSymMap of degree 1} and
    operators D = {i: GradedSymMap of degree 0}, of weight lambda."""

    def __init__(self, space, mu, D, weight):
        self.space = space
        self.mu = dict(mu)
        self.D = dict(D)
        self.weight = frac(weight)
        for i, f in self.mu.items():
            self._check_family(f, i, 1, "mu")
        for i, f in self.D.items():
            self._check_family(f, i, 0, "D")

    def _check_family(self, f, i, deg, name):
        if f.arity != i or i < 1:
            raise ValueError("%s_%d has arity %d" % (name, i, f.arity))
        if f.space != self.space or f.degree != deg:
            raise ValueError("%s_%d is not a degree-%d map on the space"
                             % (name, i, deg))
        for key, vec in f.coeffs.items():
            want = sum(self.space.degrees[k] for k in key) + deg
            got = self.space.degree_of_vector(vec)
            if not vec_is_zero(vec) and got != want:
                raise ValueError("%s_%d is not homogeneous of degree %d"
                                 % (name, i, deg))

    def residual_range(self):
        """Largest n at which either family can have a nonzero term: the
        bracket family stops at 2M-1 for M the top arity of a nonzero
        bracket; the operator family at M*K (weighted terms with every
        bracket slot fed by a top-arity operator) resp. M+K-1 when the
        weight is zero, for K the top arity of a nonzero operator."""
        M = max([0] + [i for i, f in self.mu.items() if not f.is_zero()])
        K = max([0] + [i for i, f in self.D.items() if not f.is_zero()])
        bound = max(2 * M - 1, 0)
        if M and K:
            bound = max(bound, M * K if self.weight != 0 else M + K - 1)
        return max(bound, 1)


def bracket_family(H, n):
    """The arity-n bracket-family residual map."""
    mu = nr.arity_weights(H.mu)
    return nr.pointed_family(mu, mu, n - 1, 0, n, 2, H.space)


def operator_family(H, n):
    """The arity-n operator-family residual map."""
    return nr.operator_family(nr.arity_weights(H.mu), nr.arity_weights(H.D),
                              n - 1, H.weight, n, 1, H.space)


def linfty_residual(H, n, args):
    """The arity-n bracket-family residual on the given homogeneous args."""
    return bracket_family(H, n).evaluate(args)


def homotopy_diff_residual(H, n, args):
    """The arity-n operator-family residual on the given homogeneous args."""
    return operator_family(H, n).evaluate(args)


def residual_tables(H, max_n=None):
    """Per-n residual maps of both families; returns {n: (bracket
    GradedSymMap, operator GradedSymMap)}."""
    if max_n is None:
        max_n = H.residual_range()
    return {n: (bracket_family(H, n), operator_family(H, n))
            for n in range(1, max_n + 1)}


def suspend_diff_lie(A):
    """A differential Lie algebra, suspended into a single odd degree:
    mu_2 the bracket, D_1 the operator, same weight.  Both residual
    families vanish exactly when the ungraded axioms hold."""
    mu2 = A.algebra.bracket  # already the degree-1 map on the suspension
    return HomotopyDiffLie(mu2.space, {2: mu2}, {1: A.d}, A.weight)


def homotopy_mc_check(H, max_n=None):
    """(bool, tables): whether every residual of both families vanishes on a
    spanning set of basis tuples through max_n (default: the full range
    where the arity bounds can produce nonzero terms)."""
    tables = residual_tables(H, max_n)
    ok = all(j.is_zero() and o.is_zero() for j, o in tables.values())
    return ok, tables


# ---------------------------------------------------------------------------
# L-infinity[1]-algebras: Maurer-Cartan elements, twisting, rescaling


def _brackets_only(H):
    if H.D:
        raise ValueError("defined for a bracket family; the structure has "
                         "operators")


def _twisted(H, alpha, n):
    """mu_n^alpha = sum_i 1/i! I(mu_{n+i}; a, .., a) with i copies of a,
    the constant map with value alpha: the insertion fills the first i
    slots, mu_{n+i}(alpha, .., alpha, x_1, .., x_n)."""
    a = GradedSymMap(0, 0, H.space)
    a[()] = alpha
    if not vec_is_zero(alpha) and H.space.degree_of_vector(alpha) != 0:
        raise DegreeMismatch("Maurer-Cartan elements must have degree 0")
    out = GradedSymMap(n, 1, H.space)
    for m, f in H.mu.items():
        if m >= n:
            out = out + nr.insertion_sum(f, [a] * (m - n)).scale(
                div(1, factorial(m - n)))
    return out


def mc_residual(H, alpha):
    """sum_n 1/n! mu_n(alpha, .., alpha) for a degree-0 element alpha of
    an L-infinity[1]-algebra H (a structure with no operators)."""
    _brackets_only(H)
    return _twisted(H, alpha, 0).value_on_basis(())


def twist(H, alpha):
    """The twisted structure mu_n^alpha(x..) = sum_i 1/i! mu_{n+i}(alpha^i,
    x..) of an L-infinity[1]-algebra H by a Maurer-Cartan element alpha."""
    if not vec_is_zero(mc_residual(H, alpha)):
        raise NotMaurerCartan("twisting element fails the MC equation")
    mu = {n: _twisted(H, alpha, n) for n in range(1, max(H.mu, default=0) + 1)}
    return HomotopyDiffLie(H.space, {n: f for n, f in mu.items()
                                     if not f.is_zero()}, {}, H.weight)


def lambda_rescale(H, lam, variant="full"):
    """Rescaled L-infinity[1]-algebra: mu'_n = lambda^{n-1} mu_n ("full"),
    or the variant keeping mu_1 and scaling mu_n by lambda^{n-2} for n >= 2
    ("reduced")."""
    if variant not in ("full", "reduced"):
        raise ValueError("unknown variant %r: the variants are 'full' and "
                         "'reduced'" % (variant,))
    _brackets_only(H)
    lam = frac(lam)
    mu = {}
    for n, f in H.mu.items():
        scaled = f.scale(lam ** (n - 1 if variant == "full"
                                 else max(n - 2, 0)))
        if not scaled.is_zero():
            mu[n] = scaled
    return HomotopyDiffLie(H.space, mu, {}, H.weight)
