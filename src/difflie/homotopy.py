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

"Pointed" means the images of the first positions of the D-blocks increase;
summing instead over plain shuffles of those blocks overcounts each pointed
term exactly (p-1)! times, which ``homotopy_diff_residual_factorial``
exploits as an independent evaluation of the same family.

A differential Lie algebra of weight lambda, suspended into a single degree
with mu_2 the bracket and D_1 the operator, satisfies both families; that
reduction is the bridge to the ungraded residual checks.
"""

from .linalg import basis_vec, div, frac, vec_add, vec_is_zero, vec_scale, \
    vec_sub, vec_zero
from .multilinear import ArityMismatch, GradedSymMap, altmap1_from_matrix
from .nr import family_circ
from .permutations import koszul_sign, shuffles


def _compositions(total, parts):
    """Ordered tuples of `parts` positive integers summing to `total`."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    for first in range(1, total - parts + 2):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


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
        degrees = self.space.degrees
        for key, vec in f.coeffs.items():
            want = sum(degrees[k] for k in key) + deg
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


def linfty_residual(H, n, args):
    """The arity-n bracket-family residual on the given homogeneous args."""
    if len(args) != n:
        raise ArityMismatch("expected %d arguments, got %d" % (n, len(args)))
    degs = [H.space.degree_of_vector(v) for v in args]
    return family_circ(H.mu, H.mu, args, degs, H.space.dim)


def _mu_of_D_terms(H, n, args, degs, pointed):
    """The positive half of the operator family: mu applied to D-outputs.

    With pointed=True the first p-1 block leaders must increase (the
    statement form); with pointed=False every shuffle counts, weighted by
    1/(p-1)! (the expanded form).  Both evaluate the same sum.
    """
    out = vec_zero(H.space.dim)
    lam = H.weight
    for p in range(2, n + 2):
        coeff = lam ** (p - 2)
        if coeff == 0:
            continue
        if not pointed:
            fact = 1
            for k in range(2, p):
                fact *= k
            coeff = div(coeff, fact)
        for t in range(p - 1, n + 1):
            outer = H.mu.get(n - t + p - 1)
            if outer is None:
                continue
            for comp in _compositions(t, p - 1):
                # comp = (m_{p-1}, .., m_1) in block order
                if any(m not in H.D for m in comp):
                    continue
                blocks = comp + (n - t,)
                starts = [0]
                for m in blocks[:-1]:
                    starts.append(starts[-1] + m)
                for sigma in shuffles(blocks):
                    if pointed:
                        leaders = [sigma[starts[b]] for b in range(p - 1)]
                        if any(a > b for a, b in
                               zip(leaders, leaders[1:])):
                            continue
                    eps = koszul_sign(sigma, degs)
                    perm = [args[k - 1] for k in sigma]
                    heads = []
                    pos = 0
                    for m in comp:
                        heads.append(H.D[m].evaluate(perm[pos:pos + m]))
                        pos += m
                    val = outer.evaluate(heads + perm[pos:])
                    if not vec_is_zero(val):
                        out = vec_add(out, vec_scale(eps * coeff, val))
    return out


def homotopy_diff_residual(H, n, args, pointed=True):
    """The arity-n operator-family residual in the pointed-shuffle form;
    pointed=False sums it over plain shuffles with 1/(p-1)! weights."""
    if len(args) != n:
        raise ArityMismatch("expected %d arguments, got %d" % (n, len(args)))
    degs = [H.space.degree_of_vector(v) for v in args]
    return vec_sub(_mu_of_D_terms(H, n, args, degs, pointed),
                   family_circ(H.D, H.mu, args, degs, H.space.dim))


def homotopy_diff_residual_factorial(H, n, args):
    return homotopy_diff_residual(H, n, args, pointed=False)


def residual_tables(H, max_n=None):
    """Per-n residual maps of both families, evaluated on spanning basis
    tuples; returns {n: (bracket GradedSymMap, operator GradedSymMap)}."""
    if max_n is None:
        max_n = H.residual_range()
    out = {}
    dim = H.space.dim
    for n in range(1, max_n + 1):
        jac = GradedSymMap(n, 2, H.space)
        op = GradedSymMap(n, 1, H.space)
        for key in H.space.spanning_tuples(n):
            args = [basis_vec(dim, k) for k in key]
            v1 = linfty_residual(H, n, args)
            if not vec_is_zero(v1):
                jac.coeffs[key] = v1
            v2 = homotopy_diff_residual(H, n, args)
            if not vec_is_zero(v2):
                op.coeffs[key] = v2
        out[n] = (jac, op)
    return out


def suspend_diff_lie(A):
    """A differential Lie algebra, suspended into a single odd degree:
    mu_2 the bracket, D_1 the operator, same weight.  Both residual
    families vanish exactly when the ungraded axioms hold."""
    mu2 = A.algebra.bracket  # already the degree-1 map on the suspension
    return HomotopyDiffLie(mu2.space, {2: mu2}, {1: altmap1_from_matrix(A.d)},
                           A.weight)


def homotopy_mc_check(H, max_n=None):
    """(bool, tables): whether every residual of both families vanishes on a
    spanning set of basis tuples through max_n (default: the full range
    where the arity bounds can produce nonzero terms)."""
    tables = residual_tables(H, max_n)
    ok = all(j.is_zero() and o.is_zero() for j, o in tables.values())
    return ok, tables
