"""The zero-skipping deformation kernels against their dense definitions.

A deformation holds its operators d_l, and a formal isomorphism its terms
phi_c, as arity-1 maps.  ``deformation_residuals`` and ``apply_formal_iso``
go through the weight-graded family sums
``nr.pointed_family`` (at lambda = 0 the summed circle products) and
``nr.operator_family``, which drop the zero terms of every series.  The
oracles below are basis-vector versions, with every bilinear value expanded
over all pairs of basis vectors and every matrix applied by a dense row
sum, so they share no kernel with the code under test; they read the
operators and the isomorphisms as matrices.  Results are compared map for
map, as rationals, and every scalar must keep the int-or-Fraction
contract.  The deformation module itself names no matrix: only its
constructor reads one, the base operator.
"""

import ast
import os
from fractions import Fraction
from itertools import combinations, product

import pytest

from conftest import exact_scalar
from difflie import nr
from difflie.linalg import Matrix, basis_vec, exact, vec_add, vec_is_zero, \
    vec_scale, vec_sub, vec_support, vec_zero
from difflie.multilinear import AltMap, GradedSymMap, GradedVectorSpace, \
    matrix_from_altmap1
from difflie.deformations import (NotDeformation, TruncatedDeformation,
                                  apply_formal_iso, deformation_residuals,
                                  failed_equations, first_nontrivial_order,
                                  rigidify, rigidify_step)
from samples import (constant_deformation, deformation, formal_iso,
                     rand_matrix, random_diff_lie)


# ---------------------------------------------------------------------------
# oracles


def dense_matvec(m, v):
    return [sum((row[j] * v[j] for j in range(m.cols)), Fraction(0))
            for row in m.data]


def bilinear(f, u, v):
    """f(u, v) summed over every pair of basis vectors."""
    out = vec_zero(f.tgt_dim)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out = vec_add(out, vec_scale(x * y, f.value_on_basis((i, j))))
    return out


def matrices(maps):
    return [matrix_from_altmap1(f) for f in maps]


def iso_matrices(phi, dim):
    """The series [Id, phi_1, .., phi_r] of a family {c: phi_c}, r its top
    order, as matrices."""
    return [Matrix.identity(dim)] + [
        matrix_from_altmap1(phi[c]) if c in phi else Matrix.zero(dim, dim)
        for c in range(1, max(phi, default=0) + 1)]


def oracle_residuals(D):
    dim = D.base.dim
    lam = D.base.weight
    d = matrices(D.d)
    out = []
    for n in range(D.order + 1):
        jac = AltMap(3, dim, dim)
        for key in combinations(range(dim), 3):
            vecs = [basis_vec(dim, k) for k in key]
            total = vec_zero(dim)
            for i in range(n + 1):
                mi, mj = D.mu[i], D.mu[n - i]
                for (a, b, c) in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
                    inner = bilinear(mj, vecs[b], vecs[c])
                    total = vec_add(total, bilinear(mi, vecs[a], inner))
            if not vec_is_zero(total):
                jac.coeffs[key] = total
        op = AltMap(2, dim, dim)
        for key in combinations(range(dim), 2):
            x, y = (basis_vec(dim, k) for k in key)
            total = vec_zero(dim)
            for k in range(n + 1):
                dl = d[n - k]
                total = vec_add(total,
                                dense_matvec(dl, bilinear(D.mu[k], x, y)))
                total = vec_sub(total,
                                bilinear(D.mu[k], dense_matvec(dl, x), y))
                total = vec_sub(total,
                                bilinear(D.mu[k], x, dense_matvec(dl, y)))
            if lam != 0:
                for k in range(n + 1):
                    for l in range(n - k + 1):
                        m = n - k - l
                        total = vec_sub(total, vec_scale(lam, bilinear(
                            D.mu[k], dense_matvec(d[l], x),
                            dense_matvec(d[m], y))))
            if not vec_is_zero(total):
                op.coeffs[key] = total
        out.append((jac, op))
    return out


def oracle_inverse_series(phi, order):
    n_dim = phi[0].rows
    psi = [Matrix.identity(n_dim)]
    for n in range(1, order + 1):
        acc = Matrix.zero(n_dim, n_dim)
        for k in range(1, min(n, len(phi) - 1) + 1):
            acc = acc + phi[k] * psi[n - k]
        psi.append(acc.scale(-1))
    return psi


def oracle_iso(D, phi):
    """(mu', d') of the pull-back along the series phi of matrices, d' as
    matrices."""
    N = D.order
    dim = D.base.dim
    d = matrices(D.d)
    psi = oracle_inverse_series(phi, N)

    def phi_at(k):
        return phi[k] if k < len(phi) else None

    mu_new, d_new = [], []
    for n in range(N + 1):
        m = AltMap(2, dim, dim)
        for key in combinations(range(dim), 2):
            x, y = (basis_vec(dim, k) for k in key)
            total = vec_zero(dim)
            for a in range(n + 1):
                for b in range(n - a + 1):
                    for c in range(n - a - b + 1):
                        e = n - a - b - c
                        pc, pe = phi_at(c), phi_at(e)
                        if pc is None or pe is None:
                            continue
                        val = bilinear(D.mu[b], dense_matvec(pc, x),
                                       dense_matvec(pe, y))
                        total = vec_add(total, dense_matvec(psi[a], val))
            if not vec_is_zero(total):
                m.coeffs[key] = total
        mu_new.append(m)
        acc = Matrix.zero(dim, dim)
        for a in range(n + 1):
            for b in range(n - a + 1):
                pc = phi_at(n - a - b)
                if pc is not None:
                    acc = acc + psi[a] * d[b] * pc
        d_new.append(acc)
    return mu_new, d_new


# ---------------------------------------------------------------------------
# fixtures


def exact_only(maps):
    return all(exact_scalar(x)
               for f in maps for vec in f.coeffs.values() for x in vec)


def rand_alt2(rng, dim, density=0.5):
    f = AltMap(2, dim, dim)
    for key in combinations(range(dim), 2):
        if rng.random() < density:
            f[key] = [Fraction(rng.randrange(-3, 4), rng.randrange(1, 3))
                      for _ in range(dim)]
    return f


def dense_matrix(rng, dim):
    """A matrix with no zero entry."""
    return Matrix(dim, dim, [[rng.choice((-2, -1, 1, 2, Fraction(1, 3)))
                              for _ in range(dim)] for _ in range(dim)])


def valid_deformation(rng, A, order):
    phi = [Matrix.identity(A.dim)] + [rand_matrix(rng, A.dim, A.dim)
                                      for _ in range(order)]
    return deformation(A, *oracle_iso(constant_deformation(A, order), phi))


def broken_deformation(rng, A, order):
    """Random terms at some orders and zero terms at others."""
    dim = A.dim
    mu = [A.algebra.bracket]
    d = [A.d]
    for k in range(1, order + 1):
        mu.append(rand_alt2(rng, dim) if k % 2 else AltMap(2, dim, dim))
        d.append(rand_matrix(rng, dim, dim) if k != 2
                 else Matrix.zero(dim, dim))
    return deformation(A, mu, d)


def deformations(rng):
    """(label, D) over lambda = 0 and lambda != 0, valid and broken."""
    out = []
    for lam in (Fraction(0), Fraction(-2, 3), Fraction(3)):
        for _ in range(2):
            A = random_diff_lie(rng, lam=lam, max_dim=4)
            out.append(("valid", valid_deformation(rng, A, 3)))
            out.append(("broken", broken_deformation(rng, A, 3)))
    return out


def assert_residuals_match(D):
    new = deformation_residuals(D)
    old = oracle_residuals(D)
    assert len(new) == len(old) == D.order + 1
    for (jn, on), (jo, oo) in zip(new, old):
        assert jn.coeffs == jo.coeffs
        assert on.coeffs == oo.coeffs
        assert exact_only([jn, on])
    return old


# ---------------------------------------------------------------------------
# tests


def test_residuals_match_oracle(rng):
    seen = set()
    for label, D in deformations(rng):
        old = assert_residuals_match(D)
        lam = D.base.weight != 0
        if label == "valid":
            assert all(j.is_zero() and o.is_zero() for j, o in old)
            seen.add((lam, "valid"))
        if any(not j.is_zero() for j, _ in old):
            seen.add((lam, "jacobi"))
        if any(not o.is_zero() for _, o in old):
            seen.add((lam, "operator"))
    assert seen == {(lam, kind) for lam in (False, True)
                    for kind in ("valid", "jacobi", "operator")}


def iso_series(rng, dim, kind):
    if kind == "dense":
        return [Matrix.identity(dim)] + [dense_matrix(rng, dim)
                                         for _ in range(4)]
    r = kind
    return [Matrix.identity(dim)] + [Matrix.zero(dim, dim)] * (r - 1) + \
        [-rand_matrix(rng, dim, dim)]


@pytest.mark.parametrize("kind", [1, 2, 3, "dense"])
def test_apply_formal_iso_matches_oracle(rng, kind):
    for label, D in deformations(rng):
        phi = iso_series(rng, D.base.dim, kind)
        # truncation orders of D below, at and above the order of Phi
        for order in (1, 3):
            Dt = TruncatedDeformation(D.base, D.mu[:order + 1],
                                      D.d[:order + 1])
            new = apply_formal_iso(Dt, formal_iso(phi[1:]))
            mu_old, d_old = oracle_iso(Dt, phi)
            assert [m.coeffs for m in new.mu] == [m.coeffs for m in mu_old]
            assert matrices(new.d) == d_old
            assert exact_only(new.mu + new.d)


def test_apply_formal_iso_computes_each_product_once(rng, monkeypatch):
    # the insertions of one map into a term of phi are the circle products
    # phi_c o-bar mu'_k, with an arity-2 inner map, and phi_c o-bar d'_k,
    # with an arity-1 inner map; the pull-back computes each once, for each
    # pair of nonzero terms with c >= 1 and c + k <= N
    inner_arities = []
    insertion_sum = nr.insertion_sum
    phis = []

    def counted(f, inners, pointed=False):
        if len(inners) == 1 and any(f == p for p in phis):
            inner_arities.append(inners[0].arity)
        return insertion_sum(f, inners, pointed)

    monkeypatch.setattr(nr, "insertion_sum", counted)
    changed = operator_products = 0
    for lam in (Fraction(0), Fraction(-2, 3), Fraction(3)):
        A = random_diff_lie(rng, lam=lam, max_dim=4)
        for order in (2, 3):
            D = valid_deformation(rng, A, order)
            phi = [Matrix.identity(A.dim), dense_matrix(rng, A.dim)] + \
                [rand_matrix(rng, A.dim, A.dim) for _ in range(order - 1)]
            del inner_arities[:]
            iso = formal_iso(phi[1:])
            phis[:] = iso.values()
            new = apply_formal_iso(D, iso)
            for arity, series in ((2, new.mu), (1, new.d)):
                expected = sum(1 for c in range(1, order + 1)
                               for k in range(order + 1 - c)
                               if not phi[c].is_zero()
                               and not series[k].is_zero())
                assert inner_arities.count(arity) == expected
            operator_products += expected
            changed += new.mu[1] != D.mu[1]
    assert changed >= 4 and operator_products >= 6


def test_rigidify_steps_match_oracle(rng):
    # every intermediate deformation of a rigidify run, with its sparse
    # series Id - phi t^r, goes through both kernels
    for lam in (Fraction(0), Fraction(2)):
        A = random_diff_lie(rng, lam=lam, max_dim=3)
        D = valid_deformation(rng, A, 3)
        steps = 0
        while first_nontrivial_order(D) is not None and steps <= D.order:
            assert_residuals_match(D)
            iso, D2 = rigidify_step(D)
            mu_old, d_old = oracle_iso(D, iso_matrices(iso, A.dim))
            assert [m.coeffs for m in D2.mu] == [m.coeffs for m in mu_old]
            assert matrices(D2.d) == d_old
            D = D2
            steps += 1
        assert first_nontrivial_order(D) is None and steps >= 1


def test_rigidify_checks_once_and_matches_the_step_loop(rng):
    # rigidify checks its input once and clears the orders in one forward
    # pass; the loop of rigidify_step, which checks every intermediate
    # deformation, must find each of them valid and give the same isos
    for lam in (Fraction(0), Fraction(2), Fraction(-1, 2)):
        for _ in range(2):
            A = random_diff_lie(rng, lam=lam, max_dim=3)
            D = valid_deformation(rng, A, 3)
            isos, E = [], D
            while len(isos) < D.order and \
                    first_nontrivial_order(E) is not None:
                assert failed_equations(E) == []
                iso, E = rigidify_step(E)
                isos.append(iso)
            assert failed_equations(E) == [] and isos
            assert rigidify(D) == isos
            with pytest.raises(NotDeformation):
                rigidify(broken_deformation(rng, A, 3))


DEFORMATIONS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                            os.pardir, "src", "difflie", "deformations.py")


def matrix_uses(source):
    """(the names of Matrix and matrix_from_altmap1 that the source reads
    or imports, the enclosing Class.function of each read of
    altmap1_from_matrix, called or passed on)."""
    names, readers = set(), []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            where = where + (node.name,)
        read = [node.id] if isinstance(node, ast.Name) else \
            [node.attr] if isinstance(node, ast.Attribute) else []
        names.update(read + ([a.name for a in node.names]
                             if isinstance(node, ast.ImportFrom) else []))
        if "altmap1_from_matrix" in read:
            readers.append(".".join(where))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), ())
    return names & {"Matrix", "matrix_from_altmap1"}, readers


def test_deformations_name_no_matrix():
    # operators and formal isomorphisms are arity-1 maps from reader to
    # report: the one conversion of the module reads the base operator
    with open(DEFORMATIONS) as fh:
        assert matrix_uses(fh.read()) == (set(),
                                          ["TruncatedDeformation.__init__"])


def test_matrix_uses_are_seen():
    snippet = ("from .linalg import Matrix\n"
               "class T:\n"
               "    def __init__(self, m):\n"
               "        self.d = multilinear.altmap1_from_matrix(m)\n"
               "def _maps(ms):\n"
               "    return dict(enumerate(map(altmap1_from_matrix, ms)))\n"
               "def back(f):\n"
               "    return multilinear.matrix_from_altmap1(f)\n")
    assert matrix_uses(snippet) == ({"Matrix", "matrix_from_altmap1"},
                                    ["T.__init__", "_maps"])


def basis_expansion(f, heads, tail=()):
    supports = [[i for i, x in enumerate(v) if x != 0] for v in heads]
    out = vec_zero(f.tgt_dim)
    for combo in product(*supports):
        c = Fraction(1)
        for v, i in zip(heads, combo):
            c *= v[i]
        out = vec_add(out, vec_scale(c, f.value_on_basis(combo + tail)))
    return out


def test_accumulate_matches_basis_expansion(rng):
    # accumulate on vector heads, which need not be homogeneous, followed by
    # a tail of basis indices (empty when every argument is a head)
    spaces = [GradedVectorSpace([(0, 2), (1, 2)]),
              GradedVectorSpace([(-1, 3)]), GradedVectorSpace([(2, 3)])]
    for space in spaces:
        for arity in (0, 1, 2, 3):
            f = GradedSymMap(arity, 0, space, tgt_dim=2)
            for key in space.spanning_tuples(arity):
                if rng.random() < 0.6:
                    f[key] = [Fraction(rng.randrange(-3, 4),
                                       rng.randrange(1, 3)) for _ in range(2)]
            for _ in range(6):
                k = rng.randrange(arity + 1)
                heads = [[rng.choice((0, 0, 1, -1, Fraction(2, 3)))
                          for _ in range(space.dim)] for _ in range(k)]
                tail = tuple(rng.randrange(space.dim)
                             for _ in range(arity - k))
                new = vec_zero(2)
                f.accumulate(new, 1, [vec_support(v) for v in heads], tail)
                new = exact(new)
                assert new == basis_expansion(f, heads, tail)
                assert all(exact_scalar(x) for x in new)

