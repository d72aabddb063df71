"""The scalar contract: every scalar is an int when its value is integral and
a Fraction otherwise, never a float or a bool.

Three guards hold it:

* the source of the package divides scalars only through ``linalg.div``
  (``/`` on two ints gives a float), raises no scalar to a negative literal
  power, and validates with exceptions, not ``assert``;
* the kernels give the same rationals on int data as on the same data
  forced to ``Fraction`` (the slow route, kept as the oracle), and no float
  appears in either run;
* ``frac``, ``div`` and ``rescale_operator`` keep integral values as ints.
"""

import ast
import os
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from conftest import exact_scalar, filled, kernel_basis
from difflie.deformations import (TruncatedDeformation, apply_formal_iso,
                                  deformation_residuals)
from difflie.liealg import DiffLieAlgebra, LieAlgebra, rescale_operator
from difflie.linalg import Matrix, div, exact, frac, parse_scalar
from difflie.linfty import key_formula_check
from difflie.multilinear import AltMap, GradedSymMap, altmap1_from_matrix

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "difflie")


# ---------------------------------------------------------------------------
# the source


def _source_trees():
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                yield name, ast.parse(fh.read(), name)


def _negative_literal(node):
    return (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
            and isinstance(node.operand, ast.Constant)) or \
        (isinstance(node, ast.Constant) and isinstance(node.value, (int, float))
         and node.value < 0)


def _offences(name, tree):
    """(line, what) of each division, negative literal power and assert
    outside linalg.div."""
    exempt = set()
    if name == "linalg.py":
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node.name == "div":
                exempt.update(id(n) for n in ast.walk(node))
    out = []
    for node in ast.walk(tree):
        if id(node) in exempt:
            continue
        if isinstance(node, (ast.BinOp, ast.AugAssign)):
            if isinstance(node.op, ast.Div):
                out.append((node.lineno, "/"))
            if isinstance(node.op, ast.Pow) and (
                    _negative_literal(node.right if isinstance(node, ast.BinOp)
                                      else node.value)):
                out.append((node.lineno, "** with a negative exponent"))
        if isinstance(node, ast.Assert):
            out.append((node.lineno, "assert"))
    return out


def test_source_divides_only_in_div():
    found = ["%s:%d %s" % ((name,) + o)
             for name, tree in _source_trees() for o in _offences(name, tree)]
    assert not found


def test_offences_are_seen():
    # the scan itself: each offence in a snippet is reported, and the body
    # of linalg.div is exempt only in linalg.py
    snippet = ("def f(a, b):\n    assert b\n    a /= b\n"
               "    return a / b + a ** -1 + a ** (-2)\n"
               "def div(a, b):\n    return a / b\n")
    tree = ast.parse(snippet)
    assert [w for _, w in _offences("linalg.py", tree)].count("/") == 2
    assert len(_offences("linalg.py", tree)) == 5
    assert len(_offences("other.py", tree)) == 6


# ---------------------------------------------------------------------------
# int data against the same data forced to Fraction


def _scalars(obj):
    """Every scalar inside matrices, maps, formal results, lists and
    tuples."""
    if isinstance(obj, Matrix):
        for row in obj.data:
            yield from row
    elif isinstance(obj, GradedSymMap):
        for vec in obj.coeffs.values():
            yield from vec
    elif isinstance(obj, TruncatedDeformation):
        yield from _scalars(obj.mu)
        yield from _scalars(obj.d)
    elif isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _scalars(x)
    elif obj is not None:
        yield obj


def _no_float(*results):
    for result in results:
        for x in _scalars(result):
            assert type(x) in (int, Fraction), x


def _forced_matrix(m):
    out = Matrix(m.rows, m.cols)
    out.data = [[Fraction(x) for x in row] for row in m.data]
    return out


def _forced_map(f):
    out = f._blank()
    out.coeffs = {k: [Fraction(x) for x in v] for k, v in f.coeffs.items()}
    return out


SCALARS = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-3, 3),
                              st.integers(1, 3)))
INTS = st.integers(-3, 3)


def matrices(rows, cols):
    return st.lists(st.lists(INTS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
        lambda data: Matrix(rows, cols, data))


@st.composite
def int_matrices(draw):
    return draw(matrices(draw(st.integers(0, 4)), draw(st.integers(0, 4))))


def alt_maps(arity, dim):
    keys = list(combinations(range(dim), arity))
    return st.lists(st.lists(INTS, min_size=dim, max_size=dim),
                    min_size=len(keys), max_size=len(keys)).map(
        lambda vecs: filled(AltMap(arity, dim, dim), dict(zip(keys, vecs))))


@given(int_matrices(), st.data())
def test_elimination_int_route_matches_fraction_route(m, data):
    f = _forced_matrix(m)
    (R, piv), (Rf, pivf) = m.rref(), f.rref()
    assert piv == pivf and R.data == Rf.data
    assert kernel_basis(m) == kernel_basis(f)
    b = data.draw(st.lists(INTS, min_size=m.rows, max_size=m.rows))
    x = m.solve(b)
    assert x == f.solve([Fraction(y) for y in b])
    _no_float(R, Rf, kernel_basis(m), kernel_basis(f), x)
    assert all(exact_scalar(y) for y in _scalars((R, kernel_basis(m), x)))


@st.composite
def deformations(draw):
    dim = draw(st.integers(2, 3))
    order = draw(st.integers(1, 3))
    lam = draw(SCALARS)
    mu = [draw(alt_maps(2, dim)) for _ in range(order + 1)]
    d = [draw(matrices(dim, dim)) for _ in range(order + 1)]
    A = DiffLieAlgebra(LieAlgebra(dim, mu[0]), d[0], lam)
    return TruncatedDeformation(A, mu, [altmap1_from_matrix(m) for m in d])


def _forced_deformation(D):
    A = DiffLieAlgebra(LieAlgebra(D.base.dim, _forced_map(D.mu[0])),
                       _forced_matrix(D.base.d), 0)
    A.weight = Fraction(D.base.weight)
    return TruncatedDeformation(A, [_forced_map(m) for m in D.mu],
                                [_forced_map(m) for m in D.d])


@given(deformations(), st.data())
def test_deformation_kernels_int_route_matches_fraction_route(D, data):
    F = _forced_deformation(D)
    res, res_f = deformation_residuals(D), deformation_residuals(F)
    assert [(j.coeffs, o.coeffs) for j, o in res] == \
        [(j.coeffs, o.coeffs) for j, o in res_f]
    dim = D.base.dim
    phi = {c: altmap1_from_matrix(data.draw(matrices(dim, dim)))
           for c in range(1, data.draw(st.integers(1, 2)) + 1)}
    new = apply_formal_iso(D, phi)
    new_f = apply_formal_iso(F, {c: _forced_map(p) for c, p in phi.items()})
    assert [m.coeffs for m in new.mu] == [m.coeffs for m in new_f.mu]
    assert [m.coeffs for m in new.d] == [m.coeffs for m in new_f.d]
    _no_float(res, res_f, new, new_f)
    assert all(exact_scalar(x) for x in _scalars((res, new)))


@given(st.integers(2, 3), st.data())
def test_key_formula_int_route_matches_fraction_route(dim, data):
    f = data.draw(alt_maps(data.draw(st.integers(2, 3)), dim))
    xis = [data.draw(alt_maps(data.draw(st.integers(1, 2)), dim))
           for _ in range(data.draw(st.integers(1, f.arity - 1)))]
    out = key_formula_check(f, xis)
    out_f = key_formula_check(_forced_map(f), [_forced_map(x) for x in xis])
    assert out.coeffs == out_f.coeffs
    _no_float(out, out_f)


# ---------------------------------------------------------------------------
# the scalar helpers


def test_frac_and_div_keep_integral_values_ints():
    for x, want in [(3, 3), (Fraction(6, 2), 3), ("4", 4), ("-6/3", -2),
                    (True, 1), (Fraction(1, 2), Fraction(1, 2))]:
        got = frac(x)
        assert got == want and exact_scalar(got)
    for a, b, want in [(6, 3, 2), (1, 2, Fraction(1, 2)),
                       (3, Fraction(3, 2), 2), (-1, 3, Fraction(-1, 3)),
                       (Fraction(1, 2), Fraction(1, 4), 2)]:
        got = div(a, b)
        assert got == want and exact_scalar(got)
    assert parse_scalar("3") == 3 and type(parse_scalar("3")) is int
    v = exact([Fraction(4, 2), 1, Fraction(1, 3)])
    assert v == [2, 1, Fraction(1, 3)] and all(exact_scalar(x) for x in v)


def test_floats_are_refused():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        Matrix(1, 1, [[0.5]])


def test_rescale_operator_on_ints_is_exact():
    # weight / kappa on two ints is the hazard: it must stay a rational
    d = Matrix(1, 1, [[1]])
    for lam, kappa, want in [(1, 2, Fraction(1, 2)), (4, 2, 2), (3, -3, -1),
                             (Fraction(1, 2), 3, Fraction(1, 6))]:
        B = rescale_operator(DiffLieAlgebra(LieAlgebra(1), d, lam), kappa)
        assert B.weight == want and exact_scalar(B.weight)
        assert B.d.data == [[kappa]]
