from fractions import Fraction
from math import lcm
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import exact_scalar, kernel_basis
from difflie.linalg import (CompositionNonzero, Matrix, _integer_echelon,
                            _integer_row, fmt_scalar, homology_dim,
                            parse_scalar)
from samples import from_rows, identity_matrix, invert_matrix


def test_rank_zero_matrix():
    assert Matrix.zero(3, 3).rank() == 0


def test_rank_identity():
    assert identity_matrix(4).rank() == 4


def test_rank_dependent_rows():
    assert from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity_empty():
    assert kernel_basis(identity_matrix(3)) == []


def test_kernel_zero_map():
    assert len(kernel_basis(Matrix.zero(2, 3))) == 3


def test_kernel_line():
    (v,) = kernel_basis(from_rows([[1, 1]]))
    assert v in ([Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)])


def test_homology_trivial_complex():
    n = 3
    assert homology_dim(Matrix.zero(n, n), Matrix.zero(n, n)) == n


def test_homology_acyclic():
    assert homology_dim(identity_matrix(3), Matrix.zero(3, 3)) == 0


def test_homology_mixed():
    d_out = from_rows([[0, 0]])
    d_in = from_rows([[1], [0]])
    assert homology_dim(d_out, d_in) == 1


def test_homology_not_a_complex():
    with pytest.raises(CompositionNonzero):
        homology_dim(identity_matrix(2), identity_matrix(2))


def test_solve_identity():
    b = [Fraction(5), Fraction(-7)]
    assert identity_matrix(2).solve(b) == b


def test_solve_inconsistent():
    assert Matrix.zero(2, 2).solve([Fraction(1), Fraction(0)]) is None


def test_solve_diagonal():
    m = from_rows([[2, 0], [0, 3]])
    assert m.solve([4, 6]) == [Fraction(2), Fraction(2)]


def test_rank_nullity(rng):
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Matrix(rows, cols, [[rng.randrange(-3, 4) for _ in range(cols)]
                                for _ in range(rows)])
        assert m.rank() + len(kernel_basis(m)) == cols
        for v in kernel_basis(m):
            assert all(x == 0 for x in m.matvec(v))


def test_solve_exact(rng):
    for _ in range(20):
        n = rng.randrange(1, 5)
        m = Matrix(n, n, [[rng.randrange(-3, 4) for _ in range(n)]
                          for _ in range(n)])
        x = [Fraction(rng.randrange(-3, 4)) for _ in range(n)]
        b = m.matvec(x)
        sol = m.solve(b)
        assert sol is not None
        assert m.matvec(sol) == b


def test_scalar_roundtrip():
    for s in ["3", "-7", "5/9", "-1/2"]:
        assert fmt_scalar(parse_scalar(s)) == s
    assert fmt_scalar(Fraction(4, 2)) == "2"


def dense_product(a, b):
    """The triple-loop product over every entry: the oracle of the sparse
    one."""
    return [[sum((a.data[i][k] * b.data[k][j] for k in range(a.cols)),
                 Fraction(0))
             for j in range(b.cols)] for i in range(a.rows)]


def test_product_matches_dense_oracle(rng):
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (0, 0, 0), (1, 1, 1)]
    shapes += [(rng.randrange(1, 6), rng.randrange(1, 6), rng.randrange(1, 6))
               for _ in range(30)]
    for r, k, c in shapes:
        # mostly zero, with rational entries, so rows and columns of the
        # right factor are often entirely zero
        def entry():
            if rng.random() < 0.6:
                return 0
            return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
        a = Matrix(r, k, [[entry() for _ in range(k)] for _ in range(r)])
        b = Matrix(k, c, [[entry() for _ in range(c)] for _ in range(k)])
        p = a * b
        assert (p.rows, p.cols) == (r, c)
        assert p.data == dense_product(a, b)
        assert all(exact_scalar(x) for row in p.data for x in row)


def textbook_rref(rows, cols, data):
    """Gauss-Jordan over whole rows: first nonzero pivot at or below the
    current row, normalised, then every other row cleared.  The oracle of
    the sparse row updates."""
    R = [list(map(Fraction, row)) for row in data]
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = next((i for i in range(r, rows) if R[i][c] != 0), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        R[r] = [x / R[r][c] for x in R[r]]
        for i in range(rows):
            if i != r:
                R[i] = [x - R[i][c] * y for x, y in zip(R[i], R[r])]
        pivots.append(c)
        r += 1
    return R, pivots


def oracle_kernel(rows, cols, data):
    R, pivots = textbook_rref(rows, cols, data)
    basis = []
    for fc in (c for c in range(cols) if c not in pivots):
        v = [Fraction(0)] * cols
        v[fc] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -R[r][fc]
        basis.append(v)
    return basis


def oracle_solve(m, b):
    R, pivots = textbook_rref(m.rows, m.cols + 1,
                              [row + [x] for row, x in zip(m.data, b)])
    if m.cols in pivots:
        return None
    x = [Fraction(0)] * m.cols
    for r, pc in enumerate(pivots):
        x[pc] = R[r][m.cols]
    return x


def oracle_inverse(m):
    n = m.rows
    R, pivots = textbook_rref(n, 2 * n, [row + [Fraction(int(i == j))
                                                for j in range(n)]
                                         for i, row in enumerate(m.data)])
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def sparse_matrix(rng, r, c):
    def entry():
        if rng.random() < 0.65:
            return 0
        return Fraction(rng.randrange(-5, 6), rng.randrange(1, 4))
    return Matrix(r, c, [[entry() for _ in range(c)] for _ in range(r)])


def test_elimination_matches_dense_oracle(rng):
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(60)]
    # square, mostly zero and mostly invertible
    squares = [identity_matrix(n) + sparse_matrix(rng, n, n)
               for n in (rng.randrange(1, 6) for _ in range(10))]
    inconsistent = inverted = 0
    for m in [sparse_matrix(rng, r, c) for r, c in shapes] + squares:
        r, c = m.rows, m.cols
        R, pivots = m.rref()
        assert (R.data, pivots) == textbook_rref(r, c, m.data)
        assert m.rank() == len(pivots)
        assert kernel_basis(m) == oracle_kernel(r, c, m.data)
        for b in ([Fraction(rng.randrange(-3, 4)) for _ in range(r)],
                  m.matvec([Fraction(rng.randrange(-3, 4))
                            for _ in range(c)])):
            x = m.solve(b)
            assert x == oracle_solve(m, b)
            if x is None:
                inconsistent += 1
            else:
                assert m.matvec(x) == b
        if r == c:
            inv, expected = invert_matrix(m), oracle_inverse(m)
            assert (inv is None) == (expected is None)
            if inv is not None:
                assert inv.data == expected
                assert m * inv == identity_matrix(r)
                inverted += 1
    assert inconsistent and inverted


def test_matvec_matches_dense_oracle(rng):
    for r, c in [(0, 3), (3, 0), (2, 2)] + [(rng.randrange(1, 6),
                                              rng.randrange(1, 6))
                                             for _ in range(20)]:
        m = sparse_matrix(rng, r, c)
        v = sparse_matrix(rng, 1, c).data[0] if c else []
        out = m.matvec(v)
        assert out == [sum((row[j] * v[j] for j in range(c)), Fraction(0))
                       for row in m.data]
        assert all(exact_scalar(x) for x in out)


# ---------------------------------------------------------------------------
# the integer-row elimination against the textbook oracles

# 4 and 6 have lcm 12, larger than either, so a row holding 1/4 and 1/6 is
# scaled by a number that is none of its denominators
DENOMINATORS = (1, 2, 3, 4, 6)
scalars = st.one_of(
    st.just(0), st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from(DENOMINATORS)),
    # integral values typed Fraction, which the constructor makes ints
    st.integers(-4, 4).map(Fraction))


@st.composite
def shaped(draw, square=False):
    """(rows, cols, data): 0..5 rows and columns (0 x n and n x 0 among
    them), with one row and one column often set to zero."""
    r = draw(st.integers(0, 5))
    c = r if square else draw(st.integers(0, 5))
    data = [[draw(scalars) for _ in range(c)] for _ in range(r)]
    if r and draw(st.booleans()):
        data[draw(st.integers(0, r - 1))] = [0] * c
    if c and draw(st.booleans()):
        j = draw(st.integers(0, c - 1))
        for row in data:
            row[j] = 0
    return r, c, data


# the cases of the elimination that random draws may miss
LCM_ROWS = (2, 3, [[Fraction(1, 4), Fraction(1, 6), 1],
                   [Fraction(1, 6), Fraction(-1, 4), Fraction(5, 6)]])
NEGATIVE_PIVOTS = (3, 3, [[-2, 4, 1], [-3, 1, 0], [5, -7, -2]])
# pivot 2 against 3 and 5: the rows become 2*row - f*pivot_row (f = 3, 5),
# [0, -7, -7], whose content 7 is then divided out
CONTENT = (3, 3, [[2, 3, 5], [3, 1, 4], [5, 4, 9]])
ZERO_ROWS_COLUMNS = (3, 3, [[0, 0, 0], [0, 2, 1], [0, 0, 0]])
FRACTION_INTS = (2, 2, [[Fraction(2), Fraction(-4)],
                        [Fraction(3), Fraction(1)]])
CASES = [LCM_ROWS, NEGATIVE_PIVOTS, CONTENT, ZERO_ROWS_COLUMNS,
         FRACTION_INTS, (0, 3, []), (3, 0, [[], [], []]), (0, 0, [])]


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=100)
@with_examples(CASES)
@given(shaped())
def test_rref_rank_kernel_match_textbook_oracle(case):
    r, c, data = case
    m = Matrix(r, c, data)
    R, pivots = m.rref()
    assert (R.data, pivots) == textbook_rref(r, c, data)
    assert all(exact_scalar(x) for row in R.data for x in row)
    assert m.rank() == len(pivots)
    kernel = kernel_basis(m)
    assert kernel == oracle_kernel(r, c, data)
    assert all(exact_scalar(x) for v in kernel for x in v)


@st.composite
def systems(draw):
    """(rows, cols, data, b): a shaped matrix and a right-hand side."""
    r, c, data = draw(shaped())
    return r, c, data, draw(st.lists(scalars, min_size=r, max_size=r))


@settings(max_examples=100)
@with_examples([case + ([Fraction(1)] * case[0],) for case in CASES])
@given(systems())
def test_solve_matches_textbook_oracle(system):
    r, c, data, b = system
    m = Matrix(r, c, data)
    x = m.solve(b)
    assert x == oracle_solve(m, b)
    if x is not None:
        assert all(exact_scalar(v) for v in x)
        assert m.matvec(x) == b


@settings(max_examples=100)
@with_examples([NEGATIVE_PIVOTS, CONTENT, ZERO_ROWS_COLUMNS, FRACTION_INTS,
                (0, 0, [])])
@given(shaped(square=True))
def test_invert_matches_textbook_oracle(case):
    n, _, data = case
    m = Matrix(n, n, data)
    inv, expected = invert_matrix(m), oracle_inverse(m)
    assert (inv is None) == (expected is None)
    if inv is not None:
        assert inv.data == expected
        assert all(exact_scalar(x) for row in inv.data for x in row)
        assert m * inv == identity_matrix(n)


@settings(max_examples=100)
@with_examples(CASES)
@given(shaped())
def test_integer_echelon_keeps_integer_rows_with_positive_pivots(case):
    r, c, data = case
    rows = Matrix(r, c, data).data
    R = [_integer_row(row) for row in rows]
    for row, scaled in zip(rows, R):
        den = lcm(*[Fraction(x).denominator for x in row])
        assert scaled == [int(x * den) for x in row]
    pivots = _integer_echelon(R, c)
    expected, oracle_pivots = textbook_rref(r, c, data)
    assert pivots == oracle_pivots
    assert all(type(x) is int for row in R for x in row)
    for i, row in enumerate(R):
        if i >= len(pivots):
            assert not any(row)
            continue
        assert row[pivots[i]] > 0
        assert all(row[pc] == 0 for k, pc in enumerate(pivots) if k != i)
        assert [Fraction(x, row[pivots[i]]) for x in row] == expected[i]


def rank_mod(rows, p):
    """The rank of an integer matrix over the integers modulo the prime p:
    at most its rank over the rationals."""
    rows = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(rows[0]) if rows else 0):
        k = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[rank], rows[k] = rows[k], rows[rank]
        inv = pow(rows[rank][c], -1, p)
        for i in range(rank + 1, len(rows)):
            f = rows[i][c] * inv % p
            if f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i],
                                                         rows[rank])]
        rank += 1
    return rank


def test_scrambled_rational_differential_is_certified():
    """rref of the combined d_2 of sl2 (+) aff1 with adjoint coefficients
    and a rational operator, in a scrambled basis, is certified without the
    (slow) textbook oracle: R is in reduced row echelon form, every row of
    d is the combination of the rows of R read at the pivot columns, and
    the rank of d modulo a prime, a lower bound for its rank, is the number
    of pivots; so the rows of d and of R span one space, and R is its one
    reduced row echelon form."""
    from difflie.cohomology import difflie_differential
    from difflie.liealg import adjoint_rep, is_diff_lie_algebra
    from samples import (aff1, conjugate_algebra, diff_lie, direct_sum,
                         rand_unimodular, sl2)
    # d = (E - Id) / lam for the endomorphism E projecting onto sl2
    lam = Fraction(3, 2)
    P = rand_unimodular(Random(2), 5, steps=20)
    E = Matrix(5, 5, [[int(i == j < 3) for j in range(5)] for i in range(5)])
    d = invert_matrix(P) * (E - identity_matrix(5)).scale(1 / lam) * P
    A = diff_lie(conjugate_algebra(direct_sum(sl2(), aff1()), P), d, lam)
    assert is_diff_lie_algebra(A)
    m = difflie_differential(A, adjoint_rep(A), 2)
    assert (m.rows, m.cols) == (100, 75)
    assert any(type(x) is Fraction for row in m.data for x in row)
    R, pivots = m.rref()
    for r, row in enumerate(R.data):
        if r >= len(pivots):
            assert not any(row)
            continue
        assert pivots[r] > (pivots[r - 1] if r else -1)
        assert row[pivots[r]] == 1 and not any(row[:pivots[r]])
        assert all(R.data[k][pivots[r]] == 0
                   for k in range(len(pivots)) if k != r)
    for row in m.data:
        combo = [0] * m.cols
        for r, pc in enumerate(pivots):
            if row[pc]:
                for j, y in enumerate(R.data[r]):
                    if y:
                        combo[j] += row[pc] * y
        assert combo == row
    assert rank_mod([_integer_row(row) for row in m.data],
                    2 ** 61 - 1) == len(pivots) == m.rank()
    kernel = kernel_basis(m)
    assert len(kernel) == m.cols - len(pivots)
    assert all(not any(m.matvec(v)) for v in kernel)
    x = [Fraction(i % 5 - 2, i % 3 + 1) for i in range(m.cols)]
    b = m.matvec(x)
    assert m.matvec(m.solve(b)) == b


# each call has mismatched shapes (or an argument count that is not the
# arity, a term kind that does not exist) and must raise ValueError, also
# under -O
SHAPE_ERRORS = {
    "add": "Matrix.zero(2, 3) + Matrix.zero(3, 2)",
    "sub": "Matrix.zero(2, 3) - Matrix.zero(2, 2)",
    "mul": "Matrix.zero(2, 3) * Matrix.zero(2, 3)",
    "matvec": "Matrix.zero(2, 3).matvec([1, 2])",
    "solve": "Matrix.zero(2, 3).solve([1, 2, 3])",
    "homology_dim": "homology_dim(Matrix.zero(2, 3), Matrix.zero(2, 2))",
    "map_add": "AltMap(2, 2, 2) + AltMap(1, 2, 2)",
    "pullback": "pullback(AltMap(2, 3, 3), AltMap(1, 2, 2))",
    "pullback_out": "pullback(AltMap(2, 3, 3), AltMap(1, 2, 3), "
                    "AltMap(1, 2, 2))",
    "linfty_arity": "HomotopyDiffLie(suspend_space(2), {2: AltMap(1, 2, 2)}, "
                    "{}, 0)",
    "term_kind": "Term('x', AltMap(1, 2, 2))",
    "bracket_args": "linfty_residual(H, 2, [[1, 0]])",
    "operator_args": "homotopy_diff_residual(H, 1, [[1, 0], [0, 1]])",
}
SHAPE_IMPORTS = ("from difflie.linalg import Matrix, homology_dim\n"
                 "from difflie.homotopy import HomotopyDiffLie, "
                 "homotopy_diff_residual, linfty_residual\n"
                 "from difflie.linfty import Term\n"
                 "from difflie.multilinear import AltMap, pullback, "
                 "suspend_space\n"
                 "H = HomotopyDiffLie(suspend_space(2), {}, {}, 0)\n")


@pytest.mark.parametrize("name", sorted(SHAPE_ERRORS))
def test_shape_errors_raise_value_error(name):
    namespace = {}
    exec(SHAPE_IMPORTS, namespace)
    with pytest.raises(ValueError):
        eval(SHAPE_ERRORS[name], namespace)


def test_shape_errors_survive_optimize():
    import os
    import subprocess
    import sys
    script = SHAPE_IMPORTS + "".join(
        "try:\n    %s\nexcept ValueError:\n    pass\n"
        "else:\n    raise SystemExit(%r)\n" % (expr, name)
        for name, expr in sorted(SHAPE_ERRORS.items()))
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
