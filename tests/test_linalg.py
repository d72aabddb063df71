from fractions import Fraction

import pytest

from difflie.linalg import (CompositionNonzero, Matrix, fmt_scalar,
                            homology_dim, parse_scalar)


def test_rank_zero_matrix():
    assert Matrix.zero(3, 3).rank() == 0


def test_rank_identity():
    assert Matrix.identity(4).rank() == 4


def test_rank_dependent_rows():
    assert Matrix.from_rows([[1, 2], [2, 4]]).rank() == 1


def test_kernel_identity_empty():
    assert Matrix.identity(3).kernel_basis() == []


def test_kernel_zero_map():
    assert len(Matrix.zero(2, 3).kernel_basis()) == 3


def test_kernel_line():
    (v,) = Matrix.from_rows([[1, 1]]).kernel_basis()
    assert v in ([Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)])


def test_homology_trivial_complex():
    n = 3
    assert homology_dim(Matrix.zero(n, n), Matrix.zero(n, n)) == n


def test_homology_acyclic():
    assert homology_dim(Matrix.identity(3), Matrix.zero(3, 3)) == 0


def test_homology_mixed():
    d_out = Matrix.from_rows([[0, 0]])
    d_in = Matrix.from_rows([[1], [0]])
    assert homology_dim(d_out, d_in) == 1


def test_homology_not_a_complex():
    with pytest.raises(CompositionNonzero):
        homology_dim(Matrix.identity(2), Matrix.identity(2))


def test_solve_identity():
    b = [Fraction(5), Fraction(-7)]
    assert Matrix.identity(2).solve(b) == b


def test_solve_inconsistent():
    assert Matrix.zero(2, 2).solve([Fraction(1), Fraction(0)]) is None


def test_solve_diagonal():
    m = Matrix.from_rows([[2, 0], [0, 3]])
    assert m.solve([4, 6]) == [Fraction(2), Fraction(2)]


def test_rank_nullity(rng):
    for _ in range(20):
        rows = rng.randrange(1, 5)
        cols = rng.randrange(1, 5)
        m = Matrix(rows, cols, [[rng.randrange(-3, 4) for _ in range(cols)]
                                for _ in range(rows)])
        assert m.rank() + len(m.kernel_basis()) == cols
        for v in m.kernel_basis():
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
        assert all(isinstance(x, Fraction) for row in p.data for x in row)
