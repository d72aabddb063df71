from fractions import Fraction

import pytest

from conftest import exact_scalar
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
    from difflie.linalg import invert_matrix
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1)]
    shapes += [(rng.randrange(1, 7), rng.randrange(1, 7)) for _ in range(60)]
    # square, mostly zero and mostly invertible
    squares = [Matrix.identity(n) + sparse_matrix(rng, n, n)
               for n in (rng.randrange(1, 6) for _ in range(10))]
    inconsistent = inverted = 0
    for m in [sparse_matrix(rng, r, c) for r, c in shapes] + squares:
        r, c = m.rows, m.cols
        R, pivots = m.rref()
        assert (R.data, pivots) == textbook_rref(r, c, m.data)
        assert m.rank() == len(pivots)
        assert m.kernel_basis() == oracle_kernel(r, c, m.data)
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
                assert m * inv == Matrix.identity(r)
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


# each call has mismatched shapes (or a phi_0 that is not the identity, an
# argument count that is not the arity, a term kind that does not exist, an
# empty shuffle block) and must raise ValueError, also under -O
SHAPE_ERRORS = {
    "add": "Matrix.zero(2, 3) + Matrix.zero(3, 2)",
    "sub": "Matrix.zero(2, 3) - Matrix.zero(2, 2)",
    "mul": "Matrix.zero(2, 3) * Matrix.zero(2, 3)",
    "matvec": "Matrix.zero(2, 3).matvec([1, 2])",
    "solve": "Matrix.zero(2, 3).solve([1, 2, 3])",
    "block": "Matrix.block([[Matrix.zero(2, 2), Matrix.zero(3, 2)]])",
    "homology_dim": "homology_dim(Matrix.zero(2, 3), Matrix.zero(2, 2))",
    "formal_iso": "FormalIso([Matrix.zero(2, 2)])",
    "formal_iso_empty": "FormalIso([])",
    "map_add": "AltMap(2, 2, 2) + AltMap(1, 2, 2)",
    "linfty_arity": "LInftyStructure(suspend_space(2), {2: AltMap(1, 2, 2)})",
    "term_kind": "Term('x', AltMap(1, 2, 2))",
    "bracket_args": "linfty_residual(H, 2, [[1, 0]])",
    "operator_args": "homotopy_diff_residual(H, 1, [[1, 0], [0, 1]])",
    "pointed_shuffles": "pointed_shuffles((0, 2))",
}
SHAPE_IMPORTS = ("from difflie.linalg import Matrix, homology_dim\n"
                 "from difflie.deformations import FormalIso\n"
                 "from difflie.homotopy import HomotopyDiffLie, "
                 "homotopy_diff_residual, linfty_residual\n"
                 "from difflie.linfty import LInftyStructure, Term\n"
                 "from difflie.multilinear import AltMap, suspend_space\n"
                 "from difflie.permutations import pointed_shuffles\n"
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
