"""Exact dense linear algebra over the rationals.

Everything downstream (cohomology dimensions, residual checks, deformation
solves) relies on these routines being exact, under one scalar contract:
every scalar is an ``int`` when its value is integral and a
``fractions.Fraction`` otherwise, never a ``float`` or a ``bool``.  ``frac``
makes a scalar of that kind, ``exact`` restores the contract on a list after
sums and products of Fractions, and ``div`` is the one division of scalars
(``/`` on two ints would give a float).  Integral data thus runs on ``int``
arithmetic, which is many times faster than ``Fraction`` arithmetic, and
gives the same rationals.

Matrices are stored dense, but the kernels skip zeros: products multiply
only the nonzero entries of each row of the left factor by the nonzero
(column, value) pairs of each row of the right factor, and matvec
multiplies only the vector's nonzero entries by the nonzero entries of each
row.  Skipping a zero term never changes a sum, so the results are the same
rationals as the dense formulas.

Elimination (Matrix.rref, behind rank, solve and invert_matrix) is
fraction-free: each row is scaled once by the lcm of its denominators and
then eliminated as an integer vector, by integer cross-multiplication in the
manner of Bareiss (1968), never building a Fraction until the pivot rows are
divided by their pivots at the end.  Where a pivot divides the entry it
clears, as at every pivot 1 of sparse integer data, only the pivot row's
nonzero columns are updated; otherwise the row is scaled and divided by its
content, so its entries stay small.  The reduced row echelon form of a
matrix is unique, so the results are the same rationals as Gauss-Jordan
elimination over Fractions.
"""

import re
from fractions import Fraction
from math import gcd, lcm


class CompositionNonzero(Exception):
    """Raised when two maps that should compose to zero do not."""


def frac(x):
    """The scalar of an int, a bool, a Fraction or a "p" / "p/q" string: an
    int when the value is integral, else a Fraction.  A float is refused,
    since its value is rarely the rational that was meant."""
    if type(x) is int:
        return x
    if not isinstance(x, Fraction):
        if isinstance(x, float):
            raise TypeError("%r is a float, not an exact scalar" % (x,))
        x = Fraction(x)
    return x.numerator if x.denominator == 1 else x


def exact(v):
    """The list v of scalars, in place, with each Fraction of denominator 1
    replaced by its int (sums and products of Fractions may give one)."""
    if Fraction in map(type, v):
        for i, x in enumerate(v):
            if type(x) is not int and x.denominator == 1:
                v[i] = x.numerator
    return v


def div(a, b):
    """The quotient a / b of two scalars as a scalar; the one division of
    scalars, so that no quotient of two ints becomes a float."""
    return frac(Fraction(a) / b)


def fmt_scalar(q):
    """Serialize a rational as "p/q", or "p" when the denominator is 1."""
    q = frac(q)
    if type(q) is int:
        return str(q)
    return "%d/%d" % (q.numerator, q.denominator)


_SCALAR = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")


def parse_scalar(s):
    """A rational from an int or a "p" / "p/q" string; anything else (a
    float, a bool, a decimal or spaced string) and a zero denominator are
    ValueErrors."""
    if not (type(s) is int or isinstance(s, str) and _SCALAR.match(s)):
        raise ValueError("%r is not an integer or a \"p/q\" string" % (s,))
    try:
        return frac(s)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % (s,)) from None


# ---------------------------------------------------------------------------
# vectors: plain lists of scalars


def vec_zero(n):
    return [0] * n


def vec_add(u, v):
    return exact([a + b for a, b in zip(u, v)])


def vec_sub(u, v):
    return exact([a - b for a, b in zip(u, v)])


def vec_scale(c, v):
    c = frac(c)
    return exact([c * a for a in v])


def vec_is_zero(v):
    return all(a == 0 for a in v)


def vec_support(v):
    """The nonzero entries of v as (index, entry) pairs."""
    return [(i, x) for i, x in enumerate(v) if x]


def basis_vec(n, i):
    v = vec_zero(n)
    v[i] = 1
    return v


class Matrix:
    """Dense rational matrix, row-major.

    Treated as immutable after construction; operations return new matrices.
    """

    __slots__ = ("rows", "cols", "data")

    def __init__(self, rows, cols, data=None):
        self.rows = rows
        self.cols = cols
        if data is None:
            self.data = [[0] * cols for _ in range(rows)]
        else:
            if len(data) != rows or any(len(r) != cols for r in data):
                raise ValueError("matrix shape mismatch")
            self.data = [[frac(x) for x in row] for row in data]

    @classmethod
    def from_rows(cls, rows):
        r = len(rows)
        c = len(rows[0]) if r else 0
        return cls(r, c, rows)

    @classmethod
    def identity(cls, n):
        m = cls(n, n)
        for i in range(n):
            m.data[i][i] = 1
        return m

    @classmethod
    def zero(cls, rows, cols):
        return cls(rows, cols)

    @classmethod
    def _of(cls, rows, cols, data):
        """The matrix on data, taken as it is: data must already have the
        shape and meet the scalar contract."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.data = rows, cols, data
        return m

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __repr__(self):
        return "Matrix(%d, %d, %r)" % (self.rows, self.cols,
                                       [[str(x) for x in row] for row in self.data])

    def _same_shape(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("matrix shapes %dx%d and %dx%d differ"
                             % (self.rows, self.cols, other.rows, other.cols))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      [vec_add(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.rows, self.cols,
                      [vec_sub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self):
        return self.scale(-1)

    def scale(self, c):
        c = frac(c)
        return Matrix(self.rows, self.cols,
                      [[c * x for x in row] for row in self.data])

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError("inner dimensions %d and %d differ"
                                 % (self.cols, other.rows))
            out = Matrix(self.rows, other.cols)
            sparse = [[(j, x) for j, x in enumerate(row) if x]
                      for row in other.data]
            for ri, oi in zip(self.data, out.data):
                for a, rk in zip(ri, sparse):
                    if a and rk:
                        for j, x in rk:
                            oi[j] += a * x
                exact(oi)
            return out
        return self.scale(other)

    def matvec(self, v):
        if len(v) != self.cols:
            raise ValueError("vector of length %d for %d columns"
                             % (len(v), self.cols))
        nz = [(j, x) for j, x in enumerate(v) if x]
        return exact([sum((row[j] * x for j, x in nz if row[j]), 0)
                      for row in self.data])

    def transpose(self):
        return Matrix(self.cols, self.rows,
                      [[self.data[i][j] for i in range(self.rows)]
                       for j in range(self.cols)])

    def is_zero(self):
        return all(vec_is_zero(row) for row in self.data)

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot column list).

        The pivot is the first nonzero entry of the column at or below the
        current row.  The elimination runs on integer rows (see
        _integer_echelon); each pivot row is then divided by its pivot, so
        R is the unique reduced row echelon form of the matrix."""
        R = [_integer_row(row) for row in self.data]
        pivots = _integer_echelon(R, self.cols)
        for r, c in enumerate(pivots):
            pv = R[r][c]
            if pv != 1:
                R[r] = [div(x, pv) if x else 0 for x in R[r]]
        return Matrix._of(self.rows, self.cols, R), pivots

    def rank(self):
        return len(self.rref()[1])

    def solve(self, b):
        """Some x with m*x = b, or None if the system is inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side of length %d for %d rows"
                             % (len(b), self.rows))
        aug = Matrix._of(self.rows, self.cols + 1,
                         [row + [frac(x)] for row, x in zip(self.data, b)])
        R, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = vec_zero(self.cols)
        for r, pc in enumerate(pivots):
            x[pc] = R.data[r][self.cols]
        return x

    # -- block assembly ---------------------------------------------------

    @classmethod
    def block(cls, grid):
        """Assemble from a 2D grid of matrices (shapes must be consistent)."""
        rows = []
        for brow in grid:
            h = brow[0].rows
            if any(m.rows != h for m in brow):
                raise ValueError("blocks of one grid row differ in height")
            for i in range(h):
                rows.append([x for m in brow for x in m.data[i]])
        return cls.from_rows(rows) if rows else cls(0, sum(m.cols for m in grid[0]) if grid else 0)


def _integer_row(row):
    """The row scaled by the lcm of its denominators: a list of ints with
    the same span."""
    if Fraction not in map(type, row):
        return row[:]
    den = lcm(*[x.denominator for x in row if type(x) is not int])
    return [x * den if type(x) is int else x.numerator * (den // x.denominator)
            for x in row]


def _integer_echelon(R, cols):
    """Gauss-Jordan elimination on the integer rows R, in place, without a
    division; returns the pivot columns.

    At each pivot the pivot row is divided by its content, signed so that
    the pivot pv is positive.  Another row with entry f in the pivot column
    becomes a*row - b*pivot_row, with g = gcd(pv, f), a = pv/g and b = f/g,
    which clears that entry and keeps the row integral.  When pv divides f
    (a = 1, always so at a pivot 1) only the pivot row's nonzero columns
    change; otherwise the whole row is scaled by a and then divided by its
    content, so that the entries do not grow from step to step.  At the end
    the pivot rows are zero at every other pivot column, the rows below
    them are zero, and each pivot row divided by its pivot is a row of the
    reduced row echelon form."""
    rows = len(R)
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        p = next((i for i in range(r, rows) if R[i][c]), None)
        if p is None:
            continue
        R[r], R[p] = R[p], R[r]
        content = gcd(*R[r])
        if R[r][c] < 0:
            content = -content
        if content != 1:
            R[r] = [x // content for x in R[r]]
        prow = R[r]
        pv = prow[c]
        nz = [(j, y) for j, y in enumerate(prow) if y]
        for i, row in enumerate(R):
            f = row[c]
            if not f or i == r:
                continue
            if f % pv == 0:
                b = f // pv
                for j, y in nz:
                    row[j] -= b * y
                continue
            g = gcd(pv, f)
            a, b = pv // g, f // g
            row = [a * x for x in row]
            for j, y in nz:
                row[j] -= b * y
            content = gcd(*row)
            if content > 1:
                row = [x // content for x in row]
            R[i] = row
        pivots.append(c)
        r += 1
    return pivots


def invert_matrix(m):
    """The inverse of a square matrix, or None when it is singular."""
    n = m.rows
    if m.cols != n:
        raise ValueError("only a square matrix has an inverse")
    ident = Matrix.identity(n).data
    R, pivots = Matrix._of(n, 2 * n, [m.data[i] + ident[i]
                                      for i in range(n)]).rref()
    if pivots[:n] != list(range(n)):
        return None
    return Matrix._of(n, n, [row[n:] for row in R.data])


def mat_combination(coeffs, mats, n):
    """sum_i coeffs[i] * mats[i] as an n x n matrix, over the nonzero
    coefficients."""
    out = Matrix.zero(n, n)
    for c, m in zip(coeffs, mats):
        if c != 0:
            out = out + m.scale(c)
    return out


def homology_dim(d_out, d_in):
    """dim ker(d_out) - rank(d_in) for a two-step complex at the middle spot.

    Checks d_out . d_in = 0 first and raises CompositionNonzero otherwise.
    """
    if d_out.cols != d_in.rows:
        raise ValueError("d_out has %d columns but d_in has %d rows"
                         % (d_out.cols, d_in.rows))
    if not (d_out * d_in).is_zero():
        raise CompositionNonzero("d_out . d_in != 0: not a complex")
    return (d_out.cols - d_out.rank()) - d_in.rank()
