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
(column, value) pairs of each row of the right factor, matvec multiplies
only the vector's nonzero entries by the nonzero entries of each row, and
elimination updates the other rows only at the pivot row's nonzero
columns.  Skipping a zero term never changes a sum, so the results are the
same rationals as the dense formulas.
"""

import re
from fractions import Fraction


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

    def copy(self):
        return Matrix(self.rows, self.cols, [row[:] for row in self.data])

    # -- elimination ------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (R, pivot column list).

        The pivot is the first nonzero entry of the column at or below the
        current row; the other rows are updated in place, only at the
        normalised pivot row's nonzero columns; each updated entry is kept
        an int when it is integral."""
        R = [row[:] for row in self.data]
        pivots = []
        r = 0
        for c in range(self.cols):
            if r >= self.rows:
                break
            p = next((i for i in range(r, self.rows) if R[i][c] != 0), None)
            if p is None:
                continue
            R[r], R[p] = R[p], R[r]
            prow = R[r]
            inv = div(1, prow[c])
            nz = [(j, y) for j, y in enumerate(prow) if y]
            if inv != 1:
                nz = [(j, frac(inv * y)) for j, y in nz]
                for j, y in nz:
                    prow[j] = y
            for i, row in enumerate(R):
                f = row[c]
                if f and i != r:
                    for j, y in nz:
                        x = row[j] - f * y
                        row[j] = x if type(x) is int or x.denominator != 1 \
                            else x.numerator
            pivots.append(c)
            r += 1
        return Matrix(self.rows, self.cols, R), pivots

    def rank(self):
        return len(self.rref()[1])

    def kernel_basis(self):
        """Exact basis of the right null space; len = cols - rank."""
        R, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = vec_zero(self.cols)
            v[fc] = 1
            for r, pc in enumerate(pivots):
                v[pc] = -R.data[r][fc]
            basis.append(v)
        return basis

    def solve(self, b):
        """Some x with m*x = b, or None if the system is inconsistent."""
        if len(b) != self.rows:
            raise ValueError("right-hand side of length %d for %d rows"
                             % (len(b), self.rows))
        aug = Matrix(self.rows, self.cols + 1,
                     [self.data[i][:] + [frac(b[i])] for i in range(self.rows)])
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


def invert_matrix(m):
    """The inverse of a square matrix, or None when it is singular."""
    n = m.rows
    if m.cols != n:
        raise ValueError("only a square matrix has an inverse")
    ident = Matrix.identity(n).data
    R, pivots = Matrix(n, 2 * n, [m.data[i] + ident[i]
                                  for i in range(n)]).rref()
    if pivots[:n] != list(range(n)):
        return None
    return Matrix(n, n, [row[n:] for row in R.data])


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
