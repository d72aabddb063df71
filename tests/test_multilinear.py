from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import example, given, strategies as st

from conftest import basis_of_degree, exact_scalar, filled
from difflie.linalg import (Matrix, basis_vec, vec_add, vec_is_zero,
                            vec_scale, vec_zero)
from difflie.multilinear import (AltMap, ArityMismatch, DimensionMismatch,
                                 GradedSymMap, GradedVectorSpace,
                                 NonHomogeneousInput, pullback)


def suspension_sign(v_degrees):
    """Sign relating s v_1 (.) ... (.) s v_n to s^n (v_1 ^ ... ^ v_n).

    Exponent (n-1)|v_1| + (n-2)|v_2| + ... + |v_{n-1}|.
    """
    n = len(v_degrees)
    exp = sum((n - j) * v_degrees[j - 1] for j in range(1, n))
    return -1 if exp % 2 else 1


def sample_altmap():
    f = AltMap(2, 3, 3)
    f[(0, 1)] = basis_vec(3, 0)
    f[(0, 2)] = vec_add(basis_vec(3, 1), vec_scale(2, basis_vec(3, 2)))
    return f


def test_alternation_repeated_argument():
    f = sample_altmap()
    e0 = basis_vec(3, 0)
    assert f.evaluate([e0, e0]) == vec_zero(3)


def test_swap_flips_sign():
    f = sample_altmap()
    e0, e1 = basis_vec(3, 0), basis_vec(3, 1)
    assert f.evaluate([e1, e0]) == vec_scale(-1, f.evaluate([e0, e1]))


def test_simple_value():
    f = AltMap(2, 2, 2)
    f[(0, 1)] = basis_vec(2, 0)
    assert f.evaluate([basis_vec(2, 1), basis_vec(2, 0)]) == \
        vec_scale(-1, basis_vec(2, 0))


def test_multilinearity(rng):
    f = sample_altmap()
    for _ in range(10):
        x = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
        y = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
        z = [Fraction(rng.randrange(-3, 4)) for _ in range(3)]
        c = Fraction(rng.randrange(-3, 4))
        lhs = f.evaluate([vec_add(x, vec_scale(c, y)), z])
        rhs = vec_add(f.evaluate([x, z]), vec_scale(c, f.evaluate([y, z])))
        assert lhs == rhs


def test_setitem_normalizes_order():
    f = AltMap(2, 3, 3)
    f[(1, 0)] = basis_vec(3, 2)
    assert f.value_on_basis((0, 1)) == vec_scale(-1, basis_vec(3, 2))


def test_arity_mismatch():
    f = sample_altmap()
    with pytest.raises(ArityMismatch):
        f.evaluate([basis_vec(3, 0)])


def test_dimension_mismatch():
    f = sample_altmap()
    with pytest.raises(DimensionMismatch):
        f.evaluate([basis_vec(2, 0), basis_vec(2, 1)])


def test_graded_space_degrees():
    sp = GradedVectorSpace([(0, 2), (1, 3)])
    assert sp.dim == 5
    assert sp.degrees == [0, 0, 1, 1, 1]
    assert basis_of_degree(sp, 1) == [2, 3, 4]
    assert sp.degree_of_vector(basis_vec(5, 3)) == 1
    with pytest.raises(NonHomogeneousInput):
        sp.degree_of_vector([1, 0, 1, 0, 0])


def test_graded_space_lists_are_built_on_first_read():
    # a declared size allocates nothing until a per-basis list is read
    huge = GradedVectorSpace([(0, 10 ** 12), (1, 1)])
    assert huge.dim == 10 ** 12 + 1
    assert GradedSymMap(2, 1, huge).is_zero()
    assert "degrees" not in vars(huge) and "odd" not in vars(huge)
    sp = GradedVectorSpace([(-1, 2), (2, 1)])
    assert sp.odd == [1, 1, 0]
    # once read, both are plain instance attributes
    assert vars(sp)["odd"] is sp.odd and vars(sp)["degrees"] == [-1, -1, 2]


def test_graded_sym_even_permute():
    sp = GradedVectorSpace([(0, 2), (2, 1)])
    f = GradedSymMap(2, 1, sp)
    f[(0, 2)] = basis_vec(3, 1)
    e0, e2 = basis_vec(3, 0), basis_vec(3, 2)
    assert f.evaluate([e0, e2]) == f.evaluate([e2, e0])


def test_graded_sym_odd_swap():
    sp = GradedVectorSpace([(1, 2)])
    f = GradedSymMap(2, 1, sp)
    f[(0, 1)] = basis_vec(2, 0)
    e0, e1 = basis_vec(2, 0), basis_vec(2, 1)
    assert f.evaluate([e1, e0]) == vec_scale(-1, f.evaluate([e0, e1]))
    # odd repeats vanish
    assert f.evaluate([e0, e0]) == vec_zero(2)


def test_graded_sym_arity_one_linear():
    sp = GradedVectorSpace([(0, 2)])
    f = GradedSymMap(1, 0, sp)
    f[(0,)] = basis_vec(2, 1)
    v = [Fraction(3), Fraction(0)]
    assert f.evaluate([v]) == vec_scale(3, basis_vec(2, 1))


def test_suspension_sign():
    assert suspension_sign([5]) == 1
    assert suspension_sign([0, 0]) == 1
    assert suspension_sign([1, 1]) == -1  # exponent (2-1)*1
    assert suspension_sign([1, 1, 1]) == -1  # exponent 2*1 + 1*1 = 3


SCALARS = st.fractions(min_value=-2, max_value=2, max_denominator=3)


def matrices(rows, cols):
    return st.lists(st.lists(SCALARS, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows).map(
                        lambda data: Matrix(rows, cols, data))


@st.composite
def pullback_cases(draw):
    """A map f of arity 1-3 and linear maps S into its source and T out of
    its target (or None)."""
    arity = draw(st.integers(1, 3))
    n, m, k = (draw(st.integers(1, 3)) for _ in range(3))
    f = AltMap(arity, m, k)
    for key in combinations(range(m), arity):
        f[key] = draw(st.lists(SCALARS, min_size=k, max_size=k))
    S = draw(matrices(m, n))
    T = draw(st.none() | st.integers(1, 3).flatmap(
        lambda rows: matrices(rows, k)))
    return f, S, T


@given(pullback_cases())
def test_pullback_is_transport_along_linear_maps(case):
    # the definition: on every tuple of basis vectors, repeats and any
    # order included, the value is T f(S e_x1, .., S e_xn)
    f, S, T = case
    g = pullback(f, S, T)
    n = S.cols
    for key in product(range(n), repeat=f.arity):
        val = f.evaluate([S.matvec(basis_vec(n, x)) for x in key])
        assert g.value_on_basis(key) == (val if T is None
                                         else T.matvec(val))


def pullback_by_keys(f, S, T=None):
    """The per-key route pullback replaced, kept as its oracle: every sorted
    key of the source of S through evaluate on the columns of S, zero
    columns included."""
    cols = S.transpose().data
    out = AltMap(f.arity, S.cols, f.tgt_dim if T is None else T.rows)
    for key in out.space.spanning_tuples(f.arity):
        val = f.evaluate([cols[x] for x in key])
        if T is not None:
            val = T.matvec(val)
        if not vec_is_zero(val):
            out.coeffs[key] = val
    return out


@st.composite
def pullback_cases_with_zero_columns(draw):
    """pullback_cases, with arity 0 allowed and some columns of S zeroed."""
    f, S, T = draw(pullback_cases())
    if draw(st.booleans()):
        f = filled(AltMap(0, f.src_dim, f.tgt_dim), {(): draw(st.lists(
            SCALARS, min_size=f.tgt_dim, max_size=f.tgt_dim))})
    zero = draw(st.sets(st.integers(0, S.cols - 1)))
    S = Matrix(S.rows, S.cols, [[0 if j in zero else x
                                 for j, x in enumerate(row)]
                                for row in S.data])
    return f, S, T


@given(pullback_cases_with_zero_columns())
@example((sample_altmap(), Matrix.from_rows([[1, 0, 2], [0, 0, 1],
                                             [3, 0, 0]]), None))
@example((sample_altmap(), Matrix.zero(3, 2),
          Matrix.from_rows([[1, 1, 0]])))
@example((sample_altmap(), Matrix.from_rows([[0, 1, 0, 1], [0, 0, 0, 1],
                                             [0, Fraction(1, 2), 0, 0]]),
          Matrix.from_rows([[1, 0, 0], [0, 2, 1]])))
@example((filled(AltMap(1, 1, 1), {(0,): [Fraction(3, 2)]}),
          Matrix.from_rows([[Fraction(2, 3)]]), None))  # an integral Fraction
def test_pullback_matches_per_key_oracle(case):
    f, S, T = case
    got = pullback(f, S, T)
    want = pullback_by_keys(f, S, T)
    assert got == want
    assert list(got.coeffs) == list(want.coeffs)  # same key order
    assert all(exact_scalar(x) for vec in got.coeffs.values() for x in vec)
