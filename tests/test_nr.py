from itertools import combinations

import pytest

from difflie.linalg import Matrix, basis_vec, vec_add, vec_scale, vec_sub
from difflie.multilinear import (AltMap, DimensionMismatch, GradedSymMap,
                                 GradedVectorSpace, altmap1_from_matrix)
from difflie.nr import (arity_weights, circ_bar, graded_circ_bar,
                        insertion_sum, nr_bracket, pointed_family)
from difflie.liealg import is_lie_algebra, LieAlgebra
from samples import aff1, sl2, heisenberg, rand_vec
from test_homotopy import rand_graded


def rand_altmap(rng, arity, dim, tgt=None):
    tgt = dim if tgt is None else tgt
    f = AltMap(arity, dim, tgt)
    for key in combinations(range(dim), arity):
        f[key] = rand_vec(rng, tgt, -2, 2)
    return f


def test_circ_with_arity_one():
    # f o-bar g (x,y) = f(gx, y) + f(x, gy) for g of arity 1
    L = sl2()
    f = L.bracket
    gmat = Matrix.from_rows([[1, 2, 0], [0, 1, 1], [3, 0, 1]])
    g = altmap1_from_matrix(gmat)
    h = circ_bar(f, g)
    for i in range(3):
        for j in range(i + 1, 3):
            x, y = basis_vec(3, i), basis_vec(3, j)
            expected = vec_add(L.bracket.evaluate([gmat.matvec(x), y]),
                               L.bracket.evaluate([x, gmat.matvec(y)]))
            assert h.value_on_basis((i, j)) == expected


def test_circ_mu_mu_jacobi_form():
    L = sl2()
    mu = L.bracket
    c = circ_bar(mu, mu)
    for key in [(0, 1, 2)]:
        x, y, z = (basis_vec(3, k) for k in key)
        br = L.bracket.evaluate
        expected = vec_sub(br([br([x, y]), z]), br([br([x, z]), y]))
        expected = vec_add(expected, br([br([y, z]), x]))
        assert c.value_on_basis(key) == expected


def test_circ_with_identity():
    import random
    rng = random.Random(3)
    for arity in [1, 2, 3]:
        f = rand_altmap(rng, arity, 4)
        ident = altmap1_from_matrix(Matrix.identity(4))
        assert circ_bar(f, ident) == f.scale(arity)


def test_nr_self_bracket_doubles():
    mu = aff1().bracket
    assert nr_bracket(mu, mu) == circ_bar(mu, mu).scale(2)


def test_nr_zero_iff_jacobi(rng):
    zeros = nonzeros = 0
    for _ in range(40):
        dim = rng.randrange(2, 4)
        mu = rand_altmap(rng, 2, dim)
        L = LieAlgebra(dim, mu)
        nr_zero = nr_bracket(mu, mu).is_zero()
        assert nr_zero == is_lie_algebra(L)
        zeros += nr_zero
        nonzeros += not nr_zero
    # catalog algebras definitely satisfy it
    for L in [aff1(), sl2(), heisenberg()]:
        assert nr_bracket(L.bracket, L.bracket).is_zero()
        zeros += 1
    assert zeros and nonzeros


def test_nr_graded_antisymmetry(rng):
    for _ in range(10):
        dim = 3
        f = rand_altmap(rng, rng.randrange(1, 4), dim)
        g = rand_altmap(rng, rng.randrange(1, 4), dim)
        p, q = f.arity - 1, g.arity - 1
        sign = -1 if (p * q) % 2 else 1
        assert nr_bracket(f, g) == nr_bracket(g, f).scale(-sign)


def test_nr_graded_jacobi(rng):
    for _ in range(6):
        dim = 3
        maps = [rand_altmap(rng, rng.randrange(1, 4), dim) for _ in range(3)]
        f, g, h = maps
        pf, pg, ph = (m.arity - 1 for m in maps)

        def s(a, b):
            return -1 if (a * b) % 2 else 1

        total = nr_bracket(nr_bracket(f, g), h).scale(s(pf, ph))
        total = total + nr_bracket(nr_bracket(g, h), f).scale(s(pg, pf))
        total = total + nr_bracket(nr_bracket(h, f), g).scale(s(ph, pg))
        assert total.is_zero()


def test_graded_self_bracket_odd():
    mu = sl2().bracket
    assert mu.degree == 1
    assert nr_bracket(mu, mu) == graded_circ_bar(mu, mu).scale(2)
    assert nr_bracket(mu, mu).is_zero()


def perm_sign(order):
    inversions = sum(a > b for a, b in combinations(order, 2))
    return -1 if inversions % 2 else 1


def insertion_oracle(f, inners, key, pointed=False):
    """The insertion sum on one basis tuple, by evaluation: the slots of
    key dealt to the inner maps in turn, in every way (pointed: with
    increasing block leaders), each term signed by its permutation."""
    dim, total = f.src_dim, [0] * f.tgt_dim

    def deal(free, todo, blocks):
        nonlocal total
        if todo:
            for block in combinations(free, todo[0].arity):
                if not (pointed and blocks and block[0] < blocks[-1][0]):
                    deal([p for p in free if p not in block], todo[1:],
                         blocks + [block])
            return
        args = [g.value_on_basis(tuple(key[p] for p in block))
                for g, block in zip(inners, blocks)]
        args += [basis_vec(dim, key[p]) for p in free]
        order = [p for block in blocks for p in block] + free
        total = vec_add(total, vec_scale(perm_sign(order), f.evaluate(args)))

    deal(list(range(len(key))), inners, [])
    return total


@pytest.mark.parametrize("vdim", [1, 2, 4])
def test_insertion_into_a_map_with_another_target(rng, vdim):
    # a cochain g^n -> V is an outer map like any other: only the inner
    # maps must land in the space, and the sum lands in V
    dim = 3
    for arity, inner_arities, pointed in [(1, [2], False), (2, [1], False),
                                          (2, [2], False), (3, [1, 1], True),
                                          (2, [1, 2], False), (3, [2], False),
                                          (3, [1, 1], False)]:
        f = rand_altmap(rng, arity, dim, vdim)
        inners = [rand_altmap(rng, a, dim) for a in inner_arities]
        got = insertion_sum(f, inners, pointed)
        assert got.tgt_dim == vdim
        assert got.arity == arity + sum(inner_arities) - len(inners)
        for key in combinations(range(dim), got.arity):
            assert got.value_on_basis(key) == \
                insertion_oracle(f, inners, key, pointed)


def test_inner_maps_must_land_in_the_space(rng):
    f, mu = rand_altmap(rng, 2, 3, 2), rand_altmap(rng, 2, 3)
    for inner in (rand_altmap(rng, 1, 3, 2), rand_altmap(rng, 2, 3, 4)):
        with pytest.raises(DimensionMismatch):
            insertion_sum(f, [inner])
    with pytest.raises(DimensionMismatch):
        circ_bar(mu, f)
    with pytest.raises(DimensionMismatch):
        nr_bracket(f, mu)


def test_family_sums_map_into_the_outer_target(rng):
    # the target is read off the outer family as given, zero maps
    # included; an empty family maps into the space
    space, d = AltMap(1, 3, 3).space, rand_altmap(rng, 1, 3)
    zero = AltMap(2, 3, 2)
    assert pointed_family({0: zero}, {0: d}, 0, 1, 2, 1, space) == zero
    assert pointed_family({0: zero}, {0: d}, 0, 0, 2, 1, space) == zero
    assert pointed_family({}, {0: d}, 0, 1, 2, 1, space) == AltMap(2, 3, 3)
    f = rand_altmap(rng, 2, 3, 2)
    assert pointed_family({0: f}, {0: d}, 0, 0, 2, 1, space) == \
        circ_bar(f, d)


def summed_circle_products(outer, inner, w, arity, degree, space, tgt):
    """sum_{a+b=w} outer_a o-bar inner_b over families {weight: map},
    written out term by term (a missing weight is zero)."""
    total = GradedSymMap(arity, degree, space, tgt_dim=tgt)
    for a, f in outer.items():
        if a <= w and w - a in inner:
            total = total + circ_bar(f, inner[w - a])
    return total


@pytest.mark.parametrize("tgt", [3, 2])
def test_pointed_family_at_lambda_zero_on_alternating_families(rng, tgt):
    # weight a carries arity a + 1, so every weight-w sum has arity w + 1;
    # one weight is missing from each family and one map is zero
    dim = 3
    space = AltMap(1, dim, dim).space
    for _ in range(4):
        outer = {a: rand_altmap(rng, a + 1, dim, tgt) for a in (0, 1, 2)}
        inner = {b: rand_altmap(rng, b + 1, dim) for b in (0, 1, 2)}
        del outer[rng.randrange(3)], inner[rng.randrange(3)]
        inner[max(inner)] = AltMap(max(inner) + 1, dim, dim)
        for w in range(4):
            got = pointed_family(outer, inner, w, 0, w + 1, w, space)
            assert got.tgt_dim == tgt
            assert got == summed_circle_products(outer, inner, w, w + 1, w,
                                                 space, tgt)


def test_pointed_family_at_lambda_zero_on_graded_families(rng):
    space = GradedVectorSpace([(0, 2), (1, 1), (2, 1)])
    for inner_degree in (0, 1):
        outer = arity_weights({a: rand_graded(rng, space, a, 1)
                               for a in (1, 2, 3)})
        inner = arity_weights({a: rand_graded(rng, space, a, inner_degree)
                               for a in (1, 2)})
        degree = 1 + inner_degree
        for w in range(4):
            got = pointed_family(outer, inner, w, 0, w + 1, degree, space)
            assert got == summed_circle_products(outer, inner, w, w + 1,
                                                 degree, space, space.dim)
            assert w > 2 or not got.is_zero()
