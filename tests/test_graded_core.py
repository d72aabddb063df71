"""The single multilinear core: AltMap is the graded map on the suspension,
and one insertion sum serves both pictures.

The insertion sum, and the circle product as its one-map case, are checked
here against their definition as a sum over all permutations, weighted by
1/(a_1! .. a_r! (n-r)!) for inner maps of arities a_1, .., a_r and an outer
map of arity n, evaluated through the general multilinear extension -- an
oracle that shares no loop with the shuffle sum it checks.
"""

from fractions import Fraction
from itertools import combinations, permutations
from math import factorial

import pytest

from difflie.linalg import basis_vec, vec_add, vec_scale, vec_zero
from difflie.multilinear import (AltMap, ArityMismatch, DimensionMismatch,
                                 GradedSymMap, GradedVectorSpace,
                                 NonHomogeneousInput, suspend_space)
from difflie.nr import (arity_weights, circ_bar, insertion_sum, nr_bracket,
                        pointed_family)
from difflie.permutations import koszul_sign
from conftest import filled
from samples import rand_vec

from test_homotopy import family_circ_by_vectors, rand_graded, \
    rand_homogeneous


def insertion_by_permutations(f, inners, key, pointed=False):
    """(sum over shuffles of eps f(g_1(..), .., g_r(..), tail))(e_key) as
    1/(a_1! .. a_r! (n-r)!) times the same sum over all permutations; with
    pointed=True only the permutations whose inner blocks have increasing
    smallest images, the leaders of their shuffles, count."""
    space = f.space
    N = len(key)
    degs = [space.degrees[i] for i in key]
    args = [basis_vec(space.dim, i) for i in key]
    total = vec_zero(space.dim)
    for perm in permutations(range(1, N + 1)):
        permuted = [args[k - 1] for k in perm]
        heads, pos, leaders = [], 0, []
        for g in inners:
            heads.append(g.evaluate(permuted[pos:pos + g.arity]))
            leaders.append(min(perm[pos:pos + g.arity], default=0))
            pos += g.arity
        if pointed and leaders != sorted(leaders):
            continue
        val = f.evaluate(heads + permuted[pos:])
        total = vec_add(total, vec_scale(koszul_sign(perm, degs), val))
    weight = factorial(f.arity - len(inners))
    for g in inners:
        weight *= factorial(g.arity)
    return vec_scale(Fraction(1, weight), total)


def circ_by_permutations(f, g, key):
    """(f o-bar g)(e_key) as (1/(m!(n-1)!)) sum over all permutations sigma
    of eps(sigma) f(g(e_sigma(1..m)), e_sigma(m+1..))."""
    return insertion_by_permutations(f, [g], key)


def rand_altmap(rng, arity, dim):
    f = AltMap(arity, dim, dim)
    for key in combinations(range(dim), arity):
        f[key] = rand_vec(rng, dim, -2, 2)
    return f


def test_circle_product_matches_definition_on_alternating_maps(rng):
    for _ in range(10):
        dim = rng.randrange(2, 5)
        f = rand_altmap(rng, rng.randrange(1, 4), dim)
        g = rand_altmap(rng, rng.randrange(0, 3), dim)
        out = circ_bar(f, g)
        assert out.arity == f.arity + g.arity - 1
        assert out.degree == out.arity - 1
        for key in combinations(range(dim), out.arity):
            assert out.value_on_basis(key) == circ_by_permutations(f, g, key)


def test_circle_product_matches_definition_on_mixed_degrees(rng):
    space = GradedVectorSpace([(-1, 1), (0, 2), (1, 1)])
    checked = 0
    for _ in range(10):
        f = rand_graded(rng, space, rng.randrange(1, 4), rng.randrange(0, 2))
        g = rand_graded(rng, space, rng.randrange(1, 3), rng.randrange(0, 2))
        out = circ_bar(f, g)
        assert out.degree == f.degree + g.degree
        for key in space.spanning_tuples(out.arity):
            expect = circ_by_permutations(f, g, key)
            assert out.value_on_basis(key) == expect
            checked += any(expect)
    assert checked


def test_alternating_map_is_the_graded_map_on_one_odd_degree():
    f = AltMap(2, 3, 3)
    f[(2, 0)] = [1, 2, 3]
    assert isinstance(f, GradedSymMap)
    assert f.space is suspend_space(3) and f.space is AltMap(1, 3, 5).space
    assert f.degree == 1 and f.space.degrees == [-1, -1, -1]
    assert f.coeffs == {(0, 2): [-1, -2, -3]}
    c = AltMap(0, 2, 2)
    c[()] = [1, 0]
    assert c.value_on_basis(()) == [1, 0]


def test_checks_of_the_merged_class():
    f = AltMap(2, 3, 2)
    with pytest.raises(DimensionMismatch):
        f[(0, 1)] = [1, 2, 3]  # target vector length
    with pytest.raises(ValueError):
        f[(1, 1)] = [1, 0]  # repeated index with a nonzero value
    f[(1, 1)] = [0, 0]
    with pytest.raises(ArityMismatch):
        f.evaluate([basis_vec(3, 0)])
    with pytest.raises(ArityMismatch):
        f.value_on_basis((0,))
    with pytest.raises(DimensionMismatch):
        f.evaluate([basis_vec(2, 0), basis_vec(2, 1)])  # source length
    space = GradedVectorSpace([(0, 1), (1, 2)])
    F = GradedSymMap(2, 0, space)
    with pytest.raises(DimensionMismatch):
        F.evaluate([basis_vec(2, 0), basis_vec(2, 1)])
    with pytest.raises(NonHomogeneousInput):
        F.evaluate([[1, 1, 0], basis_vec(3, 2)])
    with pytest.raises(ValueError):
        F[(1, 1)] = [0, 0, 1]  # repeated odd index


def test_circle_product_needs_one_space():
    f = AltMap(2, 3, 3)
    with pytest.raises(DimensionMismatch):
        circ_bar(f, AltMap(1, 2, 2))
    with pytest.raises(DimensionMismatch):
        circ_bar(f, AltMap(1, 3, 2))


def test_constant_outer_map_has_no_slot(rng):
    f = filled(AltMap(0, 2, 2), {(): [1, 1]})
    g = rand_altmap(rng, 2, 2)
    out = circ_bar(f, g)
    assert out.is_zero() and out.arity == 1
    # nr_bracket needs both products to agree in arity and degree
    assert nr_bracket(g, f) == circ_bar(g, f)


def test_family_sum_is_the_summed_circle_product(rng):
    space = GradedVectorSpace([(0, 2), (1, 1)])
    outer = {a: rand_graded(rng, space, a, 1) for a in (1, 2)}
    inner = {a: rand_graded(rng, space, a, 0) for a in (1, 2)}
    for n in (1, 2, 3):
        total = GradedSymMap(n, 1, space)
        for i in range(1, n + 1):
            if (n - i + 1) in outer and i in inner:
                total = total + circ_bar(outer[n - i + 1], inner[i])
        family = pointed_family(arity_weights(outer), arity_weights(inner),
                                n - 1, 0, n, 1, space)
        assert family == total
        for _ in range(5):
            args = [rand_homogeneous(rng, space) for _ in range(n)]
            degs = [space.degree_of_vector(v) for v in args]
            assert family.evaluate(args) == \
                family_circ_by_vectors(outer, inner, args, degs, space.dim)


def test_insertion_sum_matches_definition_on_alternating_maps(rng):
    for r in range(4):
        for _ in range(4):
            dim = rng.randrange(2, 5)
            inners = [rand_altmap(rng, rng.randrange(0, 3), dim)
                      for _ in range(r)]
            f = rand_altmap(rng, rng.randrange(r, 4), dim)
            out = insertion_sum(f, inners)
            assert out.arity == f.arity + sum(g.arity - 1 for g in inners)
            assert out.degree == out.arity - 1
            for key in combinations(range(dim), out.arity):
                assert out.value_on_basis(key) == \
                    insertion_by_permutations(f, inners, key)


def test_insertion_sum_matches_definition_on_mixed_degrees(rng):
    space = GradedVectorSpace([(-1, 1), (0, 2), (1, 1)])
    checked = set()
    for r in range(4):
        for _ in range(4):
            inners = [rand_graded(rng, space, rng.randrange(1, 3),
                                  rng.randrange(0, 2)) for _ in range(r)]
            # at most 4 arguments where the inner arities allow it
            top = max(4 - sum(g.arity for g in inners) + r, r, 1)
            f = rand_graded(rng, space, rng.randrange(max(r, 1), top + 1),
                            rng.randrange(0, 2))
            for pointed in (False, True):
                out = insertion_sum(f, inners, pointed)
                assert out.degree == f.degree + sum(g.degree for g in inners)
                for key in space.spanning_tuples(out.arity):
                    expect = insertion_by_permutations(f, inners, key,
                                                       pointed)
                    assert out.value_on_basis(key) == expect
                    if any(expect):
                        checked.add((r, pointed))
    assert checked == {(r, p) for r in range(4) for p in (False, True)}


def test_pointed_insertion_of_one_map_divides_by_the_orderings(rng):
    # r copies of one degree-0 map: the r! orderings of the blocks give
    # equal terms, and the pointed sum keeps one of them
    # (on the suspension the degree-0 maps are the alternating arity-1 ones)
    space = GradedVectorSpace([(-1, 1), (0, 2), (1, 1)])
    seen = set()
    for r in (1, 2, 3):
        for arity in (1, 2):
            cases = [(rand_graded(rng, space, r + rng.randrange(0, 2), 1),
                      rand_graded(rng, space, arity, 0)),
                     (rand_altmap(rng, r + rng.randrange(0, 2), 4),
                      rand_altmap(rng, 1, 4))]
            for f, g in cases:
                plain = insertion_sum(f, [g] * r)
                pointed = insertion_sum(f, [g] * r, pointed=True)
                assert pointed == plain.scale(Fraction(1, factorial(r)))
                if not plain.is_zero():
                    seen.add((len(f.space.components), r))
    assert seen == {(c, r) for c in (1, 3) for r in (1, 2, 3)}


def test_insertion_past_the_slots_is_zero(rng):
    f = rand_altmap(rng, 1, 3)
    g, h = rand_altmap(rng, 2, 3), rand_altmap(rng, 1, 3)
    out = insertion_sum(f, [g, h])
    assert out.is_zero() and out.arity == 2 and out.degree == 1
    assert insertion_sum(f, [h, h, h]).arity == 1
    const = filled(AltMap(0, 3, 3), {(): [1, 0, 2]})
    out = insertion_sum(const, [h])
    assert out.is_zero() and out.arity == 0 and out.degree == -1
    out = insertion_sum(f, [const, const])
    assert out.is_zero() and out.arity == 0 and out.degree == -2
    with pytest.raises(ValueError):
        insertion_sum(f, [const], pointed=True)  # an empty block has no leader


def test_spanning_tuples_skip_odd_repeats():
    space = GradedVectorSpace([(0, 1), (1, 2)])
    keys = list(space.spanning_tuples(2))
    assert keys == [(0, 0), (0, 1), (0, 2), (1, 2)]
    assert list(suspend_space(3).spanning_tuples(2)) == \
        list(combinations(range(3), 2))
