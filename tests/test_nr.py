from difflie.linalg import Matrix, basis_vec, vec_add, vec_sub
from difflie.multilinear import AltMap, altmap1_from_matrix
from difflie.nr import circ_bar, nr_bracket, graded_circ_bar
from difflie.liealg import is_lie_algebra, LieAlgebra
from difflie.samples import aff1, sl2, heisenberg, rand_vec


def rand_altmap(rng, arity, dim):
    from itertools import combinations
    f = AltMap(arity, dim, dim)
    for key in combinations(range(dim), arity):
        f[key] = rand_vec(rng, dim, -2, 2)
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
            expected = vec_add(L.br(gmat.matvec(x), y),
                               L.br(x, gmat.matvec(y)))
            assert h.value_on_basis((i, j)) == expected


def test_circ_mu_mu_jacobi_form():
    L = sl2()
    mu = L.bracket
    c = circ_bar(mu, mu)
    for key in [(0, 1, 2)]:
        x, y, z = (basis_vec(3, k) for k in key)
        expected = vec_sub(L.br(L.br(x, y), z), L.br(L.br(x, z), y))
        expected = vec_add(expected, L.br(L.br(y, z), x))
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
