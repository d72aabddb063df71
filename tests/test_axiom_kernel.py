"""Every axiom residual of liealg against its basis-vector formula.

The liealg readers take their residuals from the order-0 deformation
equations of one differential Lie algebra: the algebra itself, the trivial
extension g (+) V of a representation, the semidirect product g (+) h of a
LieAct triple, and the lifted operator of a relative operator.  Each is
compared exactly, entry by entry, with the formula of axiom_oracles on
seeded valid and invalid inputs for every weight of samples.WEIGHTS:
non-Lie brackets (on g and on h) and random d, rho, d_V and D.

Each axiom is one map: jacobi_residual is the only reader of the bracket
family and weighted_derivation_residual the only reader of the operator
family, in the source and at run time, so every axiom check of a command
goes through them.
"""

import ast
import importlib
import os
import pkgutil
import random
import sys
from itertools import combinations

import pytest

from axiom_oracles import (derivation_oracle, is_diff_representation,
                           jacobi_oracle, lieact_oracle, rep_oracle,
                           relative_oracle)
from conftest import exact_scalar
import difflie
from difflie import liealg
from difflie.cli import main
from difflie.linalg import vec_is_zero
from difflie.liealg import (LieActTriple, LieAlgebra, is_diff_lie_algebra,
                            is_lie_algebra, is_lieact, jacobi_residual,
                            lieact_residuals, relative_diff_residual,
                            rep_residuals,
                            weighted_derivation_residual)
from difflie.multilinear import AltMap, DimensionMismatch
from samples import (WEIGHTS, action, altmap1_from_matrix, diff_lie,
                     rand_matrix, rand_vec, random_diff_lie, random_lieact,
                     random_relative_operator, random_rep, rep_of, transpose)


def rand_bracket(rng, dim):
    """A random alternating bracket, almost never a Lie bracket."""
    b = AltMap(2, dim, dim)
    for key in combinations(range(dim), 2):
        b[key] = rand_vec(rng, dim, -2, 2)
    return LieAlgebra(dim, b)


def algebras(rng, lam):
    """(valid?, A) pairs: a valid algebra, a random d on it, and a random
    bracket with a random d."""
    out = []
    for _ in range(3):
        A = random_diff_lie(rng, lam, max_dim=4)
        out.append(A)
        out.append(diff_lie(A.algebra, rand_matrix(rng, A.dim, A.dim), lam))
        dim = rng.randrange(2, 5)
        out.append(diff_lie(rand_bracket(rng, dim),
                            rand_matrix(rng, dim, dim), lam))
    return out


def reps(rng, A):
    """A valid representation when A is valid, and random rho and d_V."""
    m = rng.randrange(1, 4)
    return [random_rep(rng, A),
            rep_of([rand_matrix(rng, m, m) for _ in range(A.dim)],
                   rand_matrix(rng, m, m))]


def triples(rng):
    """A valid LieAct triple, one with a random rho and one with a non-Lie
    bracket on h."""
    T = random_lieact(rng)
    m = T.h.dim
    return [T,
            LieActTriple(T.g, T.h, action([rand_matrix(rng, m, m)
                                           for _ in range(T.g.dim)], m)),
            LieActTriple(T.g, rand_bracket(rng, m), T.rho)]


def exact_vectors(vecs):
    return all(exact_scalar(x) for v in vecs for x in v)


def basis_values(f, n):
    """The values of the map f on every increasing n-tuple of basis
    indices, in the order of the oracles."""
    return [f.value_on_basis(key) for key in combinations(range(f.src_dim), n)]


def test_algebra_residuals_match_oracle():
    rng = random.Random(11)
    seen = set()
    for lam in WEIGHTS:
        for A in algebras(rng, lam):
            jac, op = jacobi_residual(A.algebra), \
                weighted_derivation_residual(A)
            assert (jac.arity, op.arity) == (3, 2)
            jac_values, op_values = basis_values(jac, 3), basis_values(op, 2)
            assert jac_values == jacobi_oracle(A.algebra)
            assert op_values == derivation_oracle(A)
            assert exact_vectors(jac_values) and exact_vectors(op_values)
            # a map stores only its nonzero values
            assert all(not vec_is_zero(v)
                       for v in list(jac.coeffs.values())
                       + list(op.coeffs.values()))
            lie = jac.is_zero()
            ok = lie and op.is_zero()
            assert lie == all(vec_is_zero(r) for r in jac_values)
            assert ok == (lie and all(vec_is_zero(r) for r in op_values))
            assert is_lie_algebra(A.algebra) == lie
            assert is_diff_lie_algebra(A) == ok
            seen.add((lam != 0, lie, ok))
    assert seen == {(nonzero, lie, ok) for nonzero in (False, True)
                    for lie, ok in ((True, True), (True, False),
                                    (False, False))}


def test_rep_residuals_match_oracle():
    rng = random.Random(12)
    seen = set()
    for lam in WEIGHTS:
        for A in algebras(rng, lam):
            for rep in reps(rng, A):
                res = rep_residuals(A, rep)
                assert res == {k: [transpose(m).data for m in mats]
                               for k, mats in rep_oracle(A, rep).items()}
                cols = [c for k in ("hom", "compat") for m in res[k]
                        for c in m]
                assert exact_vectors(cols)
                flags = tuple(all(vec_is_zero(c) for m in res[k] for c in m)
                              for k in ("hom", "compat"))
                assert is_diff_representation(A, rep) == all(flags)
                seen.add((lam != 0,) + flags)
    assert {(True, True, True), (True, False, False), (True, True, False),
            (False, True, True), (False, False, False)} <= seen


def test_lieact_residuals_match_oracle():
    rng = random.Random(13)
    seen = set()
    for _ in range(8):
        for T in triples(rng):
            res = lieact_residuals(T)
            oracle = lieact_oracle(T)
            assert res == dict(oracle, hom=[transpose(m).data
                                            for m in oracle["hom"]])
            assert exact_vectors(c for m in res["hom"] for c in m)
            assert exact_vectors(res["derivation"])
            flags = (all(vec_is_zero(c) for m in res["hom"] for c in m),
                     all(vec_is_zero(v) for v in res["derivation"]))
            assert is_lieact(T) == all(flags)
            seen.add(flags)
    assert {(True, True), (False, False), (True, False)} <= seen


def test_relative_residual_matches_oracle():
    rng = random.Random(14)
    seen = set()
    for lam in WEIGHTS:
        for _ in range(4):
            for T in triples(rng):
                for D in (random_relative_operator(rng, T, lam),
                          altmap1_from_matrix(
                              rand_matrix(rng, T.h.dim, T.g.dim))):
                    res = relative_diff_residual(T, D, lam)
                    assert res == relative_oracle(T, D, lam)
                    assert exact_vectors(res)
                    seen.add((lam != 0, all(vec_is_zero(r) for r in res)))
    assert seen == {(nonzero, ok) for nonzero in (False, True)
                    for ok in (False, True)}


def test_relative_residual_checks_the_operator_shape():
    T = random_lieact(random.Random(15))
    with pytest.raises(DimensionMismatch):
        relative_diff_residual(T, AltMap(1, T.g.dim, T.h.dim + 1), 1)


# ---------------------------------------------------------------------------
# one path per axiom

ONE_READER = {"pointed_family": "jacobi_residual",
              "operator_family": "weighted_derivation_residual"}


def family_readers(source):
    """{family name: the top-level definitions of the module that name it}
    for the two weight-0 families of nr, read from the source."""
    readers = {name: set() for name in ONE_READER}
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            names = ([a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else
                     [node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else [])
            for name in names:
                if name in readers:
                    readers[name].add(getattr(top, "name", "<module>"))
    return readers


def test_each_family_has_one_reader_in_liealg():
    with open(liealg.__file__) as fh:
        readers = family_readers(fh.read())
    assert readers == {name: {fn} for name, fn in ONE_READER.items()}


CLI_INPUTS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "cli_snapshots", "inputs")


@pytest.mark.parametrize("argv", [
    ["check-axioms", "aff1_adjoint.json"],
    ["extension", "classify", "ext_classify.json"],
    ["extension", "extract", "ext_total.json"]])
def test_commands_check_axioms_through_the_two_maps(argv, monkeypatch,
                                                    capsys):
    # load every module of the package first, then rebind each name that
    # refers to one of the two maps, as the benchmark's spans do, so that
    # copies bound by "from .liealg import ..." are counted too
    for info in pkgutil.iter_modules(difflie.__path__):
        importlib.import_module("difflie." + info.name)
    calls = {}
    for name in ONE_READER.values():
        orig = getattr(liealg, name)
        calls[name] = 0

        def counted(*args, _orig=orig, _name=name):
            calls[_name] += 1
            return _orig(*args)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("difflie"):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, key, counted)
    code = main([a if not a.endswith(".json")
                 else os.path.join(CLI_INPUTS, a) for a in argv])
    capsys.readouterr()
    assert code == 0
    assert all(calls.values()), calls
