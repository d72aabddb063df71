"""Every constructor and entry point that validates its input rejects bad
input with the documented exception and message.

Each case builds one invalid object or makes one invalid call.  The checks
are exceptions, not ``assert`` statements, so they run under ``python -O``
too.  An invariant that valid code cannot break (an arity clash inside the
twisted l_1) is not listed.
"""

import re

import pytest

from conftest import filled
from difflie.deformations import TruncatedDeformation
from difflie.extensions import AbelianExtension, InvalidExtension
from difflie.homotopy import HomotopyDiffLie
from difflie.liealg import (DiffLieAlgebra, DiffRepresentation, LieActTriple,
                            LieAlgebra)
from difflie.linalg import Matrix, invert_matrix
from difflie.linfty import iota_M, key_formula_check
from difflie.multilinear import (AltMap, ArityMismatch, DimensionMismatch,
                                 GradedSymMap, GradedVectorSpace,
                                 altmap1_from_matrix)
from samples import aff1

BASE = DiffLieAlgebra(aff1(), Matrix.zero(2, 2), 1)
BR = aff1().bracket
# an abelian total space g (+) V with dim g = 2 and dim V = 1
TOTAL = DiffLieAlgebra(LieAlgebra(3), Matrix.zero(3, 3), 1)
P = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
S = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
MIXED = GradedVectorSpace([(0, 1), (1, 1)])


def _homogeneity_breach():
    mu = GradedSymMap(1, 1, MIXED)
    mu[(0,)] = [1, 0]  # degree 0 onto degree 0, not 0 + 1
    return HomotopyDiffLie(MIXED, {1: mu}, {}, 0)


CASES = [
    ("deformation-orders",
     lambda: TruncatedDeformation(BASE, [BR], []), ValueError,
     "mu and d must list the same number of orders"),
    ("deformation-bracket-shape",
     lambda: TruncatedDeformation(BASE, [AltMap(2, 3, 3)],
                                  [AltMap(1, 2, 2)]), ValueError,
     "each mu_i must be a bracket on the base space"),
    ("deformation-operator-shape",
     lambda: TruncatedDeformation(BASE, [BR], [AltMap(1, 3, 3)]),
     ValueError, "each d_i must be a 2 x 2 matrix"),
    ("deformation-order-0-bracket",
     lambda: TruncatedDeformation(BASE, [AltMap(2, 2, 2)],
                                  [AltMap(1, 2, 2)]), ValueError,
     "order-0 bracket must be the base bracket"),
    ("deformation-order-0-operator",
     lambda: TruncatedDeformation(BASE, [BR],
                                  [altmap1_from_matrix(Matrix.identity(2))]),
     ValueError, "order-0 operator must be the base operator"),
    ("extension-shape",
     lambda: AbelianExtension(TOTAL, Matrix.zero(2, 1), P, S),
     InvalidExtension, "shape mismatch"),
    ("extension-dimension-count",
     lambda: AbelianExtension(TOTAL, Matrix.zero(3, 2), P, S),
     InvalidExtension, "dimension count is not exact"),
    ("extension-p-i",
     lambda: AbelianExtension(TOTAL, Matrix.from_rows([[1], [0], [0]]),
                              P, S), InvalidExtension, "p . i != 0"),
    ("extension-split",
     lambda: AbelianExtension(TOTAL, Matrix.zero(3, 1), P, S),
     InvalidExtension, "i and s do not split the total space"),
    ("homotopy-degree",
     lambda: HomotopyDiffLie(MIXED, {1: GradedSymMap(1, 0, MIXED)}, {}, 0),
     ValueError, "mu_1 is not a degree-1 map on the space"),
    ("homotopy-homogeneity", _homogeneity_breach, ValueError,
     "mu_1 is not homogeneous of degree 1"),
    ("lie-bracket-arity",
     lambda: LieAlgebra(2, AltMap(1, 2, 2)), ArityMismatch,
     "a bracket has arity 2"),
    ("lie-bracket-dimensions",
     lambda: LieAlgebra(3, AltMap(2, 2, 2)), DimensionMismatch,
     "bracket dimensions"),
    ("difflie-operator-shape",
     lambda: DiffLieAlgebra(aff1(), Matrix.zero(3, 3), 1),
     DimensionMismatch, "operator matrix shape"),
    ("rep-rho-shape",
     lambda: DiffRepresentation(2, [Matrix.zero(3, 3)], Matrix.zero(2, 2)),
     DimensionMismatch, "rho matrix shape"),
    ("rep-dv-shape",
     lambda: DiffRepresentation(2, [Matrix.zero(2, 2)], Matrix.zero(3, 3)),
     DimensionMismatch, "dV matrix shape"),
    ("lieact-rho-count",
     lambda: LieActTriple(aff1(), aff1(), [Matrix.zero(2, 2)]),
     DimensionMismatch, "one rho matrix per basis vector of g"),
    ("lieact-rho-shape",
     lambda: LieActTriple(aff1(), aff1(), [Matrix.zero(3, 3)] * 2),
     DimensionMismatch, "rho matrix shape"),
    ("matrix-ragged",
     lambda: Matrix(2, 2, [[1, 2], [3]]), ValueError,
     "matrix shape mismatch"),
    ("invert-non-square",
     lambda: invert_matrix(Matrix.zero(2, 3)), ValueError,
     "only a square matrix has an inverse"),
    ("graded-space-negative-dimension",
     lambda: GradedVectorSpace([(0, -1)]), ValueError,
     "component dimensions must not be negative"),
    ("graded-map-negative-arity",
     lambda: GradedSymMap(-1, 0, MIXED), ArityMismatch, "negative arity -1"),
    ("graded-map-key-length",
     lambda: filled(GradedSymMap(2, 0, MIXED), {(0,): [1, 0]}),
     ArityMismatch,
     "expected 2 indices"),
    ("graded-map-index-range",
     lambda: filled(GradedSymMap(1, 0, MIXED), {(5,): [1, 0]}),
     IndexError,
     "basis index out of range in (5,)"),
    ("key-formula-no-insertion",
     lambda: key_formula_check(BR, []), ValueError,
     "need 1 <= r <= arity(f)"),
    ("key-formula-too-many-insertions",
     lambda: key_formula_check(BR, [AltMap(1, 2, 2)] * 3), ValueError,
     "need 1 <= r <= arity(f)"),
    ("key-formula-insertion-dimension",
     lambda: key_formula_check(BR, [AltMap(1, 3, 3)]), DimensionMismatch,
     "insertion needs inner maps into the space"),
    ("double-space-map-shape",
     lambda: iota_M(AltMap(2, 2, 1)), DimensionMismatch,
     "the double space embeds maps g -> g, not 2 -> 1"),
]


@pytest.mark.parametrize("build, error, message",
                         [case[1:] for case in CASES],
                         ids=[case[0] for case in CASES])
def test_invalid_input_is_rejected(build, error, message):
    with pytest.raises(error, match="^%s$" % re.escape(message)):
        build()
