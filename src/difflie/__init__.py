"""Exact-arithmetic toolkit for differential Lie algebras of arbitrary weight.

Submodules:
  linalg        exact rational matrices (rank, kernel, solve, homology)
  permutations  shuffles, Koszul signs
  multilinear   graded symmetric multilinear maps (alternating maps are the
                one-odd-degree case), suspension, arity-1 maps as matrices
  liealg        differential Lie algebras, representations, LieAct triples
  nr            the insertion sum: NR circle product, bracket, and the
                weight-graded family sums
  linfty        formal L-infinity[1] structures on sM (+) a: derived
                brackets, MC, the twisted l_1
  cohomology    the three cochain complexes and their bridges
  extensions    abelian extensions and their classification
  deformations  truncated formal deformations and rigidification
  homotopy      homotopy differential Lie algebras on graded spaces; an
                L-infinity[1]-algebra is one with no D (MC, twisting,
                rescaling)
  cli           command-line interface
"""

__version__ = "1.0.0"
