"""Exact-arithmetic toolkit for differential Lie algebras of arbitrary weight.

Submodules:
  linalg        exact rational matrices (rank, kernel, solve, homology)
  permutations  shuffles, Koszul signs
  multilinear   graded symmetric multilinear maps (alternating maps are the
                one-odd-degree case), suspension, arity-1 maps as matrices
  liealg        differential Lie algebras, representations, LieAct triples
  nr            the insertion sum: NR circle product, bracket, and the
                weight-graded family sums
  linfty        formal L-infinity[1] structures on sM (+) a, whose
                element of degree k is a cochain pair (arities k + 2,
                k + 1): derived brackets, MC, the twisted l_1
  cohomology    the three cochain complexes and their bridges
  extensions    abelian extensions and their classification
  deformations  truncated formal deformations and rigidification
  homotopy      homotopy differential Lie algebras on graded spaces; an
                L-infinity[1]-algebra is one with no D (MC, twisting,
                rescaling)
  commands      the readers and handlers of the subcommands
  cli           command-line parsing; it loads commands, and with them
                the computation, only once the command line parses
"""

__version__ = "1.0.0"

# the cochain complexes of a differential Lie algebra (see cohomology); here
# so that the --flavor choices of the parser load no computation
FLAVORS = ("ce", "do", "difflie", "tilde")
