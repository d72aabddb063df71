"""Shuffle insertion on maps has one kernel, ``nr.insertion_sum``, and the
weight-graded family sums have one, ``nr.pointed_family``.

Outside ``permutations.py`` only one function of the package may call
``shuffles(``: ``nr.insertion_sum`` itself.  Any other shuffle loop is a
second copy of the insertion sum.  (The generalised Jacobi sum of the
formal structures on sM (+) a, whose brackets return formal sums of terms
rather than maps on one space, is a test oracle in ``tests/test_linfty.py``,
outside the package.)  Only three functions may call ``.accumulate(``, the
evaluation of a map on vectors given by their nonzero entries:
``nr.insertion_sum``, ``GradedSymMap.evaluate`` and
``multilinear.pullback``.  Any other caller evaluates maps on maps by hand,
a copy of the insertion sum.  Only two functions may call
``.evaluate(``, the evaluation of a map on whole vectors: the two residual
readers of ``homotopy`` (``linfty_residual`` and
``homotopy_diff_residual``).  Any other caller
builds a map by evaluating another one slot by slot, as the cochain
coboundaries once did, instead of reading it off the kernel.

Likewise only ``nr.pointed_family`` inserts at pointed shuffles (calls
``insertion_sum`` with a ``pointed`` argument), and no function sums circle
products over a family (adds ``circ_bar(..)`` terms inside a loop or a
comprehension): that sum is ``pointed_family`` at lambda = 0.  Any other
such sum is a second copy of the deformation equations or of a homotopy
family.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "difflie")

ALLOWED = {("nr.py", "insertion_sum")}
ACCUMULATORS = {("nr.py", "insertion_sum"),
                ("multilinear.py", "evaluate"),
                ("multilinear.py", "pullback")}

EVALUATORS = {("homotopy.py", "linfty_residual"),
              ("homotopy.py", "homotopy_diff_residual")}


def _called(node):
    """The name a Call node calls, or None."""
    fn = node.func
    return fn.id if isinstance(fn, ast.Name) else \
        fn.attr if isinstance(fn, ast.Attribute) else None


def calls(name, tree, callee):
    """(file, enclosing function, line) of each call of callee(...), as a
    plain name or as an attribute."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call) and _called(node) == callee:
            out.append((name, where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return out


def package_calls(callee, skip=()):
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name not in skip:
            with open(os.path.join(SRC, name)) as fh:
                found += calls(name, ast.parse(fh.read(), name), callee)
    return found


def test_only_the_kernel_calls_shuffles():
    found = package_calls("shuffles", skip=("permutations.py",))
    callers = {(name, fn) for name, fn, _ in found}
    assert callers <= ALLOWED, sorted(found)
    assert ("nr.py", "insertion_sum") in callers


def test_only_the_kernels_accumulate():
    found = package_calls("accumulate")
    callers = {(name, fn) for name, fn, _ in found}
    assert callers == ACCUMULATORS, sorted(found)


def test_only_the_readers_evaluate():
    found = package_calls("evaluate")
    callers = {(name, fn) for name, fn, _ in found}
    assert callers == EVALUATORS, sorted(found)


def test_shuffle_calls_are_seen():
    snippet = ("from .permutations import shuffles\n"
               "import difflie.permutations as p\n"
               "def insertion_sum(f):\n    return shuffles((1, 1))\n"
               "def loop():\n    for s in p.shuffles((2, 1)):\n        pass\n"
               "top = shuffles((1,))\n")
    assert calls("nr.py", ast.parse(snippet), "shuffles") == [
        ("nr.py", "insertion_sum", 4), ("nr.py", "loop", 6),
        ("nr.py", None, 8)]


def test_accumulate_calls_are_seen():
    snippet = ("def evaluate(self, args):\n"
               "    self.accumulate(out, 1, args)\n"
               "def pair(mu_b, cols):\n"
               "    for x, y in cols:\n"
               "        mu_b.accumulate(total, 1, [x, y])\n"
               "def accumulate(out):\n    return out\n")
    assert calls("deformations.py", ast.parse(snippet), "accumulate") == [
        ("deformations.py", "evaluate", 2),
        ("deformations.py", "pair", 5)]


def test_evaluate_calls_are_seen():
    snippet = ("class LieAlgebra:\n"
               "    def br(self, u, v):\n"
               "        return self.bracket.evaluate([u, v])\n"
               "def ce_apply(f, keys):\n"
               "    return [f.evaluate([k]) for k in keys]\n"
               "def delta_apply(f, args):\n"
               "    return f.evaluate_head(args) + evaluate(args)\n")
    assert calls("cohomology.py", ast.parse(snippet), "evaluate") == [
        ("cohomology.py", "br", 3), ("cohomology.py", "ce_apply", 5),
        ("cohomology.py", "delta_apply", 7)]


LOOPS = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def family_sums(name, tree):
    """(file, enclosing function, kind, line) of each pointed insertion
    (kind "pointed": insertion_sum called with a third argument or a pointed
    keyword) and of each circle product summed over a family (kind "circ":
    a circ_bar call inside a loop or comprehension that is an operand of +,
    - or += / -=, or an argument of sum)."""
    out = []

    def has_circ(node):
        return any(isinstance(n, ast.Call) and _called(n) == "circ_bar"
                   for n in ast.walk(node))

    def visit(node, where, looped):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where, looped = node.name, False
        if isinstance(node, LOOPS):
            looped = True
        if isinstance(node, ast.Call) and _called(node) == "insertion_sum" \
                and (len(node.args) > 2 or
                     any(k.arg == "pointed" for k in node.keywords)):
            out.append((name, where, "pointed", node.lineno))
        terms = []
        if isinstance(node, ast.BinOp) and \
                isinstance(node.op, (ast.Add, ast.Sub)):
            terms = [node.left, node.right]
        elif isinstance(node, ast.AugAssign) and \
                isinstance(node.op, (ast.Add, ast.Sub)):
            terms = [node.value]
        elif isinstance(node, ast.Call) and _called(node) == "sum":
            terms = node.args
        if any(has_circ(t) and (looped or isinstance(t, LOOPS))
               for t in terms):
            out.append((name, where, "circ", node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where, looped)

    visit(tree, None, False)
    return out


def test_only_the_family_kernels_sum_families():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                found += family_sums(name, ast.parse(fh.read(), name))
    callers = {(name, fn, kind) for name, fn, kind, _ in found}
    assert callers == {("nr.py", "pointed_family", "pointed")}, sorted(found)


def test_family_sums_are_seen():
    snippet = ("def pointed_family(f, g):\n"
               "    return insertion_sum(f, [g], pointed=True)\n"
               "def a(f, g):\n    return insertion_sum(f, [g], True)\n"
               "def b(f, g):\n    return insertion_sum(f, [g])\n"
               "def c(fs, g):\n    out = 0\n    for f in fs:\n"
               "        out = out + circ_bar(f, g).scale(2)\n"
               "def d(fs, g):\n"
               "    return sum(nr.circ_bar(f, g) for f in fs)\n"
               "def e(fs, g):\n    out = 0\n    while fs:\n"
               "        out -= circ_bar(fs.pop(), g)\n"
               "def f(h, xs):\n    for x in xs:\n"
               "        h = circ_bar(h, x)\n    return h - circ_bar(h, h)\n")
    assert family_sums("nr.py", ast.parse(snippet)) == [
        ("nr.py", "pointed_family", "pointed", 2),
        ("nr.py", "a", "pointed", 4),
        ("nr.py", "c", "circ", 10),
        ("nr.py", "d", "circ", 12),
        ("nr.py", "e", "circ", 16)]
