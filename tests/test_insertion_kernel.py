"""Shuffle insertion on maps has one kernel, ``nr.insertion_sum``.

Outside ``permutations.py`` only two functions of the package may call
``shuffles(``: ``nr.insertion_sum`` itself, and
``linfty.generalized_jacobi_residual_formal``, whose brackets return formal
sums of terms rather than maps on one space.  Any other shuffle loop is a
second copy of the insertion sum.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "difflie")

ALLOWED = {("nr.py", "insertion_sum"),
           ("linfty.py", "generalized_jacobi_residual_formal")}


def shuffle_calls(name, tree):
    """(file, enclosing function, line) of each call of shuffles(...)."""
    out = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = node.name
        if isinstance(node, ast.Call):
            fn = node.func
            called = fn.id if isinstance(fn, ast.Name) else \
                fn.attr if isinstance(fn, ast.Attribute) else None
            if called == "shuffles":
                out.append((name, where, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(tree, None)
    return out


def test_only_the_kernel_calls_shuffles():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py") and name != "permutations.py":
            with open(os.path.join(SRC, name)) as fh:
                found += shuffle_calls(name, ast.parse(fh.read(), name))
    callers = {(name, fn) for name, fn, _ in found}
    assert callers <= ALLOWED, sorted(found)
    assert ("nr.py", "insertion_sum") in callers


def test_shuffle_calls_are_seen():
    snippet = ("from .permutations import shuffles\n"
               "import difflie.permutations as p\n"
               "def insertion_sum(f):\n    return shuffles((1, 1))\n"
               "def loop():\n    for s in p.shuffles((2, 1)):\n        pass\n"
               "top = shuffles((1,))\n")
    assert shuffle_calls("nr.py", ast.parse(snippet)) == [
        ("nr.py", "insertion_sum", 4), ("nr.py", "loop", 6),
        ("nr.py", None, 8)]
