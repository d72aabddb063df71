"""The runtime is stdlib-only: every module of the package imports only
the standard library and the package itself.

The check reads the source with ``ast``.  An absolute import (``import x``
or ``from x import y``) must name a top-level module in
``sys.stdlib_module_names`` (Python 3.10 and later) or ``difflie``; a
relative import (``from . import nr``) stays inside the package.  So a
dependency cannot enter the package unnoticed on any interpreter the CI
runs, whatever happens to be installed there.
"""

import ast
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "difflie")
ALLOWED = set(sys.stdlib_module_names) | {"difflie"}


def foreign_imports(source):
    """(line, top-level module) of each absolute import of the source
    outside the standard library and difflie."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, name.split(".")[0]) for name in names
                if name.split(".")[0] not in ALLOWED]
    return sorted(out)


def test_the_check_finds_foreign_imports():
    snippet = ("import os\nimport numpy as np\n"
               "from scipy.linalg import lu\nfrom . import nr\n"
               "from .linalg import Matrix\nfrom difflie.nr import circ_bar\n"
               "import json, yaml.loader\n"
               "def f():\n    import sympy\n")
    assert foreign_imports(snippet) == [(2, "numpy"), (3, "scipy"),
                                        (7, "yaml"), (9, "sympy")]


def test_the_package_imports_only_the_standard_library():
    found = []
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                found += ["%s:%d %s" % (name, line, module)
                          for line, module in foreign_imports(fh.read())]
    assert not found
