"""Every name that a module of the package or of the tests imports is read.

An unused import is dead weight that hides what a module depends on: a test
module that imports a function it never calls looks as if it covers it.
The check reads the source with ``ast``: a name bound by ``import`` or
``from .. import`` must appear as a name somewhere in the module (a call,
an attribute base, a default, a decorator) or be listed in ``__all__``.
"""

import ast
import os

HERE = os.path.dirname(os.path.abspath(__file__))
DIRS = [os.path.join(HERE, os.pardir, "src", "difflie"), HERE]


def unused_imports(source, filename="<source>"):
    """(line, name) of each imported name that the module never reads."""
    tree = ast.parse(source, filename)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name
                if isinstance(node, ast.Import):
                    name = name.split(".")[0]
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read.update(e.value for e in node.value.elts
                        if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_check_finds_unused_imports():
    source = ("import os\nimport os.path as osp\nfrom a import b, c as d\n"
              "from e import f\n__all__ = ['f']\nos.sep\nprint(d)\n")
    assert unused_imports(source) == [(2, "osp"), (3, "b")]


def test_no_unused_imports():
    found = []
    for d in DIRS:
        for name in sorted(os.listdir(d)):
            if name.endswith(".py"):
                path = os.path.join(d, name)
                with open(path) as fh:
                    found += ["%s:%d %s" % (os.path.relpath(path, HERE), line,
                                            imported)
                              for line, imported in
                              unused_imports(fh.read(), path)]
    assert not found
