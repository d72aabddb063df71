"""Every top-level function and class of the package is reached from a root.

The package holds what a command runs.  Its roots are the command code of
``cli.py`` (``main``, ``build_parser``, and each reader and handler of
``HANDLERS``), every function that ``bench/spans.py`` wraps (its TARGETS,
read from bench/ as tests/test_bench_targets.py reads them), and ALLOWED, a
short list of paper results that no command reaches yet.  Code that only
tests use belongs in tests/, and a wrapper that only forwards one call is
not worth a name.

The check reads the source with ``ast`` and works by name: a reached
definition reaches every top-level definition, in any module, whose name it
reads as a name or as an attribute.  A class reaches all of its methods, and
a module-level assignment reaches what its value reads once its target is
reached.  This over-approximates the call graph, so a failure is always a
definition that nothing on a root path can name.  An ALLOWED entry that a
command or bench target reaches, or that is gone, fails the check too, so
the list only shrinks.
"""

import ast
import os

from test_bench_targets import load_targets

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src", "difflie")

# Paper results that are tested but that no command reaches yet, each with
# why it stays in the package.
ALLOWED = {
    "extensions.equivalence_witness":
        "the equivalence of two abelian extensions (classification by H^2)",
    "deformations.infinitesimal":
        "the infinitesimal of a deformation is a 2-cocycle",
    "homotopy.twist": "twisting a homotopy structure by a Maurer-Cartan "
                      "element",
    "homotopy.mc_residual": "the Maurer-Cartan equation of an "
                            "L-infinity[1]-algebra",
    "homotopy.lambda_rescale": "the lambda-rescalings of an "
                               "L-infinity[1]-algebra",
    "homotopy.suspend_diff_lie": "a differential Lie algebra as a homotopy "
                                 "structure on its suspension",
    "liealg.LieActTriple": "the data of the relative setting",
    "liealg.lieact_residuals": "the axioms of a LieAct triple",
    "liealg.is_lieact": "the LieAct triple axioms vanish",
    "liealg.relative_diff_residual": "the axioms of a relative differential "
                                     "operator",
    "liealg.rescale_operator": "rescaling a weight-lambda operator changes "
                               "its weight",
    "linfty.mc_check_relative": "relative operators are the Maurer-Cartan "
                                "elements of the relative structure",
}


def definitions(trees):
    """{name: [(module, node)]} of the top-level defs, classes and assigned
    names of the modules {module: tree}."""
    defs = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = getattr(node, "targets", None) or [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                defs.setdefault(name, []).append((mod, node))
    return defs


def read_names(node):
    """The names and attribute names that node reads."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
    return out


def unreached(trees, roots):
    """(module, name) of each top-level def or class of trees that the
    roots, qualified names "module.name", do not reach."""
    defs = definitions(trees)
    seen = set()
    todo = []
    for root in roots:
        mod, name = root.split(".", 1)
        todo += [node for m, node in defs.get(name, []) if m == mod]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        for name in read_names(node):
            todo += [n for _m, n in defs.get(name, [])]
    return sorted((mod, node.name) for mod, tree in trees.items()
                  for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                  and id(node) not in seen)


def package_trees():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def cli_roots(tree):
    """main, build_parser, and each reader and handler of HANDLERS."""
    roots = ["cli.main", "cli.build_parser"]
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HANDLERS"
                for t in node.targets):
            roots += ["cli." + n.id for pair in node.value.values
                      for n in pair.elts]
    return roots


def test_the_check_flags_an_unreferenced_function():
    trees = {"m": ast.parse(
        "def root():\n    return helper() + obj.method_like()\n"
        "def helper():\n    return CONST\n"
        "CONST = other\n"
        "def other():\n    pass\n"
        "def method_like():\n    pass\n"
        "def dead():\n    return helper()\n"
        "class Unused:\n    def root(self):\n        pass\n")}
    assert unreached(trees, ["m.root"]) == [("m", "Unused"), ("m", "dead")]


def test_every_definition_is_reached():
    trees = package_trees()
    roots = cli_roots(trees["cli"]) + [
        "%s.%s" % (mod, attr.split(".")[0])
        for mod, attr, _layer, _kind in load_targets()]
    assert len(cli_roots(trees["cli"])) > 2
    # an entry that a command reaches, or that is gone, leaves the list
    unlisted = {"%s.%s" % key for key in unreached(trees, roots)}
    stale = sorted(set(ALLOWED) - unlisted)
    assert not stale, "ALLOWED entries that are reached or gone: %s" % stale
    dead = ["%s.%s" % key for key in unreached(trees, roots + list(ALLOWED))]
    assert not dead, "reached from no command, bench target or ALLOWED " \
                     "entry: %s" % dead
