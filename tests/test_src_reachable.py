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
reads as a name or as an attribute, and every method whose name it reads as
an attribute.  A reached class reaches its bases, its class-level statements
and its dunder methods, which Python calls by protocol; any other method is
reached only through an attribute read, so a method that no root path names
is flagged like a dead function.  A module-level assignment reaches what
its value reads once its target is reached.  A root may name a method as
"module.Class.method" (``_Parser.error``, which argparse calls, is one).
This over-approximates the call graph, so a failure is always a definition
that nothing on a root path can name.  An ALLOWED entry that a command or
bench target reaches, or that is gone, fails the check too, so the list
only shrinks.
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


def is_method(node):
    """A def in a class body that Python does not call by protocol."""
    return isinstance(node, ast.FunctionDef) and not (
        node.name.startswith("__") and node.name.endswith("__"))


def methods(trees):
    """{name: [(module, class, node)]} of the methods of the top-level
    classes of the modules {module: tree}."""
    out = {}
    for mod, tree in trees.items():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                for node in cls.body:
                    if is_method(node):
                        out.setdefault(node.name, []).append(
                            (mod, cls.name, node))
    return out


def read_names(nodes):
    """The names, and the attribute names, that nodes read."""
    names, attrs = set(), set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                names.add(n.id)
            elif isinstance(n, ast.Attribute):
                attrs.add(n.attr)
    return names, attrs


def unreached(trees, roots):
    """Qualified names "module.name" of each top-level def or class, and
    "module.Class.method" of each method of a reached class, that the
    roots ("module.name" or "module.Class.method") do not reach."""
    defs, meths = definitions(trees), methods(trees)
    seen = set()
    todo = []
    for root in roots:
        mod, name = root.split(".", 1)
        name, _, method = name.partition(".")
        todo += [node for m, node in defs.get(name, []) if m == mod]
        todo += [node for _m, _c, node in meths.get(method, [])]
    while todo:
        node = todo.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if isinstance(node, ast.ClassDef):
            parts = node.bases + node.decorator_list + [
                n for n in node.body if not is_method(n)]
        else:
            parts = [node]
        names, attrs = read_names(parts)
        for name in names | attrs:
            todo += [n for _m, n in defs.get(name, [])]
        for attr in attrs:
            todo += [n for _m, _c, n in meths.get(attr, [])]
    out = ["%s.%s" % (mod, node.name) for mod, tree in trees.items()
           for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))
           and id(node) not in seen]
    reached_classes = {(mod, node.name) for mod, tree in trees.items()
                       for node in tree.body
                       if isinstance(node, ast.ClassDef) and id(node) in seen}
    out += ["%s.%s.%s" % (mod, cls, node.name)
            for entries in meths.values() for mod, cls, node in entries
            if (mod, cls) in reached_classes and id(node) not in seen]
    return sorted(out)


def package_trees():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read(), name)
    return trees


def cli_roots(tree):
    """main, build_parser, _Parser.error (which argparse calls), and each
    reader and handler of HANDLERS."""
    roots = ["cli.main", "cli.build_parser", "cli._Parser.error"]
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
    assert unreached(trees, ["m.root"]) == ["m.Unused", "m.dead"]


def test_the_check_flags_an_unread_method():
    trees = {"m": ast.parse(
        "def root():\n    return Box().used() + Box.cls_used()\n"
        "class Box(Base):\n    size = 1\n"
        "    def __init__(self):\n        self.x = helper()\n"
        "    def used(self):\n        return self.inner()\n"
        "    def inner(self):\n        pass\n"
        "    @classmethod\n    def cls_used(cls):\n        pass\n"
        "    def dead(self):\n        return self.used()\n"
        "    def root(self):\n        pass\n"
        "class Base:\n    def hook(self):\n        pass\n"
        "def helper():\n    pass\n")}
    # a bare name never reaches a method, however it is spelled
    assert unreached(trees, ["m.root"]) == ["m.Base.hook", "m.Box.dead",
                                            "m.Box.root"]
    assert unreached(trees, ["m.root", "m.Base.hook"]) == ["m.Box.dead",
                                                           "m.Box.root"]


def test_every_definition_is_reached():
    trees = package_trees()
    roots = cli_roots(trees["cli"]) + [
        "%s.%s" % (mod, attr) for mod, attr, _layer, _kind in load_targets()]
    assert len(cli_roots(trees["cli"])) > 3
    # an entry that a command reaches, or that is gone, leaves the list
    stale = sorted(set(ALLOWED) - set(unreached(trees, roots)))
    assert not stale, "ALLOWED entries that are reached or gone: %s" % stale
    dead = unreached(trees, roots + list(ALLOWED))
    assert not dead, "reached from no command, bench target or ALLOWED " \
                     "entry: %s" % dead
