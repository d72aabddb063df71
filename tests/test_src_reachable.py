"""Every top-level function and class of the package is reached from a root.

The package holds what a command runs.  Its roots are the command code
(``main`` and ``build_parser`` of ``cli.py``, and ``run`` and each reader
and handler of ``HANDLERS`` of ``commands.py``), every function that
``bench/spans.py`` wraps (its TARGETS, read from bench/ as
tests/test_bench_targets.py reads them), and ALLOWED, a short list of
paper results that no command reaches yet.  Code that only
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

A second check finds knobs: a defaulted parameter of a function, method or
class of the package that no call in the package passes, by keyword or by
position, so that every command runs its default and only tests turn it.
Calls are matched by the plain or attribute name they call, a constructor
call by its class name, and ``super().__init__`` counts for the bases of
its class.  The cli roots and the ALLOWED entries, which commands do not
call, are exempt.
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


def cli_roots(trees):
    """main, build_parser and _Parser.error (which argparse calls) of cli,
    and run and each reader and handler of HANDLERS of commands."""
    roots = ["cli.main", "cli.build_parser", "cli._Parser.error",
             "commands.run"]
    for node in trees["commands"].body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "HANDLERS"
                for t in node.targets):
            roots += ["commands." + n.id for pair in node.value.values
                      for n in pair.elts]
    return roots


def signatures(trees):
    """(qualified name, called name, positional parameters, defaulted
    parameters) of every def of the modules {module: tree}, nested ones
    included.  A method's positions start after self or cls (not for a
    staticmethod), and a class's __init__ is qualified and called by the
    class name."""
    out = []

    def visit(node, path, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path + [child.name], child)
            elif isinstance(child, ast.FunctionDef):
                args = child.args
                pos = [a.arg for a in args.posonlyargs + args.args]
                if cls is not None and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in child.decorator_list):
                    pos = pos[1:]
                defaulted = pos[len(pos) - len(args.defaults):] + [
                    a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                    if d is not None]
                if cls is not None and child.name == "__init__":
                    out.append((".".join(path), cls.name, pos, defaulted))
                else:
                    out.append((".".join(path + [child.name]), child.name,
                                pos, defaulted))
                visit(child, path + [child.name], None)
            else:
                visit(child, path, cls)

    for mod, tree in trees.items():
        visit(tree, [mod], None)
    return out


def passed_arguments(trees):
    """{called name: (positions passed, keywords passed)} over every call
    of the modules, by the plain or attribute name it calls: a call passes
    its first n positions (every one after a *args) and its keywords
    (None for a **kwargs, which passes every one).  super().__init__
    counts for the bases of the enclosing class."""
    out = {}

    def visit(node, bases):
        if isinstance(node, ast.ClassDef):
            bases = [b.id if isinstance(b, ast.Name) else b.attr
                     for b in node.bases]
        if isinstance(node, ast.Call):
            fn = node.func
            if isinstance(fn, ast.Attribute) and fn.attr == "__init__" \
                    and isinstance(fn.value, ast.Call) \
                    and isinstance(fn.value.func, ast.Name) \
                    and fn.value.func.id == "super":
                names = bases
            elif isinstance(fn, (ast.Name, ast.Attribute)):
                names = [fn.id if isinstance(fn, ast.Name) else fn.attr]
            else:
                names = []
            n = float("inf") if any(isinstance(a, ast.Starred)
                                    for a in node.args) else len(node.args)
            for name in names:
                count, kws = out.get(name, (0, set()))
                out[name] = (max(count, n),
                             kws | {k.arg for k in node.keywords})
        for child in ast.iter_child_nodes(node):
            visit(child, bases)

    for tree in trees.values():
        visit(tree, [])
    return out


def unpassed_defaults(trees, exempt):
    """"qualified(parameter)" of each defaulted parameter that no call of
    the modules passes, by keyword or by position, outside the exempt
    qualified names: a knob that every caller leaves at its default."""
    calls = passed_arguments(trees)
    out = []
    for qual, called, pos, defaulted in signatures(trees):
        if qual in exempt:
            continue
        count, kws = calls.get(called, (0, set()))
        out += ["%s(%s)" % (qual, p) for p in defaulted
                if not (p in kws or None in kws
                        or (p in pos and pos.index(p) < count))]
    return sorted(out)


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
    roots = cli_roots(trees) + [
        "%s.%s" % (mod, attr) for mod, attr, _layer, _kind in load_targets()]
    assert len(cli_roots(trees)) > 4
    # an entry that a command reaches, or that is gone, leaves the list
    stale = sorted(set(ALLOWED) - set(unreached(trees, roots)))
    assert not stale, "ALLOWED entries that are reached or gone: %s" % stale
    dead = unreached(trees, roots + list(ALLOWED))
    assert not dead, "reached from no command, bench target or ALLOWED " \
                     "entry: %s" % dead


def test_the_knob_check_flags_an_unpassed_default():
    trees = {"m": ast.parse(
        "def f(x, knob=1, used=2, *, flag=False):\n    return x\n"
        "def g(**kw):\n"
        "    return f(1, used=3) + Box(1).meth(2) + Sub() + h(**kw)\n"
        "def h(a=0):\n    pass\n"
        "class Box:\n    def __init__(self, a, b=None):\n        pass\n"
        "    def meth(self, x, y=0):\n        def inner(z=1):\n"
        "            pass\n        return inner()\n"
        "class Sub(Box):\n    def __init__(self, c=0):\n"
        "        super().__init__(1, 2)\n")}
    # Box(b) is passed by position through super().__init__, h(a) through
    # the **kw of its one call
    planted = ["m.Box.meth(y)", "m.Box.meth.inner(z)", "m.Sub(c)",
               "m.f(flag)", "m.f(knob)"]
    assert unpassed_defaults(trees, set()) == planted
    assert unpassed_defaults(trees, {"m.f", "m.Sub"}) == planted[:2]


def test_every_default_is_passed():
    # a defaulted parameter that no call of the package passes is a knob
    # that only tests turn: the commands always run its default
    trees = package_trees()
    exempt = set(cli_roots(trees)) | set(ALLOWED)
    knobs = unpassed_defaults(trees, exempt)
    assert not knobs, "defaulted parameters that no call in src/ " \
                      "passes: %s" % knobs
