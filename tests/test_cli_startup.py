"""Start-up loads only what the subcommand runs; exit skips the teardown
of the heap only where the process ends.

Importing the CLI and building its parser loads no module of the package
but ``difflie`` and ``difflie.cli``, and none of ``json``, ``fractions``
or ``decimal``; a command loads ``difflie.commands`` with the wire readers
and the scalars once its arguments parse, and imports the computations it
runs (``random`` only where it draws samples).  ``main()`` run as the
process's program freezes the garbage collector once the command has run;
``main(argv)`` does not, which is checked in this process; every other
check runs in a fresh interpreter.
"""

import gc
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
LAZY = ["difflie." + m for m in ("cohomology", "linfty", "extensions",
                                  "deformations", "homotopy", "nr",
                                  "permutations", "linalg", "liealg",
                                  "multilinear", "commands")]
# what every command loads once its arguments parse
COMMAND = ["difflie.commands", "difflie.liealg", "difflie.linalg",
           "difflie.multilinear"]


def _modules(code):
    """The names in sys.modules after running code in a fresh interpreter.
    The probe prints them without importing anything itself."""
    probe = code + "\nprint(' '.join(sorted(sys.modules)))"
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def _loaded(code):
    """The LAZY modules loaded after running code in a fresh interpreter."""
    return sorted(set(LAZY) & _modules(code))


def test_parser_loads_no_computation():
    parsed = _modules("import sys\nimport difflie.cli as c\n"
                      "c.build_parser()")
    assert sorted(m for m in parsed if m.split(".")[0] == "difflie") == [
        "difflie", "difflie.cli"]
    # site loads different modules on different hosts, so the baseline is
    # a bare interpreter on this one
    bare = _modules("import sys")
    assert {"json", "fractions", "decimal"} & parsed <= bare


def test_check_axioms_loads_no_computation():
    # the axioms are read off the weight-0 families of nr, so the check
    # loads nr and the shuffles it runs, and no other computation
    path = os.path.join(HERE, "cli_snapshots", "inputs", "aff1_adjoint.json")
    code = ("import sys, io, contextlib\nfrom difflie.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['check-axioms', %r]) == 0" % path)
    assert _loaded(code) == sorted(COMMAND + ["difflie.nr",
                                              "difflie.permutations"])
    # only key-formula and morphism-check draw samples
    assert {"random"} & _modules(code) <= _modules("import sys")


def _run(argv):
    """Code that runs the CLI on argv, its input document a snapshot
    input, and checks that it succeeds."""
    argv = argv[:-1] + [os.path.join(HERE, "cli_snapshots", "inputs",
                                     argv[-1])]
    return ("import sys, io, contextlib\nfrom difflie.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(%r) == 0" % (argv,))


def test_commands_load_what_they_run():
    # the cochain complexes load only where a cocycle is checked or solved
    verify = _loaded(_run(["deform", "verify", "deform_sl2.json"]))
    assert "difflie.deformations" in verify
    assert "difflie.cohomology" not in verify
    extract = _loaded(_run(["extension", "extract", "ext_total.json"]))
    assert "difflie.extensions" in extract
    assert "difflie.cohomology" not in extract
    # the cochain operators read the insertion kernel only when called, so
    # building and ranking a complex loads neither it nor the shuffles
    coho_code = _run(["cohomology", "--max-degree", "3",
                      "heis_trivial2.json"])
    coho = _loaded(coho_code)
    assert coho == sorted(COMMAND + ["difflie.cohomology"])
    assert {"random"} & _modules(coho_code) <= _modules("import sys")
    for argv in (["deform", "rigidify", "deform_sl2.json"],
                 ["extension", "build", "ext_cocycle.json"]):
        assert "difflie.cohomology" in _loaded(_run(argv)), argv


def test_usage_errors_load_no_computation():
    # an option value argparse rejects, among them a --max-degree above the
    # cap, exits before the commands load
    path = os.path.join(HERE, "cli_snapshots", "inputs", "aff1.json")
    for option in (["--max-degree", "0"],
                   ["--max-degree", "99999999999999999999"]):
        code = ("import sys, io, contextlib\nfrom difflie.cli import main\n"
                "with contextlib.redirect_stderr(io.StringIO()):\n"
                "    assert main(%r) == 2" % (["cohomology", path] + option,))
        assert _loaded(code) == [], option


def test_main_with_argv_does_not_freeze():
    path = os.path.join(HERE, "cli_snapshots", "inputs", "aff1.json")
    before = gc.get_freeze_count()
    from difflie.cli import main
    assert main(["check-axioms", path]) == 0
    assert gc.get_freeze_count() == before


def test_main_as_program_freezes_before_exit():
    # the hook runs at exit, after main has returned; it writes to stderr
    # so that stdout stays the report
    path = os.path.join(HERE, "cli_snapshots", "inputs", "aff1.json")
    probe = ("import atexit, gc, sys\n"
             "atexit.register(lambda: sys.stderr.write("
             "'frozen=%d' % (gc.get_freeze_count() > 0)))\n"
             "from difflie.cli import main\n"
             "sys.exit(main())")
    proc = subprocess.run([sys.executable, "-c", probe, "check-axioms", path],
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "frozen=1"
