"""Start-up loads only what the subcommand runs.

Importing the CLI and building its parser loads the algebra, the wire
readers and the scalars, and none of the modules of the computations;
a command imports those it runs.  Each check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(HERE, os.pardir, "src")
LAZY = ["difflie." + m for m in ("cohomology", "linfty", "extensions",
                                  "deformations", "homotopy", "nr",
                                  "permutations")]


def _loaded(code):
    """The LAZY modules loaded after running code in a fresh interpreter."""
    probe = code + "\nimport json\nprint(json.dumps(sorted(m for m in %r " \
                   "if m in sys.modules)))" % (LAZY,)
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=os.path.abspath(SRC)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_parser_loads_no_computation():
    assert _loaded("import sys\nimport difflie.cli as c\n"
                   "c.build_parser()") == []


def test_check_axioms_loads_no_computation():
    # the axioms are the order-0 deformation equations of nr, so the check
    # loads nr and the shuffles it runs, and no other computation
    path = os.path.join(HERE, "cli_snapshots", "inputs", "aff1_adjoint.json")
    code = ("import sys, io, contextlib\nfrom difflie.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['check-axioms', %r]) == 0" % path)
    assert _loaded(code) == ["difflie.nr", "difflie.permutations"]


def test_commands_load_what_they_run():
    path = os.path.join(HERE, "cli_snapshots", "inputs", "deform_sl2.json")
    code = ("import sys, io, contextlib\nfrom difflie.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert main(['deform', 'verify', %r]) == 0" % path)
    assert "difflie.deformations" in _loaded(code)
