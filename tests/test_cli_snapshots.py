"""Byte-identity guard for the CLI.

tests/cli_snapshots/cases.json lists one call per subcommand and action (and
the failing and error variants), each with its recorded exit code; the
recorded stdout is <name>.stdout next to it, and the input documents are in
inputs/.  The recordings were made with the CLI as it stood before the
alternating and graded multilinear maps were merged into one class (the
cohomology-corrupt case with the CLI as it stood before the cochain pair
layout moved into cohomology.py, and the deform-verify-broken and
deform-rigidify-dense cases with the CLI as it stood before the deformation
kernels skipped zero terms, and the homotopy-check-zero-arity-huge case with
the CLI as it stood before the homotopy families and the deformation
equations became one weight-graded kernel), so any change of a report, down
to a byte, fails here.  The help and cohomology-help cases record
``--help``.

Every case runs twice: in process, through ``main(argv)``, and as the
program of a fresh interpreter, through ``main()`` reading ``sys.argv``,
which is the path of the console script and of the benchmark and the only
one that freezes the heap before exit.  There a case that exits 0 or 1 also
writes its report to a --json-out file, which must equal stdout.
"""

import json
import os
import subprocess
import sys

import pytest

from difflie.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "cli_snapshots")
SRC = os.path.join(os.path.dirname(HERE), os.pardir, "src")
CLI = "import sys; from difflie.cli import main; sys.exit(main())"
with open(os.path.join(HERE, "cases.json")) as fh:
    CASES = json.load(fh)
IDS = [c["name"] for c in CASES]


def _argv(case):
    return [os.path.join(HERE, "inputs", a) if a.endswith(".json") else a
            for a in case["argv"]]


def _expected(case):
    with open(os.path.join(HERE, case["name"] + ".stdout"), "rb") as fh:
        return fh.read()


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cli_snapshot(case, capsysbinary, monkeypatch):
    # argparse wraps help text at the terminal width, and Python 3.13 wraps
    # a long usage line differently; at this width nothing wraps
    monkeypatch.setenv("COLUMNS", "200")
    code = main(_argv(case))
    assert code == case["exit"]
    assert capsysbinary.readouterr().out == _expected(case)


@pytest.mark.parametrize("case", CASES, ids=IDS)
def test_cli_snapshot_as_program(case, tmp_path):
    argv = _argv(case)
    out = tmp_path / "out.json"
    written = case["exit"] != 2 and "--help" not in argv
    if written:
        argv += ["--json-out", str(out)]
    flags = ["-O"] if sys.flags.optimize else []
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC), COLUMNS="200")
    proc = subprocess.run([sys.executable] + flags + ["-c", CLI] + argv,
                          env=env, capture_output=True, timeout=120)
    assert proc.returncode == case["exit"], proc.stderr[-2000:]
    assert proc.stdout == _expected(case)
    if written:
        assert out.read_bytes() == proc.stdout


def test_every_subcommand_and_action_is_covered():
    seen = {tuple(c["argv"][:2]) if c["argv"][0] in ("extension", "deform")
            else c["argv"][0] for c in CASES}
    flavors = {c["argv"][c["argv"].index("--flavor") + 1]
               for c in CASES if "--flavor" in c["argv"]}
    assert {"check-axioms", "cohomology", "mc-check", "twist", "key-formula",
            "morphism-check", "homotopy-check", ("extension", "build"),
            ("extension", "extract"), ("extension", "classify"),
            ("deform", "verify"), ("deform", "rigidify")} <= seen
    assert {"ce", "do", "difflie", "tilde"} <= flavors
