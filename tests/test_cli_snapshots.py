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
"""

import json
import os

import pytest

from difflie.cli import main

HERE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "cli_snapshots")
with open(os.path.join(HERE, "cases.json")) as fh:
    CASES = json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_cli_snapshot(case, capsys, monkeypatch):
    # argparse wraps help text at the terminal width, and Python 3.13 wraps
    # a long usage line differently; at this width nothing wraps
    monkeypatch.setenv("COLUMNS", "200")
    argv = [os.path.join(HERE, "inputs", a) if a.endswith(".json") else a
            for a in case["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    with open(os.path.join(HERE, case["name"] + ".stdout")) as fh:
        expected = fh.read()
    assert code == case["exit"]
    assert out == expected


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
