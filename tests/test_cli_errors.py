"""Malformed input ends in exit status 2 with one stderr line.

tests/cli_snapshots/errors.json lists one CLI call per input defect (wrong
shapes and lengths, out-of-range indices, zero denominators, degree bounds,
floats and bools where integers or scalars belong, repeated entries, maps
whose arity does not fit their role, keys a document kind does not have,
options a subcommand does not read or values it does not allow, documents
that fail the axioms at the extension or the deformation boundary, a
--json-out file that cannot be opened or written); its inputs live in
tests/cli_snapshots/inputs/.  A case that writes to a device names it as
its "device" and is skipped where the device does not exist.  Every
such call, and every exit-2 call of the snapshot cases, must print nothing
on stdout and exactly one line on stderr, also under ``python -O``, where
``assert`` statements are gone.  A case that argparse rejects (a bad option
value, an option a subcommand does not declare) also records that line as
its "stderr", and the line must match it exactly: argparse builds it from
the names of the parser and of the option's type.  A document whose
computation runs out of memory under an address-space limit exits 2 with
one line too.
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


def _cases(name):
    with open(os.path.join(HERE, name)) as fh:
        return json.load(fh)


def _no_device(case):
    return "device" in case and not os.path.exists(case["device"])


ERRORS = _cases("errors.json")
EXIT2 = ([c for c in ERRORS if not _no_device(c)] +
         [c for c in _cases("cases.json") if c["exit"] == 2])


def _argv(case):
    return [os.path.join(HERE, "inputs", a) if a.endswith(".json") else a
            for a in case["argv"]]


@pytest.mark.parametrize("case", [
    pytest.param(c, id=c["name"], marks=pytest.mark.skipif(
        _no_device(c), reason="no %s on this host" % c.get("device")))
    for c in ERRORS])
def test_defect_exits_2_with_one_line(case, capsys):
    code = main(_argv(case))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    if "stderr" in case:
        assert captured.err == case["stderr"]


def test_exit_2_cases_hold_without_asserts():
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    for case in EXIT2:
        proc = subprocess.run([sys.executable, "-O", "-c", CLI] + _argv(case),
                              env=env, capture_output=True, text=True,
                              timeout=60)
        assert proc.returncode == 2, case["name"]
        assert proc.stdout == "", case["name"]
        assert len(proc.stderr.splitlines()) == 1, (case["name"], proc.stderr)


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    # the 24-dimensional abelian algebra has 576 entries in d, all zero,
    # but its cohomology at the default --max-degree 4 needs far more than
    # 300 MiB; under that address-space limit the run ends in MemoryError,
    # which must be one line, not a traceback
    resource = pytest.importorskip("resource")
    limit = 300 * 2 ** 20
    doc = tmp_path / "abelian24.json"
    doc.write_text(json.dumps({"dim": 24, "brackets": [], "weight": 0,
                               "d": [[0] * 24] * 24}))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    flags = ["-O"] if sys.flags.optimize else []
    proc = subprocess.run([sys.executable] + flags +
                          ["-c", CLI, "cohomology", str(doc)],
                          env=env, capture_output=True, text=True,
                          timeout=120, preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: out of memory")
    assert len(proc.stderr.splitlines()) == 1
