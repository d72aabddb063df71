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


def _abelian(dim):
    """The abelian algebra of the dimension with d = 0, at weight 0."""
    return {"dim": dim, "brackets": [], "weight": 0,
            "d": [[0] * dim] * dim}


def _run_capped(tmp_path, argv, doc, limit, timeout):
    """The CLI call argv + [path of doc], in a fresh interpreter under an
    address-space limit of limit bytes and the timeout in seconds."""
    resource = pytest.importorskip("resource")
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    flags = ["-O"] if sys.flags.optimize else []
    proc = subprocess.run([sys.executable] + flags +
                          ["-c", CLI] + argv + [str(path)],
                          env=env, capture_output=True, text=True,
                          timeout=timeout, preexec_fn=cap)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1
    return proc.stderr


def test_out_of_memory_exits_2_with_one_line(tmp_path):
    # extension build plans no size before it works: the 24-dimensional
    # abelian algebra with a 24-dimensional trivial representation passes
    # the axioms at once, but the degree-2 combined differential of its
    # cocycle check has 55 200 x 7 200 cells, far more than 300 MiB hold;
    # under that address-space limit the run ends in MemoryError, which
    # must be one line, not a traceback
    dim = 24
    zero = [[0] * dim] * dim
    doc = {"base": _abelian(dim),
           "rep": {"rep_dim": dim, "dV": zero,
                   "rho": {str(i + 1): zero for i in range(dim)}},
           "psi": {"arity": 2, "coeffs": {}},
           "chi": {"arity": 1, "coeffs": {}}}
    err = _run_capped(tmp_path, ["extension", "build"], doc, 300 * 2 ** 20,
                      120)
    assert err.startswith("error: out of memory")


@pytest.mark.parametrize("argv, doc, cells", [
    # 1 600 entries of d, all zero; --max-degree 4 by default
    (["cohomology"], _abelian(40), 1741300897600),
    # a 40-dimensional trivial representation; extension classify builds
    # its tilde complex through degree 3
    (["extension", "classify"],
     {"base": _abelian(40),
      "rep": {"rep_dim": 40, "dV": _abelian(40)["d"],
              "rho": {str(i + 1): _abelian(40)["d"] for i in range(40)}}},
     14038400000)], ids=["cohomology", "extension-classify"])
def test_complex_above_the_budget_exits_2_before_building(tmp_path, argv,
                                                          doc, cells):
    # the planned differentials of these small documents hold far more
    # cells than memory; the command rejects them from the plan, so the
    # run ends well within a 1 GiB address space and the timeout
    err = _run_capped(tmp_path, argv, doc, 2 ** 30, 60)
    from difflie.commands import MAX_CELLS
    assert err == ("error: the cochain differentials plan %d matrix cells, "
                   "above the budget of %d\n" % (cells, MAX_CELLS))
