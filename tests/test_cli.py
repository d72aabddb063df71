import json
import os
from fractions import Fraction

from difflie import linfty
from difflie.cli import main
from difflie.linalg import Matrix
from difflie.liealg import (difflie_to_json, rep_to_json,
                            altmap_to_json, adjoint_rep)
from difflie.multilinear import AltMap
from samples import (abelian, aff1, altmap1_from_matrix, constant_deformation,
                     diff_lie, from_rows, identity_matrix, matrix_from_altmap1,
                     sl2, trivial_rep)


def write(tmp_path, name, obj):
    p = tmp_path / name
    p.write_text(json.dumps(obj))
    return str(p)


def aff1_doc(weight="3"):
    A = diff_lie(aff1(), from_rows([[0, 0], [0, 1]]),
                 Fraction(weight))
    return difflie_to_json(A)


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr().out
    return rc, json.loads(out), out


def test_check_axioms_valid(tmp_path, capsys):
    path = write(tmp_path, "a.json", aff1_doc())
    rc, rep, _ = run(capsys, ["check-axioms", path])
    assert rc == 0 and rep["ok"]
    assert rep["jacobi_nonzero"] == {} and rep["operator_nonzero"] == {}


def test_check_axioms_corrupted_names_triple(tmp_path, capsys):
    doc = difflie_to_json(diff_lie(sl2(), Matrix.zero(3, 3),
                                   Fraction(0)))
    doc["brackets"][0][2][0] = "7"  # corrupt one structure constant
    path = write(tmp_path, "bad.json", doc)
    rc, rep, _ = run(capsys, ["check-axioms", path])
    assert rc == 1 and not rep["ok"]
    assert "1,2,3" in rep["jacobi_nonzero"]


def test_check_axioms_malformed_json(tmp_path, capsys):
    p = tmp_path / "junk.json"
    p.write_text("{not json")
    assert main(["check-axioms", str(p)]) == 2


def test_check_axioms_with_rep(tmp_path, capsys):
    A = diff_lie(aff1(), from_rows([[0, 0], [0, 1]]),
                 Fraction(3))
    doc = aff1_doc()
    doc["rep"] = rep_to_json(adjoint_rep(A))
    path = write(tmp_path, "ar.json", doc)
    rc, rep, _ = run(capsys, ["check-axioms", path])
    assert rc == 0 and rep["ok"]
    # break the coefficient operator: compatibility fails
    doc["rep"]["dV"] = [["1", "0"], ["0", "1"]]
    path2 = write(tmp_path, "ar2.json", doc)
    rc2, rep2, _ = run(capsys, ["check-axioms", path2])
    assert rc2 == 1 and rep2["rep_nonzero"]


def test_cohomology_abelian_line(tmp_path, capsys):
    doc = difflie_to_json(diff_lie(abelian(1), Matrix.zero(1, 1),
                                   Fraction(1)))
    path = write(tmp_path, "l.json", doc)
    rc, rep, _ = run(capsys, ["cohomology", path, "--flavor", "difflie"])
    assert rc == 0 and rep["d_squared_ok"]
    assert rep["dims_H"][0] == 1


def test_cohomology_do_weight_zero_equals_ce(tmp_path, capsys):
    doc = difflie_to_json(diff_lie(aff1(),
                                   from_rows([[0, 0], [0, 1]]),
                                   Fraction(0)))
    path = write(tmp_path, "w0.json", doc)
    _, ce, _ = run(capsys, ["cohomology", path, "--flavor", "ce"])
    _, do, _ = run(capsys, ["cohomology", path, "--flavor", "do"])
    assert ce["dims_C"] == do["dims_C"] and ce["dims_H"] == do["dims_H"]


def test_cohomology_tilde_agrees_from_degree_three(tmp_path, capsys):
    path = write(tmp_path, "s.json",
                 difflie_to_json(diff_lie(sl2(), identity_matrix(3),
                                          Fraction(-1))))
    _, full, _ = run(capsys, ["cohomology", path, "--flavor", "difflie",
                              "--max-degree", "4"])
    _, tilde, _ = run(capsys, ["cohomology", path, "--flavor", "tilde",
                               "--max-degree", "4"])
    assert full["dims_H"][3:] == tilde["dims_H"][3:]


def test_mc_check(tmp_path, capsys):
    path = write(tmp_path, "a.json", aff1_doc())
    rc, rep, _ = run(capsys, ["mc-check", path])
    assert rc == 0 and rep["maurer_cartan"]
    doc = aff1_doc()
    doc["d"] = [["1", "1"], ["1", "0"]]  # not a weighted operator
    path2 = write(tmp_path, "b.json", doc)
    rc2, rep2, _ = run(capsys, ["mc-check", path2])
    assert rc2 == 1 and not rep2["maurer_cartan"]


def test_twist_bridge(tmp_path, capsys):
    path = write(tmp_path, "a.json", aff1_doc())
    rc, rep, _ = run(capsys, ["twist", path, "--max-degree", "2"])
    assert rc == 0 and rep["bridge_zero"]


AFF1 = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                    "cli_snapshots", "inputs", "aff1.json")


def test_twist_stops_at_the_last_degree_with_pairs(monkeypatch, capsys):
    # above degree dim + 1 the bridge matrix has no columns, so a large
    # --max-degree builds no more of them and reports what it was given
    import difflie.cohomology as cohomology
    true_bridge, degrees = cohomology.twist_bridge_residual, []

    def counted(A, n):
        degrees.append(n)
        return true_bridge(A, n)

    monkeypatch.setattr(cohomology, "twist_bridge_residual", counted)
    rc, rep, _ = run(capsys, ["twist", AFF1, "--max-degree", "40"])
    assert degrees == [1, 2, 3]
    rc3, rep3, _ = run(capsys, ["twist", AFF1, "--max-degree", "3"])
    assert rc == rc3 == 0 and rep["max_degree"] == 40
    assert dict(rep, max_degree=3) == rep3


def test_twist_reports_nonzero_bridge(monkeypatch, capsys):
    """The bridge is an identity of formulas, so no real input trips it;
    doubling the combined differential makes every column whose
    differential is nonzero show, in degree order and then basis order."""
    import difflie.cohomology as cohomology
    true_d = cohomology.difflie_differential
    monkeypatch.setattr(cohomology, "difflie_differential",
                        lambda A, rep, n, tilde=False:
                        true_d(A, rep, n, tilde).scale(2))
    rc, rep, _ = run(capsys, ["twist", AFF1, "--max-degree", "2"])
    assert rc == 1
    entries = [(1, 1, "0 1 0 0 0 0"), (1, 2, "0 0 0 1 0 0"),
               (1, 3, "-1 0 0 0 -1 0"), (1, 5, "0 0 0 0 0 -4"),
               (1, 6, "0 0 0 1 0 0"), (2, 1, "-1 0"), (2, 3, "0 -4"),
               (2, 5, "1 0")]
    assert rep == {"bridge_nonzero": [
        {"basis_index": k, "degree": n, "residual": res.split()}
        for n, k, res in entries],
        "bridge_zero": False, "dim": 2, "max_degree": 2, "weight": "3"}


def test_key_formula_and_determinism(tmp_path, capsys):
    path = write(tmp_path, "k.json", {"dim": 2})
    rc, rep, out1 = run(capsys, ["key-formula", path, "--seed", "7",
                                 "--order", "3"])
    assert rc == 0 and rep["all_zero"]
    out_file = tmp_path / "rep.json"
    rc2, _, out2 = run(capsys, ["key-formula", path, "--seed", "7",
                                "--order", "3", "--json-out",
                                str(out_file)])
    assert rc2 == 0
    assert out1 == out2  # byte-identical reports
    assert out_file.read_text() == out2


def test_key_formula_reports_a_wrong_closed_form(tmp_path, capsys,
                                                 monkeypatch):
    # a closed form of the wrong sign disagrees with the iterated product
    # on every sample where that product is nonzero
    closed = linfty._closed_form_sum
    monkeypatch.setattr(linfty, "_closed_form_sum",
                        lambda f, xis: closed(f, xis).scale(-1))
    path = write(tmp_path, "k.json", {"dim": 2})
    rc, rep, out = run(capsys, ["key-formula", path, "--seed", "7",
                                "--order", "3"])
    assert rc == 1 and '"all_zero": false' in out
    assert rep["nonzero_samples"] > 0


def test_morphism_check(tmp_path, capsys):
    path = write(tmp_path, "m.json",
                 {"gdim": 2, "hdim": 2, "weight": "1/2"})
    rc, rep, _ = run(capsys, ["morphism-check", path, "--seed", "3"])
    assert rc == 0 and rep["all_zero"]


def ext_fixture_docs():
    A = diff_lie(abelian(2), Matrix.zero(2, 2), Fraction(1))
    rep = trivial_rep(A, 1)
    psi = AltMap(2, 2, 1)
    psi[(0, 1)] = [1]
    chi = AltMap(1, 2, 1)
    return A, rep, psi, chi


def test_extension_build_extract_classify(tmp_path, capsys):
    A, rep, psi, chi = ext_fixture_docs()
    doc = {"base": difflie_to_json(A), "rep": rep_to_json(rep),
           "psi": altmap_to_json(psi), "chi": altmap_to_json(chi)}
    path = write(tmp_path, "e.json", doc)
    rc, built, _ = run(capsys, ["extension", "build", path])
    assert rc == 0 and built["cocycle"]
    assert built["total"]["dim"] == 3
    # feed the total back through extract
    path2 = write(tmp_path, "t.json",
                  {"total": built["total"], "gdim": 2, "vdim": 1})
    rc2, ext, _ = run(capsys, ["extension", "extract", path2])
    assert rc2 == 0
    assert ext["psi"] == altmap_to_json(psi)
    # classification: dim of the truncated degree-2 group
    path3 = write(tmp_path, "c.json",
                  {"base": difflie_to_json(A), "rep": rep_to_json(rep)})
    rc3, cls, _ = run(capsys, ["extension", "classify", path3])
    assert rc3 == 0 and cls["dim_H2"] >= 1


def test_extension_build_rejects_non_cocycle(tmp_path, capsys):
    A = diff_lie(aff1(), from_rows([[0, 0], [0, 1]]),
                 Fraction(2))
    rep = adjoint_rep(A)
    psi = AltMap(2, 2, 2)
    psi[(0, 1)] = [1, 0]
    doc = {"base": difflie_to_json(A), "rep": rep_to_json(rep),
           "psi": altmap_to_json(psi),
           "chi": altmap_to_json(AltMap(1, 2, 2))}
    path = write(tmp_path, "n.json", doc)
    rc, rep_out, _ = run(capsys, ["extension", "build", path])
    assert rc == 1 and not rep_out["cocycle"]
    assert any(x != "0" for x in rep_out["residual"])


def test_deform_verify_and_rigidify(tmp_path, capsys):
    # rigid fixture: weight -1, identity operator on a simple algebra
    A = diff_lie(sl2(), identity_matrix(3), Fraction(-1))
    from difflie.deformations import apply_formal_iso
    phi1 = from_rows([[0, 1, 0], [0, 0, 0], [1, 0, 0]])
    D = apply_formal_iso(constant_deformation(A, 2),
                         {1: altmap1_from_matrix(phi1)})
    doc = {"base": difflie_to_json(A),
           "mu": [altmap_to_json(m) for m in D.mu[1:]],
           "d": [[[str(x) for x in row] for row in matrix_from_altmap1(m).data]
                 for m in D.d[1:]]}
    path = write(tmp_path, "d.json", doc)
    rc, rep, _ = run(capsys, ["deform", "verify", path])
    assert rc == 0 and rep["deformation"]
    rc2, rig, _ = run(capsys, ["deform", "rigidify", path])
    assert rc2 == 0 and rig["trivialized"] and rig["isos"]


def test_deform_rigidify_obstructed(tmp_path, capsys):
    A = diff_lie(abelian(2), Matrix.zero(2, 2), Fraction(1))
    mu1 = AltMap(2, 2, 2)
    mu1[(0, 1)] = [1, 0]
    doc = {"base": difflie_to_json(A),
           "mu": [altmap_to_json(mu1)],
           "d": [[["0", "0"], ["0", "0"]]]}
    path = write(tmp_path, "o.json", doc)
    rc, rep, _ = run(capsys, ["deform", "rigidify", path])
    assert rc == 1 and not rep["trivialized"]
    assert rep["obstructed_at_order"] == 1


def homotopy_doc(q="1", r="2", beta="1"):
    return {"components": [[0, 1], [1, 1]], "weight": "1",
            "mu": {"1": {"1": ["0", "1"]}},
            "D": {"1": {"1": ["1", "0"], "2": ["0", beta]},
                  "2": {"1,1": [r, "0"], "1,2": ["0", q]}}}


def test_homotopy_check(tmp_path, capsys):
    path = write(tmp_path, "h.json", homotopy_doc())
    rc, rep, _ = run(capsys, ["homotopy-check", path])
    assert rc == 0 and rep["maurer_cartan"]
    path2 = write(tmp_path, "h2.json", homotopy_doc(q="5"))
    rc2, rep2, _ = run(capsys, ["homotopy-check", path2])
    assert rc2 == 1 and not rep2["maurer_cartan"]
    assert 2 in rep2["failed_arities"]


def test_homotopy_check_ignores_zero_members(tmp_path, capsys):
    # a zero member of huge arity bounds no residual: the report is the
    # one without it (it used to size the check range and run for hours)
    src = os.path.join(os.path.dirname(__file__), "cli_snapshots", "inputs",
                       "homotopy_ok.json")
    with open(src) as fh:
        doc = json.load(fh)
    _, _, plain = run(capsys, ["homotopy-check", src])
    doc["mu"]["100000"] = {}
    rc, _, padded = run(capsys, ["homotopy-check",
                                 write(tmp_path, "h.json", doc)])
    assert rc == 0 and padded == plain


def test_homotopy_check_zero_structure_on_large_space(tmp_path, capsys):
    # no brackets and no operators: every residual family is an empty sum
    # of maps, so no basis tuple of the 10^5-dimensional space is visited
    # (a per-tuple evaluation ran for minutes)
    doc = {"components": [[0, 100000]], "weight": 0}
    rc, rep, _ = run(capsys, ["homotopy-check",
                              write(tmp_path, "h.json", doc)])
    assert rc == 0
    assert rep == {"checked_arities": [1], "failed_arities": [],
                   "maurer_cartan": True, "weight": "0"}


def test_unknown_flavor_is_parse_error(tmp_path, capsys):
    path = write(tmp_path, "a.json", aff1_doc())
    assert main(["cohomology", path, "--flavor", "nope"]) == 2
