"""Seeded job lists for the benchmark, and the golden gate that checks them.

The committed base documents under ``bench/base/`` are written in a catalog
basis.  A workload seed picks random integer unimodular basis changes P of g
(and Q of V for non-adjoint coefficients) and rewrites every document in the
new basis.  Cohomology dimensions, dim H^2 and every verdict are invariant
under such a change, so one golden answer per job holds for every seed.

Everything here is stdlib-only and independent of the package under test:
the program receives only the generated documents.
"""

import functools
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
BASE_DIR = os.path.join(HERE, "base")


# ---------------------------------------------------------------------------
# exact matrices as lists of rows of Fractions


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else \
        "%d/%d" % (q.numerator, q.denominator)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def matmul(a, b):
    return [[sum((x * b[k][j] for k, x in enumerate(row) if x), Fraction(0))
             for j in range(len(b[0]))] for row in a]


def matvec(a, v):
    return [sum((x * v[k] for k, x in enumerate(row) if x), Fraction(0))
            for row in a]


def inverse(m):
    """Gauss-Jordan inverse of an invertible square matrix."""
    n = len(m)
    aug = [list(row) + e for row, e in zip(m, identity(n))]
    for c in range(n):
        p = next(i for i in range(c, n) if aug[i][c] != 0)
        aug[c], aug[p] = aug[p], aug[c]
        inv = 1 / aug[c][c]
        aug[c] = [inv * x for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def unimodular(rng, n):
    """A dense random integer matrix of determinant +-1: a unit upper
    triangular matrix with every entry above the diagonal drawn from
    {-1, 1}, times a signed permutation.  Every entry of the triangle is
    nonzero, so every seed gives a basis of the same density."""
    up = identity(n)
    for i in range(n):
        for j in range(i + 1, n):
            up[i][j] = Fraction(rng.choice((-1, 1)))
    perm = list(range(n))
    rng.shuffle(perm)
    sp = [[Fraction(rng.choice((-1, 1)) if perm[i] == j else 0)
           for j in range(n)] for i in range(n)]
    return matmul(up, sp)


def rows_in(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rows_out(m):
    return [[fmt(x) for x in row] for row in m]


# ---------------------------------------------------------------------------
# documents in the package's JSON schema


def alt2_table(n, entries):
    """Full antisymmetric table t[i][j] (0-based) of an alternating bilinear
    map on an n-dimensional space, from 1-based (i, j, vector) entries."""
    tdim = len(entries[0][2]) if entries else n
    t = [[[Fraction(0)] * tdim for _ in range(n)] for _ in range(n)]
    for i, j, vec in entries:
        v = [Fraction(c) for c in vec]
        t[i - 1][j - 1] = v
        t[j - 1][i - 1] = [-c for c in v]
    return t


def bracket_table(doc):
    return alt2_table(doc["dim"], doc["brackets"])


def alt2_out(table):
    """[[i, j, vec]] entries (1-based, i < j, nonzero) of an alternating
    table."""
    n = len(table)
    return [[i + 1, j + 1, [fmt(c) for c in table[i][j]]]
            for i in range(n) for j in range(i + 1, n)
            if any(table[i][j])]


def change_alt2(table, P, Pinv_out):
    """An alternating bilinear map with source basis changed by P and target
    basis changed by Pinv_out (which maps old target coordinates to new)."""
    n = len(P)
    old = [[matvec(Pinv_out, table[i][j]) for j in range(n)]
           for i in range(n)]
    tdim = len(Pinv_out)
    out = [[[Fraction(0)] * tdim for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for b in range(a + 1, n):
            acc = [Fraction(0)] * tdim
            for i in range(n):
                pia = P[i][a]
                if not pia:
                    continue
                for j in range(n):
                    c = pia * P[j][b]
                    if c:
                        acc = [x + c * y for x, y in zip(acc, old[i][j])]
            out[a][b] = acc
            out[b][a] = [-x for x in acc]
    return out


def conj(m, P, Pinv):
    return matmul(Pinv, matmul(m, P))


def scramble_algebra(doc, P, Pinv):
    out = {"dim": doc["dim"], "weight": doc["weight"],
           "brackets": alt2_out(change_alt2(bracket_table(doc), P, Pinv)),
           "d": rows_out(conj(rows_in(doc["d"]), P, Pinv))}
    return out


def scramble_rep(rep, P, Q, Qinv):
    """rho'(e'_a) = Qinv rho(P e_a) Q and dV' = Qinv dV Q."""
    n = len(P)
    rho = [rows_in(rep["rho"][str(i + 1)]) for i in range(n)]
    m = rep["rep_dim"]
    new = {}
    for a in range(n):
        acc = [[Fraction(0)] * m for _ in range(m)]
        for i in range(n):
            if P[i][a]:
                acc = [[x + P[i][a] * y for x, y in zip(r1, r2)]
                       for r1, r2 in zip(acc, rho[i])]
        new[str(a + 1)] = rows_out(conj(acc, Q, Qinv))
    return {"rep_dim": m, "rho": new,
            "dV": rows_out(conj(rows_in(rep["dV"]), Q, Qinv))}


def altmap_doc(arity, coeffs):
    return {"arity": arity,
            "coeffs": {",".join(str(i + 1) for i in key): [fmt(c) for c in v]
                       for key, v in sorted(coeffs.items()) if any(v)}}


def load_base(name):
    with open(os.path.join(BASE_DIR, name + ".json")) as fh:
        return json.load(fh)


class Basis:
    """One seeded basis change of g, with V = g for adjoint coefficients and
    a separate Q for a representation document."""

    def __init__(self, rng, dim, rep_dim=None):
        self.P = unimodular(rng, dim)
        self.Pinv = inverse(self.P)
        if rep_dim is not None:
            self.Q = unimodular(rng, rep_dim)
            self.Qinv = inverse(self.Q)

    def algebra(self, doc):
        out = scramble_algebra(doc, self.P, self.Pinv)
        if "rep" in doc:
            out["rep"] = self.rep(doc["rep"])
        return out

    def rep(self, rep):
        return scramble_rep(rep, self.P, self.Q, self.Qinv)


# ---------------------------------------------------------------------------
# jobs


class Job:
    """One CLI call.  ``name`` keys its golden answer; ``files`` maps file
    names to documents written before the call; ``after`` names a job whose
    report this one's input is made from."""

    def __init__(self, name, argv, files, extra=None, after=None):
        self.name = name
        self.argv = argv
        self.files = files
        self.extra = extra or {}
        self.after = after


def _alg_job(name, cmd, fname, doc, *flags):
    return Job(name, cmd + [fname] + list(flags), {fname: doc})


def complex_jobs(seed):
    rng = random.Random(seed)
    jobs = []
    aff1 = Basis(rng, 2).algebra(load_base("aff1"))
    for flavor in ("ce", "do", "difflie", "tilde"):
        jobs.append(_alg_job("cohomology-aff1-" + flavor, ["cohomology"],
                             "aff1.json", aff1, "--flavor", flavor))
    heis = Basis(rng, 3).algebra(load_base("heis"))
    jobs.append(_alg_job("cohomology-heis-difflie", ["cohomology"],
                         "heis.json", heis, "--flavor", "difflie"))
    base = load_base("sl2aff1")
    jobs.append(_alg_job("cohomology-sl2aff1-catalog", ["cohomology"],
                         "sl2aff1_catalog.json", base,
                         "--flavor", "difflie", "--max-degree", "4"))
    jobs.append(_alg_job("cohomology-sl2aff1-scrambled", ["cohomology"],
                         "sl2aff1.json", Basis(rng, 5).algebra(base),
                         "--flavor", "difflie", "--max-degree", "3"))
    sl2sl2 = Basis(rng, 6).algebra(load_base("sl2sl2"))
    jobs.append(_alg_job("cohomology-sl2sl2-difflie", ["cohomology"],
                         "sl2sl2.json", sl2sl2,
                         "--flavor", "difflie", "--max-degree", "1"))
    triv = load_base("sl2triv16")
    triv = Basis(rng, 3, triv["rep"]["rep_dim"]).algebra(triv)
    jobs.append(_alg_job("cohomology-sl2triv16-difflie", ["cohomology"],
                         "sl2triv16.json", triv,
                         "--flavor", "difflie", "--max-degree", "2"))
    cls = load_base("heis_classify")
    b = Basis(rng, 3, cls["rep"]["rep_dim"])
    jobs.append(_alg_job("classify-heis", ["extension", "classify"],
                         "classify.json",
                         {"base": b.algebra(cls["base"]),
                          "rep": b.rep(cls["rep"])}))
    return jobs


SUSPEND = ("aff1", "heis", "sl2aff1", "sl2sl2", "sl2")


def suspended(doc):
    """The homotopy-check document of a differential Lie algebra suspended
    into degree -1: mu_2 is the bracket and D_1 the operator."""
    d = rows_in(doc["d"])
    n = doc["dim"]
    D1 = {str(j + 1): [fmt(d[i][j]) for i in range(n)]
          for j in range(n) if any(d[i][j] for i in range(n))}
    mu2 = {"%d,%d" % (i, j): vec for i, j, vec in doc["brackets"]}
    return {"components": [[-1, n]], "weight": doc["weight"],
            "mu": {"2": mu2}, "D": {"1": D1}}


def residual_jobs(seed):
    rng = random.Random(seed)
    jobs = []
    for dim, order in ((3, 40), (4, 16)):
        jobs.append(Job("key-formula-%d" % dim,
                        ["key-formula", "kf%d.json" % dim, "--seed",
                         str(seed), "--order", str(order)],
                        {"kf%d.json" % dim: {"dim": dim}},
                        extra={"samples": order}))
    for gdim, hdim, w in ((2, 2, "2"), (3, 2, "-1"), (4, 3, "1/2")):
        name = "morphism-%d-%d" % (gdim, hdim)
        jobs.append(Job(name, ["morphism-check", name + ".json", "--seed",
                               str(seed)],
                        {name + ".json": {"gdim": gdim, "hdim": hdim,
                                          "weight": w}}))
    for name in SUSPEND:
        base = load_base(name)
        doc = Basis(rng, base["dim"]).algebra(base)
        f = name + ".json"
        jobs.append(_alg_job("check-axioms-" + name, ["check-axioms"], f,
                             doc))
        jobs.append(_alg_job("mc-check-" + name, ["mc-check"], f, doc))
        jobs.append(_alg_job("homotopy-check-" + name, ["homotopy-check"],
                             name + "_s.json", suspended(doc)))
        if base["dim"] == 3:
            jobs.append(_alg_job("twist-" + name, ["twist"], f, doc,
                                 "--max-degree", "3"))
    return jobs


def _deformation(doc, b):
    out = {"base": b.algebra(doc["base"])}
    out["mu"] = []
    for m in doc["mu"]:
        entries = [[int(i) for i in key.split(",")] + [vec]
                   for key, vec in m["coeffs"].items()]
        new = change_alt2(alt2_table(doc["base"]["dim"], entries),
                          b.P, b.Pinv)
        out["mu"].append(altmap_doc(2, {
            (i, j): new[i][j] for i in range(len(new))
            for j in range(i + 1, len(new))}))
    out["d"] = [rows_out(conj(rows_in(m), b.P, b.Pinv)) for m in doc["d"]]
    return out


def coboundary(alg, rep, phi):
    """(psi, chi) = the combined differential of the 1-cochain phi:
    psi(a, b) = rho(a)phi(b) - rho(b)phi(a) - phi([a, b]) and
    chi(a) = dV phi(a) - phi(d e_a)."""
    n = alg["dim"]
    br = bracket_table(alg)
    d = rows_in(alg["d"])
    rho = [rows_in(rep["rho"][str(i + 1)]) for i in range(n)]
    dV = rows_in(rep["dV"])
    m = rep["rep_dim"]
    # phi as an m x n matrix: column a is phi(e_a)
    psi = {}
    for a in range(n):
        for b in range(a + 1, n):
            pb = [row[b] for row in phi]
            pa = [row[a] for row in phi]
            v = [x - y - z for x, y, z in zip(matvec(rho[a], pb),
                                              matvec(rho[b], pa),
                                              matvec(phi, br[a][b]))]
            psi[(a, b)] = v
    chi = {}
    for a in range(n):
        pa = [row[a] for row in phi]
        dea = [d[i][a] for i in range(n)]
        chi[(a,)] = [x - y for x, y in zip(matvec(dV, pa),
                                           matvec(phi, dea))]
    return psi, chi


def extension_docs(rng, base, rep, b, broken):
    """A seeded coboundary pair on (base, rep), optionally with one fixed
    coordinate of psi moved off the cocycles, rewritten by the basis change
    b.  Returns the build document."""
    n, m = base["dim"], rep["rep_dim"]
    phi = [[Fraction(rng.choice((-1, 0, 1))) for _ in range(n)]
           for _ in range(m)]
    psi, chi = coboundary(base, rep, phi)
    if broken:
        psi[(0, 1)] = [psi[(0, 1)][0] + 1] + psi[(0, 1)][1:]
    # rewrite psi and chi in the new bases of g and V
    table = alt2_table(n, [(i + 1, j + 1, v) for (i, j), v in psi.items()])
    new = change_alt2(table, b.P, b.Qinv)
    psi_new = {(i, j): new[i][j] for i in range(n) for j in range(i + 1, n)}
    chi_new = {}
    for a in range(n):
        acc = [Fraction(0)] * m
        for i in range(n):
            if b.P[i][a]:
                acc = [x + b.P[i][a] * y for x, y in zip(acc, chi[(i,)])]
        chi_new[(a,)] = matvec(b.Qinv, acc)
    return {"base": b.algebra(base), "rep": b.rep(rep),
            "psi": altmap_doc(2, psi_new), "chi": altmap_doc(1, chi_new)}


def structure_jobs(seed):
    rng = random.Random(seed)
    jobs = []
    for name in ("deform_sl2_6", "deform_sl2aff1_3", "deform_sl2aff1_4"):
        doc = load_base(name)
        b = Basis(rng, doc["base"]["dim"])
        f = name + ".json"
        doc = _deformation(doc, b)
        jobs.append(Job("verify-" + name, ["deform", "verify", f], {f: doc}))
        jobs.append(Job("rigidify-" + name, ["deform", "rigidify", f],
                        {f: doc}))
    ext = load_base("ext_sl2aff1")
    b = Basis(rng, ext["base"]["dim"], ext["rep"]["rep_dim"])
    built = extension_docs(rng, ext["base"], ext["rep"], b, broken=False)
    jobs.append(Job("extension-build", ["extension", "build", "ext.json"],
                    {"ext.json": built}))
    jobs.append(Job("extension-extract",
                    ["extension", "extract", "total.json"], {},
                    extra={"input": built}, after="extension-build"))
    bad = extension_docs(rng, ext["base"], ext["rep"], b, broken=True)
    jobs.append(Job("extension-build-noncocycle",
                    ["extension", "build", "ext_bad.json"],
                    {"ext_bad.json": bad}))
    return jobs


WORKLOADS = {
    "complex": complex_jobs,
    "residual": residual_jobs,
    "structure": structure_jobs,
}


def follow_up(job, report):
    """The input document of a job made from an earlier job's report, or
    None when that report holds no total algebra."""
    if not isinstance(report, dict) or "total" not in report:
        return None
    built = job.extra["input"]
    return {"total.json": {"total": report["total"],
                           "gdim": built["base"]["dim"],
                           "vdim": built["rep"]["rep_dim"]}}


# ---------------------------------------------------------------------------
# the golden gate


def _as_fracs(obj):
    """Strings parsed as rationals, recursively, with zero-vector entries of
    coefficient maps dropped, so equal structures compare equal."""
    if isinstance(obj, dict):
        return {k: _as_fracs(v) for k, v in obj.items()
                if not (isinstance(v, list) and v
                        and all(isinstance(x, str) and Fraction(x) == 0
                                for x in v))}
    if isinstance(obj, list):
        return [_as_fracs(v) for v in obj]
    if isinstance(obj, str):
        return Fraction(obj)
    return obj


@functools.cache
def golden():
    """Golden answers by job name: the exit code and the seed-invariant
    report fields."""
    with open(os.path.join(HERE, "golden.json")) as fh:
        return json.load(fh)


def check(job, code, report):
    """True when the exit code and every seed-invariant field agree with
    the golden answer."""
    want = golden()[job.name]
    if code != want["exit"] or report is None:
        return False
    for key, val in want["fields"].items():
        if report.get(key) != val:
            return False
    if job.name.startswith("key-formula"):
        return report.get("samples") == job.extra["samples"]
    if job.name == "extension-extract":
        built = job.extra["input"]
        for key in ("psi", "chi", "rep", "base"):
            if _as_fracs(report.get(key)) != _as_fracs(built[key]):
                return False
    return True
