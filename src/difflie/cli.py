"""Command-line surface: load JSON descriptions, run exact verifications,
emit deterministic reports.

Every command reads one JSON document, prints a report (all rationals as
exact "p/q" strings, keys sorted, byte-identical for identical inputs) and
exits with 0 when every residual in the report is zero, 1 when some residual
or verdict is nonzero/negative, and 2 on a parse or schema error, which is
reported as one line on stderr with nothing on stdout.
"""

import argparse
import json
import random
import sys
from fractions import Fraction
from itertools import combinations

from .linalg import (CompositionNonzero, Matrix, basis_vec, fmt_scalar,
                     parse_scalar, vec_is_zero)
from .liealg import (DiffLieAlgebra, adjoint_rep, altmap_from_json,
                     altmap_to_json, difflie_from_json, difflie_to_json,
                     jacobi_residual, rep_from_json, rep_residuals,
                     rep_to_json, weighted_derivation_residual)
from .multilinear import AltMap, GradedSymMap, GradedVectorSpace
from .cohomology import (FLAVORS, CochainComplexSpec, CocyclePair,
                         UnknownFlavor, cohomology_dims, pair_dim,
                         twist_bridge, twist_bridge_residual)
from .extensions import (InvalidExtension, NotCocycle, build_extension,
                         classify, extract_cocycle, split_extension)
from .deformations import (NotDeformation, Obstructed, TruncatedDeformation,
                           deformation_residuals, first_nontrivial_order,
                           rigidify_step)
from .linfty import (Term, absolute_structure, iota_M, iota_a_abs,
                     key_formula_check, mc_check_absolute, morphism_residual,
                     project_a_rel, project_M_embed, relative_structure)
from .homotopy import HomotopyDiffLie, homotopy_mc_check


class SchemaError(Exception):
    pass


def _fmt_vec(v):
    return [fmt_scalar(x) for x in v]


def _load(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise SchemaError(str(e))


def _integer(value, what):
    """A JSON integer; a bool, a fractional number or a string is a
    ValueError rather than being truncated or coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError("%s must be an integer, got %r" % (what, value))
    return value


def _dim(obj, key):
    n = _integer(obj[key], key)
    if n < 0:
        raise ValueError("%s must not be negative" % key)
    return n


def _difflie(obj, weight=None):
    try:
        A = difflie_from_json(obj)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise SchemaError("bad algebra document: %s" % e)
    if weight is not None:
        A = DiffLieAlgebra(A.algebra, A.d, weight)
    return A


def _rep_or_adjoint(obj, A):
    if "rep" in obj:
        try:
            return rep_from_json(obj["rep"], A.dim)
        except (KeyError, TypeError, ValueError, IndexError) as e:
            raise SchemaError("bad representation document: %s" % e)
    return adjoint_rep(A)


def _emit(report, args):
    text = json.dumps(report, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
    sys.stdout.write(text)
    if args.json_out:
        with open(args.json_out, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# commands


def cmd_check_axioms(args):
    obj = _load(args.path)
    A = _difflie(obj, args.weight)
    jac = {}
    for (i, j, k), r in zip(combinations(range(A.dim), 3),
                            jacobi_residual(A.algebra)):
        if not vec_is_zero(r):
            jac["%d,%d,%d" % (i + 1, j + 1, k + 1)] = _fmt_vec(r)
    op = {}
    for (i, j), r in zip(combinations(range(A.dim), 2),
                         weighted_derivation_residual(A)):
        if not vec_is_zero(r):
            op["%d,%d" % (i + 1, j + 1)] = _fmt_vec(r)
    report = {"dim": A.dim, "weight": fmt_scalar(A.weight),
              "jacobi_nonzero": jac, "operator_nonzero": op}
    ok = not jac and not op
    if "rep" in obj:
        rep = _rep_or_adjoint(obj, A)
        rep_bad = {}
        for name, mats in rep_residuals(A, rep).items():
            nz = [i + 1 for i, m in enumerate(mats) if not m.is_zero()]
            if nz:
                rep_bad[name] = nz
        report["rep_nonzero"] = rep_bad
        ok = ok and not rep_bad
    report["ok"] = ok
    return (0 if ok else 1), report


def cmd_cohomology(args):
    obj = _load(args.path)
    A = _difflie(obj, args.weight)
    rep = _rep_or_adjoint(obj, A)
    try:
        spec = CochainComplexSpec(A, rep, args.flavor,
                                  max_degree=args.max_degree)
    except UnknownFlavor as e:
        raise SchemaError(str(e))
    except CompositionNonzero:
        report = {"flavor": args.flavor, "d_squared_ok": False}
        return 1, report
    report = {"flavor": args.flavor, "weight": fmt_scalar(A.weight),
              "dims_C": spec.dims[:args.max_degree + 1],
              "dims_H": cohomology_dims(spec)[:args.max_degree + 1],
              "d_squared_ok": True}
    return 0, report


def cmd_mc_check(args):
    obj = _load(args.path)
    A = _difflie(obj, args.weight)
    ok, res = mc_check_absolute(A.algebra.bracket, A.d, A.weight)
    report = {"dim": A.dim, "weight": fmt_scalar(A.weight),
              "maurer_cartan": ok}
    return (0 if ok else 1), report


def cmd_twist(args):
    obj = _load(args.path)
    A = _difflie(obj, args.weight)
    dim = A.dim
    max_n = args.max_degree
    bad = []
    for n in range(1, max_n + 1):
        size = pair_dim(dim, dim, n)
        bridge = twist_bridge(A, n)
        for idx in range(size):
            pair = CocyclePair.from_coords(basis_vec(size, idx), dim, dim, n)
            res = twist_bridge_residual(A, n, pair, bridge)
            if not vec_is_zero(res):
                bad.append({"degree": n, "basis_index": idx + 1,
                            "residual": _fmt_vec(res)})
    report = {"dim": dim, "weight": fmt_scalar(A.weight),
              "max_degree": max_n, "bridge_nonzero": bad,
              "bridge_zero": not bad}
    return (0 if not bad else 1), report


def _rand_altmap(rng, arity, dim):
    f = AltMap(arity, dim, dim)
    for key in combinations(range(dim), arity):
        f[key] = [Fraction(rng.randrange(-2, 3)) for _ in range(dim)]
    return f


def cmd_key_formula(args):
    obj = _load(args.path)
    try:
        dim = _dim(obj, "dim")
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("bad key-formula document: %s" % e)
    rng = random.Random(args.seed)
    samples = max(1, args.order)
    nonzero = 0
    for _ in range(samples):
        f = _rand_altmap(rng, rng.randrange(2, 4), dim)
        r = rng.randrange(1, f.arity)
        xis = [_rand_altmap(rng, rng.randrange(1, 3), dim)
               for _ in range(r)]
        if not key_formula_check(f, xis, dim).is_zero():
            nonzero += 1
    report = {"dim": dim, "samples": samples, "seed": args.seed,
              "nonzero_samples": nonzero, "all_zero": nonzero == 0}
    return (0 if nonzero == 0 else 1), report


def cmd_morphism_check(args):
    obj = _load(args.path)
    try:
        gdim = _dim(obj, "gdim")
        hdim = _dim(obj, "hdim")
        lam = parse_scalar(obj["weight"])
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError("bad morphism document: %s" % e)
    rng = random.Random(args.seed)
    nonzero = 0
    total = 0
    # one-algebra structure into the pair structure over (g, g)
    src = absolute_structure(gdim, lam)
    tgt = relative_structure(gdim, gdim, lam)

    def phi(t):
        if t.kind == "s":
            return Term("s", iota_M(t.f, gdim))
        return Term("a", iota_a_abs(t.f, gdim))

    pool = [Term("s", _rand_altmap(rng, rng.randrange(1, 3), gdim)),
            Term("a", _rand_altmap(rng, rng.randrange(1, 3), gdim))]
    samples = [tuple(rng.choice(pool) for _ in range(n)) for n in (2, 3)]
    for res in morphism_residual(phi, src, tgt, samples):
        total += 1
        nonzero += not res.is_zero()
    # pair structure into the one-algebra structure on g (+) h, on the
    # payload subalgebra where the embedding is strict (<= one h input)
    N = gdim + hdim
    src2 = relative_structure(gdim, hdim, lam)
    tgt2 = absolute_structure(N, lam)
    pool2 = [Term("s", project_M_embed(
                 _rand_altmap(rng, rng.randrange(1, 3), N), gdim, hdim)),
             Term("a", project_a_rel(
                 _rand_altmap(rng, rng.randrange(1, 3), N), gdim, hdim))]
    samples2 = [tuple(rng.choice(pool2) for _ in range(n)) for n in (2, 3)]
    for res in morphism_residual(lambda t: t, src2, tgt2, samples2):
        total += 1
        nonzero += not res.is_zero()
    report = {"gdim": gdim, "hdim": hdim, "weight": fmt_scalar(lam),
              "seed": args.seed, "samples": total,
              "nonzero_samples": nonzero, "all_zero": nonzero == 0}
    return (0 if nonzero == 0 else 1), report


def cmd_extension(args):
    obj = _load(args.path)
    try:
        if args.action == "build":
            A = _difflie(obj["base"])
            rep = rep_from_json(obj["rep"], A.dim)
            psi = altmap_from_json(obj["psi"], A.dim, rep.space_dim)
            chi = altmap_from_json(obj["chi"], A.dim, rep.space_dim)
        elif args.action == "extract":
            total = _difflie(obj["total"])
            gdim = _dim(obj, "gdim")
            vdim = _dim(obj, "vdim")
        else:
            A = _difflie(obj["base"])
            rep = rep_from_json(obj["rep"], A.dim)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise SchemaError("bad extension document: %s" % e)
    if args.action == "build":
        try:
            E = build_extension(A, rep, psi, chi)
        except NotCocycle as e:
            report = {"action": "build", "cocycle": False,
                      "residual": _fmt_vec(e.residual)}
            return 1, report
        report = {"action": "build", "cocycle": True,
                  "total": difflie_to_json(E.total)}
        return 0, report
    if args.action == "extract":
        E = split_extension(total, gdim, vdim)
        rep2, psi2, chi2 = extract_cocycle(E)
        report = {"action": "extract", "rep": rep_to_json(rep2),
                  "psi": altmap_to_json(psi2), "chi": altmap_to_json(chi2),
                  "base": difflie_to_json(E.base())}
        return 0, report
    report = {"action": "classify", "dim_H2": classify(A, rep)}
    return 0, report


def _deformation_from_json(obj):
    A = _difflie(obj["base"])
    dim = A.dim
    mu = [A.algebra.bracket]
    d = [A.d]
    for m in obj.get("mu", []):
        mu.append(altmap_from_json(m, dim, dim))
    for rows in obj.get("d", []):
        d.append(Matrix.from_rows([[parse_scalar(x) for x in row]
                                   for row in rows]))
    return TruncatedDeformation(A, mu, d)


def cmd_deform(args):
    obj = _load(args.path)
    try:
        D = _deformation_from_json(obj)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise SchemaError("bad deformation document: %s" % e)
    if args.action == "verify":
        bad = []
        for n, (jac, op) in enumerate(deformation_residuals(D)):
            if not jac.is_zero():
                bad.append({"order": n, "equation": "jacobi"})
            if not op.is_zero():
                bad.append({"order": n, "equation": "operator"})
        report = {"action": "verify", "order": D.order,
                  "failures": bad, "deformation": not bad}
        return (0 if not bad else 1), report
    # rigidify
    isos = []
    steps = 0
    try:
        while first_nontrivial_order(D) is not None and steps <= D.order:
            iso, D = rigidify_step(D)
            isos.append([[ [fmt_scalar(x) for x in row] for row in m.data]
                         for m in iso.phi])
            steps += 1
    except NotDeformation as e:
        raise SchemaError(str(e))
    except Obstructed as e:
        report = {"action": "rigidify", "trivialized": False,
                  "obstructed_at_order": e.order}
        return 1, report
    report = {"action": "rigidify", "trivialized": True, "isos": isos}
    return 0, report


def _graded_map_from_json(obj, space, arity, degree):
    f = GradedSymMap(arity, degree, space)
    for key, vec in obj.items():
        idx = tuple(int(p) - 1 for p in key.split(","))
        f[idx] = [parse_scalar(c) for c in vec]
    return f


def cmd_homotopy_check(args):
    obj = _load(args.path)
    try:
        space = GradedVectorSpace([(_integer(d, "degree"),
                                    _integer(m, "dimension"))
                                   for d, m in obj["components"]])
        lam = parse_scalar(obj["weight"])
        mu = {int(i): _graded_map_from_json(c, space, int(i), 1)
              for i, c in obj.get("mu", {}).items()}
        D = {int(i): _graded_map_from_json(c, space, int(i), 0)
             for i, c in obj.get("D", {}).items()}
        H = HomotopyDiffLie(space, mu, D, lam)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        raise SchemaError("bad homotopy document: %s" % e)
    ok, tables = homotopy_mc_check(H, max_n=args.max_degree)
    failed = sorted(n for n, (j, o) in tables.items()
                    if not (j.is_zero() and o.is_zero()))
    report = {"weight": fmt_scalar(lam),
              "checked_arities": sorted(tables),
              "failed_arities": failed, "maurer_cartan": ok}
    return (0 if ok else 1), report


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one stderr line, with exit status 2."""

    def error(self, message):
        self.exit(2, "%s: error: %s\n" % (self.prog, message))


def positive_int(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % n)
    return n


def build_parser():
    p = _Parser(
        prog="difflie",
        description="Exact verifications for differential Lie algebras of "
                    "arbitrary weight.")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, actions=None):
        sp = sub.add_parser(name)
        if actions:
            sp.add_argument("action", choices=actions)
        sp.add_argument("path")
        sp.add_argument("--json-out", default=None)
        return sp

    def weight(sp):
        sp.add_argument("--weight", type=parse_scalar, default=None)
        return sp

    def max_degree(sp, default):
        sp.add_argument("--max-degree", type=positive_int, default=default)
        return sp

    # each subcommand declares only the options its handler reads
    weight(command("check-axioms"))
    max_degree(weight(command("cohomology")), 4).add_argument(
        "--flavor", choices=FLAVORS, default="difflie")
    weight(command("mc-check"))
    max_degree(weight(command("twist")), 3)
    sp = command("key-formula")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--order", type=int, default=5)
    command("morphism-check").add_argument("--seed", type=int, default=0)
    command("extension", ["build", "extract", "classify"])
    command("deform", ["verify", "rigidify"])
    max_degree(command("homotopy-check"), None)
    return p


HANDLERS = {
    "check-axioms": cmd_check_axioms,
    "cohomology": cmd_cohomology,
    "mc-check": cmd_mc_check,
    "twist": cmd_twist,
    "key-formula": cmd_key_formula,
    "morphism-check": cmd_morphism_check,
    "extension": cmd_extension,
    "deform": cmd_deform,
    "homotopy-check": cmd_homotopy_check,
}


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        code, report = HANDLERS[args.command](args)
    except (SchemaError, InvalidExtension) as e:
        sys.stderr.write("error: %s\n" % e)
        return 2
    _emit(report, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
