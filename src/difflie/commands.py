"""The subcommands: each one's reader, from its JSON document to the parsed
inputs, and its handler, from those inputs and the options to (exit code,
report); ``run`` runs one on the parsed command line and prints the report.

The readers of ``cohomology``, ``extension classify``, ``twist`` and
``deform rigidify`` also admit their document by the planned size of the
differentials they build (``MAX_CELLS``), before any computation starts.

``cli.main`` imports this module only once the command line parses, so the
parse path loads none of it: not the wire readers, the scalars or ``json``.
Each reader and handler imports the modules of its own computation, so a
command pays only for the code it runs.
"""

import json
import sys
from itertools import combinations

from .linalg import CompositionNonzero, fmt_scalar, vec_is_zero
from .liealg import (AxiomFailure, DiffLieAlgebra, SchemaError,
                     _matrix_to_json, adjoint_rep, altmap_from_json,
                     altmap_to_json, difflie_from_json, difflie_to_json,
                     field, jacobi_residual, only_keys, read_index, read_int,
                     read_list, read_map, read_matrix, read_object,
                     read_scalar, rep_from_json, rep_residuals, rep_to_json,
                     weighted_derivation_residual)
from .multilinear import AltMap, GradedSymMap, GradedVectorSpace, \
    coordinate_map


def _fmt_vec(v):
    return [fmt_scalar(x) for x in v]


# ---------------------------------------------------------------------------
# reading: each subcommand's document becomes the parsed objects its handler
# takes, through the wire readers of liealg


def _unique_keys(pairs):
    obj = dict(pairs)
    if len(obj) < len(pairs):
        raise SchemaError("a JSON object gives a key twice; its keys are %s"
                          % sorted(obj))
    return obj


def _load(path):
    with open(path) as fh:
        return json.load(fh, object_pairs_hook=_unique_keys)


def _algebra(obj, args, extra=()):
    A = difflie_from_json(obj, "", extra)
    if args.weight is not None:
        A = DiffLieAlgebra(A.algebra, A.d, args.weight)
    return A


def _algebra_rep(obj, args):
    A = _algebra(obj, args, ("rep",))
    return A, (rep_from_json(obj["rep"], A.dim) if "rep" in obj else None)


# The most matrix cells, summed over the differentials, that `cohomology`,
# `extension classify`, `twist` and `deform rigidify` may plan; above it
# they exit 2 before building anything.  The largest bench complex,
# sl2 (+) aff1 in the catalog basis at --max-degree 4, plans 17 400 cells,
# the largest d~^1 that a bench rigidify solves with 1 875, and Whitehead's
# sl2^3 at max-degree 4, the largest complex of the tests, 2 515 860.  A
# 40-dim abelian algebra at the default --max-degree 4 plans
# 1 741 300 897 600, more than memory holds: without this check it
# allocates until the process is killed or runs out of memory.
MAX_CELLS = 10 ** 7


def _admit(cells):
    """Raise ValueError when the differentials a command builds plan more
    than MAX_CELLS cells; cells is read off cohomology.planned_cells."""
    if cells > MAX_CELLS:
        raise ValueError("the cochain differentials plan %d matrix cells, "
                         "above the budget of %d" % (cells, MAX_CELLS))


def _read_cohomology(obj, args):
    from .cohomology import planned_cells
    A, rep = _algebra_rep(obj, args)
    _admit(planned_cells(A.dim, A.dim if rep is None else rep.space_dim,
                         args.flavor, args.max_degree))
    return A, rep


def _read_twist(obj, args):
    from .cohomology import planned_cells
    A = _algebra(obj, args)
    # the combined differentials d_1 .. d_top with adjoint coefficients, one
    # per bridge of cmd_twist, top = min(max_degree, dim + 1): those of
    # d_0 .. d_top less those of d_0
    top = min(args.max_degree, A.dim + 1)
    _admit(planned_cells(A.dim, A.dim, "difflie", top + 1) -
           planned_cells(A.dim, A.dim, "difflie", 1))
    return A


def _read_extension(obj, args):
    if args.action == "extract":
        only_keys(obj, "", ("total", "gdim", "vdim"))
        total = difflie_from_json(*field(obj, "total"))
        gdim = read_int(*field(obj, "gdim"), 0, total.dim)
        return total, gdim, read_int(*field(obj, "vdim"), total.dim - gdim,
                                     total.dim - gdim)
    # build and classify read one document kind
    only_keys(obj, "", ("base", "rep", "psi", "chi"))
    A = difflie_from_json(*field(obj, "base"))
    rep = rep_from_json(field(obj, "rep")[0], A.dim)
    if args.action == "classify":
        from .cohomology import planned_cells
        # the complex that extensions.classify builds
        _admit(planned_cells(A.dim, rep.space_dim, "tilde", 3))
        return A, rep
    return (A, rep,
            altmap_from_json(*field(obj, "psi"), A.dim, rep.space_dim, 2),
            altmap_from_json(*field(obj, "chi"), A.dim, rep.space_dim, 1))


def _read_deformation(obj, args):
    from .deformations import TruncatedDeformation
    only_keys(obj, "", ("base", "mu", "d"))
    A = difflie_from_json(*field(obj, "base"))
    if args.action == "rigidify":
        from .cohomology import planned_cells
        # each order solves with d~^1 of the adjoint complex, the one
        # differential of the tilde flavor below degree 2
        _admit(planned_cells(A.dim, A.dim, "tilde", 2))
    mu = [altmap_from_json(*m, A.dim, A.dim, 2)
          for m in read_list(obj.get("mu", []), "mu")]
    d = [read_matrix(*m, A.dim, A.dim)
         for m in read_list(obj.get("d", []), "d")]
    return TruncatedDeformation(A, [A.algebra.bracket] + mu, [A.d] + d)


# The largest dimension key-formula and morphism-check accept.  Their
# documents hold no data of that size: they draw dense random maps on it.
# One key-formula sample (--seed 7) took 0.3 s at dim 8, 9.5 s at dim 16
# and 30 s at dim 20; morphism-check (--seed 7) took 25 s at gdim = hdim =
# 16 and 49 s at 32 (wall time with start-up, a shared 2-core machine).
# So the dimensions that finish lie far below 256, where one dense random
# arity-3 map of key-formula alone has C(256, 3) * 256 ~ 7e8 coefficients,
# more than memory holds.
MAX_SAMPLED_DIM = 256


def _read_dim(obj, args):
    return read_int(*field(only_keys(obj, "", ("dim",)), "dim"), 0,
                    MAX_SAMPLED_DIM)


def _read_pair(obj, args):
    only_keys(obj, "", ("gdim", "hdim", "weight"))
    return (read_int(*field(obj, "gdim"), 0, MAX_SAMPLED_DIM),
            read_int(*field(obj, "hdim"), 0, MAX_SAMPLED_DIM),
            read_scalar(*field(obj, "weight")))


def _read_family(obj, key, space, degree):
    """{n: map of arity n and the degree} from {"n": {"i,j,..": vector}}."""
    family = {}
    for text, coeffs, at in read_object(obj.get(key, {}), key):
        n = read_index(text, at)
        family[n] = read_map(coeffs, at, GradedSymMap(n, degree, space))
    return family


def _read_homotopy(obj, args):
    from .homotopy import HomotopyDiffLie
    only_keys(obj, "", ("components", "mu", "D", "weight"))
    space = GradedVectorSpace([
        (read_int(*deg, None), read_int(*dim)) for deg, dim in
        (read_list(*c, 2) for c in read_list(*field(obj, "components")))])
    return HomotopyDiffLie(space, _read_family(obj, "mu", space, 1),
                           _read_family(obj, "D", space, 0),
                           read_scalar(*field(obj, "weight")))


# ---------------------------------------------------------------------------
# commands: each takes its parsed inputs and the options, and only computes


def cmd_check_axioms(inputs, args):
    A, rep = inputs
    # a map stores only its nonzero values, under 1-based "i,j,.." keys
    jac = altmap_to_json(jacobi_residual(A.algebra))["coeffs"]
    op = altmap_to_json(weighted_derivation_residual(A))["coeffs"]
    report = {"dim": A.dim, "weight": fmt_scalar(A.weight),
              "jacobi_nonzero": jac, "operator_nonzero": op}
    ok = not jac and not op
    if rep is not None:
        rep_bad = {}
        for name, residuals in rep_residuals(A, rep).items():
            nz = [i + 1 for i, cols in enumerate(residuals)
                  if not all(map(vec_is_zero, cols))]
            if nz:
                rep_bad[name] = nz
        report["rep_nonzero"] = rep_bad
        ok = ok and not rep_bad
    report["ok"] = ok
    return (0 if ok else 1), report


def cmd_cohomology(inputs, args):
    from .cohomology import CochainComplexSpec, cohomology_dims
    A, rep = inputs
    try:
        spec = CochainComplexSpec(A, adjoint_rep(A) if rep is None else rep,
                                  args.flavor, max_degree=args.max_degree)
    except CompositionNonzero:
        return 1, {"flavor": args.flavor, "d_squared_ok": False}
    return 0, {"flavor": args.flavor, "weight": fmt_scalar(A.weight),
               "dims_C": spec.dims, "dims_H": cohomology_dims(spec),
               "d_squared_ok": True}


def cmd_mc_check(A, args):
    from .linfty import mc_check_absolute
    ok, res = mc_check_absolute(A.algebra.bracket, A.d, A.weight)
    return (0 if ok else 1), {"dim": A.dim, "weight": fmt_scalar(A.weight),
                              "maurer_cartan": ok}


def cmd_twist(A, args):
    from .cohomology import twist_bridge_residual
    dim, max_n = A.dim, args.max_degree
    bad = []
    # above degree dim + 1 there are no cochain pairs, so no columns
    for n in range(1, min(max_n, dim + 1) + 1):
        bad.extend({"degree": n, "basis_index": k + 1,
                    "residual": _fmt_vec(col)}
                   for k, col in enumerate(twist_bridge_residual(A, n))
                   if not vec_is_zero(col))
    report = {"dim": dim, "weight": fmt_scalar(A.weight),
              "max_degree": max_n, "bridge_nonzero": bad,
              "bridge_zero": not bad}
    return (0 if not bad else 1), report


def _rand_altmap(rng, arity, dim):
    f = AltMap(arity, dim, dim)
    for key in combinations(range(dim), arity):
        f[key] = [rng.randrange(-2, 3) for _ in range(dim)]
    return f


def cmd_key_formula(dim, args):
    import random
    from .linfty import key_formula_check
    rng = random.Random(args.seed)
    nonzero = 0
    for _ in range(args.order):
        f = _rand_altmap(rng, rng.randrange(2, 4), dim)
        r = rng.randrange(1, f.arity)
        xis = [_rand_altmap(rng, rng.randrange(1, 3), dim)
               for _ in range(r)]
        if not key_formula_check(f, xis).is_zero():
            nonzero += 1
    report = {"dim": dim, "samples": args.order, "seed": args.seed,
              "nonzero_samples": nonzero, "all_zero": nonzero == 0}
    return (0 if nonzero == 0 else 1), report


def cmd_morphism_check(inputs, args):
    import random
    from .linfty import (AbsoluteStructure, Term, iota_M, iota_a_abs,
                         morphism_residual, project_a_rel, project_M_embed,
                         relative_structure)
    gdim, hdim, lam = inputs
    rng = random.Random(args.seed)
    N = gdim + hdim
    # the one-algebra structure into the pair structure over (g, g); then
    # the pair structure into the one-algebra structure on g (+) h, on the
    # payload subalgebra where the embedding is strict (<= one h input)
    runs = [(lambda t: Term(t.kind, (iota_M if t.kind == "s"
                                     else iota_a_abs)(t.f)),
             AbsoluteStructure(lam),
             relative_structure(gdim, lam), gdim,
             lambda F: F, lambda F: F),
            (lambda t: t, relative_structure(gdim, lam),
             AbsoluteStructure(lam), N,
             lambda F: project_M_embed(F, gdim),
             lambda F: project_a_rel(F, gdim))]
    residuals = []
    for phi, src, tgt, dim, to_s, to_a in runs:
        pool = [Term("s", to_s(_rand_altmap(rng, rng.randrange(1, 3), dim))),
                Term("a", to_a(_rand_altmap(rng, rng.randrange(1, 3), dim)))]
        samples = [tuple(rng.choice(pool) for _ in range(n)) for n in (2, 3)]
        residuals += morphism_residual(phi, src, tgt, samples)
    nonzero = sum(any(not f.is_zero() for f in r.values())
                  for r in residuals)
    report = {"gdim": gdim, "hdim": hdim, "weight": fmt_scalar(lam),
              "seed": args.seed, "samples": len(residuals),
              "nonzero_samples": nonzero, "all_zero": nonzero == 0}
    return (0 if nonzero == 0 else 1), report


def cmd_extension(inputs, args):
    from .extensions import (AbelianExtension, NotCocycle, build_extension,
                             classify, extract_cocycle)
    if args.action == "build":
        try:
            total = build_extension(*inputs)
        except NotCocycle as e:
            return 1, {"action": "build", "cocycle": False,
                       "residual": _fmt_vec(e.residual)}
        return 0, {"action": "build", "cocycle": True,
                   "total": difflie_to_json(total)}
    if args.action == "extract":
        E = AbelianExtension(*inputs)
        rep, psi, chi = extract_cocycle(E)
        return 0, {"action": "extract", "rep": rep_to_json(rep),
                   "psi": altmap_to_json(psi), "chi": altmap_to_json(chi),
                   "base": difflie_to_json(E.base())}
    return 0, {"action": "classify", "dim_H2": classify(*inputs)}


def cmd_deform(D, args):
    from .deformations import Obstructed, failed_equations, rigidify
    if args.action == "verify":
        bad = [{"order": n, "equation": which}
               for n, which in failed_equations(D)]
        return (0 if not bad else 1), {"action": "verify", "order": D.order,
                                       "failures": bad, "deformation": not bad}
    # rigidify; a D whose equations fail raises NotDeformation
    try:
        isos = rigidify(D)
    except Obstructed as e:
        return 1, {"action": "rigidify", "trivialized": False,
                   "obstructed_at_order": e.order}
    # each iso {c: phi_c} as the matrices [Id, phi_1, .., phi_r], r its top
    # order, zero at the orders it misses
    dim = D.base.dim
    return 0, {"action": "rigidify", "trivialized": True,
               "isos": [[_matrix_to_json(f, [(j,) for j in range(dim)])
                         for f in [coordinate_map(dim, dim, 0)] +
                         [phi.get(c, AltMap(1, dim, dim))
                          for c in range(1, max(phi, default=0) + 1)]]
                        for phi in isos]}


def cmd_homotopy_check(H, args):
    from .homotopy import homotopy_mc_check
    ok, tables = homotopy_mc_check(H, max_n=args.max_degree)
    failed = sorted(n for n, (j, o) in tables.items()
                    if not (j.is_zero() and o.is_zero()))
    return (0 if ok else 1), {"weight": fmt_scalar(H.weight),
                              "checked_arities": sorted(tables),
                              "failed_arities": failed, "maurer_cartan": ok}


# each subcommand's reader, from its document to the parsed inputs, and its
# handler, from those inputs and the options to (exit code, report)
HANDLERS = {
    "check-axioms": (_algebra_rep, cmd_check_axioms),
    "cohomology": (_read_cohomology, cmd_cohomology),
    "mc-check": (_algebra, cmd_mc_check),
    "twist": (_read_twist, cmd_twist),
    "key-formula": (_read_dim, cmd_key_formula),
    "morphism-check": (_read_pair, cmd_morphism_check),
    "extension": (_read_extension, cmd_extension),
    "deform": (_read_deformation, cmd_deform),
    "homotopy-check": (_read_homotopy, cmd_homotopy_check),
}


def _reject(e):
    sys.stderr.write("error: %s\n" % e)
    return 2


def run(args):
    """Run the parsed command line args: read the document, run its
    handler and print the report.  Returns the exit status."""
    read, handle = HANDLERS[args.command]
    try:
        try:
            inputs = read(_load(args.path), args)
        except (KeyError, TypeError, ValueError, IndexError, OSError,
                RecursionError) as e:
            return _reject(e)
        try:
            code, report = handle(inputs, args)
        except AxiomFailure as e:
            # documents that parse but fail the axioms these commands assume
            return _reject(e)
    except MemoryError:
        code = None
    if code is None:  # outside the except clause, the failed frames are freed
        return _reject("out of memory under this process's memory limit")
    text = json.dumps(report, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"
    if args.json_out:
        # written and closed before stdout, so that a path that cannot be
        # opened or written (a missing directory, a full device) leaves
        # stdout empty
        try:
            with open(args.json_out, "w") as out:
                out.write(text)
        except OSError as e:
            return _reject(e)
    sys.stdout.write(text)
    return code
