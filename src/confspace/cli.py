"""Command-line entry point.

Every subcommand prints deterministic output for a fixed invocation: bases
are emitted in their canonical orders and nothing is randomized.  Progress
notes for long computations go to stderr so stdout stays pipeable.

Output formats (--format):
  table  aligned columns, one header line
  csv    same rows as the table, comma-separated, header first
  json   a single structured document

CSV column orders match the table headers printed by each subcommand.
Errors exit nonzero; with --format json the error is a JSON document on
stdout, argparse refusals included, otherwise a single line on stderr
(argparse refusals add the usage).

Each handler cmd_* receives the argparse namespace as parsed; main first
refuses a negative value of any count option.  Only selftest takes
--workers, and --point applies only to braid subgroup --kind stabilizer.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import arnold
from . import braid
from . import ce
from . import forests
from . import modp
from . import presets
from . import selftest
from .linalg import QQ, smith_normal_form


class CliError(Exception):
    pass


class UsageError(Exception):
    """An argparse refusal, raised so that main can honour --format json."""

    def __init__(self, parser, message):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the class of their parent parser
    def error(self, message):
        raise UsageError(self, message)


def _progress(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# emission


def _emit_rows(args, header, rows, obj):
    if args.format == "json":
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    elif args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow(row)
    else:
        cells = [tuple(str(x) for x in row) for row in rows]
        widths = [len(h) for h in header]
        for row in cells:
            for i, x in enumerate(row):
                widths[i] = max(widths[i], len(x))
        line = "  ".join(h.ljust(w) for h, w in zip(header, widths))
        sys.stdout.write(line.rstrip() + "\n")
        for row in cells:
            line = "  ".join(x.ljust(w) for x, w in zip(row, widths))
            sys.stdout.write(line.rstrip() + "\n")


def _emit_value(args, text, obj):
    """A single scalar or expression; table format prints it bare."""
    if args.format == "table":
        sys.stdout.write(str(text) + "\n")
    else:
        _emit_rows(args, ("value",), [(text,)], obj)


# ---------------------------------------------------------------------------
# arnold


def cmd_arnold_poincare(args):
    series = arnold.poincare_polynomial(args.k, args.n)
    coeffs = {str(d): c for (d, _), c in series.coeffs.items()}
    _emit_value(args, series.to_text(), {
        "k": args.k, "n": args.n,
        "series": series.to_text(),
        "coefficients": coeffs,
    })
    return 0


def cmd_arnold_basis(args):
    basis = arnold.admissible_basis(args.k, args.n, args.degree)
    names = [arnold.monomial_str(m) for m in basis]
    _emit_rows(args, ("monomial",), [(x,) for x in names], {
        "k": args.k, "n": args.n, "degree": args.degree,
        "dimension": len(names), "basis": names,
    })
    return 0


def cmd_arnold_normalform(args):
    word = arnold.parse_monomial(args.word)
    x = arnold.normal_form(word, args.k, args.n)
    rows = [(arnold.monomial_str(m), c) for m, c in x.items()]
    _emit_rows(args, ("monomial", "coefficient"), rows, {
        "k": args.k, "n": args.n, "input": args.word,
        "normal_form": x.to_json_obj(), "text": repr(x),
    })
    return 0


# ---------------------------------------------------------------------------
# forests


def cmd_forest_basis(args):
    basis = forests.tall_basis(args.k, args.n, args.degree)
    names = [forests.key_str(f) for f in basis]
    _emit_rows(args, ("forest",), [(x,) for x in names], {
        "k": args.k, "n": args.n, "degree": args.degree,
        "dimension": len(names), "basis": names,
    })
    return 0


def cmd_forest_rewrite(args):
    f = forests.parse_forest(args.forest)
    x = forests.rewrite_to_tall(f, args.n)
    rows = [(forests.key_str(g), c) for g, c in x.items()]
    _emit_rows(args, ("forest", "coefficient"), rows, {
        "k": x.k, "n": x.n, "input": args.forest,
        "expansion": x.to_json_obj(), "text": repr(x),
    })
    return 0


def cmd_forest_pair(args):
    m = forests.pairing_matrix(args.k, args.n, args.degree)
    factors, rnk = smith_normal_form(m)
    unimodular = (rnk == m.nrows == m.ncols) and all(x == 1 for x in factors)
    rows = [(args.k, args.n, args.degree, m.nrows, rnk,
             str(unimodular).lower())]
    header = ("k", "n", "degree", "size", "rank", "unimodular")
    _emit_rows(args, header, rows, {
        "k": args.k, "n": args.n, "degree": args.degree,
        "size": m.nrows, "rank": rnk,
        "elementary_divisors": list(factors),
        "unimodular": unimodular,
    })
    return 0


def cmd_unordered_betti(args):
    dims = forests.coinvariants_dims(args.k, args.n, QQ)
    rows = [(d, v) for d, v in sorted(dims.items())]
    _emit_rows(args, ("degree", "dim"), rows, {
        "k": args.k, "n": args.n,
        "dims": {str(d): v for d, v in dims.items()},
    })
    return 0


# ---------------------------------------------------------------------------
# ce


def _load_calgebra(args):
    if args.algebra_path is not None:
        with open(args.algebra_path) as fh:
            document = json.load(fh)
        return ce.load_algebra(document)
    if args.preset is not None:
        return presets.load_preset(args.preset)
    raise CliError("need --preset NAME or --algebra FILE")


def cmd_ce_betti(args):
    a = _load_calgebra(args)
    b = ce.betti(ce.build_gm(a), args.k)
    rows = [(d, v) for d, v in sorted(b.items())]
    _emit_rows(args, ("degree", "dim"), rows, {
        "algebra": a.name, "k": args.k,
        "dims": {str(d): v for d, v in b.items()},
    })
    return 0


def cmd_ce_stability(args):
    a = _load_calgebra(args)
    report = ce.stability_report(ce.build_gm(a), args.kmax)
    rows = [(k, i, str(ok).lower(), str(i <= k).lower())
            for k, i, ok in report]
    _emit_rows(args, ("weight", "degree", "iso", "stable_range"), rows, {
        "algebra": a.name, "k_max": args.kmax,
        "rows": [{"weight": k, "degree": i, "iso": ok, "stable_range": i <= k}
                 for k, i, ok in report],
    })
    return 0


def cmd_ce_euler(args):
    a = _load_calgebra(args)
    series = ce.euler_series(ce.build_gm(a), args.weight_bound)
    rows = [(w, c) for (_, w), c in sorted(series.coeffs.items(),
                                           key=lambda kv: kv[0][1])]
    _emit_rows(args, ("weight", "euler"), rows, {
        "algebra": a.name, "weight_bound": args.weight_bound,
        "series": series.to_text(),
        "euler_by_weight": {str(w): c for w, c in rows},
    })
    return 0


def cmd_ce_labeled_check(args):
    a = _load_calgebra(args)
    ok = ce.labeled_series_check(a, args.r, args.degree_bound)
    _emit_value(args, "pass" if ok else "fail", {
        "algebra": a.name, "r": args.r, "degree_bound": args.degree_bound,
        "ok": ok,
    })
    return 0


# bench/workloads.py builds its closed surfaces through this name
_closed_surface_doc = presets.closed_surface_doc


def cmd_ce_stress(args):
    """Unasserted stress computation; no reference value is checked."""
    if args.preset is not None or args.algebra_path is not None:
        a = _load_calgebra(args)
    else:
        a = ce.load_algebra(presets.closed_surface_doc(args.genus))
    g = ce.build_gm(a)
    _progress("computing weight-%d homology for %s" % (args.k, a.name))
    chains = ce.chain_dims(g, args.k)
    dims = ce.betti(g, args.k)
    degrees = [args.degree] if args.degree is not None else sorted(chains)
    rows = []
    for d in degrees:
        _progress("degree %d: %d chains" % (d, chains[d]))
        rows.append((d, chains[d], dims.get(d)))
    _emit_rows(args, ("degree", "chains", "dim"), rows, {
        "algebra": a.name, "k": args.k,
        "rows": [{"degree": d, "chains": c, "dim": h} for d, c, h in rows],
    })
    return 0


# ---------------------------------------------------------------------------
# braid


def _group_presentation(group, k):
    """group is "braid" or "symmetric", as argparse's choices admit."""
    if group == "braid":
        return braid.braid_presentation(k)
    return braid.symmetric_presentation(k)


def _hom_images(target, k):
    """The images of the k - 1 generators for target "permutation" (the
    adjacent transpositions of 1..k) or "sign" (the swap of 1, 2)."""
    if target == "sign":
        return [(2, 1)] * (k - 1)
    out = []
    for i in range(1, k):
        perm = list(range(1, k + 1))
        perm[i - 1], perm[i] = perm[i], perm[i - 1]
        out.append(tuple(perm))
    return out


def _abelianization_text(ab):
    free_rank, torsion = ab
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append("Z^%d" % free_rank)
    parts.extend("Z/%d" % d for d in torsion)
    return " x ".join(parts) if parts else "1"


def cmd_braid_present(args):
    pres = _group_presentation(args.group, args.k)
    ab = pres.abelianization()
    _emit_value(args, pres.to_text(), {
        "group": args.group, "k": args.k,
        "generators": pres.gens,
        "relators": [pres.word_str(r) for r in pres.relators],
        "abelianization": _abelianization_text(ab),
    })
    return 0


def cmd_braid_subgroup(args):
    point = args.point
    if args.kind != "stabilizer":
        if point is not None:
            raise CliError("--point applies only to --kind stabilizer")
    elif point is None:
        point = args.k
    pres = _group_presentation(args.group, args.k)
    images = _hom_images(args.target, args.k)
    table = braid.coset_table_from_hom(pres, images, args.kind, point)
    sub = braid.subgroup_presentation(pres, table,
                                      braid.schreier_transversal(table))
    ab = sub.abelianization()
    rows = [(args.group, args.k, args.target, args.kind, table.n,
             len(sub.gens), len(sub.relators), _abelianization_text(ab))]
    header = ("group", "k", "target", "kind", "cosets",
              "generators", "relators", "abelianization")
    _emit_rows(args, header, rows, {
        "group": args.group, "k": args.k, "target": args.target,
        "kind": args.kind, "point": point, "cosets": table.n,
        "presentation": sub.to_text(),
        "generators": sub.gens,
        "relators": [sub.word_str(r) for r in sub.relators],
        "abelianization": _abelianization_text(ab),
        "abelianization_data": {"free_rank": ab[0], "torsion": list(ab[1])},
    })
    if args.format == "table":
        sys.stdout.write(sub.to_text() + "\n")
    return 0


def cmd_braid_verify(args):
    pres = braid.braid_presentation(args.k)
    ident = braid.FreeAutomorphism.identity(args.k)
    rows = []
    all_ok = True
    for rel in pres.relators:
        ok = braid.artin_action(rel, args.k) == ident
        all_ok = all_ok and ok
        rows.append(("artin-kernel", pres.word_str(rel), "true",
                     str(ok).lower()))
    if args.k >= 3:
        for rec in braid.verify_paper_relations(args.k):
            all_ok = all_ok and rec["ok"]
            rows.append((rec["family"], str(rec["params"]),
                         str(rec["expected"]).lower(), str(rec["ok"]).lower()))
    _emit_rows(args, ("family", "instance", "expected", "ok"), rows, {
        "k": args.k, "ok": all_ok,
        "rows": [{"family": f, "instance": i, "expected": e == "true",
                  "ok": o == "true"} for f, i, e, o in rows],
    })
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# modp


def cmd_modp_vanishing(args):
    ok = modp.verify_vanishing(args.p, args.n)
    _emit_value(args, str(ok).lower(), {
        "p": args.p, "n": args.n, "vanishes": ok,
        "interior_t": [j * (args.n - 1) for j in range(1, args.p - 1)],
    })
    return 0


def cmd_modp_invariants(args):
    dims = modp.invariants_sigma_p(args.p, args.n)
    rows = [(d, v) for d, v in sorted(dims.items())]
    _emit_rows(args, ("degree", "dim"), rows, {
        "p": args.p, "n": args.n,
        "dims": {str(d): v for d, v in dims.items()},
    })
    return 0


def cmd_modp_tate(args):
    ts = ([args.t] if args.t is not None
          else [j * (args.n - 1) for j in range(args.p)])
    rows = []
    tables = {}
    for t in ts:
        v = modp.conf_module(args.p, args.n, t)
        td = modp.tate(v, (args.lo, args.hi))
        tables[str(t)] = {"dims": {str(s): d for s, d in td.items()}}
        rows.extend((t, s, td.get(s)) for s in range(args.lo, args.hi + 1))
    _emit_rows(args, ("t", "s", "dim"), rows, {
        "p": args.p, "n": args.n, "window": [args.lo, args.hi],
        "tables": tables,
    })
    return 0


def cmd_modp_cohen(args):
    series = modp.cohen_series(args.p, args.n, args.degree_bound)
    rows = [(d, c) for (d, _), c in sorted(series.coeffs.items())]
    _emit_rows(args, ("degree", "dim"), rows, {
        "p": args.p, "n": args.n, "degree_bound": args.degree_bound,
        "series": series.to_text(),
        "coefficients": {str(d): c for d, c in rows},
    })
    return 0


def cmd_modp_swan(args):
    period = modp.swan_period(args.p)
    _emit_value(args, period, {"p": args.p, "swan_period": period})
    return 0


# ---------------------------------------------------------------------------
# selftest


def _parse_checks(text):
    """The check numbers that --checks names; all of them when it is absent."""
    known = [num for num, _, _, _ in selftest.CHECKS]
    if text is None:
        return known
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece[1:]:
            a, b = map(int, piece.split("-", 1))
            if b < a:
                raise CliError("check range %s runs backwards" % piece)
            out.extend(range(a, b + 1))
        else:
            out.append(int(piece))
    if not out:
        raise CliError("--checks %r names no check" % text)
    for num in out:
        if num not in known:
            raise CliError("no check numbered %d" % num)
    return list(dict.fromkeys(out))


def cmd_selftest(args):
    numbers = _parse_checks(args.checks)
    if args.workers is not None and args.workers < 1:
        raise CliError("--workers must be positive")
    from concurrent.futures import ProcessPoolExecutor
    workers = min(args.workers or os.cpu_count() or 1, len(numbers))
    results = []
    # a pool starts no process before its first task, so one worker costs none
    with ProcessPoolExecutor(max_workers=workers) as pool:
        runs = (pool.map if workers > 1 else map)(selftest.run_check, numbers)
        for idx, r in enumerate(runs, 1):
            _progress("[%d/%d] %s: %s (%.2fs)"
                      % (idx, len(numbers), r.name, "ok" if r.ok else "FAIL", r.elapsed))
            results.append(r)
    rows = []
    for r in results:
        status = "pass" if r.ok else "FAIL"
        if r.ok and r.elapsed > r.budget:
            status = "slow"
        rows.append((r.number, r.name, status,
                     "%.2f" % r.elapsed, "%.0f" % r.budget, r.detail))
    header = ("check", "name", "status", "seconds", "budget", "detail")
    ok_all = all(r.in_budget for r in results)
    _emit_rows(args, header, rows, {
        "ok": ok_all,
        "results": [r.to_json_obj() for r in results],
    })
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default=argparse.SUPPRESS,
                        help="output format (default table)")

    parser = _Parser(
        prog="confspace",
        description="Exact invariants of configuration spaces.",
        epilog="CSV columns match each subcommand's table header.")
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default="table", help="output format (default table)")
    top = parser.add_subparsers(dest="command", required=True,
                                metavar="command")

    def leaf(sub, name, handler, help_text, **kwargs):
        q = sub.add_parser(name, parents=[common], help=help_text,
                           description=help_text, **kwargs)
        q.set_defaults(handler=handler)
        return q

    # arnold
    pa = top.add_parser("arnold",
                        help="cohomology of ordered configurations of R^n")
    sa = pa.add_subparsers(dest="action", required=True, metavar="action")
    q = leaf(sa, "poincare", cmd_arnold_poincare,
             "Poincare polynomial of the ordered configuration space")
    q.add_argument("--k", type=int, required=True, help="number of points")
    q.add_argument("--n", type=int, required=True, help="ambient dimension")
    q = leaf(sa, "basis", cmd_arnold_basis,
             "admissible monomial basis in one degree")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)
    q = leaf(sa, "normalform", cmd_arnold_normalform,
             "rewrite a product of generators into the admissible basis")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--word", required=True,
                   help="product such as a12*a23*a31 (a<i>_<j> above 9)")

    # forest
    pf = top.add_parser("forest",
                        help="tall-forest homology basis and the pairing")
    sf = pf.add_subparsers(dest="action", required=True, metavar="action")
    q = leaf(sf, "basis", cmd_forest_basis, "tall forest basis in one degree")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)
    q = leaf(sf, "rewrite", cmd_forest_rewrite,
             "expand a forest in the tall basis")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--forest", required=True,
                   help="forest text such as \"((12)3),(45)\"; labels "
                        "whitespace-separated when any exceeds 9")
    q = leaf(sf, "pair", cmd_forest_pair,
             "Smith form of the forest/monomial pairing matrix")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--degree", type=int, required=True)

    # unordered-betti
    q = leaf(top, "unordered-betti", cmd_unordered_betti,
             "rational Betti numbers of unordered configurations of R^n")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--n", type=int, required=True)

    # ce
    pc = top.add_parser("ce",
                        help="Lie-algebra chain complexes for unordered "
                             "configurations in a manifold")
    sc = pc.add_subparsers(dest="action", required=True, metavar="action")

    def algebra_args(q):
        q.add_argument("--preset", help="bundled algebra name; see README")
        q.add_argument("--algebra", dest="algebra_path",
                       help="path to an algebra JSON document")

    q = leaf(sc, "betti", cmd_ce_betti,
             "Betti numbers of the k-point unordered configuration space")
    algebra_args(q)
    q.add_argument("--k", type=int, required=True)
    q = leaf(sc, "stability", cmd_ce_stability,
             "stabilization maps and their isomorphism range")
    algebra_args(q)
    q.add_argument("--kmax", type=int, default=6,
                   help="check maps up to weight k (default 6)")
    q = leaf(sc, "euler", cmd_ce_euler,
             "per-weight Euler characteristics, dual-route checked")
    algebra_args(q)
    q.add_argument("--weight-bound", type=int, default=10)
    q = leaf(sc, "labeled-check", cmd_ce_labeled_check,
             "bigraded series identity for labeled configuration spaces")
    algebra_args(q)
    q.add_argument("--r", type=int, default=2, help="label sphere dimension")
    q.add_argument("--degree-bound", type=int, default=20)
    q = leaf(sc, "stress", cmd_ce_stress,
             "unasserted large computation (closed surface by default); "
             "expect long runtimes at large k")
    algebra_args(q)
    q.add_argument("--genus", type=int, default=3,
                   help="genus of the closed surface (default 3)")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--degree", type=int,
                   help="restrict to one homological degree")

    # braid
    pb = top.add_parser("braid",
                        help="braid groups, subgroup presentations, checks")
    sb = pb.add_subparsers(dest="action", required=True, metavar="action")
    q = leaf(sb, "present", cmd_braid_present,
             "Artin or Coxeter presentation")
    q.add_argument("--group", choices=("braid", "symmetric"),
                   default="braid")
    q.add_argument("--k", type=int, required=True, help="number of strands")
    q = leaf(sb, "subgroup", cmd_braid_subgroup,
             "Reidemeister-Schreier presentation of a finite-index subgroup")
    q.add_argument("--group", choices=("braid", "symmetric"),
                   default="braid")
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--target", choices=("permutation", "sign"),
                   default="permutation",
                   help="homomorphism defining the subgroup: the strand "
                        "permutation, or its sign")
    q.add_argument("--kind", choices=("kernel", "stabilizer"),
                   default="kernel")
    q.add_argument("--point", type=int,
                   help="point whose stabilizer is taken (default k); "
                        "only with --kind stabilizer")
    q = leaf(sb, "verify", cmd_braid_verify,
             "relator and conjugation-identity checks; exits 1 on failure")
    q.add_argument("--k", type=int, required=True)

    # modp
    pm = top.add_parser("modp",
                        help="mod-p cohomology of cyclic and symmetric groups")
    sm = pm.add_subparsers(dest="action", required=True, metavar="action")
    q = leaf(sm, "vanishing", cmd_modp_vanishing,
             "interior vanishing for the cyclic group, two routes")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q = leaf(sm, "invariants", cmd_modp_invariants,
             "symmetric-group fixed spaces on configuration cohomology")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q = leaf(sm, "tate", cmd_modp_tate,
             "Tate cohomology dimensions on a window")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--t", type=int,
                   help="one internal degree (default: all t = j(n-1))")
    q.add_argument("--lo", type=int, default=-6)
    q.add_argument("--hi", type=int, default=6)
    q = leaf(sm, "cohen", cmd_modp_cohen,
             "Poincare series of the p-point mod-p cohomology, p > 3")
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--degree-bound", type=int, default=12)
    q = leaf(sm, "swan", cmd_modp_swan,
             "Tate periodicity degree of the symmetric group")
    q.add_argument("--p", type=int, required=True)

    # selftest
    q = leaf(top, "selftest", cmd_selftest,
             "run the acceptance checks and print a pass/fail matrix")
    q.add_argument("--checks",
                   help="subset such as 1,4,11-13 (default: all)")
    q.add_argument("--workers", type=int,
                   help="worker processes; 1 forces serial execution "
                        "(default: the CPU count)")

    return parser


def _format_requested(argv):
    """The last --format value in argv, the one argparse keeps; like
    argparse, this reads --format=F and abbreviations such as --form F."""
    fmt = None
    for i, a in enumerate(argv):
        name, eq, value = a.partition("=")
        if len(name) > 2 and "--format".startswith(name):
            if eq:
                fmt = value
            elif i + 1 < len(argv):
                fmt = argv[i + 1]
    return fmt


def _error(fmt, exc):
    if fmt == "json":
        sys.stdout.write(json.dumps({
            "error": {"type": type(exc).__name__, "message": str(exc)},
        }, indent=2, sort_keys=True) + "\n")
    else:
        print("error: %s" % exc, file=sys.stderr)
    return 2


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
    except UsageError as exc:
        if _format_requested(argv) == "json":
            return _error("json", exc)
        # usage and the message on stderr, exit 2: argparse's own refusal
        argparse.ArgumentParser.error(exc.parser, str(exc))
    try:
        for name in ("k", "n", "p", "r", "degree_bound", "weight_bound",
                     "kmax", "genus", "point"):
            value = getattr(args, name, None)
            if value is not None and value < 0:
                raise CliError("--%s must be nonnegative"
                               % name.replace("_", "-"))
        return args.handler(args)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        return _error(args.format, exc)

if __name__ == "__main__":
    sys.exit(main())
