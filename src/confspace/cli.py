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
stdout, otherwise a single line on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass

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


@dataclass
class RunConfig:
    """Resolved invocation: subcommand plus every parameter it may read."""

    subcommand: str
    preset: str | None = None
    algebra_path: str | None = None
    k: int | None = None
    n: int | None = None
    p: int | None = None
    r: int | None = None
    t: int | None = None
    degree: int | None = None
    degree_bound: int | None = None
    weight_bound: int | None = None
    k_max: int | None = None
    genus: int | None = None
    word: str | None = None
    forest: str | None = None
    group: str | None = None
    target: str | None = None
    kind: str | None = None
    point: int | None = None
    window: tuple[int, int] | None = None
    checks: tuple[int, ...] | None = None
    format: str = "table"
    workers: int | None = None

    def __post_init__(self):
        if self.format not in ("table", "csv", "json"):
            raise CliError("unknown format %r" % (self.format,))
        if self.workers is not None and self.workers < 1:
            raise CliError("--workers must be positive")
        for name in ("k", "n", "p", "r", "degree_bound", "weight_bound",
                     "k_max", "genus", "point"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise CliError("--%s must be nonnegative" % name.replace("_", "-"))


def _default_workers():
    env = os.environ.get("CONFSPACE_WORKERS")
    if env:
        try:
            value = int(env)
        except ValueError:
            raise CliError("CONFSPACE_WORKERS must be an integer, got %r" % env)
        if value < 1:
            raise CliError("CONFSPACE_WORKERS must be positive")
        return value
    return os.cpu_count() or 1


def _progress(message):
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------------------
# emission


def _emit_rows(cfg, header, rows, obj):
    if cfg.format == "json":
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    elif cfg.format == "csv":
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


def _emit_value(cfg, text, obj):
    """A single scalar or expression; table format prints it bare."""
    if cfg.format == "json":
        sys.stdout.write(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    elif cfg.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(["value"])
        writer.writerow([text])
    else:
        sys.stdout.write(str(text) + "\n")


# ---------------------------------------------------------------------------
# arnold


def cmd_arnold_poincare(cfg):
    series = arnold.poincare_polynomial(cfg.k, cfg.n)
    coeffs = {str(d): c for (d, _), c in series.coeffs.items()}
    _emit_value(cfg, series.to_text(), {
        "k": cfg.k, "n": cfg.n,
        "series": series.to_text(),
        "coefficients": coeffs,
    })
    return 0


def cmd_arnold_basis(cfg):
    basis = arnold.admissible_basis(cfg.k, cfg.n, cfg.degree)
    names = [arnold.monomial_str(m) for m in basis]
    _emit_rows(cfg, ("monomial",), [(x,) for x in names], {
        "k": cfg.k, "n": cfg.n, "degree": cfg.degree,
        "dimension": len(names), "basis": names,
    })
    return 0


def cmd_arnold_normalform(cfg):
    word = arnold.parse_monomial(cfg.word)
    x = arnold.normal_form(word, cfg.k, cfg.n)
    rows = [(arnold.monomial_str(m), c) for m, c in x.items()]
    _emit_rows(cfg, ("monomial", "coefficient"), rows, {
        "k": cfg.k, "n": cfg.n, "input": cfg.word,
        "normal_form": x.to_json_obj(), "text": repr(x),
    })
    return 0


# ---------------------------------------------------------------------------
# forests


def cmd_forest_basis(cfg):
    basis = forests.tall_basis(cfg.k, cfg.n, cfg.degree)
    names = [forests.forest_str(f) for f in basis]
    _emit_rows(cfg, ("forest",), [(x,) for x in names], {
        "k": cfg.k, "n": cfg.n, "degree": cfg.degree,
        "dimension": len(names), "basis": names,
    })
    return 0


def cmd_forest_rewrite(cfg):
    f = forests.parse_forest(cfg.forest)
    x = forests.rewrite_to_tall(f, cfg.n)
    rows = [(forests.forest_str(g), c) for g, c in x.items()]
    _emit_rows(cfg, ("forest", "coefficient"), rows, {
        "k": x.k, "n": x.n, "input": cfg.forest,
        "expansion": x.to_json_obj(), "text": repr(x),
    })
    return 0


def cmd_forest_pair(cfg):
    m = forests.pairing_matrix(cfg.k, cfg.n, cfg.degree)
    factors, rnk = smith_normal_form(m)
    unimodular = (rnk == m.nrows == m.ncols) and all(x == 1 for x in factors)
    rows = [(cfg.k, cfg.n, cfg.degree, m.nrows, rnk, str(unimodular).lower())]
    _emit_rows(cfg, ("k", "n", "degree", "size", "rank", "unimodular"), rows, {
        "k": cfg.k, "n": cfg.n, "degree": cfg.degree,
        "size": m.nrows, "rank": rnk,
        "elementary_divisors": list(factors),
        "unimodular": unimodular,
    })
    return 0


def cmd_unordered_betti(cfg):
    dims = forests.coinvariants_dims(cfg.k, cfg.n, QQ)
    rows = [(d, v) for d, v in sorted(dims.items())]
    _emit_rows(cfg, ("degree", "dim"), rows, {
        "k": cfg.k, "n": cfg.n,
        "dims": {str(d): v for d, v in dims.items()},
    })
    return 0


# ---------------------------------------------------------------------------
# ce


def _load_calgebra(cfg):
    if cfg.algebra_path is not None:
        with open(cfg.algebra_path) as fh:
            document = json.load(fh)
        return ce.load_algebra(document)
    if cfg.preset is not None:
        return presets.load_preset(cfg.preset)
    raise CliError("need --preset NAME or --algebra FILE")


def cmd_ce_betti(cfg):
    a = _load_calgebra(cfg)
    b = ce.betti(ce.build_gm(a), cfg.k)
    rows = [(d, v) for d, v in sorted(b.items())]
    _emit_rows(cfg, ("degree", "dim"), rows, {
        "algebra": a.name, "k": cfg.k,
        "dims": {str(d): v for d, v in b.items()},
    })
    return 0


def cmd_ce_stability(cfg):
    a = _load_calgebra(cfg)
    report = ce.stability_report(ce.build_gm(a), cfg.k_max)
    rows = [(k, i, str(ok).lower(), str(i <= k).lower())
            for k, i, ok in report]
    _emit_rows(cfg, ("weight", "degree", "iso", "stable_range"), rows, {
        "algebra": a.name, "k_max": cfg.k_max,
        "rows": [{"weight": k, "degree": i, "iso": ok, "stable_range": i <= k}
                 for k, i, ok in report],
    })
    return 0


def cmd_ce_euler(cfg):
    a = _load_calgebra(cfg)
    series = ce.euler_series(ce.build_gm(a), cfg.weight_bound)
    rows = [(w, c) for (_, w), c in sorted(series.coeffs.items(),
                                           key=lambda kv: kv[0][1])]
    if cfg.format in ("table", "csv"):
        _emit_rows(cfg, ("weight", "euler"), rows, None)
    else:
        _emit_value(cfg, series.to_text(), {
            "algebra": a.name, "weight_bound": cfg.weight_bound,
            "series": series.to_text(),
            "euler_by_weight": {str(w): c for w, c in rows},
        })
    return 0


def cmd_ce_labeled_check(cfg):
    a = _load_calgebra(cfg)
    ok = ce.labeled_series_check(a, cfg.r, cfg.degree_bound)
    _emit_value(cfg, "pass" if ok else "fail", {
        "algebra": a.name, "r": cfg.r, "degree_bound": cfg.degree_bound,
        "ok": ok,
    })
    return 0


def _closed_surface_doc(genus):
    basis = [{"name": "e", "degree": 0}]
    for i in range(1, genus + 1):
        basis.append({"name": "x%d" % i, "degree": 1})
        basis.append({"name": "y%d" % i, "degree": 1})
    basis.append({"name": "z", "degree": 2})
    products = [{"left": "e", "right": "e",
                 "result": [{"basis": "e", "coeff": 1}]}]
    for b in basis[1:]:
        x = b["name"]
        products.append({"left": "e", "right": x,
                         "result": [{"basis": x, "coeff": 1}]})
        products.append({"left": x, "right": "e",
                         "result": [{"basis": x, "coeff": 1}]})
    for i in range(1, genus + 1):
        products.append({"left": "x%d" % i, "right": "y%d" % i,
                         "result": [{"basis": "z", "coeff": 1}]})
        products.append({"left": "y%d" % i, "right": "x%d" % i,
                         "result": [{"basis": "z", "coeff": -1}]})
    return {"name": "closed-surface-%d" % genus, "ambient_dim": 2,
            "basis": basis, "products": products}


def cmd_ce_stress(cfg):
    """Unasserted stress computation; no reference value is checked."""
    if cfg.preset is not None or cfg.algebra_path is not None:
        a = _load_calgebra(cfg)
    else:
        a = ce.load_algebra(_closed_surface_doc(cfg.genus))
    g = ce.build_gm(a)
    _progress("building weight-%d block for %s" % (cfg.k, a.name))
    block = ce.ce_block(g, cfg.k)
    degrees = ([cfg.degree] if cfg.degree is not None
               else sorted(block.degrees()))
    rows = []
    for d in degrees:
        dim = block.dim(d)
        _progress("degree %d: %d chains" % (d, dim))
        rows.append((d, dim, block.homology(d)))
    _emit_rows(cfg, ("degree", "chains", "dim"), rows, {
        "algebra": a.name, "k": cfg.k,
        "rows": [{"degree": d, "chains": c, "dim": h} for d, c, h in rows],
    })
    return 0


# ---------------------------------------------------------------------------
# braid


def _group_presentation(group, k):
    if group == "braid":
        return braid.braid_presentation(k)
    if group == "symmetric":
        return braid.symmetric_presentation(k)
    raise CliError("unknown group %r" % group)


def _hom_images(target, k):
    if target == "permutation":
        out = []
        for i in range(1, k):
            perm = list(range(1, k + 1))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            out.append(tuple(perm))
        return out
    if target == "sign":
        return [(2, 1)] * (k - 1)
    raise CliError("unknown target %r" % target)


def _abelianization_text(ab):
    free_rank, torsion = ab
    parts = []
    if free_rank == 1:
        parts.append("Z")
    elif free_rank > 1:
        parts.append("Z^%d" % free_rank)
    parts.extend("Z/%d" % d for d in torsion)
    return " x ".join(parts) if parts else "1"


def cmd_braid_present(cfg):
    pres = _group_presentation(cfg.group, cfg.k)
    ab = pres.abelianization()
    _emit_value(cfg, pres.to_text(), {
        "group": cfg.group, "k": cfg.k,
        "generators": pres.gens,
        "relators": [pres.word_str(r) for r in pres.relators],
        "abelianization": _abelianization_text(ab),
    })
    return 0


def cmd_braid_subgroup(cfg):
    pres = _group_presentation(cfg.group, cfg.k)
    images = _hom_images(cfg.target, cfg.k)
    point = cfg.point if cfg.kind == "stabilizer" else None
    table = braid.coset_table_from_hom(pres, images, cfg.kind, point)
    sub = braid.subgroup_presentation(pres, table,
                                      braid.schreier_transversal(table))
    ab = sub.abelianization()
    rows = [(cfg.group, cfg.k, cfg.target, cfg.kind, table.n,
             len(sub.gens), len(sub.relators), _abelianization_text(ab))]
    header = ("group", "k", "target", "kind", "cosets",
              "generators", "relators", "abelianization")
    _emit_rows(cfg, header, rows, {
        "group": cfg.group, "k": cfg.k, "target": cfg.target,
        "kind": cfg.kind, "point": point, "cosets": table.n,
        "presentation": sub.to_text(),
        "generators": sub.gens,
        "relators": [sub.word_str(r) for r in sub.relators],
        "abelianization": _abelianization_text(ab),
        "abelianization_data": {"free_rank": ab[0], "torsion": list(ab[1])},
    })
    if cfg.format == "table":
        sys.stdout.write(sub.to_text() + "\n")
    return 0


def cmd_braid_verify(cfg):
    pres = braid.braid_presentation(cfg.k)
    ident = braid.FreeAutomorphism.identity(cfg.k)
    rows = []
    all_ok = True
    for rel in pres.relators:
        ok = braid.artin_action(rel, cfg.k) == ident
        all_ok = all_ok and ok
        rows.append(("artin-kernel", pres.word_str(rel), "true",
                     str(ok).lower()))
    if cfg.k >= 3:
        for rec in braid.verify_paper_relations(cfg.k):
            all_ok = all_ok and rec["ok"]
            rows.append((rec["family"], str(rec["params"]),
                         str(rec["expected"]).lower(), str(rec["ok"]).lower()))
    _emit_rows(cfg, ("family", "instance", "expected", "ok"), rows, {
        "k": cfg.k, "ok": all_ok,
        "rows": [{"family": f, "instance": i, "expected": e == "true",
                  "ok": o == "true"} for f, i, e, o in rows],
    })
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# modp


def cmd_modp_vanishing(cfg):
    ok = modp.verify_vanishing(cfg.p, cfg.n)
    _emit_value(cfg, str(ok).lower(), {
        "p": cfg.p, "n": cfg.n, "vanishes": ok,
        "interior_t": [j * (cfg.n - 1) for j in range(1, cfg.p - 1)],
    })
    return 0


def cmd_modp_invariants(cfg):
    dims = modp.invariants_sigma_p(cfg.p, cfg.n)
    rows = [(d, v) for d, v in sorted(dims.items())]
    _emit_rows(cfg, ("degree", "dim"), rows, {
        "p": cfg.p, "n": cfg.n,
        "dims": {str(d): v for d, v in dims.items()},
    })
    return 0


def cmd_modp_tate(cfg):
    lo, hi = cfg.window
    ts = ([cfg.t] if cfg.t is not None
          else [j * (cfg.n - 1) for j in range(cfg.p)])
    rows = []
    tables = {}
    for t in ts:
        v = modp.conf_module(cfg.p, cfg.n, t)
        td = modp.tate(v, (lo, hi))
        tables[str(t)] = {
            "dims": {str(s): d for s, d in td.items() if d},
            "two_periodic": td.is_two_periodic(),
        }
        for s, d in td.items():
            rows.append((t, s, d))
    _emit_rows(cfg, ("t", "s", "dim"), rows, {
        "p": cfg.p, "n": cfg.n, "window": [lo, hi], "tables": tables,
    })
    return 0


def cmd_modp_cohen(cfg):
    series = modp.cohen_series(cfg.p, cfg.n, cfg.degree_bound)
    rows = [(d, c) for (d, _), c in sorted(series.coeffs.items())]
    if cfg.format in ("table", "csv"):
        _emit_rows(cfg, ("degree", "dim"), rows, None)
    else:
        _emit_value(cfg, series.to_text(), {
            "p": cfg.p, "n": cfg.n, "degree_bound": cfg.degree_bound,
            "series": series.to_text(),
            "coefficients": {str(d): c for d, c in rows},
        })
    return 0


def cmd_modp_swan(cfg):
    period = modp.swan_period(cfg.p)
    _emit_value(cfg, period, {"p": cfg.p, "swan_period": period})
    return 0


# ---------------------------------------------------------------------------
# selftest


def _parse_checks(text):
    out = []
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "-" in piece[1:]:
            a, b = piece.split("-", 1)
            out.extend(range(int(a), int(b) + 1))
        else:
            out.append(int(piece))
    known = {num for num, _, _, _ in selftest.CHECKS}
    for num in out:
        if num not in known:
            raise CliError("no check numbered %d" % num)
    return tuple(dict.fromkeys(out))


def cmd_selftest(cfg):
    numbers = (list(cfg.checks) if cfg.checks
               else [num for num, _, _, _ in selftest.CHECKS])
    workers = _default_workers() if cfg.workers is None else cfg.workers
    if workers > 1 and len(numbers) > 1:
        from concurrent.futures import ProcessPoolExecutor, as_completed
        results = []
        with ProcessPoolExecutor(max_workers=min(workers, len(numbers))) as pool:
            futures = {pool.submit(selftest.run_check, num): num
                       for num in numbers}
            done = 0
            for fut in as_completed(futures):
                r = fut.result()
                done += 1
                _progress("[%d/%d] %s: %s (%.2fs)"
                          % (done, len(numbers), r.name,
                             "ok" if r.ok else "FAIL", r.elapsed))
                results.append(r)
        results.sort(key=lambda r: r.number)
    else:
        results = []
        for idx, num in enumerate(numbers, 1):
            name = next(name for n, name, _, _ in selftest.CHECKS if n == num)
            _progress("[%d/%d] %s ..." % (idx, len(numbers), name))
            r = selftest.run_check(num)
            _progress("[%d/%d] %s: %s (%.2fs)"
                      % (idx, len(numbers), r.name,
                         "ok" if r.ok else "FAIL", r.elapsed))
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
    _emit_rows(cfg, header, rows, {
        "ok": ok_all,
        "results": [r.to_json_obj() for r in results],
    })
    return 0 if ok_all else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("table", "csv", "json"),
                        default=argparse.SUPPRESS,
                        help="output format (default table)")
    common.add_argument("--workers", type=int, default=argparse.SUPPRESS,
                        help="worker processes; 1 forces serial execution "
                             "(default: CONFSPACE_WORKERS or the available "
                             "parallelism)")

    parser = argparse.ArgumentParser(
        prog="confspace",
        description="Exact invariants of configuration spaces.",
        epilog="CSV columns match each subcommand's table header.")
    parser.add_argument("--format", choices=("table", "csv", "json"),
                        default=None, help="output format (default table)")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: CONFSPACE_WORKERS "
                             "or the available parallelism)")
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
    q.add_argument("--kmax", dest="k_max", type=int, default=6,
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
                   help="point whose stabilizer is taken (default k)")
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

    return parser


def _config_from_args(ns):
    parts = [ns.command]
    if getattr(ns, "action", None):
        parts.append(ns.action)
    window = None
    if hasattr(ns, "lo"):
        window = (ns.lo, ns.hi)
    checks = None
    if getattr(ns, "checks", None):
        checks = _parse_checks(ns.checks)
    fmt = getattr(ns, "format", None) or "table"
    return RunConfig(
        subcommand=" ".join(parts),
        preset=getattr(ns, "preset", None),
        algebra_path=getattr(ns, "algebra_path", None),
        k=getattr(ns, "k", None),
        n=getattr(ns, "n", None),
        p=getattr(ns, "p", None),
        r=getattr(ns, "r", None),
        t=getattr(ns, "t", None),
        degree=getattr(ns, "degree", None),
        degree_bound=getattr(ns, "degree_bound", None),
        weight_bound=getattr(ns, "weight_bound", None),
        k_max=getattr(ns, "k_max", None),
        genus=getattr(ns, "genus", None),
        word=getattr(ns, "word", None),
        forest=getattr(ns, "forest", None),
        group=getattr(ns, "group", None),
        target=getattr(ns, "target", None),
        kind=getattr(ns, "kind", None),
        point=(ns.point if getattr(ns, "point", None) is not None
               else getattr(ns, "k", None)),
        window=window,
        checks=checks,
        format=fmt,
        workers=getattr(ns, "workers", None),
    )


def main(argv=None):
    parser = _build_parser()
    ns = parser.parse_args(argv)
    fmt = getattr(ns, "format", None) or "table"
    try:
        cfg = _config_from_args(ns)
        return ns.handler(cfg)
    except BrokenPipeError:
        return 1
    except Exception as exc:
        if fmt == "json":
            sys.stdout.write(json.dumps({
                "error": {"type": type(exc).__name__, "message": str(exc)},
            }, indent=2, sort_keys=True) + "\n")
        else:
            print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
