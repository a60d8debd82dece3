"""Outside-in tracing of confspace's layers for the traced benchmark run.

install() wraps, from outside the library, every module-level binding of
each named public function (`rank` is bound in linalg, ce, forests, modp,
cli and the package) and the named methods.  Each call records one span in
memory: name, start, end, parent span, op id and a few work counts.  A
named target that is missing raises TargetMissing, so a renamed function
stops the traced run instead of reporting zeros.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import weakref

# span name -> (module, function) for public functions
FUNCTIONS = {
    "linalg.rank": ("linalg", "rank"),
    "linalg.smith": ("linalg", "smith_normal_form"),
    "linalg.kernel_basis": ("linalg", "kernel_basis"),
    "linalg.invert": ("linalg", "invert"),
    "forests.rewrite_to_tall": ("forests", "rewrite_to_tall"),
    "forests.action_matrix": ("forests", "action_matrix"),
    "forests.tall_basis": ("forests", "tall_basis"),
    "forests.pairing_matrix": ("forests", "pairing_matrix"),
    "modp.conf_module": ("modp", "conf_module"),
    "modp.tate": ("modp", "tate"),
    "modp.invariants": ("modp", "invariants_sigma_p"),
    "modp.stable": ("modp", "sigma_p_cohomology_stable"),
    "ce.ce_block": ("ce", "ce_block"),
    "ce.betti": ("ce", "betti"),
    "ce.stability": ("ce", "stability_report"),
    "ce.euler": ("ce", "euler_series"),
    "braid.coset_table": ("braid", "coset_table_from_hom"),
    "braid.subgroup_presentation": ("braid", "subgroup_presentation"),
    "arnold.normal_form": ("arnold", "normal_form"),
    "graded.sym_series": ("graded", "sym_series"),
}

# span name -> (module, class, method)
METHODS = {
    "linalg.construct": ("linalg", "SparseMatrix", "__init__"),
    "linalg.matmul": ("linalg", "SparseMatrix", "matmul"),
    "modp.validate": ("modp", "GModule", "__init__"),
    "ce.block": ("ce", "GMLie", "block"),
    "braid.abelianization": ("braid", "Presentation", "abelianization"),
}

PACKAGE = "confspace"


class TargetMissing(RuntimeError):
    pass


class Tracer:
    """Span recorder; spans are [name, start, end, parent, op, count]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.installed = []  # (owner, attribute, original) to restore

    # -- recording ------------------------------------------------------------

    def begin(self, name):
        parent = self.stack[-1] if self.stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self.stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def timed(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if count is not None:
                self.spans[idx][5] = count(args, kwargs, result)
            return result
        return timed

    # -- installing -------------------------------------------------------------

    def install(self, counters):
        """Wrap every named target; counters maps span name to
        f(args, kwargs, result), whose value is stored with the span.
        Every target is looked up before any is wrapped."""
        modules = {name[len(PACKAGE) + 1:] or PACKAGE: mod
                   for name, mod in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")}
        functions = {}
        for span, (modname, fname) in FUNCTIONS.items():
            orig = getattr(modules.get(modname), fname, None)
            if not callable(orig):
                raise TargetMissing("%s.%s.%s is missing" % (PACKAGE, modname, fname))
            functions[span] = orig
        methods = {}
        for span, (modname, cname, mname) in METHODS.items():
            cls = getattr(modules.get(modname), cname, None)
            orig = vars(cls).get(mname) if isinstance(cls, type) else None
            if not callable(orig):
                raise TargetMissing("%s.%s.%s.%s is missing" % (PACKAGE, modname, cname, mname))
            methods[span] = (cls, mname, orig)
        for span, orig in functions.items():
            wrapped = self._wrap(span, orig, counters.get(span))
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self.installed.append((mod, attr, orig))
                        setattr(mod, attr, wrapped)
        for span, (cls, mname, orig) in methods.items():
            self.installed.append((cls, mname, orig))
            setattr(cls, mname, self._wrap(span, orig, counters.get(span)))

    def uninstall(self):
        for owner, attr, orig in reversed(self.installed):
            setattr(owner, attr, orig)
        self.installed = []

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, op, count in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op, "count": count}) + "\n")


def default_counters(linalg):
    """Work counts recorded with each span, keyed by span name."""
    seen_rank = weakref.WeakValueDictionary()
    seen_conf = weakref.WeakValueDictionary()

    def rank_count(args, kwargs, result):
        m = args[0]
        new = seen_rank.get(id(m)) is not m
        if new:
            seen_rank[id(m)] = m
        return {"nnz": m.nnz, "field": "gf" if isinstance(m.domain, linalg.PrimeField) else "qq",
                "new": new}

    def conf_count(args, kwargs, result):
        hit = seen_conf.get(id(result)) is result
        if not hit:
            seen_conf[id(result)] = result
        return hit

    def construct_count(args, kwargs, result):
        # SparseMatrix(nrows, ncols, domain, entries=None); args[0] is self
        entries = args[4] if len(args) > 4 else kwargs.get("entries")
        return len(entries) if entries else 0

    return {
        "linalg.rank": rank_count,
        "linalg.smith": lambda args, kwargs, result: args[0].nnz,
        "linalg.construct": construct_count,
        "modp.conf_module": conf_count,
        "modp.validate": lambda args, kwargs, result: args[0].dim,
        "ce.ce_block": lambda args, kwargs, result: {
            "chains": sum(len(ms) for ms in result.bases.values()),
            "nnz": sum(d.nnz for d in result.diffs.values())},
        "braid.subgroup_presentation": lambda args, kwargs, result: len(result.relators),
    }


def layer_metrics(spans):
    """Per-layer totals from one traced round's spans.

    `*.s` is inclusive time, counting only spans with no ancestor of the
    same name; `*.self_s` is time minus the time of child spans."""
    n = len(spans)
    child_time = [0.0] * n
    for name, start, end, parent, op, count in spans:
        if parent >= 0:
            child_time[parent] += end - start
    total = {}
    self_total = {}
    calls = {}
    for idx, (name, start, end, parent, op, count) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_total[name] = self_total.get(name, 0.0) + dur - child_time[idx]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            total[name] = total.get(name, 0.0) + dur

    def counted(name):
        # spans whose call returned; a call that raised records no count
        return [s for s in spans if s[0] == name and s[5] is not None]

    rank_spans = counted("linalg.rank")
    rank_calls = calls.get("linalg.rank", 0)
    ce_spans = counted("ce.ce_block")
    block_calls = calls.get("ce.block", 0)
    block_misses = sum(1 for s in spans if s[0] == "ce.ce_block" and s[3] >= 0
                       and spans[s[3]][0] == "ce.block")
    conf_calls = calls.get("modp.conf_module", 0)

    def ratio(a, b):
        return a / b if b else 0.0

    out = {
        "linalg.rank.calls": rank_calls,
        "linalg.rank.nnz": sum(s[5]["nnz"] for s in rank_spans),
        "linalg.rank.gf_s": sum(s[2] - s[1] for s in rank_spans if s[5]["field"] == "gf"),
        "linalg.rank.qq_s": sum(s[2] - s[1] for s in rank_spans if s[5]["field"] == "qq"),
        "linalg.rank.distinct_ratio": ratio(sum(1 for s in rank_spans if s[5]["new"]),
                                            rank_calls),
        "linalg.smith.calls": calls.get("linalg.smith", 0),
        "linalg.smith.nnz": sum(s[5] for s in counted("linalg.smith")),
        "linalg.smith.s": total.get("linalg.smith", 0.0),
        "linalg.kernel_basis.s": total.get("linalg.kernel_basis", 0.0),
        "linalg.invert.s": total.get("linalg.invert", 0.0),
        "linalg.matmul.calls": calls.get("linalg.matmul", 0),
        "linalg.matmul.self_s": self_total.get("linalg.matmul", 0.0),
        "linalg.construct.calls": calls.get("linalg.construct", 0),
        "linalg.construct.entries": sum(s[5] for s in counted("linalg.construct")),
        "linalg.construct.s": total.get("linalg.construct", 0.0),
        "forests.rewrite_to_tall.calls": calls.get("forests.rewrite_to_tall", 0),
        "forests.rewrite_to_tall.s": total.get("forests.rewrite_to_tall", 0.0),
        "forests.action_matrix.calls": calls.get("forests.action_matrix", 0),
        "forests.action_matrix.self_s": self_total.get("forests.action_matrix", 0.0),
        "forests.tall_basis.s": total.get("forests.tall_basis", 0.0),
        "forests.pairing_matrix.self_s": self_total.get("forests.pairing_matrix", 0.0),
        "modp.conf_module.calls": conf_calls,
        "modp.conf_module.s": total.get("modp.conf_module", 0.0),
        "modp.conf_module.hit_ratio": ratio(sum(1 for s in counted("modp.conf_module")
                                                if s[5]), conf_calls),
        "modp.validate.s": total.get("modp.validate", 0.0),
        "modp.module_dim": sum(s[5] for s in counted("modp.validate")),
        "modp.tate.s": total.get("modp.tate", 0.0),
        "modp.invariants.s": total.get("modp.invariants", 0.0),
        "modp.stable.s": total.get("modp.stable", 0.0),
        "ce.ce_block.calls": calls.get("ce.ce_block", 0),
        "ce.ce_block.self_s": self_total.get("ce.ce_block", 0.0),
        "ce.ce_block.chains": sum(s[5]["chains"] for s in ce_spans),
        "ce.ce_block.nnz": sum(s[5]["nnz"] for s in ce_spans),
        "ce.block.hit_ratio": ratio(block_calls - block_misses, block_calls),
        "ce.betti.s": total.get("ce.betti", 0.0),
        "ce.stability.s": total.get("ce.stability", 0.0),
        "ce.euler.s": total.get("ce.euler", 0.0),
        "braid.coset_table.s": total.get("braid.coset_table", 0.0),
        "braid.subgroup_presentation.s": total.get("braid.subgroup_presentation", 0.0),
        "braid.abelianization.self_s": self_total.get("braid.abelianization", 0.0),
        "braid.relators": sum(s[5] for s in counted("braid.subgroup_presentation")),
        "arnold.normal_form.calls": calls.get("arnold.normal_form", 0),
        "arnold.normal_form.s": total.get("arnold.normal_form", 0.0),
        "graded.sym_series.s": total.get("graded.sym_series", 0.0),
    }
    return out
