"""Span tracer for the traced benchmark run, and the per-layer metrics.

The tracer wraps public functions of the tllab modules from outside: each
wrapped name is replaced in every tllab module that binds the same function
object, so calls through ``from .x import f`` bindings are caught too.  A
span records (name, start, end, parent, operation, info).  Very hot scalar
functions (``omega``, ``r_matrix``) are only counted.  Spans stay in memory
and are written out when the run ends.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter

# (module, function) pairs recorded as spans.  Layer metrics below are
# computed from these names; a function missing from the program is skipped.
SPANS = (
    ("report", "build_open_spectrum"),
    ("report", "build_closed_spectrum"),
    ("report", "build_table_report"),
    ("report", "spectrum_payload"),
    ("report", "table_payload"),
    ("report", "verify_payload"),
    ("solver", "solve_sector_open"),
    ("solver", "solve_sector_closed"),
    ("solver", "dedup_solutions"),
    ("solver", "fingerprint"),
    ("solver", "refine"),
    ("symmetry", "measure_degeneracy"),
    ("symmetry", "line_degeneracy"),
    ("symmetry", "check_symmetry"),
    ("bethe", "eval_lambda"),
    ("bethe", "bethe_residuals"),
    ("transfer", "transfer_matrix"),
    ("transfer", "open_transfer"),
    ("transfer", "closed_transfer"),
    ("transfer", "aux_blocks"),
    ("transfer", "monodromy_dense"),
    ("aba", "bethe_vector"),
    ("aba", "offshell_residual"),
    ("aba", "scalar_product"),
    ("aba", "norm_squared"),
)
COUNTED = (("core", "omega"), ("operators", "r_matrix"))

SECTOR = {"solve_sector_open", "solve_sector_closed"}
BUILD = {"build_open_spectrum", "build_closed_spectrum", "build_table_report"}
PAYLOAD = {"spectrum_payload", "table_payload", "verify_payload"}
MATRIX = {"transfer_matrix", "open_transfer", "closed_transfer"}
SWEEP = {"aux_blocks", "monodromy_dense"}
PRODUCT = {"scalar_product", "norm_squared"}

SUITE_NAMES = (
    "tl-algebra", "yang-baxter", "boundary", "transfer", "functional",
    "symmetry", "offshell", "highest-weight", "scalar-products",
)


def _degeneracy_info(bound, result):
    nullity, ambiguous = result
    return [int(nullity), bool(ambiguous)]


def _dedup_info(bound, result):
    given = bound.arguments["solutions"]
    return [len(given) if hasattr(given, "__len__") else None, len(result)]


def _point_info(bound, result):
    args = bound.arguments
    return [repr(args["params"]), repr(complex(args["u"])), getattr(result, "kind", None)]


INFO = {
    "measure_degeneracy": _degeneracy_info,
    "dedup_solutions": _dedup_info,
    "transfer_matrix": _point_info,
    "open_transfer": _point_info,
    "closed_transfer": _point_info,
}


class Tracer:
    """Records spans and counts while ``active``; a no-op otherwise."""

    def __init__(self):
        self.active = False
        self.op = -1
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._patched = []

    def _span(self, name, fn):
        info = INFO.get(name)
        sig = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            rec = [name, time.perf_counter(), None,
                   self._stack[-1] if self._stack else -1, self.op, None]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if info:
                    rec[5] = info(sig.bind(*args, **kwargs), result)
                return result
            finally:
                self._stack.pop()
                rec[2] = time.perf_counter()

        return wrapped

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            if self.active:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self):
        """Patch every binding of the traced functions in loaded tllab modules."""
        modules = [m for k, m in sys.modules.items() if k == "tllab" or k.startswith("tllab.")]
        plan = [(m, f, self._span) for m, f in SPANS] + [(m, f, self._count) for m, f in COUNTED]
        for mod_name, func, make in plan:
            original = getattr(sys.modules.get(f"tllab.{mod_name}"), func, None)
            if not callable(original):
                continue
            wrapped = make(func, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def take(self):
        """Return and reset the spans and counts recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def layer_metrics(spans, counts, extras):
    """Per-layer metrics of one traced round.

    ``extras`` carries what the program reports itself: double_row cache
    statistics, suite times and the number of table comparisons.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]

    def name_of(i):
        return spans[i][0] if i >= 0 else None

    def dur(s):
        return s[2] - s[1]

    def outer(group):
        return [s for s in spans if s[0] in group and name_of(s[3]) not in group]

    def total(group):
        return sum((dur(s) for s in outer(group)), 0.0)

    member = [s for s in spans if s[0] == "measure_degeneracy" and name_of(s[3]) in SECTOR]
    degen = [s for s in spans if s[0] == "measure_degeneracy" and name_of(s[3]) == "line_degeneracy"]
    dedup = outer({"dedup_solutions"})
    matrix = outer(MATRIX)
    kept = sum(1 for s in member if s[5][0] >= 1)
    out = {
        "symmetry.member_calls": len(member),
        "symmetry.member_kept": kept,
        "symmetry.member_yield": kept / len(member) if member else 0.0,
        "symmetry.member_s": sum((dur(s) for s in member), 0.0),
        "symmetry.degeneracy_calls": len(degen),
        "symmetry.degeneracy_s": sum((dur(s) for s in degen), 0.0),
        "symmetry.ambiguous": sum(1 for s in degen if s[5][1]),
        "symmetry.check_s": total({"check_symmetry"}),
        "solver.sectors": len(outer(SECTOR)),
        "solver.search_self_s": sum((dur(s) - child[i] for i, s in enumerate(spans) if s[0] in SECTOR), 0.0),
        "solver.dedup_calls": len(dedup),
        "solver.dedup_in": sum(s[5][0] or 0 for s in dedup),
        "solver.dedup_out": sum(s[5][1] for s in dedup),
        "solver.dedup_s": total({"dedup_solutions"}),
        "solver.fingerprints": sum(1 for s in spans if s[0] == "fingerprint"),
        "solver.refine_calls": len(outer({"refine"})),
        "solver.refine_s": total({"refine"}),
        "bethe.lambda_calls": len(outer({"eval_lambda"})),
        "bethe.lambda_s": total({"eval_lambda"}),
        "bethe.residual_calls": len(outer({"bethe_residuals"})),
        "bethe.residual_s": total({"bethe_residuals"}),
        "core.omega_calls": counts["omega"],
        "transfer.matrix_calls": len(matrix),
        "transfer.matrix_points": len({(s[4], *s[5]) for s in matrix}),
        "transfer.matrix_s": sum((dur(s) for s in matrix), 0.0),
        "transfer.sweep_calls": len(outer(SWEEP)),
        "transfer.sweep_s": total(SWEEP),
        "operators.r_matrix_calls": counts["r_matrix"],
        "aba.vector_calls": len(outer({"bethe_vector"})),
        "aba.vector_s": total({"bethe_vector"}),
        "aba.double_row_hits": extras["double_row_hits"],
        "aba.double_row_misses": extras["double_row_misses"],
        "aba.offshell_s": total({"offshell_residual"}),
        "aba.product_s": total(PRODUCT),
        **{f"suites.{n}_s": extras["suites"].get(n, 0.0) for n in SUITE_NAMES},
        "report.build_self_s": sum((dur(s) - child[i] for i, s in enumerate(spans) if s[0] in BUILD), 0.0),
        "report.payload_s": total(PAYLOAD),
        "reference.comparisons": extras["comparisons"],
    }
    return out


def write_spans(path, spans, counts, ops):
    """Write the spans and counts of a traced round as gzipped JSON."""
    names = sorted({s[0] for s in spans})
    index = {n: i for i, n in enumerate(names)}
    doc = {
        "fields": ["name", "start_s", "end_s", "parent", "op", "info"],
        "names": names,
        "ops": ops,
        "counts": dict(counts),
        "spans": [[index[s[0]], s[1], s[2], s[3], s[4], s[5]] for s in spans],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh, separators=(",", ":"))
