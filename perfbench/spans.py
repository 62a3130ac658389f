"""Per-layer spans recorded from outside the program.

`install()` replaces every binding of each named function inside the
`srlab` package with a timing wrapper: the defining module, every module that
copied it with `from .x import y`, the package re-exports, and the class
attribute for methods.  A missed binding would silently undercount a layer,
so `unpatched()` lists any binding that still refers to an original and the
benchmark refuses to report a traced run while that list is non-empty.

Each wrapper pushes a frame on one stack (the benchmark runs with one
thread).  A span's self time is its duration minus the time of the spans it
called; `tables.row` frames are opened and closed by hooks, not by a call.
Exceptions pass through unchanged; `BudgetExceeded` is counted first.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# span name -> (module, attribute path)
SPANS = {
    "field.extension": ("srlab.field", "extension"),
    "poly.smallest_irreducible": ("srlab.poly", "smallest_irreducible"),
    "poly.is_irreducible": ("srlab.poly", "is_irreducible"),
    "cyclic.bch_generator": ("srlab.cyclic", "bch_generator"),
    "cyclic.minimal_polynomial": ("srlab.cyclic", "minimal_polynomial"),
    "cyclic.cyclic_code": ("srlab.cyclic", "cyclic_code"),
    "cyclic.parse_poly": ("srlab.cyclic", "parse_poly"),
    "linalg.MatrixGF.rref": ("srlab.linalg", "MatrixGF.rref"),
    "linalg.MatrixGF.rank": ("srlab.linalg", "MatrixGF.rank"),
    "linalg.MatrixGF.kernel_basis": ("srlab.linalg", "MatrixGF.kernel_basis"),
    "linalg.MatrixGF.mat_mul": ("srlab.linalg", "MatrixGF.mat_mul"),
    "linalg.MatrixGF.row_space_contains": ("srlab.linalg", "MatrixGF.row_space_contains"),
    "code.LinearCode.min_distance": ("srlab.code", "LinearCode.min_distance"),
    "code.LinearCode.low_weight_scan": ("srlab.code", "LinearCode.low_weight_scan"),
    "code.LinearCode.dual": ("srlab.code", "LinearCode.dual"),
    "code.LinearCode.hull_dimension": ("srlab.code", "LinearCode.hull_dimension"),
    "sumrank.SumRankCode.min_distance": ("srlab.sumrank", "SumRankCode.min_distance"),
    "sumrank.SumRankCode.dual": ("srlab.sumrank", "SumRankCode.dual"),
    "sumrank.SumRankCode.is_cyclic": ("srlab.sumrank", "SumRankCode.is_cyclic"),
    "construct.qpoly_code": ("srlab.construct", "qpoly_code"),
    "construct.basis_expand_code": ("srlab.construct", "basis_expand_code"),
    "construct.pair_distance": ("srlab.construct", "pair_distance"),
    "construct.symbol_sum_rank_weight": ("srlab.construct", "symbol_sum_rank_weight"),
    "wordenum.min_weight_char2": ("srlab.wordenum", "min_weight_char2"),
    "wordenum.min_weight_generic": ("srlab.wordenum", "min_weight_generic"),
    "wordenum.low_weight_min_char2": ("srlab.wordenum", "low_weight_min_char2"),
    "wordenum.sr_min_weight_packed": ("srlab.wordenum", "sr_min_weight_packed"),
    "wordenum.sr_min_weight_generic": ("srlab.wordenum", "sr_min_weight_generic"),
    "wordenum.support_masks": ("srlab.wordenum", "support_masks"),
    "jsonio.code_from_obj": ("srlab.jsonio", "code_from_obj"),
    "jsonio.sr_code_from_obj": ("srlab.jsonio", "sr_code_from_obj"),
}
ROW_SPAN = "tables.row"
ALL_SPANS = list(SPANS) + [ROW_SPAN]

# The enumerating kernels and how many words (codewords or messages) one call
# walks, from its arguments: q**k when it completes; on BudgetExceeded the
# exception's own `enumerated` count is used instead.
KERNELS = {
    "wordenum.min_weight_char2": lambda a: a["field"].order ** len(a["rows"]),
    "wordenum.min_weight_generic": lambda a: a["field"].order ** len(a["rows"]),
    "wordenum.sr_min_weight_packed": lambda a: a["field"].order ** len(a["rows"]),
    "wordenum.sr_min_weight_generic": lambda a: a["field"].order ** len(a["rows"]),
    # messages of Hamming weight 1..cap: sum_w C(k, w) (q - 1)**w
    "wordenum.low_weight_min_char2": lambda a: sum(
        math.comb(len(a["rows"]), w) * (a["field"].order - 1) ** w
        for w in range(1, min(a["max_msg_weight"], len(a["rows"])) + 1)
    ),
}
BUDGETED = ("code.LinearCode.min_distance", "sumrank.SumRankCode.min_distance",
            "construct.pair_distance")
YIELD = "poly.is_irreducible"

# Which workloads each span must record calls on; a traced run that sees
# zero calls for a span listed for its workload reports itself incorrect.
_BCH, _SD, _CODES = "tables-bch", "tables-selfdual", "codes-seeded"
_ALL = (_BCH, _SD, _CODES)
EXPECTED = {
    "field.extension": _ALL,
    "poly.smallest_irreducible": (_BCH, _SD),
    "poly.is_irreducible": _ALL,
    "cyclic.bch_generator": (_BCH,),
    "cyclic.minimal_polynomial": (_BCH,),
    "cyclic.cyclic_code": (_BCH, _SD),
    "cyclic.parse_poly": (_BCH, _SD),
    "linalg.MatrixGF.rref": _ALL,
    "linalg.MatrixGF.rank": _ALL,
    "linalg.MatrixGF.kernel_basis": (_CODES,),
    "linalg.MatrixGF.mat_mul": _ALL,
    "linalg.MatrixGF.row_space_contains": (_SD,),
    "code.LinearCode.min_distance": _ALL,
    "code.LinearCode.low_weight_scan": (_SD,),
    "code.LinearCode.dual": (_CODES,),
    "code.LinearCode.hull_dimension": (_BCH, _CODES),
    "sumrank.SumRankCode.min_distance": _ALL,
    "sumrank.SumRankCode.dual": (_CODES,),
    "sumrank.SumRankCode.is_cyclic": (_SD,),
    "construct.qpoly_code": _ALL,
    "construct.basis_expand_code": _ALL,
    "construct.pair_distance": _ALL,
    "construct.symbol_sum_rank_weight": _ALL,
    "wordenum.min_weight_char2": _ALL,
    "wordenum.min_weight_generic": (_BCH, _CODES),
    "wordenum.low_weight_min_char2": (_SD,),
    "wordenum.sr_min_weight_packed": _ALL,
    "wordenum.sr_min_weight_generic": (_CODES,),
    "wordenum.support_masks": _ALL,
    "jsonio.code_from_obj": (_CODES,),
    "jsonio.sr_code_from_obj": (_CODES,),
    ROW_SPAN: (_BCH, _SD),
}


class Record:
    __slots__ = ("calls", "self_s", "incl_s", "words", "budget_hits", "true_results")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.incl_s = 0.0
        self.words = 0
        self.budget_hits = 0
        self.true_results = 0


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.records = {name: Record() for name in ALL_SPANS}
        self.stack = []  # frames: [record, start, child_seconds]
        self.originals = {}  # span name -> original function

    # -- frames ------------------------------------------------------------

    def push(self, rec):
        self.stack.append([rec, self.clock(), 0.0])

    def pop(self):
        rec, start, child = self.stack.pop()
        dur = self.clock() - start
        rec.calls += 1
        rec.self_s += dur - child
        rec.incl_s += dur
        if self.stack:
            self.stack[-1][2] += dur

    def open_row(self):
        self.push(self.records[ROW_SPAN])

    def next_row(self):
        """Close the row on top of the stack and open the next one."""
        if not self.stack or self.stack[-1][0] is not self.records[ROW_SPAN]:
            raise RuntimeError("a row ended while a layer span was still open")
        self.pop()
        self.open_row()

    def drop_row(self):
        """Discard the row opened after the last RowResult (not a row)."""
        if not self.stack or self.stack[-1][0] is not self.records[ROW_SPAN]:
            raise RuntimeError("span stack out of step at the end of run_tables")
        self.stack.pop()

    # -- wrappers ------------------------------------------------------------

    def wrap(self, name, fn, budget_exc):
        rec = self.records[name]
        count = KERNELS.get(name)
        sig = inspect.signature(fn) if count else None
        is_yield = name == YIELD
        push, pop = self.push, self.pop

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            push(rec)
            try:
                result = fn(*args, **kwargs)
            except budget_exc as exc:
                pop()
                rec.budget_hits += 1
                rec.words += exc.enumerated
                raise
            except BaseException:
                pop()
                raise
            pop()
            if count is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec.words += count(bound.arguments)
            elif is_yield and result:
                rec.true_results += 1
            return result

        return wrapper

    def metrics(self, scale=1.0):
        """Counts and times; `scale` converts clock seconds to reported seconds."""
        out = {}
        for name, rec in self.records.items():
            out[f"{name}.calls"] = rec.calls
            out[f"{name}.self_s"] = rec.self_s * scale
        for name in KERNELS:
            rec = self.records[name]
            out[f"{name}.words"] = rec.words
            out[f"{name}.words_per_s"] = rec.words / (rec.incl_s * scale) if rec.incl_s else 0.0
        for name in BUDGETED:
            rec = self.records[name]
            out[f"{name}.budget_frac"] = rec.budget_hits / rec.calls if rec.calls else 0.0
        rec = self.records[YIELD]
        out[f"{YIELD}.yield"] = rec.true_results / rec.calls if rec.calls else 0.0
        return out

    def self_total(self):
        return sum(rec.self_s for rec in self.records.values())


def _srlab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "srlab" or name.startswith("srlab."))]


def _original(module_name, path):
    """The function a span names, unwrapped from classmethod/staticmethod."""
    owner = sys.modules[module_name]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    return raw.__func__ if isinstance(raw, (classmethod, staticmethod)) else raw


def _bindings(originals):
    """Every (namespace, name, span) in srlab whose value is an original."""
    by_id = {id(fn): span for span, fn in originals.items()}  # values may be unhashable
    found = []
    for module in _srlab_modules():
        for space in [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__.startswith("srlab")]:
            for key, value in list(vars(space).items()):
                raw = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
                span = by_id.get(id(raw))
                if span is not None:
                    found.append((space, key, span))
    return found


def install(tracer):
    """Wrap every binding of every span; return the number of bindings patched."""
    import srlab.cli  # noqa: F401  every module that copies a span function
    from srlab.errors import BudgetExceeded

    for name, (module_name, path) in SPANS.items():
        tracer.originals[name] = _original(module_name, path)
    wrappers = {name: tracer.wrap(name, fn, BudgetExceeded) for name, fn in tracer.originals.items()}
    patched = 0
    for space, key, span in _bindings(tracer.originals):
        value = vars(space)[key]
        new = wrappers[span]
        if isinstance(value, (classmethod, staticmethod)):
            new = type(value)(new)
        setattr(space, key, new)
        patched += 1
    return patched


def unpatched(tracer):
    """Bindings that still refer to an original function (should be empty)."""
    return [f"{getattr(space, '__name__', space)}.{key} ({span})"
            for space, key, span in _bindings(tracer.originals)]
