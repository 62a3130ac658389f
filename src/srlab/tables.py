"""Reproduce the published parameter tables from the bundled manifests.

Each manifest row names its inputs (BCH parameters, generator-polynomial
strings, or the rref generator rows of a code found once by search) and the
printed expectations.  The runner rebuilds every object from those inputs,
computes dimensions, distances and bounds, and compares according to the
row's expectation kind.  Each distance a row states is one evidence interval
lo <= d <= hi, of one of these kinds:

  exhaustive   [d, d]; for d_H and for d_sr of (2,2) expansions only
               where the whole code fits the word budget and is no dearer
               than the window listing a certificate would need (d_H: every
               word up to the lightest row's weight; d_sr: every GF(4) word
               of Hamming weight <= 2 (formula lower bound - 1)); d_sr of
               other expansions always; the table 9 expansions of
               dimension <= 10 under the search's own budget
  certificate  [d, d] from a window scan (`LinearCode.certified_distance`)
               with its lightest word as the witness: d_H otherwise, with
               no word budget; d_sr of a GF(4) code expanded into (2,2)
               blocks otherwise, in budget or past it, run only while the
               listing of its next depth fits the budget, and accepted once
               the witness's symbol weight is d
  pair         [d, d] from support-class crossing (tables 1, 3 and 11)
  over budget  [formula lower bound, lightest weight found]

Printed values are mostly comparison targets, but some still feed
computations: the formula-only rows of tables 1 and 7 evaluate the bounds at
the printed d_H, and the `d` column of tables 2 and 4 feeds the table 5/9
bound formulas.  No printed value sets a search depth.  The ROADMAP item
"Printed values are never inputs" replaces the remaining inputs.

Row statuses:
  match          every check of the row's expectation kind passed
  inside-bounds  an exactly computed value landed inside a printed interval
  budget-limited an evidence interval is open (lo < hi); all of it consistent
  mismatch       a computed value contradicts the printed one (known
                 discrepancies are reported this way, with the note saying so)

Exit-code contract: 0 all match, 2 budget-limited rows only, 3 any mismatch.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field as dc_field
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .code import LinearCode, f4_selfdual_distance_cap
from .construct import (
    Bounds,
    basis_expand_code,
    default_expansion_profile,
    expansion_distance_bounds,
    pair_distance,
    qpoly_code,
    selfdual_sr_distance_cap,
    sr_distance_bounds,
    symbol_sum_rank_weight,
    uniform22_certified_distance,
    uniform22_distance_bounds,
)
from .cyclic import bch_generator, cyclic_code, frobenius_coeffs, parse_poly
from .errors import BudgetExceeded, UnknownTable, UsageError
from .field import extension, prime_field, self_dual_basis
from .sumrank import BlockProfile
from .wordenum import check_budget

__all__ = [
    "TABLE_IDS",
    "RowResult",
    "load_manifest",
    "run_tables",
    "report_exit_code",
    "report_to_json",
    "report_to_csv",
    "DEFAULT_TABLE_WORD_BUDGET",
]

TABLE_IDS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12)

DEFAULT_TABLE_WORD_BUDGET = 2**24


@dataclass
class RowResult:
    table: int
    row: str
    status: str
    expected: str
    computed: str
    note: str = ""


def load_manifest(table_id: int) -> dict:
    name = f"table{table_id:02d}.json"
    pkg = resources.files("srlab.manifests")
    try:
        return json.loads(pkg.joinpath(name).read_text())
    except FileNotFoundError:
        raise UnknownTable(f"no manifest for table {table_id}") from None


@dataclass(frozen=True)
class _Interval:
    """Evidence lo <= d <= hi for one distance (hi None: no word seen), with
    the lightest word found, if kept, and how the evidence was obtained."""

    lo: int
    hi: Optional[int]
    witness: Optional[tuple] = None
    note: str = ""

    @property
    def open(self) -> bool:
        return self.hi is None or self.lo < self.hi

    def contains(self, d: int) -> bool:
        return self.lo <= d and (self.hi is None or d <= self.hi)

    def __str__(self) -> str:
        return f"{self.lo}..{'' if self.hi is None else self.hi}" if self.open else str(self.hi)


def _lightest(*weights) -> Optional[int]:
    return min((w for w in weights if w is not None), default=None)


class _Ctx:
    """Shared state for one run: the word budget and cross-table caches."""

    def __init__(self, word_budget: int):
        self.word_budget = word_budget
        self.f2 = prime_field(2)
        self.f4 = extension(self.f2, 2)
        self.sd_basis = self_dual_basis(self.f4)  # {w, w^2}
        self.codes: Dict[tuple, LinearCode] = {}
        self.dham: Dict[tuple, _Interval] = {}
        # printed distances of the BCH codes, the comparison targets of tables 2 and 4
        self.printed_bch_d = {tuple(r["bch"]): r["d"]
                              for tid in (2, 4) for r in load_manifest(tid)["rows"]}

    def printed_d(self, spec: dict) -> int:
        return self.printed_bch_d[tuple(spec["bch"])]

    def code_from_spec(self, spec: dict) -> Tuple[tuple, LinearCode]:
        if "bch" in spec:
            q, n, delta, b = spec["bch"]
            key = ("bch", q, n, delta, b)
            build = lambda: cyclic_code(bch_generator(self.f4, n, delta, b), n)
        elif "gen" in spec:
            n = spec["n"]
            p = parse_poly(self.f4, spec["gen"])
            key = ("gen", n, p.coeffs)
            build = lambda: cyclic_code(p, n)
        elif "rows" in spec:
            n, rows = spec["n"], spec["rows"]
            key = ("rows", n, tuple(map(tuple, rows)))
            build = lambda: LinearCode.from_rows(self.f4, n, rows)
        else:
            raise UnknownTable(f"unrecognized code spec {spec}")
        if key not in self.codes:
            self.codes[key] = build()
        return key, self.codes[key]

    def hamming(self, sc: _RowScratch, spec: dict, printed: int,
                what: str) -> Tuple[LinearCode, _Interval]:
        """The code of `spec` and its d_H interval, checked against the printed
        value in `sc`.  The exhaustive search runs where it is the cheaper
        evidence: the whole code fits the word budget and is no dearer than
        listing every codeword up to the lightest row's weight
        (`listing_windows`), the most a certificate deepening from depth 1
        could need.  Else the code's window certificate, unbudgeted, gives
        d_H with its lightest word as the witness."""
        key, code = self.code_from_spec(spec)
        if key not in self.dham:
            if (code.field.order**code.k <= self.word_budget
                    and code.listing_windows(code.lightest_row())[1] >= code.k):
                d = code.min_distance(budget=self.word_budget)
                self.dham[key] = _Interval(d, d, note=f"d_H={d} exact")
            else:
                d, witness, r, depth = code.certified_distance()
                how = ("listing the whole code" if depth >= code.k
                       else f"{r} windows through message weight {depth}")
                self.dham[key] = _Interval(d, d, witness, f"d_H={d} certified by {how}")
        sc.check_hamming(self.dham[key], printed, what)
        return code, self.dham[key]


def _expected(row: dict) -> str:
    """The printed dimension (d_H for generator-list rows) and d_sr."""
    spec = row["dsr"]
    head = (f"d_H={row['d_hamming']}" if "generators" in row
            else f"dim={row.get('dim_printed', row['dim'])}")
    if spec["kind"] == "exact":
        star = "*" if spec.get("star") else ""
        return f"{head}, d_sr={spec['value']}{star}"
    return f"{head}, {spec['lo']}<=d_sr<={spec['hi']}"


def _spec_bounds(spec: dict) -> Bounds:
    if spec["kind"] == "exact":
        return Bounds(spec["value"], spec["value"])
    return Bounds(spec["lo"], spec["hi"])


@dataclass
class _RowScratch:
    failures: List[str] = dc_field(default_factory=list)
    notes: List[str] = dc_field(default_factory=list)
    computed: List[str] = dc_field(default_factory=list)
    intervals: List[_Interval] = dc_field(default_factory=list)
    inside: bool = False

    def check(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    def check_hamming(self, h: _Interval, printed: int, what: str):
        """The printed d_H must lie in the evidence interval."""
        self.intervals.append(h)
        self.check(h.contains(printed), f"d_H of {what}: {h.note}")

    def status(self) -> str:
        if self.failures:
            return "mismatch"
        if any(iv.open for iv in self.intervals):
            return "budget-limited"
        if self.inside:
            return "inside-bounds"
        return "match"


# ------------------------------------------------------------ shared checks


def _dsr_interval(search, fb: Bounds, what: str, witness_weight=lambda: None) -> _Interval:
    """d_sr by `search`, which returns (d, witness, note); over budget
    [formula lower bound, lightest weight found], which settles d_sr when
    the two ends meet."""
    try:
        d, witness, note = search()
        return _Interval(d, d, witness, note)
    except BudgetExceeded as exc:
        hi = _lightest(exc.best, witness_weight())
        if hi is not None and hi <= fb.lower:
            return _Interval(fb.lower, hi, note=f"{what} enumeration over budget ({exc}); "
                             "the weight found meets the formula lower bound")
        return _Interval(fb.lower, hi, note=f"{what} enumeration budget-limited ({exc})")


def _check_dsr(sc: _RowScratch, iv: _Interval, fb: Bounds, spec: dict):
    """d_sr evidence against the printed interval, which lies inside the formula
    bounds.  An exact d_sr lies inside both (a starred row meets the upper
    bound); an open interval's lightest weight reaches the printed interval."""
    printed = _spec_bounds(spec)
    sc.check(fb.lower <= printed.lower and printed.upper <= fb.upper,
             f"printed interval {printed} vs formula {fb}")
    sc.intervals.append(iv)
    if iv.open:
        if iv.hi is not None:
            sc.computed.append(f"d_sr<={iv.hi}")
            sc.check(iv.hi >= printed.lower, f"found weight {iv.hi} below printed lower bound")
    else:
        d = iv.hi
        sc.computed.append(f"d_sr={d}")
        sc.check(fb.contains(d) and printed.contains(d), f"d_sr {d} outside {fb} or {printed}")
        sc.check(d == fb.upper or not spec.get("star"), "starred row should meet the upper bound")
        sc.inside |= spec["kind"] != "exact"
    if iv.note:
        sc.notes.append(iv.note)


def _check_dim(sc: _RowScratch, row: dict, dim: int, what: str):
    """`dim` against the identity value; a differing printed one is a known discrepancy."""
    sc.check(dim == row["dim"], what)
    if row.get("dim_printed", row["dim"]) != row["dim"]:
        sc.check(dim == row["dim_printed"], "known discrepancy: " + row["known_discrepancy"])


def _check_formula_only(sc: _RowScratch, fb: Bounds, spec: dict):
    """Rows without published generators: the printed interval is the formula."""
    sc.check(_spec_bounds(spec) == fb, f"printed interval vs formula {fb}")
    sc.notes.append("generators not published; formula checks only")


def _check_selfdual_transfer(sc: _RowScratch, S):
    sc.check(S.is_self_dual(), "self-dual transfer")
    rep = S.structural_report()
    sc.check(all(v for v in rep.values() if v is not None), f"structural checks {rep}")


def _selfdual_generators(ctx: _Ctx, sc: _RowScratch, row: dict, n: int) -> list:
    """Every listed self-dual cyclic generator, with its Hamming evidence."""
    d = row["d_hamming"]
    sc.check(d <= f4_selfdual_distance_cap(n), "distance cap")
    out = []
    for gtext in row["generators"]:
        c, h = ctx.hamming(sc, {"gen": gtext, "n": n}, d, gtext)
        sc.check(c.is_self_dual(), f"self-dual: {gtext}")
        sc.check(c.k == n // 2, f"dimension of <{gtext}>")
        out.append((c, h))
    return out


def _expansion_distance(ctx: _Ctx, sc: _RowScratch, c: LinearCode, M, fb: Bounds,
                        spec: dict, h: _Interval) -> _Interval:
    """d_sr of M, the basis expansion of c: exhaustive for blocks other than
    (2,2), and for (2,2) blocks where it is the cheaper evidence: M fits the
    word budget and is no dearer than the least listing a certificate could
    need, c's words of Hamming weight <= 2 (fb.lower - 1)
    (`listing_windows`).  Else, in budget or past it, the window
    certificate on c's own words, accepted once its witness's symbol
    weight is the certified d.  Past the budget of either, the Hamming
    witness's sum-rank weight also bounds d_sr from above."""
    def search():
        if any(block != (2, 2) for block in M.profile.blocks) or (
                M.field.order**M.dim <= ctx.word_budget
                and c.listing_windows(2 * (fb.lower - 1))[1] >= c.k):
            return M.min_distance(budget=ctx.word_budget), None, ""
        d, witness, r, depth = uniform22_certified_distance(c, ctx.word_budget)
        if symbol_sum_rank_weight(witness, ctx.f4, M.profile) != d:
            raise AssertionError(f"the (2,2) certificate's witness does not weigh {d}")
        return d, witness, f"d_sr={d} certified by {r} windows through message weight {depth}"

    iv = _dsr_interval(
        search, fb, "expansion",
        lambda: None if h.witness is None else symbol_sum_rank_weight(h.witness, ctx.f4, M.profile))
    if not iv.open:
        sc.computed.append(f"dim={M.dim}")
    _check_dsr(sc, iv, fb, spec)
    return iv


def _pair_row(ctx: _Ctx, sc: _RowScratch, c0, c1, h0: _Interval, h1: _Interval,
              dsr_spec, t: int):
    """Construction and distance checks of the stacked pair, which it returns;
    h0/h1 are the Hamming evidence of c0/c1."""
    S = qpoly_code([c0, c1])
    sc.computed.append(f"dim={S.dim}")
    sc.check(S.dim == 2 * (c0.k + c1.k), "stacked dimension identity")
    both_sd = c0.is_self_dual() and c1.is_self_dual()
    if both_sd:
        _check_selfdual_transfer(sc, S)
        sc.check(S.is_cyclic(), "cyclic transfer")

    printed = _spec_bounds(dsr_spec)
    fb = sr_distance_bounds(2, [h0.lo, h1.lo])
    iv = _dsr_interval(lambda: (pair_distance(c0, c1, budget=ctx.word_budget), None, ""), fb,
                       "pair")
    _check_dsr(sc, iv, fb, dsr_spec)
    sc.check(printed.upper <= selfdual_sr_distance_cap(t) or not both_sd, "self-dual cap")
    return S


def _table_1_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    t, d = row["t"], row["d_hamming"]
    sc.check(row["dim"] == 2 * t, "dimension column is 2t")
    sc.check(d <= f4_selfdual_distance_cap(t), "distance cap for self-dual inputs")
    fb = sr_distance_bounds(2, [d, d])
    sc.computed.append(f"formula bounds {fb.lower}..{fb.upper}")
    if "code" in row:
        c, h = ctx.hamming(sc, row["code"], d, "the input code")
        sc.check(c.is_self_dual(), "input code self-dual")
        _pair_row(ctx, sc, c, c, h, h, row["dsr"], t)
    else:
        _check_formula_only(sc, fb, row["dsr"])
        sc.check(_spec_bounds(row["dsr"]).upper <= selfdual_sr_distance_cap(t),
                 "self-dual cap")
    return _expected(row)


def _table_2_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    c, h = ctx.hamming(sc, row, row["d"], "the code")
    sc.check(c.k == row["dim"], f"dimension {c.k} != {row['dim']}")
    sc.check(c.is_lcd(), "LCD predicate")
    g = bch_generator(ctx.f4, row["bch"][1], row["bch"][2], row["bch"][3])
    printed_g = parse_poly(ctx.f4, row["generator"])
    conj = frobenius_coeffs(printed_g)
    sc.check(g == printed_g or g == conj,
             "generator polynomial (up to coefficient conjugation)")
    sc.computed.append(f"dim={c.k}, d={h}, G(x)={g}")
    if g == conj and g != printed_g:
        sc.notes.append("generator matches the conjugate convention")
    return f"dim={row['dim']}, d={row['d']}, G(x)={row['generator']}"


def _table_3_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    c0, h0 = ctx.hamming(sc, row["c0"], ctx.printed_d(row["c0"]), "c0")
    c1, h1 = ctx.hamming(sc, row["c1"], ctx.printed_d(row["c1"]), "c1")
    _check_dim(sc, row, 2 * (c0.k + c1.k), "dimension vs 2(k0+k1)")
    sc.check(c0.is_lcd() and c1.is_lcd(), "inputs LCD")
    S = _pair_row(ctx, sc, c0, c1, h0, h1, row["dsr"], c0.n)
    sc.check(S.is_lcd(), "LCD transfer")
    return _expected(row)


def _table_11_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    t = row["t"]
    gens = _selfdual_generators(ctx, sc, row, t)
    # the first two listed generators, or the first with itself
    (c0, h0), (c1, h1) = (gens * 2)[:2]
    _pair_row(ctx, sc, c0, c1, h0, h1, row["dsr"], t)
    return _expected(row)


def _table_4_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    _, c = ctx.code_from_spec(row)
    delta = row["bch"][2]
    sc.check(c.k == row["dim"], f"dimension {c.k} != {row['dim']}")
    sc.check(c.is_lcd(), "LCD predicate")
    if row["d_check"] == "exact":
        _, h = ctx.hamming(sc, row, row["d"], "the code")
        sc.computed.append(f"dim={c.k}, d={h}")
    else:
        sc.computed.append(f"dim={c.k}, d>={delta} (designed distance)")
        sc.notes.append(f"exact search out of reach; certified d >= {delta}")
        sc.check_hamming(_Interval(delta, None, note="printed distance below the designed floor"),
                         row["d"], "the code")
    return f"dim={row['dim']}, d={row['d']}"


def _table_5_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    _, c0 = ctx.code_from_spec(row["c0"])
    _, c1 = ctx.code_from_spec(row["c1"])
    _check_dim(sc, row, 2 * (c0.k + c1.k), "dimension vs 2(k0+k1)")
    sc.check(c0.is_lcd() and c1.is_lcd(), "inputs LCD")
    d0, d1 = ctx.printed_d(row["c0"]), ctx.printed_d(row["c1"])
    fb = sr_distance_bounds(2, [d0, d1])
    sc.computed.append(f"dim={2 * (c0.k + c1.k)}, formula bounds {fb.lower}..{fb.upper}")
    spec = row["dsr"]
    if spec["kind"] == "exact":
        sc.check(fb.contains(spec["value"]), "printed value inside formula bounds")
        if spec.get("star"):
            sc.check(spec["value"] == fb.upper, "starred value is the formula upper bound")
        elif row["c0"] == row["c1"]:
            sc.check(spec["value"] == d0, "equal-codes identity")
    else:
        sc.check(_spec_bounds(spec) == fb, f"printed interval vs formula {fb}")
    sc.notes.append("consistency checks only; block length 205 is beyond enumeration")
    return _expected(row)


def _table_7_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    t, d = row["t"], row["d_hamming"]
    sc.check(row["dim"] == 2 * t, "dimension column is 2t")
    sc.check(d <= f4_selfdual_distance_cap(2 * t), "distance cap")
    if "code" in row:
        c, h = ctx.hamming(sc, row["code"], d, "the input code")
        sc.check(c.is_self_dual(), "input code self-dual")
        M = basis_expand_code(c, ctx.sd_basis)
        sc.check(M.dim == row["dim"], f"expansion dimension {M.dim}")
        _check_selfdual_transfer(sc, M)
        fb = uniform22_distance_bounds(h.lo, t)
        _expansion_distance(ctx, sc, c, M, fb, row["dsr"], h)
    else:
        fb = uniform22_distance_bounds(d, t)
        sc.computed.append(f"formula bounds {fb.lower}..{fb.upper}")
        _check_formula_only(sc, fb, row["dsr"])
    return _expected(row)


def _table_8_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    c, h = ctx.hamming(sc, row, ctx.printed_d(row), "the code")
    M = basis_expand_code(c, ctx.sd_basis)
    _check_dim(sc, row, M.dim, f"expansion dimension {M.dim}")
    sc.check(M.is_lcd() == c.is_lcd(), "LCD transfer")
    fb = expansion_distance_bounds(h.lo, M.profile)
    dsr = _expansion_distance(ctx, sc, c, M, fb, row["dsr"], h)
    sym = symbol_sum_rank_weight(c.generator.rows[0], ctx.f4, M.profile)
    sc.check(sym >= dsr.lo, "symbol-route weight of a codeword below the minimum")
    return _expected(row)


def _table_9_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    _, c = ctx.code_from_spec(row)
    profile = BlockProfile(ctx.f2, default_expansion_profile(2, c.n))
    sc.check(2 * c.k == row["dim"], f"printed dimension vs 2k = {2 * c.k}")
    fb = expansion_distance_bounds(ctx.printed_d(row), profile)
    printed = _spec_bounds(row["dsr"])
    sc.computed.append(f"dim={2 * c.k}, formula bounds {fb.lower}..{fb.upper}")
    known = row.get("known_discrepancy")
    sc.check(printed == fb,
             f"known discrepancy: {known}" if known else f"printed interval vs formula {fb}")
    if c.k <= 5:
        # small enough (2^(2k) words) to search the expansion whole, under the
        # method's own budget: the run's word budget must not leave it open
        best = basis_expand_code(c, ctx.sd_basis).min_distance()
        sc.computed.append(f"d_sr={best}")
        sc.check(fb.contains(best), f"exact d_sr {best} outside formula bounds")
        if not printed.contains(best):
            sc.notes.append(f"exact d_sr {best} falls outside the printed interval")
        sc.inside = True
    return _expected(row)


def _table_12_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    t, n = row["t"], row["n"]
    # the distance checks use the first listed generator
    c, h = _selfdual_generators(ctx, sc, row, n)[0]
    M = basis_expand_code(c, ctx.sd_basis)
    sc.check(M.dim == 2 * t, "expansion dimension 2t")
    _check_selfdual_transfer(sc, M)
    sc.check(M.is_cyclic(), "cyclic transfer")
    fb = uniform22_distance_bounds(h.lo, t)
    _expansion_distance(ctx, sc, c, M, fb, row["dsr"], h)
    return _expected(row)


# each runner records the checks of one manifest row and returns the row's
# expected text
_RUNNERS = {
    1: _table_1_row,
    2: _table_2_row,
    3: _table_3_row,
    4: _table_4_row,
    5: _table_5_row,
    7: _table_7_row,
    8: _table_8_row,
    9: _table_9_row,
    11: _table_11_row,
    12: _table_12_row,
}


def _run_rows(ctx: _Ctx, tid: int, manifest: dict) -> List[RowResult]:
    out = []
    for row in manifest["rows"]:
        sc = _RowScratch()
        expected = _RUNNERS[tid](ctx, sc, row)
        out.append(RowResult(tid, row["id"], sc.status(), expected,
                             ", ".join(sc.computed), "; ".join(sc.notes + sc.failures)))
    return out


def run_tables(
    table_ids,
    word_budget: int = DEFAULT_TABLE_WORD_BUDGET,
    jobs: int = 1,
) -> List[RowResult]:
    """Run the tables in order, in one thread.  `jobs` is kept for callers
    that pass jobs=1; any other value is a UsageError."""
    if jobs != 1:
        raise UsageError(f"jobs={jobs}: the tables run in one thread")
    check_budget(word_budget)  # before any row, budgeted or not, runs
    ids = list(table_ids)
    for tid in ids:
        if tid not in _RUNNERS:
            raise UnknownTable(f"table {tid} is not part of the manifest set {TABLE_IDS}")
    ctx = _Ctx(word_budget)
    manifests = {tid: load_manifest(tid) for tid in ids}
    return [r for tid in ids for r in _run_rows(ctx, tid, manifests[tid])]


def report_exit_code(results: List[RowResult]) -> int:
    if any(r.status == "mismatch" for r in results):
        return 3
    if any(r.status == "budget-limited" for r in results):
        return 2
    return 0


def report_to_json(results: List[RowResult]) -> str:
    payload = {
        "rows": [r.__dict__ for r in results],
        "summary": {
            s: sum(1 for r in results if r.status == s)
            for s in ("match", "inside-bounds", "budget-limited", "mismatch")
        },
        "exit_code": report_exit_code(results),
    }
    return json.dumps(payload, indent=1, sort_keys=True)


def report_to_csv(results: List[RowResult]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")
    writer.writerow(["table", "row", "status", "expected", "computed", "note"])
    for r in results:
        writer.writerow([r.table, r.row, r.status, r.expected, r.computed, r.note])
    return buf.getvalue()
