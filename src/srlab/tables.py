"""Reproduce the published parameter tables from the bundled manifests.

Each manifest row names its inputs (BCH parameters or generator-polynomial
strings) and the printed expectations.  The runner rebuilds every object from
those inputs, computes dimensions, distances and bounds, and compares
according to the row's expectation kind.  Manifest values are mostly
comparison targets, but printed values do feed some computations: a row's
printed Hamming distance sets the depth of the low-weight scan that stands in
for an over-budget exact search, the formula-only rows of tables 1 and 7
evaluate the bounds at the printed d_H, and `_PRINTED_D` (printed distances of
the BCH inputs) feeds the table 5/9 bound formulas and sets the scan depth for
tables 3/8.  ROADMAP item 3 replaces these inputs with certified intervals.

Row statuses:
  match          every check of the row's expectation kind passed
  inside-bounds  an exactly computed value landed inside a printed interval
  budget-limited enumeration hit its budget; all partial evidence consistent
  mismatch       a computed value contradicts the printed one (known
                 discrepancies are reported this way, with the note saying so)

Exit-code contract: 0 all match, 2 budget-limited rows only, 3 any mismatch.
"""

from __future__ import annotations

import csv
import io
import json
import time
from dataclasses import dataclass, field as dc_field
from importlib import resources
from typing import Dict, List, Optional, Tuple

from .code import LinearCode, all_rref_generators, f4_selfdual_distance_cap
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
    uniform22_distance_bounds,
)
from .cyclic import bch_generator, cyclic_code, frobenius_coeffs, parse_poly
from .errors import BudgetExceeded, UnknownTable
from .field import Basis, extension, prime_field
from .sumrank import BlockProfile

__all__ = [
    "TABLE_IDS",
    "RowResult",
    "load_manifest",
    "run_tables",
    "report_exit_code",
    "report_to_json",
    "report_to_csv",
    "DEFAULT_TABLE_WORD_BUDGET",
    "DEFAULT_TABLE_PAIR_BUDGET",
]

TABLE_IDS = (1, 2, 3, 4, 5, 7, 8, 9, 11, 12)

DEFAULT_TABLE_WORD_BUDGET = 2**24
DEFAULT_TABLE_PAIR_BUDGET = 2**27


@dataclass
class RowResult:
    table: int
    row: str
    status: str
    expected: str
    computed: str
    note: str = ""
    elapsed: float = 0.0


def load_manifest(table_id: int) -> dict:
    name = f"table{table_id:02d}.json"
    pkg = resources.files("srlab.manifests")
    try:
        return json.loads(pkg.joinpath(name).read_text())
    except FileNotFoundError:
        raise UnknownTable(f"no manifest for table {table_id}") from None


@dataclass(frozen=True)
class _Hamming:
    """Evidence for a code's Hamming distance against one printed value.

    `value` is the exact distance or, over budget, the floor of a low-weight
    scan through the printed weight, with `witness` its lightest word.  The
    scan covers every message of weight <= printed, which is complete for
    codewords that light, so floor == printed means a word of the printed
    weight exists and nothing lighter does.
    """

    value: int
    exact: bool
    ok: bool
    note: str
    witness: Optional[tuple] = None


class _Ctx:
    """Shared state for one run: budgets and cross-table caches."""

    def __init__(self, word_budget: int, pair_budget: int, jobs: int):
        self.word_budget = word_budget
        self.pair_budget = pair_budget
        self.jobs = jobs
        self.f2 = prime_field(2)
        self.f4 = extension(self.f2, 2)
        self.sd_basis = Basis(self.f4, [2, 3])  # {w, w^2}, self-dual
        self.codes: Dict[tuple, LinearCode] = {}
        self.dham: Dict[tuple, _Hamming] = {}

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
        elif "search_best_selfdual" in spec:
            n = spec["search_best_selfdual"]["n"]
            key = ("best_sd", n)
            build = lambda: _best_selfdual_code(self.f4, n)
        else:
            raise UnknownTable(f"unrecognized code spec {spec}")
        if key not in self.codes:
            self.codes[key] = build()
        return key, self.codes[key]

    def hamming(self, spec: dict, printed: int) -> Tuple[LinearCode, _Hamming]:
        """The code of `spec` and the evidence for its Hamming distance."""
        key, code = self.code_from_spec(spec)
        if (key, printed) not in self.dham:
            try:
                d = code.min_distance(budget=self.word_budget, jobs=self.jobs)
                res = _Hamming(d, True, d == printed, f"d_H={d} exact")
            except BudgetExceeded as exc:
                floor, witness = code.low_weight_scan(printed)
                ok = floor == printed and (exc.best is None or exc.best >= printed)
                note = (f"budget {self.word_budget}: sweep floor {exc.best}, low-weight "
                        f"scan floor {floor} (complete through weight {printed})")
                res = _Hamming(floor, False, ok, note, witness)
            self.dham[key, printed] = res
        return code, self.dham[key, printed]


def _best_selfdual_code(field, n: int) -> LinearCode:
    """Exhaustive search for a largest-distance self-dual code of tiny length."""
    codes = (LinearCode.from_rows(field, n, rows) for rows in all_rref_generators(field, n, n // 2))
    selfdual = [c for c in codes if c.generator.gram().is_zero()]
    if not selfdual:
        raise UnknownTable(f"no self-dual code of length {n} exists")
    return max(selfdual, key=lambda c: c.min_distance())


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
    budget_limited: bool = False
    inside: bool = False

    def check(self, ok: bool, what: str):
        if not ok:
            self.failures.append(what)

    def check_hamming(self, h: _Hamming, what: str):
        """d_H must equal the printed value; if not exact, the row is budget-limited."""
        self.check(h.ok, f"d_H of {what}: {h.note}")
        self.budget_limited |= not h.exact

    def status(self) -> str:
        if self.failures:
            return "mismatch"
        if self.budget_limited:
            return "budget-limited"
        if self.inside:
            return "inside-bounds"
        return "match"


# ------------------------------------------------------------ shared checks


def _check_dsr(sc: _RowScratch, d: int, fb: Bounds, spec: dict):
    """An exact d_sr: inside the formula bounds, and equal to the printed value
    (meeting the upper bound if starred) or inside the printed interval."""
    sc.check(fb.contains(d), f"d_sr {d} outside formula bounds {fb}")
    if spec["kind"] == "exact":
        sc.check(d == spec["value"], f"d_sr {d} != printed {spec['value']}")
        if spec.get("star"):
            sc.check(d == fb.upper, "starred row should meet the upper bound")
    else:
        sc.check(_spec_bounds(spec).contains(d), f"d_sr {d} outside printed interval")
        sc.inside = True


def _check_dim(sc: _RowScratch, row: dict, dim: int, what: str):
    """`dim` against the identity value; a differing printed one is a known discrepancy."""
    sc.check(dim == row["dim"], what)
    if row.get("dim_printed", row["dim"]) != row["dim"]:
        sc.check(dim == row["dim_printed"], row["known_discrepancy"])
        sc.notes.append("known discrepancy: " + row["known_discrepancy"])


def _check_upper(sc: _RowScratch, ub, printed: Bounds):
    """A weight found before the budget ran out bounds d_sr from above."""
    if ub is not None:
        sc.computed.append(f"d_sr<={ub}")
        sc.check(ub >= printed.lower, f"found weight {ub} below printed lower bound")


def _check_inside_formula(sc: _RowScratch, printed: Bounds, fb: Bounds):
    sc.check(fb.lower <= printed.lower and printed.upper <= fb.upper,
             f"printed interval {printed} vs formula {fb}")


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
        c, h = ctx.hamming({"gen": gtext, "n": n}, d)
        sc.check(c.is_self_dual(), f"self-dual: {gtext}")
        sc.check(c.k == n // 2, f"dimension of <{gtext}>")
        sc.check_hamming(h, gtext)
        out.append((c, h))
    return out


def _expansion_distance(ctx: _Ctx, sc: _RowScratch, M, fb: Bounds, spec: dict,
                        h: _Hamming):
    """d_sr of a basis expansion; over budget None, with the lighter of the
    sweep's best weight and the Hamming witness's sum-rank weight as upper bound."""
    try:
        d = M.min_distance(budget=ctx.word_budget, jobs=ctx.jobs)
    except BudgetExceeded as exc:
        sc.budget_limited = True
        ub = exc.best
        if h.witness is not None:
            ub_w = symbol_sum_rank_weight(h.witness, ctx.f4, M.profile)
            ub = ub_w if ub is None else min(ub, ub_w)
        _check_upper(sc, ub, _spec_bounds(spec))
        sc.notes.append(f"expansion enumeration budget-limited ({exc})")
        return None
    sc.computed.append(f"dim={M.dim}, d_sr={d}")
    _check_dsr(sc, d, fb, spec)
    return d


def _pair_row(ctx: _Ctx, sc: _RowScratch, c0, c1, d0: int, d1: int, dsr_spec, t: int):
    """Construction and distance checks of the stacked pair, which it returns;
    d0/d1 are the (possibly floor-only) Hamming distances of c0/c1."""
    S = qpoly_code([c0, c1])
    sc.computed.append(f"dim={S.dim}")
    sc.check(S.dim == 2 * (c0.k + c1.k), "stacked dimension identity")
    both_sd = c0.is_self_dual() and c1.is_self_dual()
    if both_sd:
        _check_selfdual_transfer(sc, S)
        sc.check(S.is_cyclic(), "cyclic transfer")

    printed = _spec_bounds(dsr_spec)
    fb = sr_distance_bounds(2, [d0, d1])
    try:
        d = pair_distance(c0, c1, budget=ctx.pair_budget)
        sc.computed.append(f"d_sr={d}")
        _check_dsr(sc, d, fb, dsr_spec)
    except BudgetExceeded as exc:
        sc.budget_limited = True
        if c0 is c1 and dsr_spec["kind"] == "exact":
            # equal inputs: the stacked distance equals the Hamming distance
            sc.check(d0 == dsr_spec["value"], "equal-codes identity vs printed value")
            sc.notes.append(f"equal-codes identity: d_sr = d_H = {d0}")
        else:
            _check_inside_formula(sc, printed, fb)
        _check_upper(sc, exc.best, printed)
        sc.notes.append(f"pair enumeration budget-limited ({exc})")
    sc.check(printed.upper <= selfdual_sr_distance_cap(t) or not both_sd, "self-dual cap")
    return S


def _table_1_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    t, d = row["t"], row["d_hamming"]
    sc.check(row["dim"] == 2 * t, "dimension column is 2t")
    sc.check(d <= f4_selfdual_distance_cap(t), "distance cap for self-dual inputs")
    fb = sr_distance_bounds(2, [d, d])
    sc.computed.append(f"formula bounds {fb.lower}..{fb.upper}")
    if "code" in row:
        c, h = ctx.hamming(row["code"], d)
        sc.check(c.is_self_dual(), "input code self-dual")
        sc.check_hamming(h, "the input code")
        _pair_row(ctx, sc, c, c, h.value, h.value, row["dsr"], t)
    else:
        _check_formula_only(sc, fb, row["dsr"])
        sc.check(_spec_bounds(row["dsr"]).upper <= selfdual_sr_distance_cap(t),
                 "self-dual cap")
    return _expected(row)


def _table_2_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    c, h = ctx.hamming(row, row["d"])
    sc.check(c.k == row["dim"], f"dimension {c.k} != {row['dim']}")
    sc.check_hamming(h, "the code")
    sc.check(c.is_lcd(), "LCD predicate")
    g = bch_generator(ctx.f4, row["bch"][1], row["bch"][2], row["bch"][3])
    printed_g = parse_poly(ctx.f4, row["generator"])
    conj = frobenius_coeffs(printed_g)
    sc.check(g == printed_g or g == conj,
             "generator polynomial (up to coefficient conjugation)")
    sc.computed.append(f"dim={c.k}, d={h.value}, G(x)={g}")
    if g == conj and g != printed_g:
        sc.notes.append("generator matches the conjugate convention")
    return f"dim={row['dim']}, d={row['d']}, G(x)={row['generator']}"


def _table_3_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    c0, h0 = ctx.hamming(row["c0"], _printed_d(row["c0"]))
    c1, h1 = ctx.hamming(row["c1"], _printed_d(row["c1"]))
    _check_dim(sc, row, 2 * (c0.k + c1.k), "dimension vs 2(k0+k1)")
    sc.check(c0.is_lcd() and c1.is_lcd(), "inputs LCD")
    sc.check_hamming(h0, "c0")
    sc.check_hamming(h1, "c1")
    S = _pair_row(ctx, sc, c0, c1, h0.value, h1.value, row["dsr"], c0.n)
    sc.check(S.is_lcd(), "LCD transfer")
    return _expected(row)


def _table_11_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    t = row["t"]
    gens = _selfdual_generators(ctx, sc, row, t)
    # the first two listed generators, or the first with itself
    (c0, h0), (c1, h1) = (gens * 2)[:2]
    _pair_row(ctx, sc, c0, c1, h0.value, h1.value, row["dsr"], t)
    return _expected(row)


# printed Hamming distances of the BCH inputs; see the module docstring
_PRINTED_D = {
    (4, 13, 2, 1): 5, (4, 13, 3, 0): 6, (4, 13, 13, 1): 13,
    (4, 205, 33, 1): 41, (4, 205, 49, 1): 123, (4, 205, 34, 0): 82, (4, 205, 50, 0): 164,
}


def _printed_d(spec: dict) -> int:
    return _PRINTED_D[tuple(spec["bch"])]


def _table_4_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    _, c = ctx.code_from_spec(row)
    delta = row["bch"][2]
    sc.check(c.k == row["dim"], f"dimension {c.k} != {row['dim']}")
    sc.check(c.is_lcd(), "LCD predicate")
    if row["d_check"] == "exact":
        _, h = ctx.hamming(row, row["d"])
        sc.computed.append(f"dim={c.k}, d={h.value}")
        sc.check_hamming(h, "the code")
    else:
        sc.computed.append(f"dim={c.k}, d>={delta} (designed distance)")
        sc.check(row["d"] >= delta, "printed distance below the designed floor")
        sc.budget_limited = True
        sc.notes.append(f"exact search out of reach; certified d >= {delta}")
    return f"dim={row['dim']}, d={row['d']}"


def _table_5_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    _, c0 = ctx.code_from_spec(row["c0"])
    _, c1 = ctx.code_from_spec(row["c1"])
    _check_dim(sc, row, 2 * (c0.k + c1.k), "dimension vs 2(k0+k1)")
    sc.check(c0.is_lcd() and c1.is_lcd(), "inputs LCD")
    d0, d1 = _printed_d(row["c0"]), _printed_d(row["c1"])
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
    fb = uniform22_distance_bounds(d, t)
    if "code" in row:
        c, h = ctx.hamming(row["code"], d)
        sc.check(c.is_self_dual(), "input code self-dual")
        sc.check_hamming(h, "the input code")
        M = basis_expand_code(c, ctx.sd_basis)
        sc.check(M.dim == row["dim"], f"expansion dimension {M.dim}")
        _check_selfdual_transfer(sc, M)
        _expansion_distance(ctx, sc, M, fb, row["dsr"], h)
    else:
        sc.computed.append(f"formula bounds {fb.lower}..{fb.upper}")
        _check_formula_only(sc, fb, row["dsr"])
    return _expected(row)


def _table_8_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    c, h = ctx.hamming(row, _printed_d(row))
    M = basis_expand_code(c, ctx.sd_basis)
    _check_dim(sc, row, M.dim, f"expansion dimension {M.dim}")
    sc.check(M.is_lcd() == c.is_lcd(), "LCD transfer")
    sc.check_hamming(h, "the code")
    fb = expansion_distance_bounds(h.value, M.profile)
    dsr = _expansion_distance(ctx, sc, M, fb, row["dsr"], h)
    sym = symbol_sum_rank_weight(
        c.codeword(tuple([1] + [0] * (c.k - 1))), ctx.f4, M.profile
    )
    sc.check(dsr is None or sym >= dsr, "symbol-route weight of a codeword below the minimum")
    return _expected(row)


def _table_9_row(ctx: _Ctx, sc: _RowScratch, row: dict) -> str:
    _, c = ctx.code_from_spec(row)
    profile = BlockProfile(ctx.f2, default_expansion_profile(2, c.n))
    sc.check(2 * c.k == row["dim"], f"printed dimension vs 2k = {2 * c.k}")
    fb = expansion_distance_bounds(_printed_d(row), profile)
    printed = _spec_bounds(row["dsr"])
    sc.computed.append(f"dim={2 * c.k}, formula bounds {fb.lower}..{fb.upper}")
    sc.check(printed == fb, row.get("known_discrepancy", f"printed interval vs formula {fb}"))
    if "known_discrepancy" in row:
        sc.notes.append("known discrepancy: " + row["known_discrepancy"])
    if c.k <= 5:
        # small enough to read the distance off the extension-field words
        best = min(symbol_sum_rank_weight(w, ctx.f4, profile) for w in c.codewords() if any(w))
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
    fb = uniform22_distance_bounds(h.value, t)
    _check_inside_formula(sc, _spec_bounds(row["dsr"]), fb)
    _expansion_distance(ctx, sc, M, fb, row["dsr"], h)
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
        t0 = time.time()
        sc = _RowScratch()
        expected = _RUNNERS[tid](ctx, sc, row)
        out.append(RowResult(tid, row["id"], sc.status(), expected,
                             ", ".join(sc.computed), "; ".join(sc.notes + sc.failures),
                             time.time() - t0))
    return out


def run_tables(
    table_ids,
    word_budget: int = DEFAULT_TABLE_WORD_BUDGET,
    pair_budget: int = DEFAULT_TABLE_PAIR_BUDGET,
    jobs: int = 1,
) -> List[RowResult]:
    """Run the tables in order; `jobs` threads the enumeration shards."""
    ids = list(table_ids)
    for tid in ids:
        if tid not in _RUNNERS:
            raise UnknownTable(f"table {tid} is not part of the manifest set {TABLE_IDS}")
    ctx = _Ctx(word_budget, pair_budget, jobs)
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
    writer.writerow(["table", "row", "status", "expected", "computed", "note", "elapsed_s"])
    for r in results:
        writer.writerow([r.table, r.row, r.status, r.expected, r.computed, r.note,
                         f"{r.elapsed:.3f}"])
    return buf.getvalue()
