"""Command-line front end.

    srlab field info --characteristic 2 --degrees 2,10
    srlab cyclic --q 4 --n 13 --bch 2 1
    srlab cyclic --q 4 --n 2 --gen "1+x"
    srlab code <info|dual|selfdual|lcd|mindist> [CODE.json] [--budget N]
    srlab sr construct-sr C0.json C1.json [--basis 1,w]
    srlab sr construct-matb C.json [--profile 2x3,2x2*5] [--basis w,w^2]
    srlab sr <info|dual|selfdual|lcd> [SR.json]
    srlab sr mindist SR.json [--method exhaustive] | C0.json C1.json --method pairs
    srlab sr bounds --theorem23 m d0 d1 ... | --prop38 d PROFILE | --cor32 d t
    srlab sr verify-duality --kind sr|matb --trials N --seed N
    srlab tables 2 3 9 [--budget N] [--pair-budget N] [--jobs N] [--format json|csv]

Code arguments read JSON from a file path or, when omitted or "-", stdin.
Exit codes: 0 success / all rows match, 1 usage or input error, 2 a budget
was exceeded (result carries the best bound, flagged non-exact), 3 a table
row mismatched.  `python -m srlab` runs the same front end.
"""

from __future__ import annotations

import argparse
import random
import re
import sys

from . import jsonio
from .code import LinearCode
from .construct import (
    basis_expand_code,
    duality_transport_expansion,
    duality_transport_qpoly,
    expansion_distance_bounds,
    pair_distance,
    power_basis,
    qpoly_code,
    sr_distance_bounds,
    uniform22_distance_bounds,
)
from .cyclic import bch_cosets, bch_generator, cyclic_code, parse_poly
from .errors import BudgetExceeded, SrlabError, UsageError
from .field import Basis, extension, prime_field
from .linalg import check_length
from .sumrank import BlockProfile
from .tables import (
    DEFAULT_TABLE_PAIR_BUDGET,
    DEFAULT_TABLE_WORD_BUDGET,
    report_exit_code,
    report_to_csv,
    report_to_json,
    run_tables,
)

# how many JSON inputs an sr action reads, as (fewest, most or None); the
# actions not listed read one, or stdin when none is given
_SR_INPUTS = {
    "construct-sr": (1, None),
    "construct-matb": (1, 1),
    "bounds": (0, 0),
    "verify-duality": (0, 0),
}
_PROFILE_PART = re.compile(r"\s*(\d+)\s*x\s*(\d+)\s*(?:\*\s*(\d+)\s*)?", re.IGNORECASE)
# longer integer arguments lie beyond every bound, and int() refuses them past
# 4300 digits
_MAX_DIGITS = 18


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as UsageError, exit 1; exit 2 means a budget ran out."""

    def error(self, message):
        raise UsageError(f"{message} (see {self.prog} --help)")


def _emit(obj) -> None:
    if isinstance(obj, str):
        sys.stdout.write(obj)
        if not obj.endswith("\n"):
            sys.stdout.write("\n")
    else:
        sys.stdout.write(jsonio.dumps(obj) + "\n")


def _read_json_arg(path):
    if path in (None, "-"):
        return jsonio.loads(sys.stdin.read())
    with open(path, "r") as fh:
        return jsonio.loads(fh.read())


def _field_with_degrees(characteristic: int, degrees) -> "object":
    f = prime_field(characteristic)
    for m in degrees:
        f = extension(f, m)
    return f


def _int_list(text: str):
    """"2,10" -> [2, 10]; argparse reports the type error as a usage error."""
    try:
        return [int(d) for d in text.split(",")] if text else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a comma-separated list of integers")


def _decimal(text: str, what: str) -> int:
    if not text.isdecimal() or len(text) > _MAX_DIGITS:
        raise UsageError(f"{what} {text[:24]!r} is not a nonnegative integer "
                         f"of at most {_MAX_DIGITS} digits")
    return int(text)


def _parse_profile(field, text: str) -> BlockProfile:
    """Profiles like "2x3,2x2*5": comma-separated m x n, optional *count >= 1;
    the column total is bounded before the block list is built."""
    blocks = []
    columns = 0
    for part in text.split(","):
        match = _PROFILE_PART.fullmatch(part)
        m, n, count = ((_decimal(g, "profile number") for g in (match[1], match[2], match[3] or "1"))
                       if match else (0, 0, 0))
        if count < 1:
            raise UsageError(f"profile part {part[:24]!r} is not MxN or MxN*COUNT with COUNT >= 1")
        columns += n * count
        check_length(columns, "profile column total")
        blocks.extend([(m, n)] * count)
    return BlockProfile(field, blocks)


def _parse_basis(field, text: str) -> Basis:
    els = [parse_poly(field, t).evaluate(0) if "x" not in t else None for t in text.split(",")]
    if any(e is None for e in els):
        raise SrlabError("basis elements must be constants like 1,w,w^2")
    return Basis(field, els)


def _emit_distance(search) -> int:
    """Emit {"d", "exact"}; a search over budget emits its best bound, exit 2."""
    try:
        _emit({"d": search(), "exact": True})
        return 0
    except BudgetExceeded as exc:
        _emit({"d": exc.best, "exact": False, "enumerated": exc.enumerated})
        return 2


# -- subcommands -----------------------------------------------------------------


def _cmd_field(args) -> int:
    f = _field_with_degrees(args.characteristic, args.degrees)
    obj = jsonio.field_to_obj(f)
    obj["order"] = f.order
    obj["primitive_element"] = f.primitive_element
    _emit(obj)
    return 0


def _cmd_cyclic(args) -> int:
    base = prime_field(2)
    if args.q == 4:
        field = extension(base, 2)
    elif args.q == 2:
        field = base
    else:
        raise SrlabError(f"cyclic front end supports q in (2, 4), got {args.q}")
    meta = {}
    if args.bch:
        delta, b = args.bch
        g = bch_generator(field, args.n, delta, b)
        meta["cosets_used"] = sorted(bch_cosets(field.order, args.n, delta, b))
    else:
        g = parse_poly(field, args.gen)
    code = cyclic_code(g, args.n)
    obj = jsonio.code_to_obj(code)
    obj["meta"] = {
        "generator_poly": jsonio.poly_to_obj(g),
        "generator_poly_str": str(g),
        **{k: [list(c) for c in v] for k, v in meta.items()},
    }
    _emit(obj)
    return 0


def _cmd_code(args) -> int:
    code = jsonio.code_from_obj(_read_json_arg(args.code))
    if args.action == "info":
        _emit({"n": code.n, "k": code.k, "selfdual": code.is_self_dual(),
               "lcd": code.is_lcd(), "hull_dim": code.hull_dimension()})
    elif args.action == "dual":
        _emit(jsonio.code_to_obj(code.dual()))
    elif args.action == "selfdual":
        _emit({"selfdual": code.is_self_dual()})
    elif args.action == "lcd":
        _emit({"lcd": code.is_lcd()})
    elif args.action == "mindist":
        return _emit_distance(lambda: code.min_distance(budget=args.budget, jobs=args.jobs))
    return 0


def _check_input_count(args) -> None:
    if args.action == "mindist" and args.method == "pairs":
        lo, hi = 2, 2
    else:
        lo, hi = _SR_INPUTS.get(args.action, (0, 1))
    n = len(args.inputs)
    if n < lo or (hi is not None and n > hi):
        want = f"{lo}" if lo == hi else f"{lo} or more" if hi is None else f"{lo} to {hi}"
        raise UsageError(f"sr {args.action} reads {want} JSON input(s), got {n}")


def _cmd_sr(args) -> int:
    _check_input_count(args)
    if args.action == "construct-sr":
        codes = [jsonio.code_from_obj(_read_json_arg(p)) for p in args.inputs]
        basis = _parse_basis(codes[0].field, args.basis) if args.basis else None
        _emit(jsonio.sr_code_to_obj(qpoly_code(codes, basis)))
        return 0
    if args.action == "construct-matb":
        code = jsonio.code_from_obj(_read_json_arg(args.inputs[0]))
        basis = _parse_basis(code.field, args.basis) if args.basis else power_basis(code.field)
        profile = _parse_profile(basis.sub, args.profile) if args.profile else None
        _emit(jsonio.sr_code_to_obj(basis_expand_code(code, basis, profile)))
        return 0
    if args.action == "bounds":
        if args.theorem23:
            b = sr_distance_bounds(args.theorem23[0], args.theorem23[1:])
        elif args.prop38:
            d, prof = args.prop38
            b = expansion_distance_bounds(_decimal(d, "--prop38 distance"),
                                          _parse_profile(prime_field(2), prof))
        elif args.cor32:
            b = uniform22_distance_bounds(*args.cor32)
        else:
            raise UsageError("bounds needs one of --theorem23 / --prop38 / --cor32")
        _emit({"lower": b.lower, "upper": b.upper, "exact": b.exact})
        return 0
    if args.action == "verify-duality":
        return _verify_duality(args)
    if args.action == "mindist":
        if args.method == "pairs":
            c0 = jsonio.code_from_obj(_read_json_arg(args.inputs[0]))
            c1 = jsonio.code_from_obj(_read_json_arg(args.inputs[1]))
            return _emit_distance(lambda: pair_distance(c0, c1, budget=args.pair_budget))
        sr = jsonio.sr_code_from_obj(_read_json_arg(args.inputs[0] if args.inputs else None))
        return _emit_distance(lambda: sr.min_distance(budget=args.budget, jobs=args.jobs))
    sr = jsonio.sr_code_from_obj(_read_json_arg(args.inputs[0] if args.inputs else None))
    if args.action == "info":
        _emit({"blocks": [list(b) for b in sr.profile.blocks], "dim": sr.dim,
               "selfdual": sr.is_self_dual(), "lcd": sr.is_lcd()})
    elif args.action == "dual":
        _emit(jsonio.sr_code_to_obj(sr.dual()))
    elif args.action == "selfdual":
        _emit({"selfdual": sr.is_self_dual()})
    elif args.action == "lcd":
        _emit({"lcd": sr.is_lcd()})
    return 0


def _verify_duality(args) -> int:
    rnd = random.Random(args.seed)
    f2 = prime_field(2)
    f4 = extension(f2, 2)
    failures = 0
    for _ in range(args.trials):
        if args.kind == "sr":
            t = rnd.randint(1, 5)
            c0 = LinearCode.from_rows(
                f4, t, [[rnd.randrange(4) for _ in range(t)] for _ in range(rnd.randint(0, t))]
            )
            c1 = LinearCode.from_rows(
                f4, t, [[rnd.randrange(4) for _ in range(t)] for _ in range(rnd.randint(0, t))]
            )
            ok = duality_transport_qpoly(c0, c1)
        else:
            ext = f4 if rnd.random() < 0.5 else extension(f2, 3)
            m = ext.degree_over_base
            n = rnd.randint(m, 8)
            c = LinearCode.from_rows(
                ext, n,
                [[rnd.randrange(ext.order) for _ in range(n)] for _ in range(rnd.randint(0, n))],
            )
            basis = _random_basis(rnd, ext)
            ok = duality_transport_expansion(c, basis)
        if not ok:
            failures += 1
    _emit({"kind": args.kind, "trials": args.trials, "failures": failures, "seed": args.seed})
    return 0 if failures == 0 else 3


def _random_basis(rnd, ext) -> Basis:
    m = ext.degree_over_base
    while True:
        els = [rnd.randrange(1, ext.order) for _ in range(m)]
        try:
            return Basis(ext, els)
        except SrlabError:
            continue


def _cmd_tables(args) -> int:
    results = run_tables(
        args.ids,
        word_budget=args.budget,
        pair_budget=args.pair_budget,
        jobs=args.jobs,
    )
    text = report_to_csv(results) if args.format == "csv" else report_to_json(results)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        _emit(text)
    return report_exit_code(results)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="srlab", description=__doc__,
                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field", help="build and inspect field towers")
    psub = p.add_subparsers(dest="faction", required=True)
    pi = psub.add_parser("info")
    pi.add_argument("--characteristic", type=int, default=2)
    pi.add_argument("--degrees", type=_int_list, default="",
                    help="comma-separated tower degrees, e.g. 2,10")
    pi.set_defaults(fn=_cmd_field)

    p = sub.add_parser("cyclic", help="build cyclic/BCH codes")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--bch", nargs=2, type=int, metavar=("DELTA", "B"))
    g.add_argument("--gen", help='generator polynomial, e.g. "w^2+w^2x+x^2+x^3"')
    p.set_defaults(fn=_cmd_cyclic)

    p = sub.add_parser("code", help="operate on linear-code JSON")
    p.add_argument("action", choices=["info", "dual", "selfdual", "lcd", "mindist"])
    p.add_argument("code", nargs="?", help="code JSON path (default stdin)")
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_WORD_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(fn=_cmd_code)

    p = sub.add_parser("sr", help="operate on sum-rank codes")
    p.add_argument("action", choices=[
        "info", "dual", "selfdual", "lcd", "mindist",
        "construct-sr", "construct-matb", "bounds", "verify-duality",
    ])
    p.add_argument("inputs", nargs="*", help="JSON input path(s)")
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_WORD_BUDGET)
    p.add_argument("--pair-budget", type=int, default=DEFAULT_TABLE_PAIR_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--method", choices=["exhaustive", "pairs"], default="exhaustive")
    p.add_argument("--basis", help="comma-separated constants, e.g. w,w^2")
    p.add_argument("--profile", help='block shapes, e.g. "2x3,2x2*5"')
    p.add_argument("--theorem23", nargs="+", type=int, metavar="V",
                   help="m d0 d1 ... -> stacking bounds")
    p.add_argument("--prop38", nargs=2, metavar=("D", "PROFILE"),
                   help="expansion bounds from Hamming distance and profile")
    p.add_argument("--cor32", nargs=2, type=int, metavar=("D", "T"),
                   help="uniform 2x2 expansion bounds")
    p.add_argument("--kind", choices=["sr", "matb"], default="sr")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_sr)

    p = sub.add_parser("tables", help="reproduce the published parameter tables")
    p.add_argument("ids", nargs="+", type=int, help="table numbers, e.g. 2 3 9")
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_WORD_BUDGET)
    p.add_argument("--pair-budget", type=int, default=DEFAULT_TABLE_PAIR_BUDGET)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.set_defaults(fn=_cmd_tables)
    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except BudgetExceeded as exc:
        _emit({"error": "budget exceeded", "detail": str(exc), "best": exc.best})
        return 2
    except SrlabError as exc:
        sys.stderr.write(f"srlab: {exc}\n")
        return 1
    except (OSError, ValueError, KeyError) as exc:
        sys.stderr.write(f"srlab: bad input: {exc!r}\n")
        return 1
