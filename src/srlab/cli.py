"""Command-line front end.

    srlab field info --characteristic 2 --degrees 2,10
    srlab cyclic --q 4 --n 13 --bch 2 1
    srlab cyclic --q 4 --n 2 --gen "1+x"
    srlab code <info|dual|selfdual|lcd> [CODE.json]
    srlab code mindist [CODE.json] [--budget N]
    srlab sr construct-sr C0.json C1.json ... [--basis 1,w]
    srlab sr construct-matb C.json [--profile 2x3,2x2*5] [--basis w,w^2]
    srlab sr <info|dual|selfdual|lcd> [SR.json]
    srlab sr mindist [SR.json] [--budget N]
    srlab sr mindist C0.json C1.json [--budget N]
    srlab sr bounds --theorem23 m d0 d1 ... | --prop38 d PROFILE | --cor32 d t
    srlab sr verify-duality --kind sr|matb --trials N --seed N
    srlab tables 2 3 9 [--budget N] [--format json|csv]

Code arguments read JSON from a file path or, when omitted or "-", stdin;
`sr mindist` with two linear codes gives the distance of their stacked pair.
Each verb accepts only its own options, written after the verb.  Every
search runs in one thread and takes the one `--budget` (default 2**24):
messages covered, one word per line scored (an expansion of GF(4) symbols
counts its symbol messages), or support-class pairs crossed for a pair
distance.
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
    DEFAULT_TABLE_WORD_BUDGET,
    report_exit_code,
    report_to_csv,
    report_to_json,
    run_tables,
)

_PROFILE_PART = re.compile(r"\s*(\d+)\s*x\s*(\d+)\s*(?:\*\s*(\d+)\s*)?", re.IGNORECASE)
# longer integer arguments lie beyond every bound, and int() refuses them past
# 4300 digits
_MAX_DIGITS = 18


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as UsageError, exit 1; exit 2 means a budget ran out."""

    def error(self, message):
        raise UsageError(f"{message} (see {self.prog} --help)")

    def parse_known_args(self, args=None, namespace=None):
        # each parser reports its own leftovers, so a stray argument names the
        # help of the verb it was given to, not the top-level help
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _emit(obj, path=None) -> None:
    """Write obj (text as is, anything else as JSON) and one final newline to
    stdout, or to the file at `path`."""
    text = obj if isinstance(obj, str) else jsonio.dumps(obj)
    if not text.endswith("\n"):
        text += "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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


def _at_least(low: int):
    """An argparse type: an int of at least `low`, else a usage error."""
    def integer(text: str) -> int:
        if int(text) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {text}")
        return int(text)
    return integer


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
    if not text.strip():
        raise UsageError("--basis is empty; give constants like 1,w")
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
    if args.q not in (2, 4):
        raise SrlabError(f"cyclic front end supports q in (2, 4), got {args.q}")
    field = _field_with_degrees(2, [2] if args.q == 4 else [])
    if args.bch:
        g = bch_generator(field, args.n, *args.bch)
        cosets = sorted(bch_cosets(field.order, args.n, *args.bch))
    else:
        g = parse_poly(field, args.gen)
    obj = jsonio.code_to_obj(cyclic_code(g, args.n))
    obj["meta"] = {"generator_poly": jsonio.poly_to_obj(g), "generator_poly_str": str(g)}
    if args.bch:
        obj["meta"]["cosets_used"] = [list(c) for c in cosets]
    _emit(obj)
    return 0


def _code_info(code) -> dict:
    return {"n": code.n, "k": code.k, "selfdual": code.is_self_dual(),
            "lcd": code.is_lcd(), "hull_dim": code.hull_dimension()}


def _sr_info(sr) -> dict:
    return {"blocks": [list(b) for b in sr.profile.blocks], "dim": sr.dim,
            "selfdual": sr.is_self_dual(), "lcd": sr.is_lcd()}


def _cmd_verb(args) -> int:
    """info/dual/selfdual/lcd/mindist of a LinearCode or a SumRankCode."""
    code = args.read(_read_json_arg(args.input))
    if args.action == "info":
        _emit(args.info(code))
    elif args.action == "dual":
        _emit(args.write(code.dual()))
    elif args.action == "selfdual":
        _emit({"selfdual": code.is_self_dual()})
    elif args.action == "lcd":
        _emit({"lcd": code.is_lcd()})
    else:
        return _emit_distance(lambda: code.min_distance(budget=args.budget))
    return 0


def _cmd_sr_mindist(args) -> int:
    """One sum-rank code: its distance; two linear codes: their pair distance."""
    if args.other is None:
        return _cmd_verb(args)
    c0, c1 = (jsonio.code_from_obj(_read_json_arg(p)) for p in (args.input, args.other))
    return _emit_distance(lambda: pair_distance(c0, c1, budget=args.budget))


def _cmd_construct_sr(args) -> int:
    codes = [jsonio.code_from_obj(_read_json_arg(p)) for p in args.inputs]
    basis = _parse_basis(codes[0].field, args.basis) if args.basis is not None else None
    _emit(jsonio.sr_code_to_obj(qpoly_code(codes, basis)))
    return 0


def _cmd_construct_matb(args) -> int:
    code = jsonio.code_from_obj(_read_json_arg(args.input))
    basis = (_parse_basis(code.field, args.basis) if args.basis is not None
             else power_basis(code.field))
    profile = _parse_profile(basis.sub, args.profile) if args.profile is not None else None
    _emit(jsonio.sr_code_to_obj(basis_expand_code(code, basis, profile)))
    return 0


def _cmd_bounds(args) -> int:
    if args.theorem23:
        b = sr_distance_bounds(args.theorem23[0], args.theorem23[1:])
    elif args.prop38:
        d, prof = args.prop38
        b = expansion_distance_bounds(_decimal(d, "--prop38 distance"),
                                      _parse_profile(prime_field(2), prof))
    else:
        b = uniform22_distance_bounds(*args.cor32)
    _emit({"lower": b.lower, "upper": b.upper, "exact": b.exact})
    return 0


def _random_code(rnd, field, n: int) -> LinearCode:
    rows = [[rnd.randrange(field.order) for _ in range(n)] for _ in range(rnd.randint(0, n))]
    return LinearCode.from_rows(field, n, rows)


def _verify_duality(args) -> int:
    rnd = random.Random(args.seed)
    f2 = prime_field(2)
    f4 = extension(f2, 2)
    failures = 0
    for _ in range(args.trials):
        if args.kind == "sr":
            t = rnd.randint(1, 5)
            c0 = _random_code(rnd, f4, t)
            ok = duality_transport_qpoly(c0, _random_code(rnd, f4, t))
        else:
            ext = f4 if rnd.random() < 0.5 else extension(f2, 3)
            c = _random_code(rnd, ext, rnd.randint(ext.degree_over_base, 8))
            ok = duality_transport_expansion(c, _random_basis(rnd, ext))
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
    results = run_tables(args.ids, word_budget=args.budget)
    text = report_to_csv(results) if args.format == "csv" else report_to_json(results)
    _emit(text, args.out)
    return report_exit_code(results)


def _add_code_verbs(verbs, read, write, info):
    """info/dual/selfdual/lcd/mindist on one code read by `read`, written back
    by `write`; returns the mindist parser."""
    for action in ("info", "dual", "selfdual", "lcd", "mindist"):
        p = verbs.add_parser(action)
        p.add_argument("input", nargs="?", help="code JSON path (default stdin)")
        p.set_defaults(fn=_cmd_verb, read=read, write=write, info=info)
    # the loop ends on mindist, the one verb that searches
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_WORD_BUDGET)
    return p


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

    verbs = sub.add_parser("code", help="operate on linear-code JSON").add_subparsers(
        dest="action", required=True)
    _add_code_verbs(verbs, jsonio.code_from_obj, jsonio.code_to_obj, _code_info)

    verbs = sub.add_parser("sr", help="operate on sum-rank codes").add_subparsers(
        dest="action", required=True)
    p = _add_code_verbs(verbs, jsonio.sr_code_from_obj, jsonio.sr_code_to_obj, _sr_info)
    p.add_argument("other", nargs="?", help="second linear code: the pair distance of C0, C1")
    p.set_defaults(fn=_cmd_sr_mindist)

    p = verbs.add_parser("construct-sr", help="q-polynomial construction from C0, C1, ...")
    p.add_argument("inputs", nargs="+", help="linear-code JSON paths")
    p.add_argument("--basis", help="comma-separated constants, e.g. 1,w")
    p.set_defaults(fn=_cmd_construct_sr)

    p = verbs.add_parser("construct-matb", help="basis expansion of a linear code")
    p.add_argument("input", help="linear-code JSON path")
    p.add_argument("--basis", help="comma-separated constants, e.g. w,w^2")
    p.add_argument("--profile", help='block shapes, e.g. "2x3,2x2*5"')
    p.set_defaults(fn=_cmd_construct_matb)

    p = verbs.add_parser("bounds", help="distance bounds from one formula")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--theorem23", nargs="+", type=int, metavar="V",
                   help="m d0 d1 ... -> stacking bounds")
    g.add_argument("--prop38", nargs=2, metavar=("D", "PROFILE"),
                   help="expansion bounds from Hamming distance and profile")
    g.add_argument("--cor32", nargs=2, type=int, metavar=("D", "T"),
                   help="uniform 2x2 expansion bounds")
    p.set_defaults(fn=_cmd_bounds)

    p = verbs.add_parser("verify-duality", help="check trace-duality transport on random codes")
    p.add_argument("--kind", choices=["sr", "matb"], default="sr")
    p.add_argument("--trials", type=_at_least(0), default=100)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_verify_duality)

    p = sub.add_parser("tables", help="reproduce the published parameter tables")
    p.add_argument("ids", nargs="+", type=int, help="table numbers, e.g. 2 3 9")
    p.add_argument("--budget", type=int, default=DEFAULT_TABLE_WORD_BUDGET)
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
