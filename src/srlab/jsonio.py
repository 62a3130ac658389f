"""JSON wire formats.

Fields serialize as {"characteristic": p, "tower": [[degree, modulus], ...]}
with modulus coefficients constant-first as canonical integers of the level
below.  Codes: {"q_tower": field, "n": int, "generator": [[ints]]}.  Sum-rank
codes add "blocks": [[m, n], ...] and flatten rows row-major per block.
Polynomials: {"coeffs": [ints]} constant-first.

Readers rebuild through the cached field constructors and re-canonicalize
generators, so emit -> read -> emit is bit-identical.  `loads` accepts only
a JSON object at top level.
"""

from __future__ import annotations

import json

from .code import LinearCode
from .errors import NotAnObject
from .field import FieldSpec, extension, prime_field
from .poly import Polynomial
from .sumrank import BlockProfile, SumRankCode

__all__ = [
    "field_to_obj",
    "field_from_obj",
    "code_to_obj",
    "code_from_obj",
    "sr_code_to_obj",
    "sr_code_from_obj",
    "poly_to_obj",
    "poly_from_obj",
    "dumps",
    "loads",
]


def field_to_obj(field: FieldSpec) -> dict:
    steps = []
    f = field
    while f.base is not None:
        steps.append([f.degree_over_base, list(f.modulus.coeffs)])
        f = f.base
    return {"characteristic": f.characteristic, "tower": steps[::-1]}


def field_from_obj(obj: dict) -> FieldSpec:
    f = prime_field(int(obj["characteristic"]))
    for degree, coeffs in obj.get("tower", []):
        f = extension(f, int(degree), Polynomial(f, [int(c) for c in coeffs]))
    return f


def code_to_obj(code: LinearCode) -> dict:
    return {
        "q_tower": field_to_obj(code.field),
        "n": code.n,
        "generator": [list(r) for r in code.generator.rows],
    }


def code_from_obj(obj: dict) -> LinearCode:
    field = field_from_obj(obj["q_tower"])
    n = int(obj["n"])
    rows = [[int(v) for v in r] for r in obj["generator"]]
    return LinearCode.from_rows(field, n, rows)


def sr_code_to_obj(code: SumRankCode) -> dict:
    return {
        "q_tower": field_to_obj(code.field),
        "blocks": [list(b) for b in code.profile.blocks],
        "generator": [list(r) for r in code.generator.rows],
    }


def sr_code_from_obj(obj: dict) -> SumRankCode:
    field = field_from_obj(obj["q_tower"])
    profile = BlockProfile(field, [tuple(b) for b in obj["blocks"]])
    rows = [[int(v) for v in r] for r in obj["generator"]]
    return SumRankCode.from_rows(profile, rows)


def poly_to_obj(p: Polynomial) -> dict:
    return {"coeffs": list(p.coeffs)}


def poly_from_obj(field: FieldSpec, obj: dict) -> Polynomial:
    return Polynomial(field, [int(c) for c in obj["coeffs"]])


def dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def loads(text: str) -> dict:
    obj = json.loads(text)
    if not isinstance(obj, dict):
        raise NotAnObject(f"expected a JSON object at top level, got {type(obj).__name__}")
    return obj
