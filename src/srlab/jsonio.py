"""JSON wire formats.

Fields serialize as {"characteristic": p, "tower": [[degree, modulus], ...]}
with modulus coefficients constant-first as canonical integers of the level
below.  Codes: {"q_tower": field, "n": int, "generator": [[ints]]}.  Sum-rank
codes add "blocks": [[m, n], ...] and flatten rows row-major per block.
Polynomials: {"coeffs": [ints]} constant-first.

Readers rebuild through the cached field constructors and re-canonicalize
generators, so emit -> read -> emit is bit-identical.  `loads` accepts only
a JSON object at top level; text that is not JSON, holds an integer past
int()'s digit limit or nests past the interpreter's recursion limit raises
MalformedInput.  Readers check the wire shapes before building anything: a
missing key, a value of the wrong JSON type, a non-integer entry, degree or
length (booleans, floats and strings included) or a negative length raises
MalformedInput, a non-object where an object belongs NotAnObject.  A code
length or a sum-rank profile's flat length above linalg.MAX_LENGTH raises
LengthTooLarge.
"""

from __future__ import annotations

import json

from .code import LinearCode
from .errors import MalformedInput, NotAnObject
from .field import FieldSpec, extension, prime_field
from .linalg import check_entries, check_length
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


def _object(value, where: str) -> dict:
    if not isinstance(value, dict):
        raise NotAnObject(f"{where}: expected a JSON object, got {type(value).__name__}")
    return value


def _key(obj: dict, key: str, where: str):
    if key not in obj:
        raise MalformedInput(f"{where}: missing key {key!r}")
    return obj[key]


def _list(value, where: str, length=None) -> list:
    if not isinstance(value, list) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length}"
        raise MalformedInput(f"{where}: expected {shape}, got {value!r:.40}")
    return value


def _int(value, where: str, lo=None) -> int:
    # bool is an int subclass, so compare the type itself
    if type(value) is not int or (lo is not None and value < lo):
        floor = "" if lo is None else f" >= {lo}"
        raise MalformedInput(f"{where}: expected an integer{floor}, got {value!r:.40}")
    return value


def _ints(value, where: str, length=None) -> list:
    items = _list(value, where, length)
    for j, v in enumerate(items):
        if type(v) is not int:
            _int(v, f"{where}[{j}]")  # raises, naming the entry
    return items


def _rows(value, where: str) -> list:
    return [_ints(r, f"{where}[{i}]") for i, r in enumerate(_list(value, where))]


def field_from_obj(obj: dict) -> FieldSpec:
    obj = _object(obj, "field")
    f = prime_field(_int(_key(obj, "characteristic", "field"), "characteristic"))
    for i, step in enumerate(_list(obj.get("tower", []), "tower")):
        degree, coeffs = _list(step, f"tower[{i}]", length=2)
        modulus = _ints(coeffs, f"tower[{i}] modulus")
        check_entries(f, [modulus])
        f = extension(f, _int(degree, f"tower[{i}] degree"), Polynomial(f, modulus))
    return f


def code_to_obj(code: LinearCode) -> dict:
    return {
        "q_tower": field_to_obj(code.field),
        "n": code.n,
        "generator": code.generator._array().tolist(),
    }


def code_from_obj(obj: dict) -> LinearCode:
    obj = _object(obj, "code")
    field = field_from_obj(_key(obj, "q_tower", "code"))
    n = _int(_key(obj, "n", "code"), "n", lo=0)
    check_length(n, "n")
    return LinearCode.from_rows(field, n, _rows(_key(obj, "generator", "code"), "generator"))


def sr_code_to_obj(code: SumRankCode) -> dict:
    return {
        "q_tower": field_to_obj(code.field),
        "blocks": [list(b) for b in code.profile.blocks],
        "generator": code.generator._array().tolist(),
    }


def sr_code_from_obj(obj: dict) -> SumRankCode:
    obj = _object(obj, "sum-rank code")
    field = field_from_obj(_key(obj, "q_tower", "sum-rank code"))
    blocks = [_ints(b, f"blocks[{i}]", length=2)
              for i, b in enumerate(_list(_key(obj, "blocks", "sum-rank code"), "blocks"))]
    profile = BlockProfile(field, blocks)
    check_length(profile.total, "flat length")
    rows = _rows(_key(obj, "generator", "sum-rank code"), "generator")
    return SumRankCode.from_rows(profile, rows)


def poly_to_obj(p: Polynomial) -> dict:
    return {"coeffs": list(p.coeffs)}


def dumps(obj: dict) -> str:
    return json.dumps(obj, separators=(",", ":"), sort_keys=True)


def loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer beyond int()'s digit limit
        raise MalformedInput(f"not JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput("JSON nested too deeply") from None
    return _object(obj, "top level")
