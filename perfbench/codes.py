"""The `codes-seeded` workload: seeded library requests and their references.

A pass sends a fixed mix of request kinds, one at a time (closed loop, one
client).  The shapes (field, length, dimension) of every request are fixed
below; the seed only draws the generator entries and the request order, so
each seed costs about the same.  Every code arrives as jsonio wire text,
the way the CLI receives it, and every request is sized to finish within the
library's default budgets.

`generate` and `check` run in the benchmark's parent process and use numpy
only; `execute` runs in the pass process and is the only part that calls
srlab.  The references are brute force over all q**k messages, or rules
derived here from field tables the benchmark builds itself.
"""

from __future__ import annotations

import functools
import json
import random

import numpy as np

_F4_MODULUS = [1, 1, 1]  # GF(4) = GF(2)[w]/(w^2 + w + 1), constant first

# (kind, shape, copies per pass).  Shapes: (q, n, k) for one code;
# (t, k0, k1) for a pair of GF(4) codes; (total bits, k) for srmin.  The
# median falls among the 3-6 ms requests (packed mindists, expansions,
# small qpoly builds) and the 95th percentile among the 40-70 ms ones (the
# [80, 10] GF(4) duals and the generic-path requests).  The copies are twice
# those of a first mix of 255 requests, whose 50th percentile moved by up
# to 8% between runs; the two largest duals are kept single.
MIX = [
    # Hamming distance: packed GF(4) bitplanes, then the generic fallback
    ("mindist", (4, 24, 6), 16), ("mindist", (4, 40, 7), 16),
    ("mindist", (4, 56, 8), 24), ("mindist", (4, 64, 8), 24),
    ("mindist", (3, 12, 5), 16), ("mindist", (3, 16, 5), 16), ("mindist", (3, 20, 6), 12),
    ("mindist", (2, 72, 9), 10), ("mindist", (2, 96, 10), 10),
    # structure queries
    ("hull", (4, 120, 16), 12), ("hull", (2, 200, 24), 12), ("hull", (3, 150, 12), 12),
    ("dual", (3, 60, 8), 6), ("dual", (2, 80, 10), 6), ("dual", (4, 80, 10), 40),
    ("dual", (4, 140, 14), 2), ("dual", (2, 200, 20), 1),
    # stacked q-polynomial construction: packed (4t <= 64 bits), then generic
    ("qpoly", (12, 3, 3), 20), ("qpoly", (16, 4, 3), 12), ("qpoly", (16, 4, 4), 12),
    ("qpoly", (20, 2, 2), 12),
    # basis expansion: packed (2n <= 64 bits), then generic
    ("expand", (4, 20, 4), 14), ("expand", (4, 30, 5), 20), ("expand", (4, 32, 6), 20),
    ("expand", (4, 40, 3), 10), ("expand", (4, 50, 4), 8),
    # complete support-class crossing
    ("pair", (12, 3, 3), 20), ("pair", (20, 4, 4), 20), ("pair", (30, 4, 5), 28),
    # duality transport through both constructions
    ("transport", (8, 2, 2), 12), ("transport", (12, 3, 2), 12),
    # sum-rank codes given directly as JSON over GF(2) blocks
    ("srmin", (48, 10), 14), ("srmin", (64, 12), 14), ("srmin", (80, 8), 12), ("srmin", (96, 7), 12),
]


# -- field tables built by the benchmark ----------------------------------------


class GF:
    """Addition, multiplication and inverse tables of GF(2), GF(3) or GF(4)."""

    def __init__(self, q):
        self.q = q
        a = np.arange(q)[:, None]
        b = np.arange(q)[None, :]
        if q == 4:
            a0, a1, b0, b1 = a & 1, a >> 1, b & 1, b >> 1
            # (a0 + a1 w)(b0 + b1 w) with w^2 = w + 1
            c0 = (a0 * b0 + a1 * b1) & 1
            c1 = (a0 * b1 + a1 * b0 + a1 * b1) & 1
            self.mul = (c0 | (c1 << 1)).astype(np.int8)
            self.add = (a ^ b).astype(np.int8)
        else:
            self.mul = ((a * b) % q).astype(np.int8)
            self.add = ((a + b) % q).astype(np.int8)
        self.neg = np.array([(-x) % q if q == 3 else x for x in range(q)], dtype=np.int8)
        self.inv = np.zeros(q, dtype=np.int8)
        for x in range(1, q):
            self.inv[x] = [y for y in range(1, q) if self.mul[x, y] == 1][0]

    def tower(self):
        p = 3 if self.q == 3 else 2
        steps = [[2, _F4_MODULUS]] if self.q == 4 else []
        return {"characteristic": p, "tower": steps}

    def rank(self, m):
        m = np.array(m, dtype=np.int8).copy()
        r = 0
        for c in range(m.shape[1] if m.ndim == 2 else 0):
            nz = np.nonzero(m[r:, c])[0]
            if len(nz) == 0:
                continue
            p = r + nz[0]
            m[[r, p]] = m[[p, r]]
            m[r] = self.mul[self.inv[m[r, c]], m[r]]
            factors = m[:, c].copy()
            factors[r] = 0
            m = self.add[m, self.neg[self.mul[factors[:, None], m[r][None, :]]]]
            r += 1
            if r == m.shape[0]:
                break
        return r

    def codewords(self, g):
        """All q**k codewords of generator g, row i for the message with index i."""
        g = np.array(g, dtype=np.int8)
        k, n = g.shape
        idx = np.arange(self.q**k)
        words = np.zeros((len(idx), n), dtype=np.int8)
        for i in range(k):
            multiples = self.mul[:, g[i]]  # row i scaled by each field element
            term = multiples[(idx // self.q**i) % self.q]
            if self.q == 3:
                words = (words + term) % 3
            else:  # characteristic 2: addition is XOR
                words ^= term
        return words


FIELDS = {q: GF(q) for q in (2, 3, 4)}


@functools.lru_cache(maxsize=None)
def _gf2_rank_lut(m, n):
    """Rank of every m x n GF(2) matrix, indexed by its row-major bits."""
    f = FIELDS[2]
    bits = (np.arange(1 << (m * n))[:, None] >> np.arange(m * n)[None, :]) & 1
    return np.array([f.rank(b.reshape(m, n)) for b in bits], dtype=np.int16)


@functools.lru_cache(maxsize=None)
def _qpoly_rank_lut():
    """Rank over GF(2) of x -> a x + b x^2 on GF(4), for every (a, b).

    Columns are the images of the basis 1, w; an element's canonical integer
    is its coordinate vector in that basis.
    """
    f = FIELDS[4]
    lut = np.zeros((4, 4), dtype=np.int16)
    for a in range(4):
        for b in range(4):
            img1 = f.add[a, b]
            imgw = f.add[f.mul[a, 2], f.mul[b, f.mul[2, 2]]]
            lut[a, b] = len({int(v) for v in (img1, imgw) if v})
    return lut


# -- request generation --------------------------------------------------------------


def _random_code(rnd, f, n, k):
    while True:
        g = [[rnd.randrange(f.q) for _ in range(n)] for _ in range(k)]
        if f.rank(g) == k:
            return g


def _code_text(f, n, g):
    return json.dumps({"q_tower": f.tower(), "n": n, "generator": g}, separators=(",", ":"))


def _random_blocks(rnd, total):
    """GF(2) block shapes from (2,2), (2,3), (3,3) covering exactly `total` bits."""
    blocks, left = [], total
    while left:
        fits = [b for b in ((2, 2), (2, 3), (3, 3)) if b[0] * b[1] <= left
                and left - b[0] * b[1] not in (1, 2, 3, 5, 7, 11)]
        b = rnd.choice(fits)
        blocks.append(list(b))
        left -= b[0] * b[1]
    return blocks


def generate(seed):
    """The request list of one pass for `seed`: same seed, same requests."""
    rnd = random.Random(seed)
    f4 = FIELDS[4]
    out = []
    for kind, shape, copies in MIX:
        for _ in range(copies):
            req = {"kind": kind, "shape": list(shape)}
            if kind in ("mindist", "dual", "hull", "expand"):
                q, n, k = shape
                f = FIELDS[q]
                g = _random_code(rnd, f, n, k)
                req.update(q=q, g=g, code=_code_text(f, n, g))
                if kind == "expand":
                    req["blocks"] = [[2, 3]] * (n % 2) + [[2, 2]] * ((n - 3 * (n % 2)) // 2)
                    req["word"] = g[0]
            elif kind in ("qpoly", "pair", "transport"):
                t, k0, k1 = shape
                gs = [_random_code(rnd, f4, t, k0), _random_code(rnd, f4, t, k1)]
                req.update(gs=gs, codes=[_code_text(f4, t, g) for g in gs])
            elif kind == "srmin":
                total, k = shape
                blocks = _random_blocks(rnd, total)
                g = _random_code(rnd, FIELDS[2], total, k)
                req.update(blocks=blocks, g=g, code=json.dumps(
                    {"q_tower": FIELDS[2].tower(), "blocks": blocks, "generator": g},
                    separators=(",", ":")))
            out.append(req)
    rnd.shuffle(out)
    return out


# -- execution (pass process) -----------------------------------------------------------


def wire(req):
    """What the pass process receives of a request: the inputs, no references.

    Keeping the reference data out of the pass process also keeps its objects
    out of the program's garbage collections.
    """
    return {k: req[k] for k in ("kind", "code", "codes", "blocks", "word") if k in req}


def execute(req):
    """Run one request against srlab; returns a JSON-able answer."""
    from srlab import (BlockProfile, basis_expand_code, duality_transport_expansion,
                       duality_transport_qpoly, pair_distance, prime_field, qpoly_code,
                       symbol_sum_rank_weight)
    from srlab import jsonio

    kind = req["kind"]
    if kind == "srmin":
        s = jsonio.sr_code_from_obj(jsonio.loads(req["code"]))
        return {"dim": s.dim, "d": s.min_distance()}
    if "codes" in req:
        c0, c1 = (jsonio.code_from_obj(jsonio.loads(t)) for t in req["codes"])
        if kind == "qpoly":
            s = qpoly_code([c0, c1])
            return {"dim": s.dim, "d": s.min_distance()}
        if kind == "pair":
            return {"d": pair_distance(c0, c1)}
        return {"qpoly": duality_transport_qpoly(c0, c1),
                "expansion": duality_transport_expansion(c0)}
    c = jsonio.code_from_obj(jsonio.loads(req["code"]))
    if kind == "mindist":
        return {"d": c.min_distance()}
    if kind == "dual":
        return {"rows": [list(r) for r in c.dual().generator.rows]}
    if kind == "hull":
        return {"hull": c.hull_dimension(), "lcd": c.is_lcd()}
    profile = BlockProfile(prime_field(2), req["blocks"])
    m = basis_expand_code(c, None, profile)
    return {"dim": m.dim, "d": m.min_distance(),
            "sym": symbol_sum_rank_weight(req["word"], c.field, profile)}


# -- references (parent process) -----------------------------------------------------------


def _span_dims(words, blocks):
    """GF(2)-span dimension of each block's GF(4) coordinates, summed per word."""
    total = np.zeros(len(words), dtype=np.int16)
    pos = 0
    for _, width in blocks:
        chunk = words[:, pos:pos + width]
        pos += width
        distinct = sum((chunk == v).any(axis=1).astype(np.int16) for v in (1, 2, 3))
        total += np.minimum(distinct, 2)
    return total


def _pair_weights(w0, w1, lut):
    """Sum-rank weight of every (a, b) pair in the stacked q = m = 2 code."""
    out = np.empty((len(w0), len(w1)), dtype=np.int16)
    for i in range(len(w0)):
        out[i] = lut[w0[i][None, :], w1].sum(axis=1)
    return out


def _srmin_reference(blocks, g):
    words = FIELDS[2].codewords(g)[1:]
    total = np.zeros(len(words), dtype=np.int16)
    pos = 0
    for m, n in blocks:
        bits = words[:, pos:pos + m * n].astype(np.int64)
        pos += m * n
        idx = (bits << np.arange(m * n)[None, :]).sum(axis=1)
        total += _gf2_rank_lut(m, n)[idx]
    return int(total.min())


def check(req, answer):
    """True when the answer agrees with the benchmark's own reference."""
    if not isinstance(answer, dict) or "error" in answer:
        return False
    kind = req["kind"]
    if kind in ("qpoly", "pair"):
        w0, w1 = (FIELDS[4].codewords(g) for g in req["gs"])
        weights = _pair_weights(w0, w1, _qpoly_rank_lut())
        weights[0, 0] = np.iinfo(np.int16).max
        want = int(weights.min())
        if kind == "pair":
            return answer["d"] == want
        return answer["dim"] == 2 * (len(req["gs"][0]) + len(req["gs"][1])) and answer["d"] == want
    if kind == "transport":
        return answer["qpoly"] is True and answer["expansion"] is True
    if kind == "srmin":
        return answer["dim"] == len(req["g"]) and answer["d"] == _srmin_reference(req["blocks"], req["g"])
    f = FIELDS[req["q"]]
    g = np.array(req["g"], dtype=np.int8)
    k, n = g.shape
    if kind == "mindist":
        return answer["d"] == int((f.codewords(g)[1:] != 0).sum(axis=1).min())
    if kind == "dual":
        h = np.array(answer["rows"], dtype=np.int8).reshape(-1, n)
        return (len(h) == n - k and f.rank(h) == n - k
                and not _gf_matmul(f, g, h.T).any())
    if kind == "hull":
        hull = k - f.rank(_gf_matmul(f, g, g.T))
        return answer["hull"] == hull and answer["lcd"] == (hull == 0)
    words = FIELDS[4].codewords(g)
    weights = _span_dims(words, req["blocks"])
    return (answer["dim"] == 2 * k and answer["d"] == int(weights[1:].min())
            and answer["sym"] == int(_span_dims(g[:1], req["blocks"])[0]))


def _gf_matmul(f, a, b):
    out = np.zeros((a.shape[0], b.shape[1]), dtype=np.int8)
    for j in range(a.shape[1]):
        out = f.add[out, f.mul[a[:, j][:, None], b[j][None, :]]]
    return out
