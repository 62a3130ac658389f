"""Every subspace of a tiny space, as a test oracle.

The tests check the duality predicates and the pinned table 7 code against
all [4,2] codes over GF(4).
"""

import itertools


def all_rref_generators(field, n: int, k: int):
    """Yield every k-dimensional subspace of F_q^n as rref generator rows,
    exhaustively by pivot-column pattern."""
    q = field.order
    for pivots in itertools.combinations(range(n), k):
        free_slots = [
            (i, j)
            for i in range(k)
            for j in range(n)
            if j not in pivots and j > pivots[i]
        ]
        for values in itertools.product(range(q), repeat=len(free_slots)):
            rows = [[0] * n for _ in range(k)]
            for i, p in enumerate(pivots):
                rows[i][p] = 1
            for (i, j), v in zip(free_slots, values):
                rows[i][j] = v
            yield rows
