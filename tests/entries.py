"""Generator rows as the entry arrays the enumeration kernels take."""

from srlab.linalg import MatrixGF


def entries(field, rows, n: int):
    """The read-only (len(rows), n) entry array of `rows`, int sequences over
    `field`, as a generator's `MatrixGF._array()` holds it."""
    return MatrixGF._checked(field, rows, n)._array()
