"""The tests' slow reference for the lattices of `endolift.lattices`.

The package builds each of its lattices directly in canonical Hermite form,
with the pivot exponents it already knows, and never runs an elimination.
The tests check those builders, and the descent's span, against
`hermite_form`, which reduces any generating set to that form and hands the
rows to the checked `LatticeHNF` constructor.
"""

from operator import index
from typing import Sequence, Tuple

from endolift.lattices import LatticeHNF, SemilinearModule
from endolift.witt import pair_inv, pair_mul, pair_sub, pair_val

Pair = Tuple[int, int]


def hermite_form(module: SemilinearModule, rows: Sequence[Sequence[Pair]], scale: int = 0) -> LatticeHNF:
    """Canonical Hermite basis of a full-rank row span over the local
    scalar ring (H. Cohen, GTM 138, section 2.4): unit-normalized p-power
    pivots, then the entries above pivot 0, 1, ... reduced in turn to their
    canonical residues; a reduction above pivot i changes only columns >= i,
    so it keeps every earlier column reduced.  The result passes the
    checked constructor, so every reference output meets its checks."""
    p, prec, rank, mod, r = module.p, module.prec, module.rank, module._mod, module._r
    work, scale = [module._coords(row) for row in rows], index(scale)
    pivots = []
    for col in range(rank):
        best = None
        for idx, row in enumerate(work):
            entry = row[col]
            if entry == (0, 0):
                continue
            val = pair_val(entry, p, prec)
            if best is None or val < best[0]:
                best = (val, idx)
        if best is None:
            raise ValueError("row span is not full rank")
        d, idx = best
        pd = p**d
        row = work.pop(idx)
        a, b = row[col]
        inv = pair_inv((a // pd, b // pd), p, r, mod)
        row = [pair_mul(inv, c, r, mod) for c in row]
        for other in work:
            a, b = other[col]
            if not a and not b:
                continue
            q = (a // pd, b // pd)
            for j in range(rank):
                if row[j] != (0, 0):
                    other[j] = pair_sub(other[j], pair_mul(q, row[j], r, mod), mod)
        pivots.append(row)
        work = [w for w in work if any(x != (0, 0) for x in w)]
    for i in range(rank):
        pd = pivots[i][i][0]
        for k in range(i):
            a, b = pivots[k][i]
            q = (a // pd, b // pd)
            if q == (0, 0):
                continue
            for j in range(rank):
                if pivots[i][j] != (0, 0):
                    pivots[k][j] = pair_sub(pivots[k][j], pair_mul(q, pivots[i][j], r, mod), mod)
    return LatticeHNF(module, pivots, scale)
