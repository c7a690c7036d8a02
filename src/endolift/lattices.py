"""Constraint-first stable-lattice enumeration in the standard semilinear modules.

The rank-2 module is free on (e0, f0) with F sending e0 -> f0, f0 -> p*e0,
twisted by sigma; the rank-4 module is its scalar extension, free on
(e1, e2, f1, f2), with F sending e1 -> f2, e2 -> f1, f1 -> p*e2, f2 -> p*e1.
V needs no matrix of its own: sigma is an involution on the quadratic Witt
scalars, so V = F, and FV = p is F^2 = p.  Order actions are diagonal in
omega except for the ramified uniformizer.

Every scalar here is a raw (a, b) pair meaning a + b*omega, read in the
module's own ring: operator matrices, vectors and lattice rows alike, and
each vector a caller hands in passes one check, `SemilinearModule._coords`.
Lattices are held in their canonical Hermite basis: an upper-triangular row
basis with pivots exactly p^d, entries above a pivot reduced modulo it,
together with a scale m meaning the lattice is p^-m times the row span;
equal lattices have equal rows.  The constructor checks that form on rows
from outside, and the package builds its own lattices in it.  The rank-2
sublattice search is exhaustive on its Hermite grid, visiting only the
candidates that the linear conditions of the diagonal actions allow, each
then fully checked.  The rank-4 superlattice search rests on one eigenline
rule: when the basis lines have pairwise distinct residue characters (the
order action alone is (w, w, -w, -w), the two omega actions together give
four characters), the projection onto each line is a polynomial in the
actions with integral coefficients, so a stable lattice splits into
eigenlines and each window checks diagonal lattices only.  An untwisted
diagonal action keeps every diagonal lattice, so the stability check faces
such a lattice with the other operators alone.  Each operator is stated
once, in its module constructor, and read from there; a constructor builds
one read-only module per (p, prec) and shares it with every caller.
Anything stable outside the classification raises ShapeViolation.

The filtration-lift census counts the lifts of the Hodge filtration to the
dual numbers that the order and the ramified uniformizer keep.  Stability of
a lift is one linear condition on its 2x2 matrix, so each count is read off
the rank of that system over the residue field (see the census section).
"""

from functools import lru_cache, wraps
from itertools import combinations
from operator import index
from types import MappingProxyType
from typing import Dict, List, Sequence, Tuple

from .errors import (
    ConsistencyFailure,
    Frozen,
    PrecisionTooLow,
    ShapeViolation,
    StabilityFailure,
)
from .witt import nonresidue, pair_inv, pair_mul, pair_sub, pair_val

Pair = Tuple[int, int]
Vector = Tuple[Pair, ...]
Matrix = Tuple[Vector, ...]


# ---------------------------------------------------------------------------
# semilinear modules


class SemilinearModule:
    """A free module over the quadratic Witt scalars with sigma-semilinear
    F (which is also V) and a family of linear action matrices, all of them
    matrices of (a, b) pairs.

    Operator matrices act by columns: the image of basis vector j is column
    j.  Application twists the coordinates first, then multiplies.

    The operators are fixed at construction, and `apply` applies only
    them, by name; each keeps only its nonzero entries, reduced modulo
    p^prec.
    """

    __slots__ = ("p", "prec", "rank", "F", "actions", "label", "_mod", "_r", "_eigenvalues", "_open_ops", "_ops")

    def __init__(self, p, prec, rank, F, actions, label):
        p, prec = index(p), index(prec)  # TypeError for 8.0 or "8"
        if prec < 1:
            raise ValueError(f"{label}: the precision must be at least 1, got {prec}")
        self.p = p
        self.prec = prec
        self.rank = rank
        self.F = F
        self.actions = MappingProxyType(dict(actions))
        self.label = label
        self._mod = p**prec
        self._r = nonresidue(p)
        if "F" in self.actions:
            raise ValueError(f"{label}: an action may not be named F")
        # name -> (twist, sparse rows), cheap-to-fail linear actions first
        ops = [(name, mat, 0) for name, mat in sorted(self.actions.items())] + [("F", F, 1)]
        ops = {name: (twist, self._sparse_rows(mat)) for name, mat, twist in ops}
        # name -> diagonal of each untwisted diagonal action, which keeps every diagonal lattice
        self._eigenvalues = MappingProxyType({
            name: tuple(dict(row).get(i, (0, 0)) for i, row in enumerate(sparse))
            for name, (twist, sparse) in ops.items()
            if not twist and all(j == i for i, row in enumerate(sparse) for j, _x in row)
        })
        self._open_ops = tuple(op for name, op in ops.items() if name not in self._eigenvalues)
        self._ops = ops

    def __setattr__(self, name, value):
        if hasattr(self, "_ops"):  # set last: the module is built, so shared
            raise AttributeError(f"{self.label} is read-only, {name} cannot be set")
        object.__setattr__(self, name, value)

    def __delattr__(self, name):
        raise AttributeError(f"{self.label} is read-only, {name} cannot be deleted")

    def __reduce__(self):  # copy and pickle rebuild the module from its arguments
        return SemilinearModule, (self.p, self.prec, self.rank, self.F, dict(self.actions), self.label)

    def _coords(self, vector) -> List[Pair]:
        """The coordinates of a vector, reduced modulo p^prec; ValueError
        unless it has `rank` coordinates, TypeError unless each is a pair of
        integers."""
        if len(vector) != self.rank:
            raise ValueError(f"{self.label}: {len(vector)} coordinates for a rank-{self.rank} module")
        mod = self._mod
        try:
            return [(index(a) % mod, index(b) % mod) for a, b in vector]
        except (TypeError, ValueError):
            raise TypeError(f"{self.label}: {vector!r} is not a vector of integer pairs") from None

    def _sparse_rows(self, matrix):
        """Per row, the (column, pair) of each nonzero entry."""
        if len(matrix) != self.rank:
            raise ValueError(f"{self.label}: matrix has {len(matrix)} rows, the module has rank {self.rank}")
        return tuple(
            tuple((j, x) for j, x in enumerate(self._coords(row)) if x != (0, 0)) for row in matrix
        )

    def _apply_pairs(self, sparse, vec, twist):
        """The kernel of `apply`: only nonzero matrix entries are summed, and
        each output coordinate is reduced once."""
        mod, r = self._mod, self._r
        if twist:
            vec = [(a, -b) for a, b in vec]
        out = []
        for row in sparse:
            sa = sb = 0
            for j, (ma, mb) in row:
                a, b = vec[j]
                sa += ma * a + mb * b * r
                sb += ma * b + mb * a
            out.append((sa % mod, sb % mod))
        return out

    def apply(self, name: str, vector) -> Vector:
        """The operator `name` ("F" or an action) applied to a vector, with
        its own twist; ValueError for a name that is not an operator of
        this module."""
        try:
            twist, sparse = self._ops[name]
        except KeyError:
            raise ValueError(f"{self.label}: {name!r} is not an operator of this module") from None
        return tuple(self._apply_pairs(sparse, self._coords(vector), twist))


def _shared(build):
    """`build` run once per (p, prec), and its module handed to every caller;
    p and prec are checked as integers before the lookup, as 8.0 hashes as 8."""
    cached = lru_cache(maxsize=64)(build)

    @wraps(build)
    def shared(p, prec=build.__defaults__[0]):
        return cached(index(p), index(prec))

    shared.cache_clear = cached.cache_clear
    return shared


def _diag(entries) -> Matrix:
    rank = len(entries)
    return tuple(tuple(x if i == j else (0, 0) for j in range(rank)) for i, x in enumerate(entries))


def _rank2_F(p) -> Matrix:
    """e0 -> f0, f0 -> p*e0, as columns."""
    return (((0, 0), (p, 0)), ((1, 0), (0, 0)))


@_shared
def standard_rank2(p: int, prec: int = 8) -> SemilinearModule:
    """The rank-2 module with the omega action scaled into the basis lines:
    omega on e0, minus omega on f0."""
    eta = _diag(((0, 1), (0, -1)))
    return SemilinearModule(p, prec, 2, _rank2_F(p), {"omega": eta}, "rank2-normalized")


@_shared
def ramified_rank2(p: int, prec: int = 8) -> SemilinearModule:
    """The rank-2 module carrying the simplest ramified uniformizer action
    (zero trace part, unit norm part): e0 -> f0, f0 -> p*e0, plain-linearly.
    Its square is multiplication by p, the Eisenstein situation."""
    F = _rank2_F(p)
    return SemilinearModule(p, prec, 2, F, {"uniformizer": F}, "rank2-ramified")


@_shared
def tensor_rank4(p: int, prec: int = 10) -> SemilinearModule:
    """The rank-4 scalar extension: basis (e1, e2, f1, f2), F as in the
    module docstring, and two omega actions -- one through the order
    (omega, omega, -omega, -omega), one through the extended scalars
    (omega, -omega, omega, -omega)."""
    one, zero, pp = (1, 0), (0, 0), (p, 0)
    w, minus_w = (0, 1), (0, -1)
    cols = [
        (zero, zero, zero, one),  # e1 -> f2
        (zero, zero, one, zero),  # e2 -> f1
        (zero, pp, zero, zero),  # f1 -> p e2
        (pp, zero, zero, zero),  # f2 -> p e1
    ]
    F = tuple(zip(*cols))
    eta_order = _diag((w, w, minus_w, minus_w))
    eta_scalar = _diag((w, minus_w, w, minus_w))
    actions = {"omega-order": eta_order, "omega-scalar": eta_scalar}
    return SemilinearModule(p, prec, 4, F, actions, "rank4-tensor")


def operator_sanity(module: SemilinearModule) -> None:
    """F F = p on the nose (FV = p, as V = F), and every action matrix
    commutes with F; raises ConsistencyFailure otherwise."""
    p, rank = module.p, module.rank
    basis = [tuple((int(i == j), 0) for j in range(rank)) for i in range(rank)]
    for v in basis:
        pv = tuple(module._coords([(p * a, 0) for a, _b in v]))
        if module.apply("F", module.apply("F", v)) != pv:
            raise ConsistencyFailure(f"{module.label}: FF is not p")
    for name in sorted(module.actions):
        for v in basis:
            if module.apply(name, module.apply("F", v)) != module.apply("F", module.apply(name, v)):
                raise ConsistencyFailure(f"{module.label}: {name} does not commute with F")


# ---------------------------------------------------------------------------
# Hermite bases


class LatticeHNF:
    """A lattice in its canonical Hermite basis: p^-scale times the span of
    upper-triangular rows, each pivot exactly (p^d, 0) (a zero pivot counts
    as p^prec), every entry above a pivot p^d with both coordinates in
    [0, p^d).  Equal lattices at one (module, scale) thus have equal rows,
    and `==`, `hash` and `sort_key` compare lattices.

    The rows are given and stored as (a, b) pairs, reduced modulo p^prec;
    rows not in that form are a ValueError, and rows whose span modulo
    p^prec holds more than they state are PrecisionTooLow.  The scale is an
    integer (TypeError otherwise).  No elimination runs in the package: its
    own lattices, built in that form, face the PrecisionTooLow check alone,
    and the descent proves its span by membership.  Once built, a lattice
    refuses assignment and deletion (AttributeError), and copies and
    pickles, as a `Frozen` value."""

    __slots__ = ("module", "scale", "pair_rows", "_exps", "_steps", "_diagonal")

    def __init__(self, module: SemilinearModule, pair_rows: Sequence[Sequence[Pair]], scale: int = 0):
        scale = index(scale)
        if len(pair_rows) != module.rank:
            raise ValueError(f"{module.label}: {len(pair_rows)} rows for a rank-{module.rank} module")
        rows = tuple(tuple(module._coords(row)) for row in pair_rows)
        p, prec, mod = module.p, module.prec, module._mod
        exps = []
        for i, row in enumerate(rows):
            if any(x != (0, 0) for x in row[:i]):
                raise ValueError(f"{module.label}: row {i} has an entry below the diagonal")
            d = pair_val(row[i], p, prec)
            pd = p**d
            if row[i] != (pd % mod, 0):
                raise ValueError(f"{module.label}: the pivot of row {i} is not a power of p")
            if any(max(above[i]) >= pd for above in rows[:i]):
                raise ValueError(f"{module.label}: an entry above the pivot of row {i} is not reduced")
            exps.append(d)
        _canonical_lattice(module, rows, scale, exps, self)

    __setattr__, __delattr__, __setstate__ = Frozen.__setattr__, Frozen.__delattr__, Frozen.__setstate__

    def sort_key(self):
        """(p, prec, scale, the row coordinates): pairs alone do not say
        which scalars they are."""
        module = self.module
        return (module.p, module.prec, self.scale, tuple(x for row in self.pair_rows for x in row))

    def __eq__(self, other):
        return isinstance(other, LatticeHNF) and self.sort_key() == other.sort_key()

    def __hash__(self):
        return hash(self.sort_key())

    def __repr__(self):
        return f"LatticeHNF(scale={self.scale}, rows={self.pair_rows!r})"

    def pivot_exponents(self) -> Tuple[int, ...]:
        return self._exps

    def index_exponent(self) -> int:
        """Length of (standard lattice)/(this one): sum of pivot valuations
        minus rank*scale.  Negative for genuine superlattices."""
        return sum(self._exps) - self.module.rank * self.scale

    def is_diagonal(self) -> bool:
        return self._diagonal

    def _contains_pairs(self, v) -> bool:
        """Membership of a vector of pairs written in this lattice's integral
        frame (already multiplied by p^scale); the list is consumed.  Clear
        each coordinate against its row, failing as soon as the coordinate
        is not a multiple of the row's pivot p^d; the multiplier is the
        coordinate divided by p^d."""
        mod, r = self.module._mod, self.module._r
        for i, (pd, row) in enumerate(self._steps):
            a, b = v[i]
            if not a and not b:
                continue
            if a % pd or b % pd:
                return False
            qa, qb = a // pd, b // pd
            for j, (ea, eb) in row:
                xa, xb = v[j]
                v[j] = ((xa - qa * ea - qb * eb * r) % mod, (xb - qa * eb - qb * ea) % mod)
        return not any(a or b for a, b in v)


# the slot descriptors' setters, by which a lattice is built once, as `Frozen` builds a value
_LATTICE_SETTERS = tuple(LatticeHNF.__dict__[name].__set__ for name in LatticeHNF.__slots__)


def _canonical_lattice(module, rows, scale, exps, lat=None) -> LatticeHNF:
    """p^-scale times the span of `rows`, tuples of pairs reduced modulo p^prec
    and in canonical Hermite form with pivot exponents `exps`, set into `lat`
    (a new lattice by default) with no check of that form; PrecisionTooLow as
    for `LatticeHNF`, whose constructor checks rows from outside first."""
    p, prec, mod = module.p, module.prec, module._mod
    steps, diagonal = [], True
    for i, (row, d) in enumerate(zip(rows, exps)):
        entries = tuple([(j, x) for j, x in enumerate(row) if x != (0, 0)])
        diagonal = diagonal and (not entries or entries[-1][0] == i)
        steps.append((p**d, entries))
    if lat is None:
        lat = object.__new__(LatticeHNF)
    for setter, value in zip(_LATTICE_SETTERS, (module, scale, rows, tuple(exps), tuple(steps), diagonal)):
        setter(lat, value)
    # row i times p^(prec - d_i) has a zero pivot, so it lies in the truncated
    # span; unless it reduces to zero against the rows below, that span holds
    # more than the rows state, and equal rows would not mean equal lattices.
    # With sum(d) <= prec every such row reduces; on a diagonal lattice it is 0.
    if sum(exps) > prec and not diagonal:
        for i, (row, d) in enumerate(zip(rows, exps)):
            wrap = p ** (prec - d)
            if not lat._contains_pairs([(wrap * a % mod, wrap * b % mod) for a, b in row]):
                raise PrecisionTooLow(
                    f"{module.label}: precision {prec} is too low for pivot exponents "
                    f"{lat._exps}: p^{prec - d} times row {i} leaves the rows' span"
                )
    return lat


def _stable_under_all(module: SemilinearModule, lat: LatticeHNF) -> bool:
    """Whether every operator keeps `lat`.  A diagonal lattice faces only the
    module's open operators: an untwisted diagonal action rescales its rows."""
    for twist, sparse in module._open_ops if lat._diagonal else module._ops.values():
        for row in lat.pair_rows:
            if not lat._contains_pairs(module._apply_pairs(sparse, row, twist)):
                return False
    return True


# ---------------------------------------------------------------------------
# rank-2 sublattices


def enumerate_stable_sublattices(module: SemilinearModule, k: int) -> List[LatticeHNF]:
    """All sublattices of index p^k stable under F and the actions, on
    the Hermite grid (p^a, w; 0, p^b) with a + b = k and w modulo p^b.

    diag(m0, m1) sends the first row to m0 times itself plus (0, (m1 - m0) w)
    and the second to a multiple of itself, so it keeps the lattice exactly
    when p^max(0, b - v(m1 - m0)) divides w.  Only those w are visited, for
    the largest exponent over the diagonal actions, and each candidate is
    then checked under every operator.
    """
    if module.rank != 2:
        raise ValueError("rank-2 module required")
    if k < 0:
        raise ValueError("negative index")
    p = module.p
    if module.prec < k + 2:
        raise PrecisionTooLow(
            f"index p^{k} needs at least {k + 2} digits, module has {module.prec}"
        )
    gaps = [
        pair_val(pair_sub(m1, m0, module._mod), p, module.prec)
        for m0, m1 in module._eigenvalues.values()
    ]
    found = []
    for a in range(k + 1):
        b = k - a
        pa, pb = (p**a, 0), (p**b, 0)
        step = p ** max([0] + [b - v for v in gaps])
        for w0 in range(0, p**b, step):
            for w1 in range(0, p**b, step):
                lat = _canonical_lattice(module, ((pa, (w0, w1)), ((0, 0), pb)), 0, (a, b))
                if _stable_under_all(module, lat):
                    found.append(lat)
    found.sort(key=LatticeHNF.sort_key)
    return found


def lie_action_parity(lattice: LatticeHNF) -> str:
    """Character of the omega action on L/VL for a diagonal stable rank-2
    lattice: "psi" when the e0-line survives, "psi-bar" when the f0-line
    does.

    With L = (p^a e0, p^b f0): V L = (p^(b+1) e0, p^a f0), so the quotient
    is the e0-line exactly when a = b and the f0-line exactly when
    a = b + 1; no other diagonal shape is V-compatible.
    """
    module = lattice.module
    if module.rank != 2:
        raise ValueError("rank-2 lattice required")
    if not lattice.is_diagonal():
        raise ValueError("parity is defined here for diagonal stable lattices")
    a, b = lattice.pivot_exponents()
    if a == b:
        return "psi"
    if a == b + 1:
        return "psi-bar"
    raise ShapeViolation(f"diagonal exponents ({a}, {b}) are not V-compatible")


# ---------------------------------------------------------------------------
# residue-field layer: the rank routine of the census and the descent


def _rank(p: int, r: int, vectors) -> int:
    """Rank over the residue field (the pairs mod p, w^2 = r) of equal-length
    coordinate vectors, each pair already reduced mod p, for the census and
    the descent's span proof: each is reduced against the echelon rows kept
    so far (1 at their own pivot column, 0 at earlier ones), and a nonzero
    remainder becomes a new row."""
    echelon: Dict[int, list] = {}
    for vec in vectors:
        v = list(vec)
        for col, row in echelon.items():
            c = v[col]
            if c != (0, 0):
                v = [pair_sub(x, pair_mul(c, y, r, p), p) for x, y in zip(v, row)]
        lead = next((j for j, x in enumerate(v) if x != (0, 0)), None)
        if lead is not None:
            inv = pair_inv(v[lead], p, r, p)
            echelon[lead] = [pair_mul(inv, x, r, p) for x in v]
    return len(echelon)


# ---------------------------------------------------------------------------
# rank-4 superlattices


def superlattice_family(s: int, m: int) -> List[Tuple[int, int, int]]:
    """The diagonal (a, b, delta) classification inside the p^-m window:
    coordinate exponents (a, b, b + delta, a + delta) over
    (e1, e2, f1, f2), with a + b + delta = s and every exponent between
    0 and m."""
    out = []
    for delta in (0, 1):
        for a in range(s + 1):
            b = s - delta - a
            if b < 0:
                continue
            if max(a, b, b + delta, a + delta) <= m:
                out.append((a, b, delta))
    return sorted(out)


def _family_lattice(module: SemilinearModule, a: int, b: int, delta: int, m: int) -> LatticeHNF:
    exps = (m - a, m - b, m - (b + delta), m - (a + delta))
    if min(exps) < 0:
        raise ValueError("family member escapes the window")
    return _canonical_lattice(module, _diag([(module.p**e, 0) for e in exps]), m, exps)


def classify_superlattice(lat: LatticeHNF) -> Tuple[int, int, int]:
    """Read (a, b, delta) off a diagonal superlattice basis; ShapeViolation
    if the shape is not of the classified form."""
    if not lat.is_diagonal():
        raise ShapeViolation("stable superlattice is not eigenline-diagonal")
    m = lat.scale
    e = lat.pivot_exponents()
    a, b = m - e[0], m - e[1]
    d1, d2 = (m - e[2]) - b, (m - e[3]) - a
    if d1 != d2 or d1 not in (0, 1) or min(a, b) < 0:
        raise ShapeViolation(f"diagonal exponents {e} at scale {m} are outside the family")
    return (a, b, d1)


def enumerate_stable_superlattices(module: SemilinearModule, s: int, m: int) -> List[LatticeHNF]:
    """Stable lattices between the standard one and its p^-m dilate with
    coindex p^(2s), s and m integers (TypeError otherwise).

    Past s = 0 the basis lines must have pairwise distinct residue
    characters (ValueError otherwise), so that every stable lattice splits
    into eigenlines (module docstring).  The m = 1 window then checks one
    diagonal lattice per coordinate plane of dimension 2s, p on the other
    lines; deeper windows check the members of the diagonal family.  Each
    candidate is diagonal, so the order actions keep it and only F is left
    to check (`_stable_under_all`).  Every survivor must classify as some
    (a, b, delta) with a + b + delta = s; anything else raises ShapeViolation.
    """
    s, m = index(s), index(m)
    if module.rank != 4:
        raise ValueError("rank-4 module required")
    if s < 0 or m < 1:
        raise ValueError("need s >= 0 and a window m >= 1")
    if module.prec < 2 * (s + m) + 2:
        raise PrecisionTooLow(
            f"superlattice search at (s={s}, m={m}) wants precision {2 * (s + m) + 2}"
        )
    if s == 0:
        return [_family_lattice(module, 0, 0, 0, m)]
    # per basis line, its residue character: its eigenvalues mod p under the diagonal actions
    p = module.p
    if len({tuple((d[i][0] % p, d[i][1] % p) for d in module._eigenvalues.values()) for i in range(4)}) < 4:
        raise ValueError(
            f"{module.label}: the basis lines share a residue character, so a "
            f"stable lattice need not split into eigenlines"
        )
    if m == 1:
        planes = ([int(i not in plane) for i in range(4)] for plane in combinations(range(4), 2 * s))
        candidates = (_canonical_lattice(module, _diag([(p**e, 0) for e in exps]), 1, exps) for exps in planes)
    else:
        candidates = (_family_lattice(module, *abd, m) for abd in superlattice_family(s, m))
    found = [lat for lat in candidates if _stable_under_all(module, lat)]
    if any(lat.index_exponent() != -2 * s for lat in found):
        raise ConsistencyFailure("coindex bookkeeping is off")
    found.sort(key=classify_superlattice)
    return found


class DescentReport(Frozen):
    """Outcome of pushing a classified superlattice down to rank 2."""

    __slots__ = ("a", "b", "delta", "scale", "span")


def _spans_diagonal(lat: LatticeHNF, gens) -> bool:
    """Whether vectors of pairs reduced modulo p^prec span the diagonal
    lattice `lat` (in its integral frame), as their Hermite form would say:
    each coordinate is a multiple of its row's pivot p^d, and the quotients
    mod p have full rank over the residue field (Nakayama)."""
    if not lat._diagonal:
        raise ValueError("the span proof needs a diagonal lattice")
    module = lat.module
    p, residues = module.p, []
    for v in gens:
        row = []
        for (a, b), (pd, _entries) in zip(v, lat._steps):
            if a % pd or b % pd:
                return False
            row.append((a // pd % p, b // pd % p))
        residues.append(row)
    return _rank(p, module._r, residues) == module.rank


def descend_superlattice(a: int, b: int, delta: int, p: int) -> DescentReport:
    """Push a classified superlattice down to a rank-2 frame.

    Reads e* = p^-a e1 + p^-b e2 and f* = p^-(b+delta) f1 + p^-(a+delta) f2
    in scaled integral coordinates off the family lattice's canonical rows,
    which the operator kernels take as they are.  It checks
    F e* = p^delta f* and F f* = p^(1-delta) e* (V = F), that the order omega
    acts by omega on e* and by -omega on f*, and that the scalar-omega
    translates of the pair span the family lattice, proved against its
    diagonal basis with no elimination (`_spans_diagonal`); the family
    lattice is then the span.  StabilityFailure on any miss.  The module is
    the shared read-only `tensor_rank4`, looked up by name on each call, two
    digits above the precision the superlattice search needs at the same
    (s, m).
    """
    if delta not in (0, 1) or a < 0 or b < 0:
        raise ValueError("need a, b >= 0 and delta in {0, 1}")
    s = a + b + delta
    m = max(a, b, b + delta, a + delta)
    module = tensor_rank4(p, 2 * (s + max(m, 1)) + 4)
    expected = _family_lattice(module, a, b, delta, m)
    pe1, pe2, pf1, pf2 = (row[i] for i, row in enumerate(expected.pair_rows))
    zero = (0, 0)
    e_star, f_star = [pe1, pe2, zero, zero], [zero, zero, pf1, pf2]

    def apply(name, v):  # v is made of rows of a canonical lattice
        twist, sparse = module._ops[name]
        return module._apply_pairs(sparse, v, twist)

    def times(c, v):
        return [pair_mul(c, x, module._r, module._mod) for x in v]

    for v, image, e in ((e_star, f_star, delta), (f_star, e_star, 1 - delta)):
        if apply("F", v) != times((p**e, 0), image):
            raise StabilityFailure(f"descent of ({a}, {b}, {delta}) is not operator-stable")

    if apply("omega-order", e_star) != times((0, 1), e_star):
        raise StabilityFailure("order action does not act by a scalar on e*")
    if apply("omega-order", f_star) != times((0, -1), f_star):
        raise StabilityFailure("order action does not act by a scalar on f*")

    gens = [e_star, f_star, apply("omega-scalar", e_star), apply("omega-scalar", f_star)]
    if not _spans_diagonal(expected, gens):
        raise StabilityFailure("scalar extension of the descent misses the superlattice")
    return DescentReport(a, b, delta, m, expected)


# ---------------------------------------------------------------------------
# the filtration-lift census
#
# Lifts of the (f1, f2)-plane of the rank-4 residue fiber to the dual numbers
# (eps^2 = 0) are exactly the graphs
#
#     g_j = f_j + eps*(c_j1 e1 + c_j2 e2),   j = 1, 2,
#
# of the 2x2 matrices c over the residue field.  The order acts by its
# omega-order diagonal; both companion coefficients of the ramified uniformizer
# have positive valuation (the Eisenstein shape), so it induces the
# nilpotent e1 -> e2, f1 -> f2.  Each operator T keeps the e-plane and the
# f-plane; with its blocks T_E and T_F in row convention (row i holds the
# image of basis vector i), T g_j = sum_k T_F[j][k] f_k + eps*(c T_E)[j].
# Clearing the f-coordinates against the g_k leaves eps*(c T_E - T_F c)[j],
# so the graph is stable exactly when c T_E = T_F c: one linear system in
# the four entries of c, and each count is q^(4 - rank) with q = p^2.  By
# Grothendieck-Messing an endomorphism lifts exactly when it keeps the
# lifted filtration.  `tests/test_lattices.py` keeps the graph-membership
# walk as the oracle.


def _census_blocks(p: int):
    """(T_E, T_F) of the order and of the uniformizer, in row convention;
    the order's diagonal is read off `tensor_rank4` mod p."""
    zero = (0, 0)
    diagonal = tensor_rank4(p, 1)._eigenvalues["omega-order"]
    e_block, f_block = (
        tuple(tuple(diagonal[i] if i == j else zero for j in plane) for i in plane)
        for plane in ((0, 1), (2, 3))
    )
    nilpotent = ((zero, (1, 0)), (zero, zero))
    return {"order": (e_block, f_block), "uniformizer": (nilpotent, nilpotent)}


def _commutation_rows(p: int, blocks):
    """The four equations (c T_E - T_F c)[j][k] = 0 as coefficient rows over
    the unknowns (c11, c12, c21, c22)."""
    te, tf = blocks
    zero = (0, 0)
    return [
        [pair_sub(te[b][k] if a == j else zero, tf[j][a] if b == k else zero, p)
         for a in range(2) for b in range(2)]
        for j in range(2) for k in range(2)
    ]


def hodge_lift_census(p: int) -> Dict[str, int]:
    """Counts of filtration-lift graphs under each stability constraint.

    Keys: "all" (every graph, the empty system), "order_stable",
    "uniformizer_stable", "both_stable"; each is q^(4 - rank) of the
    commutation equations of the operators involved (section comment).
    """
    r = nonresidue(p)
    blocks = _census_blocks(p)
    order = _commutation_rows(p, blocks["order"])
    unif = _commutation_rows(p, blocks["uniformizer"])
    systems = dict(all=[], order_stable=order, uniformizer_stable=unif, both_stable=order + unif)
    return {key: p ** (2 * (4 - _rank(p, r, rows))) for key, rows in systems.items()}
