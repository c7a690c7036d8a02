"""Tests for case descriptors and the lifting recursions."""

import copy
import functools
import importlib
import pickle
import pkgutil

import pytest
from hypothesis import given, strategies as st

import endolift
from endolift.errors import Frozen, PrecisionExhausted
from endolift.lattices import descend_superlattice
from endolift.lengths import ChainContext, quotient_length_details
from endolift.series import SeriesContext, TruncSeries, f_series, g_series
from endolift.windows import (
    CaseDescriptor,
    QuasiEndoPair,
    _lift,
    _m_product,
    check_phi_commutation,
    closed_form_vertical_pair,
    gamma_matrix,
    integrality_predicate,
    mat_divide_exact,
    mat_eq,
    mat_frobenius,
    mat_map,
    mat_scale,
    mat_sub,
    one_variable_context,
    recursion_context,
    solve_thickened_recursion,
    solve_vertical_recursion,
    structure_check,
    structure_epsilon_degree,
)
from endolift.witt import WittScalar
from endolift.inventory import component_inventory, conductor, total_proper_intersection

CASES = ["unr", "ram"]


def _vp(n: int, p: int) -> int:
    if n == 0:
        return 10**9
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def mat_from_rows(rows):
    return tuple(tuple(row) for row in rows)


def mat_add(A, B):
    return tuple(tuple(a + b for a, b in zip(ra, rb)) for ra, rb in zip(A, B))


def mat_times(A, s):
    # every entry times the series s
    return mat_map(A, lambda a: a * s)


def _gamma_reference(case, ctx):
    """The undeformed pair, built entry by entry from constant series."""
    p = case.p
    a, b, c, d = case.a, case.b, case.c, case.d
    sig = lambda q: (q[0], -q[1])
    Y = mat_from_rows(
        [
            [TruncSeries.constant(ctx, a), TruncSeries.constant(ctx, (p * b[0], p * b[1]))],
            [TruncSeries.constant(ctx, c), TruncSeries.constant(ctx, d)],
        ]
    )
    Z = mat_from_rows(
        [
            [TruncSeries.constant(ctx, sig(d)), TruncSeries.constant(ctx, (p * c[0], -p * c[1]))],
            [TruncSeries.constant(ctx, sig(b)), TruncSeries.constant(ctx, sig(a))],
        ]
    )
    return QuasiEndoPair(Y, Z, 0)


def _closed_form_reference(case, ctx):
    """The closed form as p times the undeformed pair plus constant
    correction matrices times f, g (plain side) and f', g' (twisted side)."""
    p = case.p
    a, b, c, d = case.a, case.b, case.c, case.d
    sig = lambda q: (q[0], -q[1])
    d_minus_a = (d[0] - a[0], d[1] - a[1])
    k = lambda q: TruncSeries.constant(ctx, q)
    zero = TruncSeries.zero(ctx)
    base = _gamma_reference(case, ctx)
    corr_y_f = mat_from_rows([[k((p * c[0], p * c[1])), k((p * d_minus_a[0], p * d_minus_a[1]))],
                              [zero, k((-p * c[0], -p * c[1]))]])
    corr_y_g = mat_from_rows([[zero, k((p * c[0], p * c[1]))], [zero, zero]])
    sc, sdma = sig(c), sig(d_minus_a)
    corr_z_f = mat_from_rows([[k((-p * sc[0], -p * sc[1])), zero], [k(sdma), k((p * sc[0], p * sc[1]))]])
    corr_z_g = mat_from_rows([[zero, zero], [k(sc), zero]])
    f1, g1, fp, gp = f_series(ctx, 1), g_series(ctx, 1), f_series(ctx, p), g_series(ctx, p)
    Y = mat_add(mat_scale(base.Y, p), mat_sub(mat_times(corr_y_f, f1), mat_times(corr_y_g, g1)))
    Z = mat_add(mat_scale(base.Z, p), mat_sub(mat_times(corr_z_f, fp), mat_times(corr_z_g, gp)))
    return QuasiEndoPair(Y, Z, 1)


def mat_mul(A, B):
    """The generic matrix product, the reference for the written-out
    products by M(x) and its adjugate."""
    n = len(A)
    m = len(B[0])
    inner = len(B)
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = A[i][0] * B[0][j]
            for t in range(1, inner):
                s = s + A[i][t] * B[t][j]
            row.append(s)
        out.append(tuple(row))
    return tuple(out)


def _x(ctx, var):
    # the variable `var` as a series, 0 for None
    return TruncSeries.monomial(ctx, *{"x1": (1, 0), "x2": (0, 1)}[var]) if var else TruncSeries.zero(ctx)


def _m_matrix(ctx, var):
    # M(x) = [[x, p], [1, 0]]
    p = TruncSeries.constant(ctx, ctx.p)
    return mat_from_rows([[_x(ctx, var), p], [TruncSeries.one(ctx), TruncSeries.zero(ctx)]])


def _m_adjoint(ctx, var):
    # the complementary factor: M(x) * M_adj(x) = p * identity
    p = TruncSeries.constant(ctx, ctx.p)
    return mat_from_rows([[TruncSeries.zero(ctx), p], [TruncSeries.one(ctx), -_x(ctx, var)]])


def _commutes_reference(pair, two_variable):
    """Both intertwining identities through the generic product."""
    M1 = _m_matrix(pair.ctx, "x1")
    M2 = _m_matrix(pair.ctx, "x2" if two_variable else None)
    return mat_eq(mat_mul(pair.Y, M1), mat_mul(M1, mat_frobenius(pair.Z))) and mat_eq(
        mat_mul(pair.Z, M2), mat_mul(M2, mat_frobenius(pair.Y))
    )


def _lift_reference(X, var):
    """The lifting step as the generic product M * sigma(X) * adj M."""
    ctx = X[0][0].ctx
    return mat_mul(mat_mul(_m_matrix(ctx, var), mat_frobenius(X)), _m_adjoint(ctx, var))


def _reference_tower(case, k):
    """The depth-k tower through the generic product, at the guarded
    precision (one digit above the declared context), unreduced."""
    ctx = recursion_context(case.p, k)
    work = ctx.weakened(prec=ctx.prec + 1)
    pairs = [closed_form_vertical_pair(case, work)]
    for j in range(k):
        Y = _lift_reference(pairs[j].Z, "x1")
        Z = _lift_reference(pairs[j].Y, "x2")
        if j == 0:
            Y, Z = mat_divide_exact(Y, case.p), mat_divide_exact(Z, case.p)
        pairs.append(QuasiEndoPair(Y, Z, j + 1))
    return pairs


def _draw_edge_matrix(draw, ctx):
    """A 2x2 matrix in an edge context (see `_edge_matrices`) with a term
    twisted onto the corner (hi1, cap2 - 1)."""
    h, c2 = ctx.hi1 // ctx.p, (ctx.cap2 - 1) // ctx.p
    coeff = st.tuples(st.integers(0, ctx.mod - 1), st.integers(0, ctx.mod - 1))
    key = st.tuples(st.integers(-h, h), st.integers(0, c2))
    entries = [dict(draw(st.dictionaries(key, coeff, max_size=4))) for _ in range(4)]
    entries[draw(st.integers(0, 3))][(h, c2)] = draw(coeff.filter(lambda v: v != (0, 0)))
    series = [TruncSeries(ctx, e) for e in entries]
    return mat_from_rows([series[:2], series[2:]])


def _edge_context(draw):
    p = draw(st.sampled_from([3, 5]))
    h = draw(st.integers(1, 2))
    c2 = draw(st.integers(0, 2))
    return SeriesContext(p, draw(st.integers(1, 3)), -p * h, p * h, p * c2 + 1)


@st.composite
def _edge_matrices(draw):
    """A context whose window edges hi1 and cap2 - 1 are images of the
    Frobenius dilation, and a 2x2 matrix with a term twisted onto the
    corner (hi1, cap2 - 1), so that the shifts in the step push terms
    out of the window."""
    return _draw_edge_matrix(draw, _edge_context(draw))


@st.composite
def _edge_pairs(draw):
    """A scaled pair of edge matrices in one context.  One draw in four is
    the pair (c * identity, c * identity) for an integer c, which the twist
    fixes, so both identities hold and the check answers True."""
    ctx = _edge_context(draw)
    if draw(st.integers(0, 3)) == 0:
        c = draw(st.integers(0, ctx.mod - 1))
        I = mat_from_rows([[TruncSeries.constant(ctx, c), TruncSeries.zero(ctx)],
                           [TruncSeries.zero(ctx), TruncSeries.constant(ctx, c)]])
        return QuasiEndoPair(I, I, 0)
    return QuasiEndoPair(_draw_edge_matrix(draw, ctx), _draw_edge_matrix(draw, ctx), draw(st.integers(0, 2)))


@functools.lru_cache(maxsize=None)
def _tower_pair(lab, p, k):
    """The top pair of the depth-k tower (k >= 1) or the one-variable
    solution (k = 0)."""
    case = CaseDescriptor.from_label(lab, p)
    if k == 0:
        return solve_vertical_recursion(case, one_variable_context(p)).pair
    return solve_thickened_recursion(case, k).pairs[k]


class TestLiftStep:
    @given(_edge_matrices(), st.sampled_from(["x1", "x2", None]))
    def test_step_matches_the_generic_product(self, X, var):
        assert mat_eq(_lift(X, var), _lift_reference(X, var))

    @given(_edge_matrices(), st.sampled_from(["x1", "x2", None]))
    def test_m_products_match_the_generic_product(self, X, var):
        ctx = X[0][0].ctx
        M, adj = _m_matrix(ctx, var), _m_adjoint(ctx, var)
        assert mat_eq(_m_product(X, var, "left"), mat_mul(M, X))
        assert mat_eq(_m_product(X, var, "right"), mat_mul(X, M))
        assert mat_eq(_m_product(X, var, "adj"), mat_mul(X, adj))

    @pytest.mark.parametrize("lab", CASES)
    @pytest.mark.parametrize("p, kmax", [(3, 3), (5, 2)])
    def test_tower_matches_the_generic_product(self, lab, p, kmax):
        case = CaseDescriptor.from_label(lab, p)
        for k in range(1, kmax + 1):
            sol = solve_thickened_recursion(case, k)
            ref = [q.with_context(sol.ctx) for q in _reference_tower(case, k)]
            assert list(sol.pairs) == ref


class TestCaseDescriptor:
    def test_labels_roundtrip(self):
        for lab in CASES:
            for p in (3, 5, 7):
                assert CaseDescriptor.from_label(lab, p).ramified == (lab == "ram")

    def test_unknown_label(self):
        with pytest.raises(ValueError):
            CaseDescriptor.from_label("split", 3)

    # a case has one spelling, "unr" or "ram": the long names are refused too
    @pytest.mark.parametrize("label", ["split", "", "UNR", "inertial", None, "unramified", "inert", "ramified"])
    def test_both_label_routes_reject_the_same_labels(self, label):
        with pytest.raises(ValueError):
            CaseDescriptor.from_label(label, 3)
        with pytest.raises(ValueError):
            total_proper_intersection(label, 3, 1)

    # a scalar is zero exactly when its valuation reaches the precision
    def test_trace_is_param_sum(self):
        for lab in CASES:
            c = CaseDescriptor.from_label(lab, 3).with_gamma(2, 3)
            a, b, cc, d = c.param_scalars(6)
            tr, _ = c.gamma_trace_norm(2, 3)
            assert (a - (WittScalar(3, 6, tr) - d)).valuation() == 6

    def test_unramified_determinant_is_norm(self):
        c = CaseDescriptor.from_label("unr", 5).with_gamma(1, 2)
        a, b, cc, d = c.param_scalars(6)
        _, nm = c.gamma_trace_norm(1, 2)
        assert (a * d - b * cc - WittScalar(5, 6, nm)).valuation() == 6

    @given(
        st.sampled_from(CASES),
        st.sampled_from([3, 5]),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    def test_conductor_is_cofactor_valuation(self, lab, p, s, t):
        if t == 0 or _vp(t, p) >= 3:
            return
        c = CaseDescriptor.from_label(lab, p)
        tr, nm = c.gamma_trace_norm(s, t)
        assert conductor(tr, nm, lab, p) == _vp(t, p)


def _identity_pair(denom_exp):
    ctx = SeriesContext(3, 2, -1, 1, 1)
    one, zero = TruncSeries.one(ctx), TruncSeries.zero(ctx)
    return QuasiEndoPair(((one, zero), (zero, one)), ((one, zero), (zero, one)), denom_exp)


def _tower(label):
    return solve_thickened_recursion(CaseDescriptor.from_label(label, 3), 1)


def _vertical(label):
    return solve_vertical_recursion(CaseDescriptor.from_label(label, 3), one_variable_context(3))


# each value class, one of its fields, and builders of an equal value and of
# a different one
VALUE_CLASSES = {
    "SeriesContext": ("cap2", lambda: SeriesContext(3, 4, -9, 9, 3), lambda: SeriesContext(3, 4, -9, 9, 2)),
    "ChainContext": ("modulus", lambda: ChainContext(3, 4, -12, 12), lambda: ChainContext(3, 5, -12, 12)),
    "CaseDescriptor": ("ramified", lambda: CaseDescriptor.from_label("unr", 3),
                       lambda: CaseDescriptor.from_label("ram", 3)),
    "QuasiEndoPair": ("denom_exp", lambda: _identity_pair(0), lambda: _identity_pair(1)),
    "VerticalSolution": ("pair", lambda: _vertical("unr"), lambda: _vertical("ram")),
    "ThickenedSolution": ("alpha", lambda: _tower("unr"), lambda: _tower("ram")),
    "StructureReport": ("case", lambda: structure_check(_tower("unr")), lambda: structure_check(_tower("ram"))),
    "StructureClause": ("name", lambda: structure_check(_tower("unr")).clauses[0],
                        lambda: structure_check(_tower("unr")).clauses[1]),
    "LengthReport": ("case", lambda: quotient_length_details(CaseDescriptor.from_label("unr", 3), 1),
                     lambda: quotient_length_details(CaseDescriptor.from_label("ram", 3), 1)),
    "ComponentInventory": ("c0", lambda: component_inventory("unr", 3, 1), lambda: component_inventory("unr", 3, 2)),
    "ComponentRecord": ("kind", lambda: component_inventory("unr", 3, 1).records[0],
                        lambda: component_inventory("unr", 3, 1).records[-1]),
    "DescentReport": ("span", lambda: descend_superlattice(0, 0, 0, 3), lambda: descend_superlattice(1, 0, 0, 3)),
}


def _package_value_classes():
    for module in pkgutil.iter_modules(endolift.__path__):
        importlib.import_module(f"endolift.{module.name}")
    found, todo = set(), [Frozen]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("endolift."):
                found.add(cls.__name__)
    return found


def test_every_value_class_is_checked():
    # a new Frozen subclass in the package joins VALUE_CLASSES, or this fails
    assert set(VALUE_CLASSES) == _package_value_classes()


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_classes_compare_by_value_and_refuse_assignment(name):
    # values are compared and hashed by their fields, and a context checks
    # series against series; none may change under a caller
    field, make, make_other = VALUE_CLASSES[name]
    a, b, other = make(), make(), make_other()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != other and len({a, b, other}) == 2 and a != name
    for change in (lambda: setattr(a, field, getattr(other, field)), lambda: setattr(a, "extra", 1),
                   lambda: delattr(a, field)):
        with pytest.raises(AttributeError):
            change()
    assert a == b != other
    assert copy.deepcopy(a) == pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", sorted(VALUE_CLASSES))
def test_value_classes_refuse_a_wrong_count_of_values(name):
    a = VALUE_CLASSES[name][1]()
    values = [getattr(a, slot) for slot in a.__slots__]
    for wrong in ([], values[:1], values + [None]):
        with pytest.raises(TypeError, match=rf"\b{name}\b"):
            type(a)(*wrong)


class TestIntegralityPredicate:
    @given(
        st.sampled_from(CASES),
        st.sampled_from([3, 5]),
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=-40, max_value=40),
    )
    def test_predicate_detects_positive_conductor(self, lab, p, s, t):
        if t == 0 or _vp(t, p) >= 3:
            return
        case = CaseDescriptor.from_label(lab, p).with_gamma(s, t)
        got = integrality_predicate(*case.param_scalars(8))
        assert got == (_vp(t, p) > 0)

    def test_known_examples(self):
        c = CaseDescriptor.from_label("unr", 3)
        assert not integrality_predicate(*c.with_gamma(2, 1).param_scalars(8))
        assert integrality_predicate(*c.with_gamma(2, 3).param_scalars(8))

    def test_precision_zero_is_refused(self):
        # at precision 0 every scalar is 0, and "not integral" would be a guess
        case = CaseDescriptor.from_label("unr", 3).with_gamma(2, 3)
        with pytest.raises(PrecisionExhausted, match="precision at least 1"):
            integrality_predicate(*case.param_scalars(0))
        assert integrality_predicate(*case.param_scalars(1))
        assert integrality_predicate(*case.param_scalars(8))


class TestVerticalRecursion:
    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("lab", CASES)
    def test_fixed_point_matches_closed_form(self, lab, p):
        case = CaseDescriptor.from_label(lab, p)
        vert = solve_vertical_recursion(case, one_variable_context(p))
        assert vert.stabilized
        closed = closed_form_vertical_pair(case, one_variable_context(p))
        assert vert.pair == closed.normalized()

    @pytest.mark.parametrize("lab", CASES)
    def test_closed_form_reduces_to_undeformed_pair(self, lab):
        case = CaseDescriptor.from_label(lab, 3).with_gamma(2, 3)
        ctx = one_variable_context(3)
        closed = closed_form_vertical_pair(case, ctx)
        base = gamma_matrix(case, ctx)
        at_zero = lambda M: mat_map(M, lambda s: s.substitute_x1_zero())
        # stored matrices carry one factor of p
        assert mat_eq(at_zero(closed.Y), mat_scale(base.Y, 3))
        assert mat_eq(at_zero(closed.Z), mat_scale(base.Z, 3))

    def test_one_variable_commutation(self):
        case = CaseDescriptor.from_label("unr", 3)
        vert = solve_vertical_recursion(case, one_variable_context(3))
        assert check_phi_commutation(vert.pair, two_variable=False)

    @given(_edge_pairs(), st.booleans())
    def test_commutation_matches_the_generic_product(self, pair, two_variable):
        assert check_phi_commutation(pair, two_variable=two_variable) == _commutes_reference(pair, two_variable)

    @given(
        st.sampled_from([("unr", 3, 0), ("ram", 5, 0), ("unr", 3, 1), ("ram", 3, 2), ("unr", 5, 1)]),
        st.sampled_from("YZ"),
        st.integers(0, 1),
        st.integers(0, 1),
        st.integers(-9, 9),
        st.integers(0, 2),
        st.sampled_from([(1, 0), (0, 1), (2, 7)]),
    )
    def test_commutation_rejects_perturbed_tower_pairs(self, cell, side, i, j, m1, m2, unit):
        # a unit monomial added to one entry breaks an identity: Y * M(x)
        # carries every entry of Y unshifted or times p, and so does Z * M(x)
        lab, p, k = cell
        pair = _tower_pair(lab, p, k)
        two_variable = k > 0
        assert check_phi_commutation(pair, two_variable=two_variable)
        ctx = pair.ctx
        bump = TruncSeries.monomial(ctx, m1, m2 if two_variable else 0, unit)
        rows = [list(row) for row in getattr(pair, side)]
        rows[i][j] = rows[i][j] + bump
        Y, Z = (mat_from_rows(rows), pair.Z) if side == "Y" else (pair.Y, mat_from_rows(rows))
        bumped = QuasiEndoPair(Y, Z, pair.denom_exp)
        assert not check_phi_commutation(bumped, two_variable=two_variable)
        assert not _commutes_reference(bumped, two_variable)

    def test_commutation_rejects_perturbed_pair(self):
        case = CaseDescriptor.from_label("unr", 3)
        vert = solve_vertical_recursion(case, one_variable_context(3))
        ctx = vert.pair.ctx
        bump = TruncSeries.one(ctx)
        Y = vert.pair.Y
        Y2 = mat_from_rows([[Y[0][0] + bump, Y[0][1]], [Y[1][0], Y[1][1]]])
        assert not check_phi_commutation(
            QuasiEndoPair(Y2, vert.pair.Z, vert.pair.denom_exp), two_variable=False
        )


    @pytest.mark.parametrize("lab", CASES)
    def test_precision_zero_certifies_nothing(self, lab):
        # every pair is the zero pair there, which would read as a fixed point at depth 0
        case = CaseDescriptor.from_label(lab, 3)
        with pytest.raises(PrecisionExhausted):
            solve_vertical_recursion(case, one_variable_context(3, prec=0))


_PARAM = st.tuples(st.integers(-50, 50), st.integers(-50, 50))


class TestClosedFormByEntries:
    """The entrywise closed form and undeformed pair against the constant
    correction matrices, on arbitrary parameters: the labelled cases have
    b = c = 0 (unr) or a = d = 0 (ram), so they leave most entries at 0."""

    @given(st.sampled_from([3, 5, 7]), st.booleans(), _PARAM, _PARAM, _PARAM, _PARAM, st.integers(1, 4))
    def test_matches_the_correction_matrices(self, p, ramified, a, b, c, d, prec):
        case = CaseDescriptor(p, ramified, a, b, c, d)
        ctx = one_variable_context(p, prec=prec)
        assert gamma_matrix(case, ctx) == _gamma_reference(case, ctx)
        assert closed_form_vertical_pair(case, ctx) == _closed_form_reference(case, ctx)

    def test_context_prime_must_match(self):
        case = CaseDescriptor.from_label("unr", 3)
        for build in (gamma_matrix, closed_form_vertical_pair):
            with pytest.raises(ValueError, match="context prime"):
                build(case, one_variable_context(5))


class TestThickenedTower:
    @pytest.mark.parametrize("lab", CASES)
    def test_level_zero_is_the_closed_form(self, lab):
        case = CaseDescriptor.from_label(lab, 3)
        ctx = recursion_context(3, 1)
        sol = solve_thickened_recursion(case, 1, ctx)
        closed = closed_form_vertical_pair(case, ctx.weakened(prec=ctx.prec + 1)).with_context(ctx)
        assert sol.pairs[0] == closed

    @pytest.mark.parametrize("lab", CASES)
    @pytest.mark.parametrize("p", [3, 5])
    def test_two_variable_commutation(self, lab, p):
        # the intertwining identities are a fixed-point property, so they
        # hold for the top pair of each tower (lower pairs are intermediate)
        case = CaseDescriptor.from_label(lab, p)
        for k in (1, 2):
            sol = solve_thickened_recursion(case, k)
            assert check_phi_commutation(sol.pairs[k], two_variable=True)

    @pytest.mark.parametrize("lab", CASES)
    def test_reduction_compatibility(self, lab):
        case = CaseDescriptor.from_label(lab, 3)
        deep = solve_thickened_recursion(case, 2, recursion_context(3, 2))
        ctx1 = recursion_context(3, 1)
        shallow = solve_thickened_recursion(case, 1, ctx1)
        red = deep.pairs[1].with_context(ctx1)
        assert mat_eq(red.Y, shallow.pairs[1].Y)
        assert mat_eq(red.Z, shallow.pairs[1].Z)

    def test_depth_must_be_positive(self):
        with pytest.raises(ValueError):
            solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 0)

    def test_increment_lookup(self):
        # derived from the reduced pairs, the increment equals the difference
        # taken at the guarded precision and reduced afterwards
        k = 2
        for lab in CASES:
            case = CaseDescriptor.from_label(lab, 3)
            sol = solve_thickened_recursion(case, k)
            guarded = _reference_tower(case, k)
            for level in range(1, k + 1):
                scale = 1 if level == 1 else 3
                for side in ("y", "z"):
                    hi, lo = (getattr(guarded[j], side.upper()) for j in (level, level - 1))
                    want = mat_map(mat_sub(hi, mat_scale(lo, scale)), lambda a: a.with_context(sol.ctx))
                    assert mat_eq(sol.increment(side, level), want)
            for side, level in (("y", 0), ("z", k + 1), ("q", 1)):
                with pytest.raises(ValueError):
                    sol.increment(side, level)

    def test_alpha_beta_are_corner_series(self):
        sol = solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 1)
        assert sol.alpha.coeffs == sol.pairs[1].Y[0][1].coeffs
        assert sol.beta.coeffs == sol.pairs[1].Z[0][1].coeffs

    def test_known_leading_corner_coefficient(self):
        # at depth 1 the plain corner's x2-linear coefficient is -2p*w
        sol = solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 1)
        assert sol.beta.coeffs[(0, 1)] == (0, -6 % sol.ctx.mod)


class TestStructureReport:
    @pytest.mark.parametrize("lab", CASES)
    @pytest.mark.parametrize("p", [3, 5])
    def test_structure_clauses_hold(self, lab, p):
        sol = solve_thickened_recursion(CaseDescriptor.from_label(lab, p), 2)
        report = structure_check(sol, raise_on_failure=False)
        assert report.ok, [c for c in report.clauses if not c.ok]
        assert report.clauses  # nonempty

    def test_epsilon_degrees(self):
        # level 1 collects the even twist-orbits below it, level 2 the odd
        assert structure_epsilon_degree(3, 1) == 2
        assert structure_epsilon_degree(3, 2) == 6
        assert structure_epsilon_degree(3, 3) == 2 + 18
        assert structure_epsilon_degree(5, 2) == 10

    def test_clause_failure_detail(self):
        sol = solve_thickened_recursion(CaseDescriptor.from_label("unr", 3), 1)
        report = structure_check(sol, raise_on_failure=False)
        names = [c.name for c in report.clauses]
        assert len(names) == len(set(names))
