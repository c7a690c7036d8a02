"""Tests for semilinear modules, stable lattices, and the lift census."""

import copy
import pickle
from functools import lru_cache
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from endolift import lattices
from endolift.errors import (
    ConsistencyFailure,
    PrecisionTooLow,
    ShapeViolation,
    StabilityFailure,
)
from endolift.lattices import (
    DescentReport,
    LatticeHNF,
    SemilinearModule,
    classify_superlattice,
    descend_superlattice,
    enumerate_stable_sublattices,
    enumerate_stable_superlattices,
    hodge_lift_census,
    lie_action_parity,
    operator_sanity,
    ramified_rank2,
    standard_rank2,
    superlattice_family,
    tensor_rank4,
)
from endolift.witt import WittScalar
from lattice_reference import hermite_form
from witt_reference import QuadraticRing


def subspace_count(p: int, dim: int) -> int:
    """Number of subspaces of the given dimension in the rank-4 residue
    space: the Gaussian binomial over the quadratic residue field, which an
    exhaustive walk of the reduced row bases must reach."""
    q = p * p
    num = den = 1
    for i in range(dim):
        num *= q ** (4 - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def _vec(*ints):
    return tuple((n, 0) for n in ints)


def _anti_normalized_rank2(p):
    """`standard_rank2` with the omega action reversed: minus omega on e0,
    omega on f0."""
    base = standard_rank2(p)
    zero = (0, 0)
    eta = (((0, -1), zero), (zero, (0, 1)))
    return SemilinearModule(p, base.prec, 2, base.F, {"omega": eta}, "rank2-anti-normalized")


@lru_cache(maxsize=None)
def _ring(p, prec):
    return QuadraticRing(p, prec)


def _module_ring(module):
    """The reference ring of a module's scalars."""
    return _ring(module.p, module.prec)


def _times(ring, c, vector):
    return tuple(ring.mul(c, x) for x in vector)


def _operator(module, name):
    """(matrix, twist) of a module operator, as stated in its constructor."""
    return (module.F, 1) if name == "F" else (module.actions[name], 0)


class TestSemilinearModules:
    @pytest.mark.parametrize("p", [3, 5])
    def test_operator_sanity(self, p):
        operator_sanity(standard_rank2(p))
        operator_sanity(_anti_normalized_rank2(p))
        operator_sanity(ramified_rank2(p))
        operator_sanity(tensor_rank4(p))

    def test_sanity_rejects_corrupted_operators(self):
        module = standard_rank2(3)
        one = (1, 0)
        broken = SemilinearModule(
            module.p,
            module.prec,
            module.rank,
            ((one, one), (one, one)),  # F F is no longer p
            module.actions,
            module.label,
        )
        with pytest.raises(ConsistencyFailure):
            operator_sanity(broken)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    def test_fv_is_multiplication_by_p(self, x, y, c):
        # V = F (module docstring), so FV = p reads F F = p
        module = standard_rank2(3)
        v = _vec(x, y)
        ffv = module.apply("F", module.apply("F", v))
        assert ffv == _times(_module_ring(module), (3, 0), v)

    @given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
    def test_frobenius_is_sigma_semilinear(self, x, y, c, d):
        # F(c v) = sigma(c) F(v) for every scalar c, omega among them
        module = standard_rank2(3)
        ring = _module_ring(module)
        scalar = (c, d)
        v = ((x, y), (y, x))
        cv = _times(ring, scalar, v)
        assert module.apply("F", cv) == _times(ring, ring.sigma(scalar), module.apply("F", v))

    def test_frobenius_twists_omega(self):
        # F e0 = f0 twisted: (w, 0) goes to (0, -w), not to the linear image (0, w)
        module = standard_rank2(3)
        assert module.apply("F", ((0, 1), (0, 0))) == ((0, 0), (0, 3**8 - 1))

    def test_linear_actions_commute_with_scalars(self):
        module = tensor_rank4(3)
        ring = _module_ring(module)
        w = (0, 1)
        v = _vec(1, 2, 3, 4)
        wv = _times(ring, w, v)
        for name in module.actions:
            assert module.apply(name, wv) == _times(ring, w, module.apply(name, v))

    def test_rank4_action_labels(self):
        module = tensor_rank4(3)
        assert set(module.actions) == {"omega-order", "omega-scalar"}

    def test_operators_are_the_actions_then_f(self):
        assert list(standard_rank2(3)._ops) == ["omega", "F"]
        assert list(ramified_rank2(3)._ops) == ["uniformizer", "F"]
        assert list(tensor_rank4(3)._ops) == ["omega-order", "omega-scalar", "F"]

    def test_a_diagonal_lattice_faces_only_the_open_operators(self):
        # the untwisted diagonal actions are marked once, with their
        # diagonals; F, which is twisted, and the uniformizer, which is not
        # diagonal, stay open
        for build, diagonal, open_ops in [(standard_rank2, ["omega"], ["F"]),
                                          (ramified_rank2, [], ["uniformizer", "F"]),
                                          (tensor_rank4, ["omega-order", "omega-scalar"], ["F"])]:
            module = build(3)
            assert list(module._eigenvalues) == diagonal
            assert module._open_ops == tuple(module._ops[name] for name in open_ops)
        w, minus_w = (0, 1), (0, 3**10 - 1)
        assert tensor_rank4(3)._eigenvalues["omega-order"] == (w, w, minus_w, minus_w)


class TestSharedModules:
    """Each constructor builds one read-only module per (p, prec) and hands
    it to every caller."""

    @pytest.mark.parametrize("build, default", [(standard_rank2, 8), (ramified_rank2, 8), (tensor_rank4, 10)])
    def test_equal_arguments_return_the_same_module(self, build, default):
        module = build(3)
        assert build(3) is module
        assert build(3, default) is module
        assert build(3, prec=default) is module
        assert build(3, default + 1) is not module
        assert build(5) is not module

    def test_a_module_is_read_only(self):
        module = tensor_rank4(3)
        with pytest.raises(AttributeError, match="read-only"):
            module.prec = 4
        with pytest.raises(AttributeError, match="read-only"):
            module.extra = 1
        with pytest.raises(AttributeError, match="read-only"):
            del module.F
        with pytest.raises(TypeError):
            module.actions["omega-order"] = module.F
        with pytest.raises(TypeError):
            module.actions["x"] = module.F
        assert module.prec == 10
        assert set(module.actions) == {"omega-order", "omega-scalar"}

    @pytest.mark.parametrize("bad", [8.0, "8"])
    def test_a_non_integer_p_or_prec_is_refused(self, bad):
        # 8.0 hashes as 8: refused before the lookup, not answered with the
        # prec-8 module (whose modulus would otherwise be the float 6561.0)
        tensor_rank4(3, 8)
        for build in (standard_rank2, ramified_rank2, tensor_rank4):
            for args in ((3, bad), (bad, 8)):
                with pytest.raises(TypeError):
                    build(*args)
        base = standard_rank2(3)
        with pytest.raises(TypeError):
            SemilinearModule(3, bad, 2, base.F, base.actions, "rank2-bad-prec")

    def test_a_descent_sweep_builds_each_module_once(self, monkeypatch):
        built = []
        init = SemilinearModule.__init__

        def counted(self, p, prec, rank, F, actions, label):
            built.append((label, p, prec))
            init(self, p, prec, rank, F, actions, label)

        monkeypatch.setattr(SemilinearModule, "__init__", counted)
        tensor_rank4.cache_clear()
        triples = [(a, b, d) for d in (0, 1) for a in range(4) for b in range(4) if a + b + d <= 3]
        for p in (3, 5):
            for a, b, d in triples:
                descend_superlattice(a, b, d, p)
        assert len(built) == len(set(built)) < 2 * len(triples)
        assert {label for label, _p, _prec in built} == {"rank4-tensor"}


class TestHermiteForm:
    def test_idempotent(self):
        # at rank 4, reduced above the last pivot first, (0, 1) above (3, 0)
        # came out as (0, 3^10 - 1) once the reduction above the third pivot
        # undid it
        rank4 = [
            [(1, 0), (0, 0), (1, 0), (0, 0)], [(0, 1), (1, 0), (0, 0), (0, 0)],
            [(0, 0), (0, 0), (1, 0), (0, 1)], [(0, 0), (0, 0), (0, 0), (3, 0)],
        ]
        for module, rows in ((standard_rank2(3), [_vec(3, 5), _vec(0, 9)]), (tensor_rank4(3), rank4)):
            lat = hermite_form(module, rows)
            assert _is_canonical(module, lat.pair_rows)
            assert hermite_form(module, lat.pair_rows, lat.scale).pair_rows == lat.pair_rows

    def test_a_lattice_has_one_basis(self):
        # (2, 0) is a unit: these rows span the standard lattice, and are
        # refused as its basis rather than compared unequal to the identity
        module = standard_rank2(3)
        one, two, zero = (1, 0), (2, 0), (0, 0)
        with pytest.raises(ValueError, match="pivot of row 0 is not a power of p"):
            LatticeHNF(module, [(two, zero), (zero, one)])
        assert hermite_form(module, [(two, zero), (zero, one)]) == LatticeHNF(module, [(one, zero), (zero, one)])

    def test_rows_the_precision_cannot_tell_apart_are_refused(self):
        # at prec 8, 81 times the first row is (0, 81), which the second row
        # (0, 243) does not reach: the truncated span also has the basis
        # with exponents (4, 4), so these rows do not state their lattice
        module = standard_rank2(3)
        zero = (0, 0)
        with pytest.raises(PrecisionTooLow, match=r"p\^4 times row 0"):
            LatticeHNF(module, [((81, 0), (1, 0)), (zero, (243, 0))])
        for rows in ([((81, 0), (1, 0)), (zero, (81, 0))], [((81, 0), zero), (zero, (243, 0))]):
            lat = LatticeHNF(module, rows)
            assert _fits_reference(module, lat.pair_rows)
            assert hermite_form(module, rows) == lat

    def test_hermite_form_refuses_rows_the_precision_cannot_tell_apart(self):
        # the same rows through the elimination, which builds its lattice
        # without the constructor's form checks but keeps the span check
        with pytest.raises(PrecisionTooLow, match=r"p\^4 times row 0"):
            hermite_form(standard_rank2(3), [((81, 0), (1, 0)), ((0, 0), (243, 0))])

    def test_contains_its_rows_and_multiples(self):
        module = standard_rank2(3)
        lat = hermite_form(module, [_vec(9, 1), _vec(0, 27)])
        for row in lat.pair_rows:
            assert _contains(lat, row)
            assert _contains(lat, tuple((7 * a, 7 * b) for a, b in row))
        combo = tuple((a + c, b + d) for (a, b), (c, d) in zip(*lat.pair_rows))
        assert _contains(lat, combo)

    def test_contains_rejects_outside_vectors(self):
        module = standard_rank2(3)
        lat = hermite_form(module, [_vec(3, 0), _vec(0, 3)])
        assert not _contains(lat, _vec(1, 0))
        assert not _contains(lat, _vec(0, 1))

    def test_pivot_and_index_exponents(self):
        module = standard_rank2(3)
        lat = hermite_form(module, [_vec(3, 1), _vec(0, 9)])
        assert lat.pivot_exponents() == (1, 2)
        assert lat.index_exponent() == 3
        assert not lat.is_diagonal()

    def test_scale_shifts_index(self):
        module = standard_rank2(3)
        # the same integral rows viewed at scale 1 (rows are p^-1 times these)
        lat = hermite_form(module, [_vec(3, 0), _vec(0, 3)], scale=1)
        assert lat.index_exponent() == 0

    @pytest.mark.parametrize("change", [
        lambda lat: setattr(lat, "scale", 7),
        lambda lat: setattr(lat, "pair_rows", lat.pair_rows[::-1]),
        lambda lat: setattr(lat, "_diagonal", False),
        lambda lat: setattr(lat, "extra", 1),
        lambda lat: delattr(lat, "scale"),
        lambda lat: delattr(lat, "_steps"),
    ], ids=["scale", "pair_rows", "diagonal-flag", "new-name", "del-scale", "del-steps"])
    def test_a_lattice_cannot_change_once_hashed(self, change):
        # a lattice compares and hashes by its rows and scale, and the
        # stability check trusts its diagonal flag
        lat = enumerate_stable_superlattices(tensor_rank4(3), 1, 1)[0]
        key, digest = lat.sort_key(), hash(lat)
        with pytest.raises(AttributeError):
            change(lat)
        assert (lat.sort_key(), hash(lat), lat.scale, lat.is_diagonal()) == (key, digest, 1, True)

    @pytest.mark.parametrize("copy_of", [copy.copy, copy.deepcopy, lambda lat: pickle.loads(pickle.dumps(lat))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_a_copied_lattice_is_an_equal_lattice(self, copy_of):
        module = tensor_rank4(3)
        for lat in [*enumerate_stable_superlattices(module, 1, 2),
                    hermite_form(module, [_vec(3, 1, 0, 2), _vec(0, 9, 1, 0), _vec(0, 0, 3, 0), _vec(0, 0, 0, 1)])]:
            twin = copy_of(lat)
            assert twin == lat and hash(twin) == hash(lat)
            assert (twin.scale, twin.pair_rows, twin.pivot_exponents()) == (lat.scale, lat.pair_rows, lat.pivot_exponents())
            assert twin.is_diagonal() == lat.is_diagonal()
            assert lattices._stable_under_all(twin.module, twin) == lattices._stable_under_all(module, lat)
            with pytest.raises(AttributeError):
                twin.scale = 0


class TestStableSublattices:
    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_unique_per_index(self, k):
        module = standard_rank2(3)
        found = enumerate_stable_sublattices(module, k)
        assert len(found) == 1
        lat = found[0]
        assert lat.pivot_exponents() == ((k + 1) // 2, k // 2)
        assert lat.is_diagonal()
        assert lat.index_exponent() == k

    def test_unique_per_index_at_five_up_to_six(self):
        module = standard_rank2(5)
        for k in range(7):
            found = enumerate_stable_sublattices(module, k)
            assert len(found) == 1
            assert found[0].pivot_exponents() == ((k + 1) // 2, k // 2)

    def test_parity_alternates(self):
        module = standard_rank2(3)
        parities = [
            lie_action_parity(enumerate_stable_sublattices(module, k)[0])
            for k in range(4)
        ]
        assert parities == ["psi", "psi-bar", "psi", "psi-bar"]

    def test_precision_guard(self):
        module = standard_rank2(3, prec=3)
        with pytest.raises(PrecisionTooLow):
            enumerate_stable_sublattices(module, 4)

    def test_parity_validation(self):
        module = standard_rank2(3)
        bad = hermite_form(module, [_vec(9, 0), _vec(0, 1)])
        with pytest.raises(ShapeViolation):
            lie_action_parity(bad)
        nondiag = hermite_form(module, [_vec(3, 1), _vec(0, 3)])
        with pytest.raises(ValueError):
            lie_action_parity(nondiag)


class TestSuperlattices:
    def test_family_lists(self):
        assert superlattice_family(1, 1) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        assert superlattice_family(2, 1) == [(1, 1, 0)]
        assert sorted(superlattice_family(2, 2)) == [
            (0, 1, 1),
            (0, 2, 0),
            (1, 0, 1),
            (1, 1, 0),
            (2, 0, 0),
        ]

    def test_subspace_counts(self):
        assert subspace_count(3, 1) == 820
        assert subspace_count(3, 2) == 7462

    @pytest.mark.parametrize("dim", [1, 2])
    def test_exhaustive_walk_reaches_every_subspace(self, dim):
        field = _ring(3, 1)
        assert sum(1 for _ in _exhaustive_subspaces(field, dim)) == subspace_count(3, dim)

    def test_exhaustive_one_step_window(self):
        module = tensor_rank4(3)
        found = enumerate_stable_superlattices(module, 1, 1)
        assert [classify_superlattice(lat) for lat in found] == superlattice_family(1, 1)
        for lat in found:
            assert lat.index_exponent() == -2

    def test_deep_window_diagonal_family(self):
        module = tensor_rank4(3)
        found = enumerate_stable_superlattices(module, 2, 2)
        assert [classify_superlattice(lat) for lat in found] == superlattice_family(2, 2)

    def test_s_zero_is_the_full_lattice(self):
        # s = 0 returns before the residue characters are read, so a module
        # whose lines share one gets the standard lattice too
        for module in (tensor_rank4(3), _rank4_without_order(3)):
            for m in (1, 2):
                rows = [_vec(*(module.p**m * (i == j) for j in range(4))) for i in range(4)]
                standard = LatticeHNF(module, rows, m)
                assert enumerate_stable_superlattices(module, 0, m) == [standard]
                assert standard.index_exponent() == 0

    def test_classify_rejects_off_family_shapes(self):
        module = tensor_rank4(3)
        rows = [
            _vec(1, 0, 0, 0),
            _vec(0, 3, 0, 0),
            _vec(0, 0, 1, 0),
            _vec(0, 0, 0, 1),
        ]
        lat = hermite_form(module, rows)
        with pytest.raises(ShapeViolation):
            classify_superlattice(lat)

    def test_precision_guard(self):
        module = tensor_rank4(3, prec=4)
        with pytest.raises(PrecisionTooLow):
            enumerate_stable_superlattices(module, 2, 2)


class TestDescent:
    @pytest.mark.parametrize("p", [3, 5])
    def test_family_descends_stably(self, p):
        for delta in (0, 1):
            for a in range(0, 2):
                for b in range(0, 2):
                    if a + b + delta > 2:
                        continue
                    report = descend_superlattice(a, b, delta, p)
                    assert isinstance(report, DescentReport)
                    assert (report.a, report.b, report.delta) == (a, b, delta)

    def test_validation(self):
        with pytest.raises(ValueError):
            descend_superlattice(0, 0, 2, 3)
        with pytest.raises(ValueError):
            descend_superlattice(-1, 0, 0, 3)

    @pytest.mark.parametrize("corrupt, message", [
        ("F", "not operator-stable"),
        ("omega-order", "order action"),
        ("omega-scalar", "misses the superlattice"),
        ("omega-scalar-off-diagonal", "misses the superlattice"),
    ])
    def test_corrupted_module_fails_the_descent(self, corrupt, message, monkeypatch):
        real = tensor_rank4

        def corrupted(p, prec):
            module = real(p, prec)
            F, actions = module.F, dict(module.actions)
            eta = [list(row) for row in actions["omega-scalar"]]
            if corrupt == "F":
                F = tuple(tuple((2 * a, 2 * b) for a, b in row) for row in F)
            elif corrupt == "omega-order":
                actions[corrupt] = actions["omega-scalar"]
            elif corrupt == "omega-scalar":
                # inside the lattice, but p times too small on the translates:
                # their residue rank is 2
                actions[corrupt] = tuple(tuple((p * a, p * b) for a, b in row) for row in eta)
            else:
                # e1 -> ... + e2: the translate of e* = e1 + p e2 gets a unit
                # e2-coordinate, off the family lattice's pivot p
                eta[1][0] = (1, 0)
                actions["omega-scalar"] = tuple(map(tuple, eta))
            return SemilinearModule(p, prec, 4, F, actions, module.label)

        monkeypatch.setattr(lattices, "tensor_rank4", corrupted)
        with pytest.raises(StabilityFailure, match=message):
            descend_superlattice(1, 0, 0, 3)

    def test_span_is_the_hermite_form_of_the_translates(self):
        # every benchmark frame, the selfcheck's nine among them (p = 3, a + b + delta <= 2)
        for report in _descents():
            span = report.span
            module = span.module
            e_star = tuple(row[i] if i < 2 else (0, 0) for i, row in enumerate(span.pair_rows))
            f_star = tuple(row[i] if i >= 2 else (0, 0) for i, row in enumerate(span.pair_rows))
            gens = [e_star, f_star, module.apply("omega-scalar", e_star), module.apply("omega-scalar", f_star)]
            assert hermite_form(module, gens, report.scale) == span

    @pytest.mark.parametrize("p", [3, 5, 7])
    @given(data=st.data())
    def test_span_proof_matches_the_hermite_reference(self, p, data):
        """The proof accepts four vectors exactly when their Hermite form is
        the family lattice: drawn coefficients over its basis, some with a
        singular residue, some with a coordinate off its pivot."""
        a, b, delta = data.draw(st.sampled_from(DESCENT_FRAMES))
        m = max(a, b, b + delta, a + delta)
        module = tensor_rank4(p, 2 * (a + b + delta + max(m, 1)) + 4)
        lat = lattices._family_lattice(module, a, b, delta, m)
        ring, exps = _module_ring(module), lat.pivot_exponents()
        coeffs = [[data.draw(_units(module)) for _ in range(4)] for _ in range(4)]
        fault = data.draw(st.sampled_from(["none", "singular", "outside"]))
        if fault == "singular":
            k = data.draw(st.integers(0, 3))
            mix = [data.draw(_coords(module)) for _ in range(4)]
            coeffs[k] = [
                ring.total([ring.mul((p, 0), mix[k])] + [ring.mul(mix[i], coeffs[i][j]) for i in range(4) if i != k])
                for j in range(4)
            ]
        gens = [[ring.mul(c, (p**e, 0)) for c, e in zip(row, exps)] for row in coeffs]
        if fault == "outside" and max(exps) > 0:
            i, j = data.draw(st.integers(0, 3)), exps.index(max(exps))
            e = data.draw(st.integers(0, exps[j] - 1))
            gens[i][j] = ring.add(gens[i][j], ring.mul((p**e, 0), data.draw(_units(module))))
        try:
            want = hermite_form(module, gens, m) == lat
        except (ValueError, PrecisionTooLow):  # not full rank, or not the lattice
            want = False
        assert lattices._spans_diagonal(lat, [tuple(g) for g in gens]) == want

    def test_span_proof_refuses_a_lattice_that_is_not_diagonal(self):
        module = tensor_rank4(3)
        lat = hermite_form(module, [_vec(3, 1, 0, 0), _vec(0, 3, 0, 0), _vec(0, 0, 1, 0), _vec(0, 0, 0, 1)])
        with pytest.raises(ValueError, match="diagonal"):
            lattices._spans_diagonal(lat, lat.pair_rows)

    def test_no_lattice_enum_pass_runs_an_elimination(self, monkeypatch):
        """The benchmark's lattice cells and the whole selfcheck battery, its
        nine descents among them, call no Hermite routine of the module."""
        from endolift import cli

        calls = []
        for name in [name for name in vars(lattices) if "hermite" in name.lower()]:
            routine = getattr(lattices, name)
            if callable(routine):
                def counted(*args, _routine=routine, _name=name, **kwargs):
                    calls.append(_name)
                    return _routine(*args, **kwargs)

                monkeypatch.setattr(lattices, name, counted)
        for run in (_sublattice_grids, _superlattice_windows, _descents):
            run()
        hodge_lift_census(3)
        assert all(ok for _name, ok, _detail in cli._selfcheck_battery())
        assert calls == []


# ---------------------------------------------------------------------------
# the references for the pair kernels: operator application, membership and
# Hermite elimination written on the tests' own ring (`witt_reference`),
# which shares no code with the pair helpers the kernels run on.  They take
# and return pairs, read in the module's (p, prec).


def _apply_reference(module, name, vector):
    ring = _module_ring(module)
    matrix, twist = _operator(module, name)
    vector = [ring.reduce(c) for c in vector]
    if twist:
        vector = [ring.sigma(c) for c in vector]
    return tuple(ring.total(ring.mul(entry, c) for entry, c in zip(row, vector)) for row in matrix)


def _contains(lat, vector):
    """Membership of a vector in the lattice's integral frame: the module's
    one check on a vector, then the engine's kernel."""
    return lat._contains_pairs(lat.module._coords(vector))


def _contains_reference(module, rows, vector):
    ring, p = _module_ring(module), module.p
    v = [ring.reduce(c) for c in vector]
    for i, row in enumerate(rows):
        x = v[i]
        if ring.is_zero(x):
            continue
        d = ring.val(row[i])
        if ring.val(x) < d:
            return False
        q = ring.mul(ring.divide(x, p**d), ring.inv(ring.divide(row[i], p**d)))
        for j in range(module.rank):
            v[j] = ring.sub(v[j], ring.mul(q, row[j]))
    return all(ring.is_zero(c) for c in v)


def _fits_reference(module, rows):
    """Whether p^(prec - d) times each Hermite row with pivot p^d, whose
    pivot the truncation to prec digits makes 0, lies in the rows' span, so
    that the truncated span holds nothing the rows do not state."""
    ring, p = _module_ring(module), module.p
    return all(
        _contains_reference(module, rows, [ring.mul((p ** (module.prec - ring.val(row[i])), 0), c) for c in row])
        for i, row in enumerate(rows)
    )


def _lattice_or_refused(module, rows, scale=0):
    """hermite_form of a full-rank span, or None when `_fits_reference`
    says the precision cannot tell the span apart, where hermite_form must
    raise PrecisionTooLow instead."""
    if _fits_reference(module, _hermite_reference(module, rows)):
        return hermite_form(module, rows, scale)
    with pytest.raises(PrecisionTooLow, match="too low for pivot exponents"):
        hermite_form(module, rows, scale)
    return None


def _hermite_reference(module, rows):
    """The Hermite rows of a full-rank span, the entries above pivot 0, 1,
    ... reduced in turn; ValueError otherwise."""
    ring, p, rank = _module_ring(module), module.p, module.rank
    work = [[ring.reduce(c) for c in r] for r in rows]
    pivots = []
    for col in range(rank):
        best = None
        for idx, row in enumerate(work):
            entry = row[col]
            if ring.is_zero(entry):
                continue
            val = ring.val(entry)
            if best is None or val < best[0]:
                best = (val, idx)
        if best is None:
            raise ValueError("row span is not full rank")
        d, idx = best
        row = work.pop(idx)
        inv = ring.inv(ring.divide(row[col], p**d))
        row = [ring.mul(inv, c) for c in row]
        for other in work:
            x = other[col]
            if ring.is_zero(x):
                continue
            q = ring.divide(x, p**d)
            for j in range(rank):
                other[j] = ring.sub(other[j], ring.mul(q, row[j]))
        pivots.append(row)
        work = [r for r in work if any(not ring.is_zero(c) for c in r)]
    for i in range(rank):
        pd = p ** ring.val(pivots[i][i])
        for k in range(i):
            a, b = pivots[k][i]
            q = (a // pd, b // pd)
            if q == (0, 0):
                continue
            for j in range(rank):
                pivots[k][j] = ring.sub(pivots[k][j], ring.mul(q, pivots[i][j]))
    return tuple(tuple(r) for r in pivots)


def _is_canonical(module, rows):
    """Whether the rows are upper triangular, each pivot exactly (p^d, 0)
    and every entry above it with both coordinates in [0, p^d)."""
    ring, p = _module_ring(module), module.p
    for i, row in enumerate(rows):
        pd = p ** ring.val(row[i])
        if any(not ring.is_zero(x) for x in row[:i]) or row[i] != ring.reduce((pd, 0)):
            return False
        if any(not (0 <= c < pd) for above in rows[:i] for c in above[i]):
            return False
    return True


def _stable_reference(module, lat):
    return all(
        _contains_reference(module, lat.pair_rows, _apply_reference(module, name, row))
        for name in module._ops
        for row in lat.pair_rows
    )


def _assert_same_lattice(lat, twin):
    """Equal slots, equal as lattices, equal hashes."""
    slots = ("module", "scale", "pair_rows", "_exps", "_steps", "_diagonal")
    assert [getattr(twin, name) for name in slots] == [getattr(lat, name) for name in slots]
    assert twin == lat and hash(twin) == hash(lat)


PAIR_MODULES = {
    "normalized": standard_rank2,
    "anti-normalized": _anti_normalized_rank2,
    "ramified": ramified_rank2,
    "rank4": tensor_rank4,
}


@lru_cache(maxsize=None)
def _pair_module(label, p):
    return PAIR_MODULES[label](p)


def _coords(module):
    """Pairs of every valuation up to the precision, zero half the time, so
    that zero entries and non-unit pivots are common; they are reduced mod
    p^prec only by the code under test."""
    p, prec = module.p, module.prec
    digits = st.integers(0, p**prec - 1)
    scaled = st.builds(lambda e, a, b: (p**e * a, p**e * b), st.integers(0, prec), digits, digits)
    return st.one_of(st.just((0, 0)), scaled)


def _units(module):
    p, mod = module.p, module._mod
    return st.tuples(st.integers(0, mod - 1), st.integers(0, mod - 1)).filter(lambda x: x[0] % p or x[1] % p)


def _vectors(module):
    return st.lists(_coords(module), min_size=module.rank, max_size=module.rank).map(tuple)


def _diag_rows(module, exps):
    """The diagonal rows with pivots p^e, reduced modulo p^prec."""
    p, mod = module.p, module._mod
    return [[(p**e % mod, 0) if i == j else (0, 0) for j in range(module.rank)] for i, e in enumerate(exps)]


def _full_rank_rows(data, module, top=3):
    """Drawn rows whose span has full rank: p^e multiples of the basis, e at
    most `top`, under drawn rows, so that the elimination meets non-unit
    pivots."""
    p, rank = module.p, module.rank
    rows = [data.draw(_vectors(module)) for _ in range(data.draw(st.integers(0, 2)))]
    for i in range(rank):
        e = data.draw(st.integers(0, top))
        rows.append(tuple(
            (p**e, 0) if j == i else (data.draw(_coords(module)) if j > i else (0, 0))
            for j in range(rank)
        ))
    return data.draw(st.permutations(rows))


class TestPairKernels:
    """The pair kernels against their references on the tests' own ring."""

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("label", sorted(PAIR_MODULES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_apply_matches_the_reference(self, label, p, data):
        module = _pair_module(label, p)
        v = data.draw(_vectors(module))
        for name in module._ops:
            assert module.apply(name, v) == _apply_reference(module, name, v)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("rank_label", ["normalized", "rank4"])
    @settings(max_examples=25)
    @given(data=st.data())
    def test_hermite_form_matches_the_reference(self, rank_label, p, data):
        module = _pair_module(rank_label, p)
        scale = data.draw(st.integers(0, 3))
        rows = data.draw(st.one_of(
            st.just(None), st.lists(_vectors(module), min_size=0, max_size=module.rank + 1)
        ))
        if rows is None:
            rows = _full_rank_rows(data, module)
        try:
            want = _hermite_reference(module, rows)
        except ValueError:
            with pytest.raises(ValueError, match="not full rank"):
                hermite_form(module, rows, scale)
            return
        lat = _lattice_or_refused(module, rows, scale)
        if lat is not None:
            assert (lat.pair_rows, lat.scale) == (want, scale)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("label", sorted(PAIR_MODULES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_hermite_form_builds_what_the_constructor_builds(self, label, p, data):
        # the elimination sets its lattice's slots from the exponents it
        # picked, with no check of the form; the constructor derives them
        module = _pair_module(label, p)
        lat = _lattice_or_refused(module, _full_rank_rows(data, module), data.draw(st.integers(0, 3)))
        if lat is not None:
            _assert_same_lattice(lat, LatticeHNF(module, lat.pair_rows, lat.scale))

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("label", sorted(PAIR_MODULES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_contains_matches_the_reference(self, label, p, data):
        module = _pair_module(label, p)
        lat = _lattice_or_refused(module, _full_rank_rows(data, module), data.draw(st.integers(0, 3)))
        if lat is None:
            return
        ring = _module_ring(module)
        coeffs = data.draw(_vectors(module))
        member = tuple(
            ring.total(ring.mul(c, row[j]) for c, row in zip(coeffs, lat.pair_rows))
            for j in range(module.rank)
        )
        images = [module.apply(name, row) for name in module._ops for row in lat.pair_rows]
        for v in [data.draw(_vectors(module)), member] + images:
            assert _contains(lat, v) == _contains_reference(module, lat.pair_rows, v)
        assert _contains(lat, member)
        off_diagonal = [x for i, row in enumerate(lat.pair_rows) for j, x in enumerate(row) if i != j]
        assert lat.is_diagonal() == all(x == (0, 0) for x in off_diagonal)
        assert lattices._stable_under_all(module, lat) == _stable_reference(module, lat)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("label", sorted(PAIR_MODULES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_stability_of_a_diagonal_lattice_matches_the_reference(self, label, p, data):
        # the drawn full-rank rows above are almost never diagonal, and a
        # diagonal lattice faces only the operators its module leaves open.
        # Pivot exponents of at most 2 make stable lattices common; a pivot
        # p^prec is the zero pivot
        module = _pair_module(label, p)
        exponent = st.one_of(st.integers(0, 2), st.integers(0, module.prec))
        exps = data.draw(st.lists(exponent, min_size=module.rank, max_size=module.rank))
        lat = LatticeHNF(module, _diag_rows(module, exps), data.draw(st.integers(-3, 3)))
        assert lat.is_diagonal() and lat.pivot_exponents() == tuple(exps)
        assert lattices._stable_under_all(module, lat) == _stable_reference(module, lat)

    @pytest.mark.parametrize("p", [3, 5])
    def test_a_diagonal_lattice_still_faces_a_non_diagonal_action(self, p):
        # ramified_rank2's uniformizer e0 -> f0, f0 -> p e0 is untwisted and
        # not diagonal.  Beside F the bare twist, which keeps every diagonal
        # lattice, it alone decides: it does not keep (p^2 e0, f0), and keeps
        # (p e0, f0)
        identity = (((1, 0), (0, 0)), ((0, 0), (1, 0)))
        uniformizer = ramified_rank2(p).actions["uniformizer"]
        module = SemilinearModule(p, 8, 2, identity, {"uniformizer": uniformizer}, "rank2-uniformizer")
        bare = SemilinearModule(p, 8, 2, identity, {}, "rank2-bare")
        for a, stable in ((2, False), (1, True), (0, True)):
            lat = LatticeHNF(module, _diag_rows(module, (a, 0)))
            assert lat.is_diagonal()
            assert lattices._stable_under_all(module, lat) == _stable_reference(module, lat) == stable
            assert lattices._stable_under_all(bare, LatticeHNF(bare, lat.pair_rows))

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("label", sorted(PAIR_MODULES))
    @settings(max_examples=25)
    @given(data=st.data())
    def test_hermite_form_is_canonical(self, label, p, data):
        # canonical, idempotent, and one basis for two generating sets of a
        # lattice: the second is the first under unimodular row operations,
        # with an extra combination.  Pivots stay at most p^2, so that
        # p^(prec - d) times a row with pivot p^d, whose pivot the truncation
        # to prec digits makes 0, lies in the span of the rows below it, and
        # the truncation adds nothing to the lattice
        module = _pair_module(label, p)
        ring, rank = _module_ring(module), module.rank
        rows = [list(row) for row in _full_rank_rows(data, module, top=2)]
        lat = hermite_form(module, rows)
        assert _is_canonical(module, lat.pair_rows)
        assert hermite_form(module, lat.pair_rows) == lat
        others = [list(row) for row in data.draw(st.permutations(rows))]
        for _ in range(data.draw(st.integers(0, 4))):
            i, j = data.draw(st.lists(st.integers(0, len(others) - 1), min_size=2, max_size=2, unique=True))
            c = data.draw(_coords(module))
            others[i] = [ring.add(x, ring.mul(c, y)) for x, y in zip(others[i], others[j])]
        units = data.draw(st.lists(_units(module), min_size=len(others), max_size=len(others)))
        others = [[ring.mul(u, x) for x in row] for u, row in zip(units, others)]
        coeffs = data.draw(st.lists(_coords(module), min_size=len(others), max_size=len(others)))
        others.append([ring.total(ring.mul(c, row[k]) for c, row in zip(coeffs, others)) for k in range(rank)])
        assert hermite_form(module, others) == lat

    @pytest.mark.parametrize("p", [3, 5, 7])
    @pytest.mark.parametrize("label", sorted(PAIR_MODULES))
    @settings(max_examples=20)
    @given(data=st.data())
    def test_a_non_canonical_basis_is_refused(self, label, p, data):
        # a unit other than 1 times a pivot row, or a multiple of a pivot row
        # added to a row above it, left unreduced, spans the same lattice, and
        # is refused rather than compared unequal to its Hermite basis
        module = _pair_module(label, p)
        ring, mod = _module_ring(module), module._mod
        lat = _lattice_or_refused(module, _full_rank_rows(data, module))
        if lat is None:
            return
        rows = [list(row) for row in lat.pair_rows]
        i = data.draw(st.integers(0, module.rank - 1))
        d = lat.pivot_exponents()[i]
        if data.draw(st.booleans()) or i == 0:
            unit = data.draw(_units(module).filter(lambda x: ring.val(ring.sub(x, (1, 0))) == 0))
            rows[i] = [ring.mul(unit, x) for x in rows[i]]
            message = f"pivot of row {i} is not a power of p"
        else:
            k = data.draw(st.integers(0, i - 1))
            t = (data.draw(st.integers(1, p ** (module.prec - d) - 1)), data.draw(st.integers(0, mod - 1)))
            rows[k] = [ring.add(x, ring.mul(t, y)) for x, y in zip(rows[k], rows[i])]
            message = f"above the pivot of row {i} is not reduced"
        assert hermite_form(module, rows) == lat
        with pytest.raises(ValueError, match=message):
            LatticeHNF(module, rows)

    @pytest.mark.parametrize("p, kmax", [(3, 2), (5, 2), (7, 1)])
    @pytest.mark.parametrize("label", ["normalized", "anti-normalized", "ramified"])
    def test_stability_on_the_sublattice_grid_matches_the_reference(self, label, p, kmax):
        # the grid candidates are Hermite bases whose corner entry runs over
        # every residue below the second pivot, and one of their pivots is a
        # non-unit once k > 0
        module = _pair_module(label, p)
        for k in range(kmax + 1):
            for a in range(k + 1):
                pa, pb = (p**a, 0), (p ** (k - a), 0)
                for w0 in range(p ** (k - a)):
                    for w1 in range(p ** (k - a)):
                        lat = LatticeHNF(module, ((pa, (w0, w1)), ((0, 0), pb)), 0)
                        assert lattices._stable_under_all(module, lat) == _stable_reference(module, lat)

    @pytest.mark.parametrize("p", [3, 5, 7])
    @settings(max_examples=15)
    @given(data=st.data())
    def test_superlattice_membership_matches_the_reference(self, p, data):
        module = _pair_module("rank4", p)
        s, m = data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
        for lat in enumerate_stable_superlattices(module, s, m):
            assert lat.scale == m
            assert lattices._stable_under_all(module, lat) and _stable_reference(module, lat)
            v = data.draw(_vectors(module))
            assert _contains(lat, v) == _contains_reference(module, lat.pair_rows, v)


_E0, _F0 = ((1, 0), (0, 0)), ((0, 0), (1, 0))

ENTRY_POINTS = {
    "apply": lambda module, v: module.apply("F", v),
    "hermite_form": lambda module, v: hermite_form(module, [v, _F0]),
    "contains": lambda module, v: _contains(hermite_form(module, [_E0, _F0]), v),
    "LatticeHNF": lambda module, v: LatticeHNF(module, [v, _F0]),
}

BAD_VECTORS = {
    "wittscalar": (TypeError, "not a vector of integer pairs", (WittScalar(3, 8, 1), (0, 0))),
    "float": (TypeError, "not a vector of integer pairs", ((1, 0), (0.5, 0))),
    "bare-float": (TypeError, "not a vector of integer pairs", ((1, 0), 0.5)),
    "wrong-length": (ValueError, "3 coordinates for a rank-2 module", ((1, 0), (0, 0), (0, 0))),
}


class TestVectorChecks:
    """A vector that is not `rank` pairs of integers is refused wherever
    one comes in, not truncated or turned into a verdict."""

    @pytest.mark.parametrize("bad", sorted(BAD_VECTORS))
    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_points_refuse_a_bad_vector(self, entry, bad):
        error, message, vector = BAD_VECTORS[bad]
        with pytest.raises(error, match=message):
            ENTRY_POINTS[entry](standard_rank2(3), vector)

    @pytest.mark.parametrize("call", [
        lambda module, rows: LatticeHNF(module, rows, 1.5),
        lambda module, rows: LatticeHNF(module, rows, 0.0),
        lambda module, rows: hermite_form(module, rows, scale="x"),
        lambda module, rows: enumerate_stable_superlattices(tensor_rank4(3), 1, 1.0),
        lambda module, rows: enumerate_stable_superlattices(tensor_rank4(3), 1.0, 2),
    ], ids=["LatticeHNF-1.5", "LatticeHNF-0.0", "hermite_form-str",
            "superlattices-m-1.0", "superlattices-s-1.0"])
    def test_a_non_integer_scale_is_refused(self, call):
        # a scale that is not an integer would reach index_exponent (1.5
        # gives -3.0) and equality (a 0.0-scale lattice equals the 0-scale
        # one); the one-step superlattice window does no arithmetic with its
        # scale m, so m = 1.0 would otherwise come back as three lattices
        module = standard_rank2(3)
        with pytest.raises(TypeError):
            call(module, [_E0, _F0])

    def test_lattice_rows_are_checked(self):
        module = standard_rank2(3)
        one, zero = (1, 0), (0, 0)
        with pytest.raises(ValueError, match="3 rows"):
            LatticeHNF(module, [(one, zero), (zero, one), (one, one)])
        with pytest.raises(ValueError, match="1 coordinates for a rank-2 module"):
            LatticeHNF(module, [(one,), (zero, one)])

    @pytest.mark.parametrize("rows", [
        [((1, 0), (0, 0)), ((1, 0), (3, 0))],
        [((1, 0), (0, 0)), ((0, 1), (1, 0))],
        [((3, 0), (1, 0)), ((9, 0), (1, 0))],
    ])
    def test_rows_below_the_diagonal_are_refused(self, rows):
        # membership reads the rows as a triangular system, so such rows
        # would answer for some other lattice: ((1, 0), (3, 0)) spans a row
        # of the first one and still would not be found in it
        module = standard_rank2(3)
        assert _contains(hermite_form(module, rows), rows[-1])
        with pytest.raises(ValueError, match="row 1 has an entry below the diagonal"):
            LatticeHNF(module, rows)

    def test_apply_rejects_a_name_that_is_not_an_operator_of_the_module(self):
        module = standard_rank2(3)
        for name in ("V", "uniformizer", module.F):
            with pytest.raises(ValueError, match="not an operator of this module"):
                module.apply(name, _vec(1, 0))

    @pytest.mark.parametrize("prec", [0, -1])
    def test_a_precision_below_one_is_refused(self, prec):
        # at -1 the modulus would be the float 1/3, and every reduction float arithmetic
        for build in (standard_rank2, ramified_rank2, tensor_rank4):
            with pytest.raises(ValueError, match=f"precision must be at least 1, got {prec}"):
                build(3, prec)

    def test_an_action_may_not_be_named_f(self):
        module = standard_rank2(3)
        with pytest.raises(ValueError, match="may not be named F"):
            SemilinearModule(3, 8, 2, module.F, {"F": module.F}, "rank2-shadowed")

    def test_lattices_of_different_scalars_differ(self):
        # pairs alone do not carry (p, prec): equal integer rows over 3 and
        # over 5 are different lattices
        one, zero = (1, 0), (0, 0)
        lats = [LatticeHNF(module, [(one, zero), (zero, one)]) for module in
                (standard_rank2(3), standard_rank2(5), standard_rank2(3, prec=9))]
        assert len({lat.sort_key() for lat in lats}) == len(set(lats)) == 3
        assert lats[0] == LatticeHNF(standard_rank2(3), [(one, zero), (zero, one)])


# ---------------------------------------------------------------------------
# exhaustive oracles for the constraint-first searches


def _exhaustive_sublattices(module, k):
    """Every point of the Hermite grid (p^a, w; 0, p^b), w over all residues
    modulo p^b, through the full stability check."""
    p = module.p
    found = []
    for a in range(k + 1):
        b = k - a
        pa, pb = (p**a, 0), (p**b, 0)
        for w0 in range(p**b):
            for w1 in range(p**b):
                lat = LatticeHNF(module, ((pa, (w0, w1)), ((0, 0), pb)), 0)
                if lattices._stable_under_all(module, lat):
                    found.append(lat)
    found.sort(key=LatticeHNF.sort_key)
    return found


def _exhaustive_subspaces(field, dim):
    """Every reduced row basis of a subspace of the given dimension in the
    rank-4 residue space, free entries over the whole field."""
    q_elems = field.elements()
    for pivots in combinations(range(4), dim):
        free_positions = [
            (i, col)
            for i, pc in enumerate(pivots)
            for col in range(4)
            if col > pc and col not in pivots
        ]
        for assignment in product(q_elems, repeat=len(free_positions)):
            rows = []
            for pc in pivots:
                row = [(0, 0)] * 4
                row[pc] = (1, 0)
                rows.append(row)
            for (i, col), val in zip(free_positions, assignment):
                rows[i][col] = val
            yield rows


def _one_step_lattice(module, rows):
    """L + p^-1 span(rows) at scale 1, for rows of the one-step quotient."""
    p = module.p
    standard = [tuple((p * (i == j), 0) for j in range(4)) for i in range(4)]
    return hermite_form(module, standard + rows, scale=1)


def _gap_module(p, first, second):
    """A synthetic rank-2 module whose F is the bare sigma-twist and
    whose one action is diag(first, second).  Its stable lattices are the
    (p^a, w; 0, p^b) with w in the prime subring and p^b dividing
    (second - first) w: more than w = 0 once the gap has positive
    valuation, so the enumerator's coset step is exercised."""
    base = standard_rank2(p)
    one, zero = (1, 0), (0, 0)
    identity = ((one, zero), (zero, one))
    action = ((first, zero), (zero, second))
    return SemilinearModule(p, base.prec, 2, identity, {"gap": action}, "rank2-gap")


RANK2_MODULES = {
    "normalized": standard_rank2,
    "anti-normalized": _anti_normalized_rank2,
    "ramified": ramified_rank2,
}


class TestConstraintFirstSearch:
    @pytest.mark.parametrize("p, kmax", [(3, 4), (5, 2)])
    @pytest.mark.parametrize("label", sorted(RANK2_MODULES))
    def test_sublattices_match_the_full_grid(self, label, p, kmax):
        module = RANK2_MODULES[label](p)
        for k in range(kmax + 1):
            assert enumerate_stable_sublattices(module, k) == _exhaustive_sublattices(module, k)

    @pytest.mark.parametrize("gap", ["1,1+p", "w,w+p^2"])
    def test_gap_of_positive_valuation_keeps_a_coset(self, gap):
        p = 3
        first, second = ((1, 0), (1 + p, 0)) if gap == "1,1+p" else ((0, 1), (p * p, 1))
        module = _gap_module(p, first, second)
        for k in range(5):
            found = enumerate_stable_sublattices(module, k)
            assert found == _exhaustive_sublattices(module, k)
            assert any(not lat.is_diagonal() for lat in found) == (k > 0)

    @pytest.mark.parametrize("s", [1, 2])
    def test_one_step_window_matches_the_full_walk(self, s):
        # every subspace of the one-step quotient, of every dimension,
        # becomes a lattice; the stable ones of coindex p^(2s) are the window
        module = tensor_rank4(3)
        stable = []
        for dim in range(5):
            for rows in _exhaustive_subspaces(_ring(3, 1), dim):
                lat = _one_step_lattice(module, rows)
                if lat.index_exponent() == -2 * s and lattices._stable_under_all(module, lat):
                    stable.append(lat)
        stable.sort(key=classify_superlattice)
        assert enumerate_stable_superlattices(module, s, 1) == stable

    def test_one_step_window_matches_the_lattice_level_walk(self):
        # no residue operator at all: every plane of the one-step quotient
        # becomes a lattice, checked under the module's own operators
        module = tensor_rank4(3)
        stable = []
        for rows in _exhaustive_subspaces(_ring(3, 1), 2):
            lat = _one_step_lattice(module, rows)
            if lattices._stable_under_all(module, lat):
                stable.append(lat)
        stable.sort(key=classify_superlattice)
        assert enumerate_stable_superlattices(module, 1, 1) == stable


def _rank4_without_order(p):
    """The rank-4 module with the scalar omega action alone: e1 and f1 share
    a residue character, and so do e2 and f2."""
    base = tensor_rank4(p)
    actions = {"omega-scalar": base.actions["omega-scalar"]}
    return SemilinearModule(p, base.prec, 4, base.F, actions, "rank4-scalar-only")


class TestWindowsOfAModuleWithoutTheOrder:
    @pytest.mark.parametrize("m", [1, 2])
    def test_every_window_refuses_the_module(self, m):
        module = _rank4_without_order(3)
        # L + p^-1 span(e1 + f1, f2): stable under this module, not diagonal,
        # coindex p^2, so a search of diagonal lattices alone would miss it
        one, zero = (1, 0), (0, 0)
        lat = _one_step_lattice(module, [[one, zero, one, zero], [zero, zero, zero, one]])
        assert lattices._stable_under_all(module, lat)
        assert not lat.is_diagonal() and lat.index_exponent() == -2
        with pytest.raises(ValueError, match="share a residue character"):
            enumerate_stable_superlattices(module, 1, m)


class TestSearchWork:
    """Guards on the number of candidates each search visits, not on time."""

    def test_sublattice_candidates_per_index(self, monkeypatch):
        built = []
        build = lattices._canonical_lattice

        def counting_build(*args):
            built.append(1)
            return build(*args)

        monkeypatch.setattr(lattices, "_canonical_lattice", counting_build)
        k = 4
        assert len(enumerate_stable_sublattices(standard_rank2(5), k)) == 1
        assert len(built) <= k + 1

    @staticmethod
    def _counted_search(monkeypatch, s, m):
        """The search at (s, m) over `tensor_rank4(5)`, and how many
        candidates it checked under the operators."""
        calls = []
        check = lattices._stable_under_all

        def counting_check(*args):
            calls.append(1)
            return check(*args)

        monkeypatch.setattr(lattices, "_stable_under_all", counting_check)
        found = enumerate_stable_superlattices(tensor_rank4(5), s, m)
        assert [classify_superlattice(lat) for lat in found] == superlattice_family(s, m)
        return len(calls)

    def test_one_step_window_checks_only_coordinate_planes(self, monkeypatch):
        assert self._counted_search(monkeypatch, 1, 1) == 6  # C(4, 2)

    def test_deep_window_checks_only_the_family_members(self, monkeypatch):
        # not all 19 diagonal lattices of coindex p^4 in the p^-2 window
        assert self._counted_search(monkeypatch, 2, 2) == len(superlattice_family(2, 2)) == 5


def _sublattice_grids():
    # the benchmark's grids (p = 3 to k = 4, p = 7 to k = 2) and the lattice
    # command's at --sublattices 3 (p = 3 and 5, prec 8)
    for p, k_top in ((3, 4), (5, 3), (7, 2)):
        for k in range(k_top + 1):
            enumerate_stable_sublattices(standard_rank2(p), k)


def _superlattice_windows():
    # the benchmark's windows at p = 3, and the lattice command's at
    # --superlattices 2 over p = 3, 5 at the precision it asks for
    for s, m in ((1, 1), (2, 1), (2, 2)):
        enumerate_stable_superlattices(tensor_rank4(3), s, m)
    for p in (3, 5):
        for s, m in ((1, 1), (1, 2), (2, 1), (2, 2)):
            enumerate_stable_superlattices(tensor_rank4(p, 2 * (s + m) + 2), s, m)


# the benchmark's descent frames, at p = 3 and 5
DESCENT_FRAMES = [(a, b, d) for d in (0, 1) for a in range(4) for b in range(4) if a + b + d <= 3]


def _descents():
    reports = [descend_superlattice(a, b, d, p) for p in (3, 5) for a, b, d in DESCENT_FRAMES]
    assert len(reports) == 32
    return reports


class TestPackageBuiltLattices:
    """The searches, the descents and the Hermite elimination build their
    lattices with `_canonical_lattice`, past the constructor's form checks;
    each lattice must be the one the checked constructor builds from its
    rows."""

    @pytest.mark.parametrize("run", [_sublattice_grids, _superlattice_windows, _descents],
                             ids=["sublattice-grid", "superlattice-windows", "descents"])
    def test_every_lattice_built_is_what_the_constructor_builds(self, run, monkeypatch):
        built, checked = [], []
        build, init = lattices._canonical_lattice, LatticeHNF.__init__

        def recording_build(*args):
            built.append(build(*args))
            return built[-1]

        def counting_init(self, *args, **kwargs):
            checked.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(lattices, "_canonical_lattice", recording_build)
        monkeypatch.setattr(LatticeHNF, "__init__", counting_init)
        run()
        monkeypatch.undo()
        assert built and not checked
        for lat in built:
            _assert_same_lattice(lat, LatticeHNF(lat.module, lat.pair_rows, lat.scale))


# ---------------------------------------------------------------------------
# the graph-membership census, the oracle for the linear condition
#
# Scalars are pairs (main, eps) over the quadratic residue field, the
# reference ring at precision 1, with eps^2 = 0.  A vector lies in the graph of c when clearing its
# f-coordinates against the generators leaves an identically zero remainder.


def _dual_mul(field, x, y):
    main = field.mul(x[0], y[0])
    return (main, field.add(field.mul(x[0], y[1]), field.mul(x[1], y[0])))


def _dual_sub(field, x, y):
    return (field.sub(x[0], y[0]), field.sub(x[1], y[1]))


_DZERO = ((0, 0), (0, 0))


def _graph_generators(field, c):
    zero = (0, 0)
    one = (1, 0)
    g1 = ((zero, c[0][0]), (zero, c[0][1]), (one, zero), (zero, zero))
    g2 = ((zero, c[1][0]), (zero, c[1][1]), (zero, zero), (one, zero))
    return g1, g2


def _graph_contains(field, c, vec):
    g1, g2 = _graph_generators(field, c)
    v = list(vec)
    for gen, slot in ((g1, 2), (g2, 3)):
        coeff = v[slot]
        if coeff == _DZERO:
            continue
        for j in range(4):
            v[j] = _dual_sub(field, v[j], _dual_mul(field, coeff, gen[j]))
    return all(entry == _DZERO for entry in v)


def _apply_dual_order(field, vec):
    p = field.p
    w = ((0, 1), (0, 0))
    neg_w = ((0, p - 1), (0, 0))
    signs = (w, w, neg_w, neg_w)
    return [_dual_mul(field, s, c) for s, c in zip(signs, vec)]


def _apply_dual_uniformizer(field, vec):
    return [_DZERO, vec[0], _DZERO, vec[2]]


DUAL_OPERATORS = {"order": _apply_dual_order, "uniformizer": _apply_dual_uniformizer}


def _graph_is_stable(field, c, op):
    return all(
        _graph_contains(field, c, DUAL_OPERATORS[op](field, g))
        for g in _graph_generators(field, c)
    )


def hodge_lift_census_naive(p):
    """Same census with no factoring at all: every graph, every operator,
    full membership checks.  Quadratically slower; the oracle for
    hodge_lift_census."""
    field = _ring(p, 1)
    elems = field.elements()
    rows = [(x, y) for x in elems for y in elems]
    counts = {"all": 0, "order_stable": 0, "uniformizer_stable": 0, "both_stable": 0}
    for r1 in rows:
        for r2 in rows:
            c = (r1, r2)
            counts["all"] += 1
            order_ok = _graph_is_stable(field, c, "order")
            unif_ok = _graph_is_stable(field, c, "uniformizer")
            if order_ok:
                counts["order_stable"] += 1
            if unif_ok:
                counts["uniformizer_stable"] += 1
            if order_ok and unif_ok:
                counts["both_stable"] += 1
    return counts


class TestHodgeLiftCensus:
    def test_census_at_three(self):
        census = hodge_lift_census(3)
        assert census == {
            "all": 3**8,
            "order_stable": 1,
            "uniformizer_stable": 3**4,
            "both_stable": 1,
        }

    @pytest.mark.parametrize("p", [5, 7, 11, 13])
    def test_census_at_larger_primes(self, p):
        assert hodge_lift_census(p) == {
            "all": p**8,
            "order_stable": 1,
            "uniformizer_stable": p**4,
            "both_stable": 1,
        }

    def test_census_matches_naive_enumeration(self):
        assert hodge_lift_census(3) == hodge_lift_census_naive(3)

    @pytest.mark.parametrize("p", [3, 5])
    def test_unique_joint_lift(self, p):
        assert hodge_lift_census(p)["both_stable"] == 1

    @pytest.mark.parametrize("op", sorted(DUAL_OPERATORS))
    @settings(max_examples=60)
    @given(st.sampled_from([3, 5, 7]), st.data())
    def test_graph_membership_decides_as_the_linear_condition(self, op, p, data):
        # pointwise, not by counts: N and its transpose have centralizers of
        # the same size, so a transposed convention keeps every count.  The
        # draws favour zero entries and c11 = c22, so that stable graphs and
        # the centralizers of N and of its transpose all come up
        field = _ring(p, 1)
        entry = st.tuples(st.integers(0, p - 1), st.integers(0, p - 1))
        zero_or_entry = st.one_of(st.just((0, 0)), entry)
        c11, c12, c21 = (data.draw(zero_or_entry) for _ in range(3))
        c22 = data.draw(st.one_of(st.just(c11), entry))
        c = ((c11, c12), (c21, c22))
        flat = [c11, c12, c21, c22]
        equations = lattices._commutation_rows(p, lattices._census_blocks(p)[op])
        residuals = [field.total(field.mul(coeff, x) for coeff, x in zip(row, flat)) for row in equations]
        assert _graph_is_stable(field, c, op) == all(r == (0, 0) for r in residuals)
