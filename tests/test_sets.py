"""Feasible sets, cuts as (normal, point) pairs, the assembler and the constraint store."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vifd import sets
from vifd.sets import (
    Box,
    ConstraintStore,
    LinearConstraintSystem,
    SimplexSlice,
    as_point,
    assemble,
)
from vifd.qp import InfeasibleSystem, least_distance


def test_as_point_accepts_lists_scalars_and_arrays():
    np.testing.assert_array_equal(as_point([1, 2]), [1.0, 2.0])
    np.testing.assert_array_equal(as_point(3), [3.0])
    np.testing.assert_array_equal(as_point(np.arange(4)), [0.0, 1.0, 2.0, 3.0])


def test_as_point_rejects_bad_input():
    with pytest.raises(ValueError):
        as_point([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        as_point([1.0, np.nan])
    with pytest.raises(ValueError):
        as_point([1.0, np.inf])
    with pytest.raises(ValueError):
        as_point([1.0, 2.0], dim=3)
    # booleans, strings and integers too large for a float are not numbers
    for bad in ([True, False], ["1", "2"], [10**400], np.array([True]), [np.True_, 0.5],
                [0.5, np.array(True)], True, "1"):
        with pytest.raises(ValueError, match="real numbers"):
            as_point(bad)


def test_as_point_returns_a_float64_vector_itself_and_still_checks_it():
    x = np.array([0.5, -1.0, 2.0])
    assert as_point(x) is x
    assert as_point(x, 3) is x
    frozen = np.array([1.0, 2.0])
    frozen.flags.writeable = False
    assert as_point(frozen, 2) is frozen
    for bad in (np.array([1.0, np.nan]), np.array([np.inf, 0.0]), np.array([-np.inf])):
        with pytest.raises(ValueError, match="finite"):
            as_point(bad)
    with pytest.raises(ValueError, match="length 3"):
        as_point(np.array([1.0, 2.0]), 3)
    # a vector of up to 32 entries is tested by its float sum, a longer one
    # entrywise: a non-finite entry anywhere is refused on both sides
    for size in (1, 2, 5, 32, 33):
        for position in range(size):
            for value in (np.inf, -np.inf, np.nan):
                bad = np.ones(size)
                bad[position] = value
                with pytest.raises(ValueError, match="finite"):
                    as_point(bad)
    # finite entries whose sum overflows are accepted, the array as itself
    for big in (np.array([1e308, 1e308]), np.array([-1e308, -1e308, 1e308])):
        assert as_point(big) is big
        np.testing.assert_array_equal(as_point(big.tolist()), big)


def test_as_point_converts_every_other_input_as_before():
    for given in (np.array([0.1, 0.2], dtype=np.float32), np.arange(3),
                  np.array([1.0, 2.0]).astype(">f8"), np.arange(2.0).view(np.recarray)):
        out = as_point(given)
        assert out is not given
        assert type(out) is np.ndarray and out.dtype == np.float64 and out.dtype.isnative
        np.testing.assert_array_equal(out, np.asarray(given, dtype=float))
    scalar = np.array(2.5)
    out = as_point(scalar)
    assert out.shape == (1,) and out[0] == 2.5
    for two_d in (np.ones((2, 2)), np.ones((1, 2))):
        with pytest.raises(ValueError, match="shape"):
            as_point(two_d)
    with pytest.raises(ValueError, match="finite"):
        as_point(np.array([np.nan], dtype=np.float32))


def _space(n):
    """R^n as a system without rows, to read single cuts off."""
    return LinearConstraintSystem(np.zeros((0, n)), np.zeros(0), np.zeros((0, n)), np.zeros(0))


def test_halfspace_basic_geometry():
    system = assemble(_space(2), [([1.0, 0.0], [2.0, 5.0])])
    assert system.G.shape == (1, 2)
    assert system.contains([2.0, 100.0])
    assert system.contains([1.0, -3.0])
    assert not system.contains([2.1, 0.0])
    assert system.contains([2.1, 0.0], tol=0.2)


def test_halfspace_zero_normal_is_whole_space():
    space = _space(2)
    assert assemble(space, [([0.0, 0.0], [1.0, 1.0])]) is space
    store = ConstraintStore(space)
    store.add_with_slab(np.zeros(2), np.ones(2), np.zeros(2), np.ones(2))
    assert store.rows == 0 and store.system.G.shape == (0, 2) and store.system.A is space.A


def test_halfspace_arrays_are_read_only():
    store = ConstraintStore(_space(2))
    store.add_with_slab(np.ones(2), np.zeros(2), np.zeros(2), np.zeros(2))
    for system in (assemble(_space(2), [([1.0, 1.0], [0.0, 0.0])]), store.system):
        for name in ("G", "h"):
            with pytest.raises(ValueError):
                getattr(system, name)[0] = 5.0


def test_halfspace_from_pair_unit_normal_through_anchor():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 6)
        z = rng.normal(size=n)
        u = rng.normal(size=n)
        system = assemble(_space(n), [(u, z)])
        assert np.linalg.norm(system.G[0]) == pytest.approx(1.0, abs=1e-12)
        # boundary passes through z, and z + u is strictly cut off
        assert system.contains(z, tol=1e-12)
        assert not system.contains(z + u, tol=1e-12)


def test_halfspace_from_pair_normalization_preserves_membership():
    rng = np.random.default_rng(8)
    for _ in range(300):
        n = rng.integers(1, 5)
        z = rng.normal(size=n)
        u = rng.normal(size=n) * rng.uniform(0.1, 50.0)
        y = rng.normal(size=n) * 3.0
        margin = float(u @ (y - z))
        if abs(margin) < 1e-7:
            continue
        assert assemble(_space(n), [(u, z)]).contains(y, tol=1e-12) == (margin < 0.0)


def test_w_halfspace_anchored_at_iterate():
    # the slab W = {y : <y - x, x0 - x> <= 0} is the cut (x0 - x, x)
    x0, x = np.array([0.0, 0.0]), np.array([1.0, 1.0])
    system = assemble(_space(2), [(x0 - x, x)])
    np.testing.assert_allclose(system.G[0], [-np.sqrt(0.5), -np.sqrt(0.5)])
    np.testing.assert_allclose(system.h[0], -np.sqrt(2.0))
    # x0 itself must violate the slab whenever x0 != x
    assert not system.contains(x0, tol=1e-12)
    assert system.contains([2.0, 2.0])
    space = _space(2)
    assert assemble(space, [(x - x, x)]) is space


def test_pair_and_slab_halfspaces_own_read_only_arrays():
    # the rows a store or an assembled system holds are its own: writing to
    # the vectors a cut was made from afterwards changes nothing
    for first, second in (([3.0, 4.0], [1.0, 2.0]), ([0.0, -2.0], [1.0, 2.0])):
        normal, point = np.array(first), np.array(second)
        store = ConstraintStore(_space(2))
        store.add_with_slab(normal, point, np.zeros(2), point)
        systems = (store.system, assemble(_space(2), [(normal, point)]))
        expected = [(s.G.copy(), s.h.copy()) for s in systems]
        for system in systems:
            for arr in (system.G, system.h):
                assert not arr.flags.writeable
                assert not any(np.shares_memory(arr, given) for given in (normal, point))
        normal[:] = point[:] = 7.0
        for system, (G, h) in zip(systems, expected):
            np.testing.assert_array_equal(system.G, G)
            np.testing.assert_array_equal(system.h, h)


def test_pair_and_slab_halfspaces_check_their_inputs():
    good = np.array([1.0, 2.0])
    for bad in (np.array([np.nan, 0.0]), np.array([1.0, np.inf]), np.array([1.0, 2.0, 3.0])):
        for pair in ((good, bad), (bad, good)):
            with pytest.raises(ValueError):
                assemble(_space(2), [pair])
    # a zero normal adds no row, but its point must still be finite
    with pytest.raises(ValueError):
        assemble(_space(2), [(np.zeros(2), np.array([np.inf, 0.0]))])


def test_box_validation_and_membership():
    box = Box([0.0, -np.inf], [1.0, np.inf])
    assert box.dim == 2
    assert box.contains([0.5, 1e6])
    assert not box.contains([1.5, 0.0])
    assert box.contains([1.001, 0.0], tol=0.01)
    with pytest.raises(ValueError):
        Box([1.0], [0.0])
    with pytest.raises(ValueError):
        Box([0.0, np.nan], [1.0, 1.0])
    # an empty coordinate range would drop out of the constraint rows
    with pytest.raises(ValueError):
        Box([np.inf, 0.0], [np.inf, 1.0])
    with pytest.raises(ValueError):
        Box([-np.inf, 0.0], [-np.inf, 1.0])
    # bounds are numbers by the rule of as_point, and a refusal names its key
    for lower, upper, key in ((["0"], ["1"], "lower"), ([0.0], [True], "upper"),
                              (np.array([False]), [1.0], "lower"), ([0.0], [[1.0, True]], "upper"),
                              ([10**400], [np.inf], "lower")):
        with pytest.raises(ValueError, match=repr(key)):
            Box(lower, upper)
    # so is a tolerance, which True would read as 1
    for tol in (True, "0.1", None, np.nan, np.inf, np.array([0.1])):
        with pytest.raises(ValueError, match="'tol'"):
            box.contains([1.5, 0.0], tol=tol)


def test_simplex_slice_membership():
    s = SimplexSlice(5.0, 3)
    assert s.contains([1.0, 1.0, 3.0])
    assert not s.contains([1.0, 1.0, 3.5])
    assert not s.contains([-0.5, 2.5, 3.0])
    with pytest.raises(ValueError):
        SimplexSlice(0.0, 3)
    with pytest.raises(ValueError):
        SimplexSlice(1.0, 0)
    # refused when built, not later in .constraints, with the field named
    for a, dim, field in ((5.0, 2.5, "dim"), (5.0, True, "dim"), (5.0, "3", "dim"),
                          (True, 3, "a"), ("5", 3, "a"), (np.nan, 3, "a"), (np.inf, 3, "a")):
        with pytest.raises(ValueError, match=repr(field)):
            SimplexSlice(a, dim)
    # NumPy scalars and 0-d arrays of a numeric dtype are numbers like any other
    assert SimplexSlice(np.float64(5.0), np.int64(3)).constraints.G.shape == (3, 3)
    s0 = SimplexSlice(np.array(5.0), np.array(3))
    assert s0.contains([1.0, 1.0, 3.0]) and s0.constraints.G.shape == (3, 3)
    for a, dim, field in ((np.array(True), 3, "a"), (np.array([5.0]), 3, "a"),
                          (5.0, np.array(3.0), "dim"), (5.0, np.array(True), "dim")):
        with pytest.raises(ValueError, match=repr(field)):
            SimplexSlice(a, dim)
    for tol in (True, "0.1", None, np.nan):
        with pytest.raises(ValueError, match="'tol'"):
            s.contains([1.0, 1.0, 3.5], tol=tol)
    assert s.contains([1.0, 1.0, 3.5], tol=np.float64(0.5))


def test_polyhedron_membership_and_nonempty_check():
    # the unit triangle x, y >= 0, x + y <= 1
    tri = LinearConstraintSystem(G=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], h=[0.0, 0.0, 1.0],
                                 A=np.zeros((0, 2)), b=np.zeros(0))
    assert tri.contains([0.25, 0.25])
    assert not tri.contains([0.8, 0.8])
    # an empty set is built without a check and refused by its first projection
    empty = LinearConstraintSystem(G=[[1.0], [-1.0]], h=[0.0, -1.0], A=np.zeros((0, 1)),
                                   b=np.zeros(0))
    with pytest.raises(InfeasibleSystem):
        least_distance(assemble(empty, []), [0.5])


def test_linear_constraint_system_violation():
    system = LinearConstraintSystem(
        G=[[1.0, 0.0]], h=[1.0], A=[[1.0, 1.0]], b=[2.0]
    )
    assert system.n == 2
    assert system.max_violation([1.0, 1.0]) == pytest.approx(0.0)
    assert system.max_violation([2.0, 1.0]) == pytest.approx(1.0)
    assert system.contains([0.5, 1.5])
    assert not system.contains([0.5, 0.0])
    for tol in (True, "2", None, np.nan):
        with pytest.raises(ValueError, match="'tol'"):
            system.contains([0.5, 0.0], tol=tol)
    with pytest.raises(ValueError):
        LinearConstraintSystem(G=[[1.0]], h=[1.0, 2.0], A=np.zeros((0, 1)), b=np.zeros(0))
    # arrays of the wrong rank: G and A are matrices, h and b vectors
    no_equalities = dict(A=np.zeros((0, 2)), b=np.zeros(0))
    for bad in (dict(G=np.ones((2, 2, 2)), h=[1.0, 1.0], **no_equalities),
                dict(G=np.eye(2), h=[[1.0, 1.0]], **no_equalities),
                dict(G=np.eye(2), h=[1.0, 1.0], A=np.zeros((0, 2, 2)), b=np.zeros(0)),
                dict(G=np.eye(2), h=[1.0, 1.0], A=np.ones((1, 2)), b=[[1.0]])):
        with pytest.raises(ValueError, match="must be matrices and h and b vectors"):
            LinearConstraintSystem(**bad)
    # the data are numbers by the rule of as_point, and a refusal names its key
    for key, bad in (("G", [[True]]), ("h", ["1"]), ("G", [[1.0, np.True_]]),
                     ("A", np.ones((1, 1), dtype=bool)), ("b", [np.array(False)]),
                     ("h", [10**400])):
        data = dict(G=[[1.0]], h=[1.0], A=[[1.0]], b=[1.0])
        data[key] = bad
        with pytest.raises(ValueError, match=repr(key)):
            LinearConstraintSystem(**data)


def test_assemble_box_rows_upper_then_lower_with_infinite_skipped():
    box = Box([0.0, -np.inf], [1.0, 2.0])
    system = assemble(box, [])
    # finite uppers first (both), then finite lowers (only the first)
    np.testing.assert_array_equal(system.G, [[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    np.testing.assert_array_equal(system.h, [1.0, 2.0, 0.0])
    assert system.A.shape == (0, 2)


def test_assemble_simplex_rows():
    system = assemble(SimplexSlice(5.0, 3), [])
    np.testing.assert_array_equal(system.G, -np.eye(3))
    np.testing.assert_array_equal(system.h, np.zeros(3))
    np.testing.assert_array_equal(system.A, np.ones((1, 3)))
    np.testing.assert_array_equal(system.b, [5.0])


def test_assemble_polyhedron_rows_verbatim():
    tri = LinearConstraintSystem(G=[[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], h=[0.0, 0.0, 1.0],
                                 A=np.zeros((0, 2)), b=np.zeros(0))
    assert assemble(tri, []) is tri
    with pytest.raises(TypeError):
        assemble((tri.G, tri.h), [])


def test_assemble_appends_unit_normalized_halfspace_rows_in_order():
    box = Box([0.0, 0.0], [1.0, 1.0])
    system = assemble(box, [([3.0, 0.0], [0.5, 0.0]), ([0.0, -2.0], [0.0, 0.25])])
    np.testing.assert_allclose(system.G[-2], [1.0, 0.0])
    np.testing.assert_allclose(system.h[-2], 0.5)
    np.testing.assert_allclose(system.G[-1], [0.0, -1.0])
    np.testing.assert_allclose(system.h[-1], -0.25)


def test_assemble_skips_whole_space_and_rejects_dimension_mismatch():
    box = Box([0.0, 0.0], [1.0, 1.0])
    system = assemble(box, [([0.0, 0.0], [0.3, 0.3]), ([1.0, 0.0], [0.3, 0.3])])
    assert system.G.shape == (5, 2)
    for bad in ([([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])], [([1.0, 0.0], [0.0, 0.0, 0.0])],
                [([1.0, 0.0], [0.0, 0.0]), ([1.0], [0.0])]):
        with pytest.raises(ValueError):
            assemble(box, bad)
    with pytest.raises(ValueError):
        ConstraintStore(box).add_with_slab(np.array([1.0, 0.0, 0.0]), np.zeros(3),
                                           np.zeros(2), np.zeros(2))


def test_extending_a_stacked_system_one_halfspace_at_a_time_matches_stacking_all():
    # one assemble of every cut, assemble chained on its own results and a
    # store grown one cut per iteration hold the same rows bit for bit: a
    # zero-normal cut adds no row and a LinearConstraintSystem base keeps its
    # rows verbatim.  assemble's results own exact-size arrays.
    rng = np.random.default_rng(11)
    sets = [
        Box([0.0, -np.inf, -1.0], [1.0, 2.0, np.inf]),
        SimplexSlice(5.0, 40),
        LinearConstraintSystem(G=[[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                               h=[3.0, 1.0, 1.0], A=[[0.0, 0.0, 1.0]], b=[0.5]),
    ]
    for C in sets:
        n = assemble(C, []).n
        m = assemble(C, []).G.shape[0]
        cuts = [(rng.normal(size=n) * (7.0 if i % 2 else 1.0), rng.normal(size=n))
                for i in range(80)]
        cuts.insert(5, (np.zeros(n), rng.normal(size=n)))
        stacked = assemble(C, cuts)
        grown = assemble(C, [])
        store = ConstraintStore(C)
        for normal, point in cuts:
            grown = assemble(grown, [(normal, point)])
            store.add_with_slab(normal, point, np.zeros(n), point)
        assert stacked.G.shape[0] == store.rows == m + 80
        assert stacked.G.base is None and stacked.h.base is None
        for system in (grown, store.system):
            for name in ("G", "h", "A", "b"):
                assert np.array_equal(getattr(system, name), getattr(stacked, name)), name
                assert getattr(system, name).dtype == np.float64


def test_a_new_store_holds_the_sets_own_system_and_a_zero_cut_keeps_it():
    sets = [Box([0.0, -np.inf, -1.0], [1.0, 2.0, np.inf]), SimplexSlice(5.0, 3),
            LinearConstraintSystem(G=[[1.0, 1.0, 1.0]], h=[3.0], A=[[0.0, 0.0, 1.0]], b=[0.5])]
    for C in sets:
        base = assemble(C, [])
        system = ConstraintStore(C).system
        assert system is base
        assert system.A is base.A and system.b is base.b
        assert assemble(C, [(np.zeros(3), [1.0, 2.0, 3.0])]) is getattr(C, "constraints", C)


def test_a_store_system_keeps_its_rows_when_the_store_grows():
    rng = np.random.default_rng(12)
    C = SimplexSlice(5.0, 4)
    store = ConstraintStore(C)
    # before any cut the store's system is the set's own system
    assert store.system is assemble(C, [])
    for name in ("G", "h", "A", "b"):
        np.testing.assert_array_equal(getattr(store.system, name), getattr(assemble(C, []), name))
    snapshots = []
    for _ in range(40):
        normal, point = rng.normal(size=4), rng.normal(size=4)
        store.add_with_slab(normal, point, np.zeros(4), point)
        system = store.system
        # taken twice without a store call in between: the same rows
        for name in ("G", "h", "A", "b"):
            np.testing.assert_array_equal(getattr(store.system, name), getattr(system, name))
        snapshots.append((system, system.G.copy(), system.h.copy()))
    for system, G, h in snapshots:
        np.testing.assert_array_equal(system.G, G)
        np.testing.assert_array_equal(system.h, h)
        assert system.A is store.system.A and system.b is store.system.b
    for name in ("G", "h", "A", "b"):
        with pytest.raises(ValueError):
            getattr(store.system, name)[...] = 0.0


@pytest.mark.parametrize("normal, row", [
    ([1e200, 1e200], [2.0 ** -0.5, 2.0 ** -0.5]),  # the sum of squares overflows
    ([1e-170, 0.0], [1.0, 0.0]),  # the sum of squares underflows to 0
], ids=["overflow", "underflow"])
def test_a_cut_whose_norm_over_or_underflows_keeps_its_row(normal, row):
    normal, point = np.array(normal), np.array([1.0, 0.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = assemble(_space(2), [(normal, point), (np.zeros(2), point)])
        store = ConstraintStore(_space(2))
        store.add_with_slab(normal, point, np.zeros(2), point)
        store.add_with_slab(np.zeros(2), point, np.zeros(2), point)
    # one row each: the zero normal still adds none
    for s in (system, store.system):
        assert s.G.shape == (1, 2)
        np.testing.assert_allclose(s.G[0], row, rtol=1e-15, atol=0.0)
        assert s.h[0] == pytest.approx(row[0], rel=1e-15)


STORE_SETS = [
    SimplexSlice(5.0, 4),
    Box([0.0, -np.inf, -1.0, -2.0], [1.0, 2.0, np.inf, 2.0]),
    # the first row is constant on the plane sum(y) = 1, so the screen makes it inert
    LinearConstraintSystem(G=[[1.0, 1.0, 1.0, 1.0], [-1.0, 0.0, 0.0, 0.0]], h=[2.0, 1.0],
                           A=[[1.0, 1.0, 1.0, 1.0]], b=[1.0]),
]


@pytest.mark.parametrize("C", STORE_SETS, ids=["slice", "box", "vanishing-row"])
def test_the_store_reduces_its_rows_as_reduce_does(C):
    rng = np.random.default_rng(21)
    store = ConstraintStore(C)
    taken = []
    for k in range(80):
        normal = rng.normal(size=4)
        if k == 7:
            normal = np.zeros(4)  # adds no row
        elif k == 11:
            normal = np.ones(4)  # constant on the plane of the slice and of the last set
            ones = store.rows
        point = np.full(4, 2.0) if k == 11 else rng.normal(size=4)
        # the slab of iteration 0 is anchored at x0 itself, so it adds no row
        slab = np.zeros(4) if k == 0 else rng.normal(size=4)
        system = store.add_with_slab(normal, point, slab, rng.normal(size=4))
        assert system.G.shape[0] == store.rows + (k > 0)
        np.testing.assert_array_equal(system.G[:store.rows], store.system.G)
        form = sets._reduced_form(system)
        basis = sets._affine_basis(system.A, system.b)
        ref = sets._frozen_form(*basis, *sets._reduced_rows(system.G, system.h, *basis))
        # one reduced row per system row, in the system's order
        assert form.rows.shape[0] == form.rhs.size == form.norms.size == system.G.shape[0]
        inert = form.norms == np.inf
        np.testing.assert_array_equal(inert, ref.norms == np.inf)
        assert not form.rows[inert].any() and not form.rhs[inert].any()
        for name in ("rows", "rhs", "norms"):
            got, want = getattr(form, name), getattr(ref, name)
            np.testing.assert_array_equal(got[inert], want[inert], err_msg=name)
            np.testing.assert_allclose(got[~inert], want[~inert],
                                       rtol=0.0, atol=1e-15, err_msg=name)
        arrays = {name: getattr(system, name) for name in "Gh"}
        arrays.update((name, arr) for name, arr in vars(form).items() if arr is not None)
        for name, arr in arrays.items():
            assert not arr.flags.writeable, name
        taken.append((arrays, {name: arr.copy() for name, arr in arrays.items()}))
    # the ones cut vanishes on the plane of the slice and of the last set, and
    # it and the last set's first row are the only inert rows
    expected = [] if isinstance(C, Box) else [ones] if isinstance(C, SimplexSlice) else [0, ones]
    np.testing.assert_array_equal(np.flatnonzero(form.norms == np.inf), expected)
    # a system taken at iteration k keeps its arrays through the later adds
    for arrays, copies in taken:
        for name, arr in arrays.items():
            np.testing.assert_array_equal(arr, copies[name], err_msg=name)


def _add_then_with_cut(base, reference, normal, point, slab_normal, slab_point):
    """The store's step as two calls, the former ``add`` and ``with_cut``: the
    reference for ``add_with_slab``.  ``reference`` holds the stored rows, the
    last call's reduced form and the stored rows it covers; returns the
    system's rows, its reduced rows and the new ``reference``."""
    (G, h), form, start = reference
    n = base.n
    row, rhs, _ = sets._unit_rows(as_point(normal, n)[None], as_point(point, n)[None])
    stored = np.concatenate([G, row]), np.concatenate([h, rhs])
    row, rhs, _ = sets._unit_rows(as_point(slab_normal, n)[None], as_point(slab_point, n)[None])
    G, h = np.concatenate([stored[0], row]), np.concatenate([stored[1], rhs])
    basis = sets._affine_basis(base.A, base.b) if form is None else (form.y_part, form.Z)
    new = sets._frozen_form(*basis, *sets._reduced_rows(G[start:], h[start:], *basis))
    reduced = [np.concatenate([getattr(form, name)[:start], getattr(new, name)])
               if start else getattr(new, name) for name in ("rows", "rhs", "norms")]
    return (G, h), reduced, (stored, sets._ReducedForm(*basis, *reduced), stored[1].size)


@pytest.mark.parametrize("C", STORE_SETS + [Box(-np.ones(20), np.ones(20))],
                         ids=["slice", "box", "vanishing-row", "box-20"])
def test_one_store_call_writes_the_rows_of_add_then_with_cut(C):
    # bit for bit: the raw rows stored, the system's rows and its reduced
    # rows, through a zero cut normal, the zero slab normal of the first
    # iteration (x = x0) and normals whose squares over- and underflow
    base = ConstraintStore(C).system
    n, m = base.n, base.h.size
    rng = np.random.default_rng(31)
    store, reference = ConstraintStore(C), ((base.G, base.h), None, 0)
    for k in range(80):
        normal, point = rng.normal(size=n), rng.normal(size=n)
        slab_normal, slab_point = rng.normal(size=n), rng.normal(size=n)
        if k == 0:
            slab_normal = np.zeros(n)
        elif k == 9:
            normal = np.zeros(n)
        elif k == 13:
            normal = normal * 1e200
        elif k == 17:
            slab_normal = np.zeros(n)
            slab_normal[0] = 1e-170
        args = (normal, point, slab_normal, slab_point)
        system = store.add_with_slab(*args)
        (G, h), reduced, reference = _add_then_with_cut(base, reference, *args)
        (stored_G, stored_h), _, rows = reference
        assert store.rows == rows == m + k + (k < 9)
        for got, want in [(store.system.G, stored_G), (store.system.h, stored_h),
                          (system.G, G), (system.h, h)]:
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        form = sets._reduced_form(system)
        for got, want in zip((form.rows, form.rhs, form.norms), reduced):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _unit_rows_by_linalg_norm(normals, points):
    """The reference for ``_unit_rows``: ``np.linalg.norm``, and the scaled
    retry after any over- or underflow."""
    try:
        with np.errstate(over="raise", under="raise"):
            norms = np.linalg.norm(normals, axis=1)
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            norms = np.linalg.norm(normals, axis=1)
            scale = np.abs(normals).max(axis=1)
            scaled = ((norms == 0.0) | (norms == np.inf)) & (scale > 0.0)
            normals = normals / np.where(scaled, scale, 1.0)[:, None]
            norms = np.where(scaled, np.linalg.norm(normals, axis=1), norms)
    keep = norms > 0.0
    rows = normals[keep] / norms[keep, None]
    return rows, np.einsum("ij,ij->i", rows, points[keep]), keep


@pytest.mark.parametrize("n", [2, 5, 20])
def test_the_stores_unchecked_entry_and_its_norms_are_bitwise_the_checked_ones(n):
    # seeded two-row batches, with normals whose sum of squares overflows,
    # underflows to 0 or loses an entry to underflow, and zero normals: the
    # normaliser is bitwise np.linalg.norm's, and the store, whose caller
    # checks its vectors, holds bitwise the rows, raw and reduced, that the
    # checked assemble makes of the slab and every cut so far, of each set
    # of twins (cuts of bitwise the same unit normal) the tightest
    rng = np.random.default_rng(41)
    C = Box(-np.ones(n), np.ones(n))
    store, tightest = ConstraintStore(C), {}  # unit-row bytes -> (cut, rhs)
    x0 = rng.normal(size=n)
    for k in range(120):
        normals = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 1))
        points = rng.normal(size=(2, n))
        row = k % 2
        case = k // 2 % 5
        if case == 1:
            normals[row] *= 1e200
        elif case == 2:
            normals[row] = 0.0
            normals[row, k % n] = 1e-170
        elif case == 3:
            normals[row, k % n] = 1e-170
        elif case == 4:
            normals[row] = 0.0
        # every cut keeps the origin, so that each system can be solved
        points[np.einsum("ij,ij->i", normals, points) < 0.0] *= -1.0
        rows, rhs, keep = sets._unit_rows(normals, points)
        ref = _unit_rows_by_linalg_norm(normals, points)
        assert np.asarray(keep).tolist() == ref[2].tolist()
        assert rows.tobytes() == ref[0].tobytes() and rhs.tobytes() == ref[1].tobytes()
        with np.errstate(over="ignore", under="ignore"):
            assert sets._norms(normals).tobytes() == np.linalg.norm(normals, axis=1).tobytes()
        cut, slab = (normals[0], points[0]), (normals[1], points[1])
        system = store.add_with_slab(*cut, *slab)
        own = assemble(_space(n), [cut])
        if own.h.size:
            key = own.G[0].tobytes()
            if key not in tightest or own.h[0] < tightest[key][1]:
                tightest[key] = cut, own.h[0]
        cuts = [cut for cut, _ in tightest.values()]
        systems = [system, assemble(C, cuts + [slab])]
        assert store.rows == assemble(C, cuts).h.size
        forms = [sets._reduced_form(system) for system in systems]
        for name in ("G", "h"):
            assert getattr(systems[0], name).tobytes() == getattr(systems[1], name).tobytes()
        for name in ("rows", "rhs", "norms"):
            assert getattr(forms[0], name).tobytes() == getattr(forms[1], name).tobytes()
        least_distance(systems[0], x0)


def _general_add(store, *args):
    """``store.add_with_slab`` with every row taking ``_unit_rows``' NumPy
    branch: the reference for the one-pass append."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sets, "_SHORT", 0)
        return store.add_with_slab(*args)


@pytest.mark.parametrize("n", [1, 2, 5, 7, 8])
@pytest.mark.parametrize("kind", ["box", "slice", "unbounded"])
def test_the_one_pass_append_is_bitwise_the_general_path(kind, n, monkeypatch):
    # two stores fed the same cuts and slabs, one through the one-pass append
    # and one through _unit_rows' NumPy branch, through zero normals,
    # normals whose squares overflow or underflow to 0 or lose an entry to
    # underflow, and (on the slice) a cut that vanishes on its plane; every
    # row keeps the point c of C, so that every system can be solved.  The
    # unbounded box has no row, so its first call, whose slab is nonzero
    # here, appends to 0 stored rows
    C = {"box": Box(-np.ones(n), np.ones(n)), "slice": SimplexSlice(3.0, n),
         "unbounded": Box(np.full(n, -np.inf), np.full(n, np.inf))}[kind]
    c = np.full(n, 3.0 / n) if kind == "slice" else np.zeros(n)
    fast, general = ConstraintStore(C), ConstraintStore(C)
    assert kind != "unbounded" or fast.rows == 0
    # one entry per _unit_rows call, True when it took its NumPy branch, the
    # one place in it that takes norms
    numpy_calls, inside = [], [False]
    unit_rows, plain_norms = sets._unit_rows, sets._norms

    def counted_unit_rows(normals, points):
        numpy_calls.append(False)
        inside[0] = True
        result = unit_rows(normals, points)
        inside[0] = False
        return result

    def counted_norms(rows):
        if inside[0]:
            numpy_calls[-1] = True
        return plain_norms(rows)

    monkeypatch.setattr(sets, "_unit_rows", counted_unit_rows)
    monkeypatch.setattr(sets, "_norms", counted_norms)
    rng = np.random.default_rng(51 + n)
    x0 = c + rng.normal(size=n)
    special = fast_calls = 0
    for k in range(60):
        normals = rng.normal(size=(2, n)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(2, 1))
        row, case = k % 2, k // 2 % 7
        if case == 1:
            normals[row] *= 1e200
        elif case == 2:
            normals[row] = 0.0
            normals[row, k % n] = 1e-170
        elif case == 3:
            normals[row, k % n] = 1e-170
        elif case == 4:
            normals[row] = 0.0
        elif case == 5 and kind == "slice":
            normals[row] = 1.0
        offsets = rng.normal(size=(2, n))
        offsets[np.einsum("ij,ij->i", normals, offsets) < 0.0] *= -1.0
        with np.errstate(over="ignore", under="ignore"):
            norms = sets._norms(normals)
        special += not ((0.0 < norms) & (norms < np.inf)).all()
        args = (normals[0], c + offsets[0], normals[1], c + offsets[1])
        before = len(numpy_calls)
        systems = [fast.add_with_slab(*args)]
        fast_calls += sum(numpy_calls[before:])
        systems.append(_general_add(general, *args))
        assert fast.rows == general.rows
        forms = [sets._reduced_form(system) for system in systems]
        for got, want in [(fast.system, general.system), *zip(systems[:1], systems[1:]),
                          *zip(forms[:1], forms[1:])]:
            for name, arr in vars(want).items():
                if isinstance(arr, np.ndarray):
                    other = getattr(got, name)
                    assert other.shape == arr.shape and other.tobytes() == arr.tobytes(), name
                    assert not other.flags.writeable, name
        assert forms[0].y_part is forms[1].y_part and forms[0].Z is forms[1].Z
        for system in systems:
            least_distance(system, x0)
    # the fast store takes the NumPy branch exactly where a norm is 0 or inf,
    # and on every call when rows are longer than 7
    assert fast_calls == (60 if n > 7 else special)


# a set of each kind, with a point c of it that every cut and slab below keeps
TWIN_SETS = [
    (Box(-np.ones(3), np.ones(3)), np.zeros(3)),
    (SimplexSlice(3.0, 3), np.ones(3)),
    (LinearConstraintSystem(G=[[1.0, 2.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
                            h=[4.0, 1.0, 1.0], A=np.zeros((0, 3)), b=np.zeros(0)),
     np.zeros(3)),
]


def _kept_cut(normal, c, offset):
    """A cut with ``normal`` whose row holds ``c`` with slack ``offset * |normal|``."""
    return normal, c + offset * normal


@pytest.mark.parametrize("C, c", TWIN_SETS, ids=["box", "slice", "general"])
def test_a_twin_cut_appends_no_row_and_keeps_the_smaller_right_hand_side(C, c):
    # a cut whose unit normal is bitwise a stored cut's (a scaling by a power
    # of 2 keeps it) appends no row: the twin's row keeps the smaller
    # right-hand side, raw and reduced, written into the new system's own
    # arrays, and every row and reduced row stays bit for bit.  Each system
    # projects x0 as the one assembled from every cut and its slab does.
    store = ConstraintStore(C)
    m = store.rows
    a, b = np.array([1.0, -1.0, 0.5]), np.array([0.0, 1.0, 1.0])
    x0 = c + np.array([3.0, -2.0, 1.0])
    slab = np.array([0.5, 0.25, -1.0])
    steps = [  # (cut, the stored row it lands on, whether that row's rhs changes)
        (_kept_cut(a, c, 1.0), m, True),
        (_kept_cut(b, c, 2.0), m + 1, True),
        (_kept_cut(2.0 * a, c, 0.25), m, True),  # tighter: lowers row m
        (_kept_cut(a, c, 1.5), m, False),  # looser: leaves it
        (_kept_cut(np.zeros(3), c, 0.0), None, False),  # a zero normal: no row
        (_kept_cut(0.5 * b, c, 2.0), m + 1, True),  # tighter: lowers row m + 1
        (_kept_cut(b, c, 4.0), m + 1, False),
    ]
    cuts, taken = [], []
    previous = store.system, None
    for k, (cut, row, changes) in enumerate(steps):
        slab_normal = np.zeros(3) if k == 0 else slab * (k + 1)
        system = store.add_with_slab(*cut, slab_normal, c + slab_normal)
        cuts.append(cut)
        rows = store.rows
        assert rows == m + min(k + 1, 2) and system.G.shape[0] == rows + (k > 0)
        before, before_form = previous
        stored = before.h.size
        assert system.G[:stored].tobytes() == before.G.tobytes()
        changed = np.flatnonzero(system.h[:stored] != before.h)
        if row is not None and row < stored:
            assert changed.tolist() == ([row] if changes else [])
            # the kept right-hand side is the one the cut's own row has
            own = assemble(_space(3), [cut]).h[0]
            assert system.h[row] == min(own, before.h[row])
        else:
            assert changed.size == 0
        form = sets._reduced_form(system)
        if before_form is not None:
            for name in ("rows", "norms"):
                got, want = getattr(form, name)[:stored], getattr(before_form, name)[:stored]
                assert got.tobytes() == want.tobytes(), name
            reduced = np.flatnonzero(form.rhs[:stored] != before_form.rhs[:stored])
            assert reduced.tolist() == changed.tolist()
        basis = sets._affine_basis(system.A, system.b)
        reference = sets._reduced_rows(system.G, system.h, *basis)[1]
        np.testing.assert_allclose(form.rhs, reference, rtol=0.0, atol=1e-15)
        solution = least_distance(system, x0)
        assembled = assemble(C, cuts + [(slab_normal, c + slab_normal)])
        np.testing.assert_allclose(solution.point, least_distance(assembled, x0).point,
                                   rtol=0.0, atol=1e-10)
        taken.append((system, form, system.h.copy(), form.rhs.copy()))
        previous = store.system, form
    # an earlier system keeps its right-hand sides through the later merges
    for system, form, h, rhs in taken:
        assert system.h.tobytes() == h.tobytes() and form.rhs.tobytes() == rhs.tobytes()


def test_a_twin_whose_reduced_row_is_inert_and_violated_raises_as_an_appended_row_does():
    # on the plane sum(y) = 3 the row of the normal (1, 1, 1) is constant at
    # sqrt(3): the first cut keeps the plane, and a tighter twin empties it
    C = SimplexSlice(3.0, 3)
    ones, slab = np.ones(3), np.array([1.0, -1.0, 0.0])
    wide, tight = (ones, np.full(3, 2.0)), (2.0 * ones, np.full(3, 0.5))
    store = ConstraintStore(C)
    store.add_with_slab(*wide, np.zeros(3), ones)
    rows, last = store.rows, store.system
    with pytest.raises(InfeasibleSystem) as merged:
        store.add_with_slab(*tight, slab, ones + slab)
    assert store.rows == rows and store.system.h.tobytes() == last.h.tobytes()
    # the same cut appended, as a store without the wide cut does
    appending = ConstraintStore(C)
    appending.add_with_slab(np.eye(3)[0], 2.0 * np.eye(3)[0], np.zeros(3), ones)
    with pytest.raises(InfeasibleSystem) as appended:
        appending.add_with_slab(*tight, slab, ones + slab)
    assert str(merged.value) == str(appended.value)
    with pytest.raises(InfeasibleSystem):
        least_distance(assemble(C, [wide, tight]), ones)


_TWIN_KINDS = {
    "box": lambda n: (Box(-np.ones(n), np.ones(n)), np.zeros(n)),
    "slice": lambda n: (SimplexSlice(float(n), n), np.ones(n)),
    "general": lambda n: (LinearConstraintSystem(
        G=np.vstack([np.ones(n), -np.eye(n)[0]]), h=[float(n), 1.0],
        A=np.eye(n)[-1:], b=[0.0]), np.zeros(n)),
}


@st.composite
def _repeating_cuts(draw):
    """A set, a point c of it, a start x0 and a sequence of (cut, slab) pairs,
    each keeping c, whose cut normals are drawn from a pool of at most three,
    scaled by powers of 2, so that twins are common."""
    kind = draw(st.sampled_from(sorted(_TWIN_KINDS)))
    n = draw(st.integers(2, 4))
    C, c = _TWIN_KINDS[kind](n)
    vector = st.lists(st.integers(-3, 3), min_size=n, max_size=n).map(lambda v: np.array(v, float))
    pool = draw(st.lists(vector, min_size=1, max_size=3))
    x0 = c + draw(vector)
    steps = []
    for _ in range(draw(st.integers(1, 10))):
        normal = pool[draw(st.integers(0, len(pool) - 1))] * draw(st.sampled_from([0.5, 1, 4]))
        slab = draw(vector) * 1.0
        offset, slab_offset = draw(st.integers(0, 4)) / 2, draw(st.integers(0, 4)) / 2
        steps.append(((normal, c + offset * normal), (slab, c + slab_offset * slab)))
    return C, x0, steps


@settings(max_examples=150, deadline=None)
@given(case=_repeating_cuts())
def test_a_store_with_twins_projects_as_the_assembled_system(case):
    # every anchored projection of a store fed cuts with repeated normals is
    # the projection onto C, every cut so far and the slab, assembled, and
    # the store holds C's rows plus one per distinct unit normal
    C, x0, steps = case
    store, cuts = ConstraintStore(C), []
    m = store.rows
    for cut, slab in steps:
        system = store.add_with_slab(*cut, *slab)
        cuts.append(cut)
        got = least_distance(system, x0).point
        want = least_distance(assemble(C, cuts + [slab]), x0).point
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-10)
        distinct = {row.tobytes() for row in assemble(C, cuts).G[m:]}
        assert store.rows == m + len(distinct)


@pytest.mark.parametrize("n", range(1, 8))
def test_the_python_float_norm_is_bitwise_norms(n):
    # _unit's loop sums a row left to right, as NumPy's add.reduce does for
    # rows of at most 7 entries; sqrt and / are correctly rounded in both
    rng = np.random.default_rng(61 + n)
    rows = rng.normal(size=(4000, n)) * 10.0 ** rng.uniform(-150.0, 150.0, size=(4000, 1))
    for batch in (rows, rows.reshape(-1, 2, n)):
        batch = batch.reshape(-1, 2, n) if batch.ndim == 3 else batch[None]
        for normals in batch:
            norms = sets._norms(normals)
            units = normals / norms[:, None]
            for row, unit in zip(normals.tolist(), units):
                assert np.array(sets._unit(row)).tobytes() == unit.tobytes()
    # a sum of squares that is 0, overflows or is NaN is left to NumPy
    for row in ([0.0] * n, [1e-170] * n, [1e200] + [0.0] * (n - 1),
                [np.inf] + [1.0] * (n - 1), [np.nan] * n):
        assert sets._unit(row) is None


@st.composite
def _short_batches(draw):
    """1 to 3 normals of 1 to 7 entries and as many points: random rows,
    all-zero rows, and rows whose squares underflow to 0 or overflow."""
    n, k = draw(st.integers(1, 7)), draw(st.integers(1, 3))
    entries = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
    scales = st.sampled_from([1.0, 0.0, 1e-170, 1e200])
    normals = np.array([np.array(draw(entries)) * draw(scales) for _ in range(k)])
    points = np.array([draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n))
                       for _ in range(k)])
    return normals, points


@settings(max_examples=300, deadline=None)
@given(batch=_short_batches())
def test_the_short_branch_of_the_normaliser_is_bitwise_its_numpy_branch(batch):
    # _unit_rows normalises rows of at most _SHORT entries on Python floats;
    # with _SHORT = 0 every row takes the NumPy branch.  The rows are passed
    # as the store passes them, one array each
    normals, points = batch
    short = sets._unit_rows(list(normals), points)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sets, "_SHORT", 0)
        general = sets._unit_rows(list(normals), points)
    for got, want in zip(short[:2], general[:2]):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
    assert np.asarray(short[2]).tolist() == np.asarray(general[2]).tolist()


def test_a_sets_constraints_are_the_checked_system_built_unchecked(monkeypatch):
    # a box's and a slice's rows are built from bounds they checked
    # themselves, without LinearConstraintSystem's checks, and come out as
    # the checked construction would make them, every array read-only
    checks = []
    validate = sets._validate_rows
    monkeypatch.setattr(sets, "_validate_rows", lambda *a: checks.append(1) or validate(*a))
    for C in (Box([0.0, -np.inf, -1.0], [1.0, 2.0, np.inf]), Box([-np.inf] * 2, [np.inf] * 2),
              Box([-0.0], [0.0]), Box(-np.ones(4), np.ones(4)), SimplexSlice(5.0, 3),
              SimplexSlice(0.5, 1)):
        system = C.constraints
        assert not checks
        if isinstance(C, Box):
            eye = np.eye(C.dim)
            up, low = np.isfinite(C.upper), np.isfinite(C.lower)
            args = (np.vstack([eye[up], -eye[low]]),
                    np.concatenate([C.upper[up], -C.lower[low]]),
                    np.zeros((0, C.dim)), np.zeros(0))
        else:
            args = (-np.eye(C.dim), np.zeros(C.dim), np.ones((1, C.dim)), [C.a])
        checked = LinearConstraintSystem(*args)
        checks.clear()
        for name in "GhAb":
            got, want = getattr(system, name), getattr(checked, name)
            assert got.dtype == want.dtype and got.shape == want.shape, name
            assert got.tobytes() == want.tobytes(), name
            assert got.flags.c_contiguous and not got.flags.writeable, name


def test_a_sets_rows_are_built_once_and_shared_read_only():
    # the solver projects onto C two or three times per iteration; C's rows
    # must come from one system per set, which no caller can alter
    sets = [
        Box([0.0, -np.inf, -1.0], [1.0, 2.0, np.inf]),
        SimplexSlice(5.0, 3),
        LinearConstraintSystem(G=[[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0]], h=[3.0, 1.0],
                               A=[[0.0, 0.0, 1.0]], b=[0.5]),
    ]
    for C in sets:
        system = assemble(C, [])
        assert assemble(C, []) is system
        # a general polyhedral set is its own constraint system
        assert getattr(C, "constraints", C) is system
        assert assemble(system, []) is system
        assert assemble(system, [(np.zeros(3), [1.0, 2.0, 3.0])]) is system
        extended = assemble(system, [([0.0, 2.0, 0.0], [0.0, 0.5, 0.0])])
        np.testing.assert_array_equal(extended.G[-1], [0.0, 1.0, 0.0])
        for s in (system, extended):
            for name in ("G", "h", "A", "b"):
                arr = getattr(s, name)
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[...] = 0.0


def test_extension_still_rejects_non_finite_new_rows():
    box = Box([0.0, 0.0], [1.0, 1.0])
    system = assemble(box, [])
    # a finite cut whose right-hand side overflows
    huge = (np.ones(2), np.full(2, 1.7e308))
    with pytest.raises(ValueError, match="finite"):
        assemble(system, [huge])
    store = ConstraintStore(box)
    with pytest.raises(ValueError, match="finite"):
        store.add_with_slab(*huge, np.zeros(2), huge[1])
    # the store still refuses a normal that is not finite, which a NaN norm
    # would otherwise drop as a zero normal
    for normal in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="finite"):
            with np.errstate(invalid="ignore"):
                store.add_with_slab(np.zeros(2), np.zeros(2), np.array(normal), np.zeros(2))
    assert store.rows == 4


def _random_feasible_set(rng):
    kind = rng.integers(0, 3)
    n = int(rng.integers(1, 5))
    if kind == 0:
        lower = rng.normal(size=n)
        upper = lower + rng.uniform(0.5, 3.0, size=n)
        lower[rng.random(size=n) < 0.2] = -np.inf
        upper[rng.random(size=n) < 0.2] = np.inf
        return Box(lower, upper)
    if kind == 1:
        return SimplexSlice(float(rng.uniform(0.5, 10.0)), n)
    center = rng.normal(size=n)
    G = rng.normal(size=(2 * n, n))
    h = G @ center + rng.uniform(0.2, 2.0, size=2 * n)
    return LinearConstraintSystem(G=G, h=h, A=np.zeros((0, n)), b=np.zeros(0))


def test_assemble_is_set_equivalent_on_random_points():
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 1000:
        C = _random_feasible_set(rng)
        n = assemble(C, []).n
        cuts = [(rng.normal(size=n), rng.normal(size=n)) for _ in range(rng.integers(0, 4))]
        system = assemble(C, cuts)
        for _ in range(25):
            y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            # the unit row of each cut holds the same points as the cut itself
            direct = C.contains(y, 1e-10) and all(
                float(u @ (y - z)) <= 1e-10 * float(np.linalg.norm(u)) for u, z in cuts
            )
            assert system.contains(y, 1e-10) == direct
            checked += 1
