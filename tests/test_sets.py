"""Halfspaces, feasible sets, and the stacked constraint assembler."""

import numpy as np
import pytest

from vifd.sets import (
    Box,
    Halfspace,
    LinearConstraintSystem,
    SimplexSlice,
    as_point,
    assemble,
    contains,
    halfspace_from_pair,
    w_halfspace,
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


def test_halfspace_basic_geometry():
    hs = Halfspace([1.0, 0.0], [2.0, 5.0])
    assert hs.dim == 2
    assert not hs.is_whole_space
    assert contains(hs, [2.0, 100.0])
    assert contains(hs, [1.0, -3.0])
    assert not contains(hs, [2.1, 0.0])
    assert contains(hs, [2.1, 0.0], tol=0.2)


def test_halfspace_zero_normal_is_whole_space():
    hs = Halfspace([0.0, 0.0], [1.0, 1.0])
    assert hs.is_whole_space
    assert contains(hs, [1e9, -1e9])


def test_halfspace_arrays_are_read_only():
    hs = Halfspace([1.0, 1.0], [0.0, 0.0])
    with pytest.raises(ValueError):
        hs.normal[0] = 5.0


def test_halfspace_from_pair_unit_normal_through_anchor():
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = rng.integers(1, 6)
        z = rng.normal(size=n)
        u = rng.normal(size=n)
        hs = halfspace_from_pair(z, u)
        assert np.linalg.norm(hs.normal) == pytest.approx(1.0, abs=1e-12)
        # boundary passes through z, and z + u is strictly cut off
        assert contains(hs, z, tol=1e-12)
        assert not contains(hs, z + u, tol=1e-12)


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
        assert contains(halfspace_from_pair(z, u), y, tol=1e-12) == (margin < 0.0)


def test_w_halfspace_anchored_at_iterate():
    hs = w_halfspace([0.0, 0.0], [1.0, 1.0])
    np.testing.assert_allclose(hs.normal, [-1.0, -1.0])
    np.testing.assert_allclose(hs.anchor, [1.0, 1.0])
    # x0 itself must violate the slab whenever x0 != x
    assert not contains(hs, [0.0, 0.0], tol=1e-12)
    assert contains(hs, [2.0, 2.0])
    assert w_halfspace([1.0, 1.0], [1.0, 1.0]).is_whole_space


def test_pair_and_slab_halfspaces_own_read_only_arrays():
    cases = [
        (halfspace_from_pair, [1.0, 2.0], [3.0, 4.0]),
        (halfspace_from_pair, [1.0, 2.0], [0.0, 0.0]),
        (w_halfspace, [1.0, 2.0], [3.0, 4.0]),
        (w_halfspace, [1.0, 2.0], [1.0, 2.0]),
    ]
    for make, first, second in cases:
        inputs = np.array(first), np.array(second)
        hs = make(*inputs)
        expected = hs.normal.copy(), hs.anchor.copy()
        for arr in (hs.normal, hs.anchor):
            assert not arr.flags.writeable
            assert not any(np.shares_memory(arr, given) for given in inputs)
        for given in inputs:
            given[:] = 7.0
        np.testing.assert_array_equal(hs.normal, expected[0])
        np.testing.assert_array_equal(hs.anchor, expected[1])


def test_pair_and_slab_halfspaces_check_their_inputs():
    good = np.array([1.0, 2.0])
    for bad in (np.array([np.nan, 0.0]), np.array([1.0, np.inf]), np.array([1.0, 2.0, 3.0])):
        for make in (halfspace_from_pair, w_halfspace):
            with pytest.raises(ValueError):
                make(good, bad)
            if bad.size == 2:
                with pytest.raises(ValueError):
                    make(bad, good)


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


def test_simplex_slice_membership():
    s = SimplexSlice(5.0, 3)
    assert s.contains([1.0, 1.0, 3.0])
    assert not s.contains([1.0, 1.0, 3.5])
    assert not s.contains([-0.5, 2.5, 3.0])
    with pytest.raises(ValueError):
        SimplexSlice(0.0, 3)
    with pytest.raises(ValueError):
        SimplexSlice(1.0, 0)


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
    h1 = Halfspace([3.0, 0.0], [0.5, 0.0])
    h2 = Halfspace([0.0, -2.0], [0.0, 0.25])
    system = assemble(box, [h1, h2])
    np.testing.assert_allclose(system.G[-2], [1.0, 0.0])
    np.testing.assert_allclose(system.h[-2], 0.5)
    np.testing.assert_allclose(system.G[-1], [0.0, -1.0])
    np.testing.assert_allclose(system.h[-1], -0.25)


def test_assemble_skips_whole_space_and_rejects_dimension_mismatch():
    box = Box([0.0, 0.0], [1.0, 1.0])
    system = assemble(box, [Halfspace([0.0, 0.0], [0.3, 0.3])])
    assert system.G.shape == (4, 2)
    with pytest.raises(ValueError):
        assemble(box, [Halfspace([1.0, 0.0, 0.0], [0.0, 0.0, 0.0])])


def test_extending_a_stacked_system_one_halfspace_at_a_time_matches_stacking_all():
    # the solver grows its constraint store by one cut per iteration; its
    # trajectories equal those of stacking every cut at once only while the
    # arrays are identical
    rng = np.random.default_rng(11)
    sets = [
        Box([0.0, -np.inf, -1.0], [1.0, 2.0, np.inf]),
        SimplexSlice(5.0, 40),
        LinearConstraintSystem(G=[[1.0, 1.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]],
                               h=[3.0, 1.0, 1.0], A=[[0.0, 0.0, 1.0]], b=[0.5]),
    ]
    for C in sets:
        n = assemble(C, []).n
        halfspaces = [
            halfspace_from_pair(rng.normal(size=n), rng.normal(size=n))
            if i % 2 else Halfspace(rng.normal(size=n) * 7.0, rng.normal(size=n))
            for i in range(12)
        ]
        halfspaces.insert(5, Halfspace(np.zeros(n), rng.normal(size=n)))
        stacked = assemble(C, halfspaces)
        grown = assemble(C, [])
        for hs in halfspaces:
            grown = assemble(grown, [hs])
        assert stacked.G.shape[0] == assemble(C, []).G.shape[0] + 12
        for name in ("G", "h", "A", "b"):
            assert np.array_equal(getattr(grown, name), getattr(stacked, name)), name


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
        assert assemble(system, [Halfspace(np.zeros(3), [1.0, 2.0, 3.0])]) is system
        extended = assemble(system, [Halfspace([0.0, 2.0, 0.0], [0.0, 0.5, 0.0])])
        np.testing.assert_array_equal(extended.G[-1], [0.0, 1.0, 0.0])
        for s in (system, extended):
            for name in ("G", "h", "A", "b"):
                arr = getattr(s, name)
                assert not arr.flags.writeable, name
                with pytest.raises(ValueError):
                    arr[...] = 0.0


def test_extension_still_rejects_non_finite_new_rows():
    system = assemble(Box([0.0, 0.0], [1.0, 1.0]), [])
    # a finite halfspace whose right-hand side overflows
    huge = Halfspace([1.0, 1.0], [1.7e308, 1.7e308])
    with pytest.raises(ValueError, match="finite"):
        assemble(system, [huge])


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
        halfspaces = [
            halfspace_from_pair(rng.normal(size=n), rng.normal(size=n))
            for _ in range(rng.integers(0, 4))
        ]
        system = assemble(C, halfspaces)
        for _ in range(25):
            y = rng.normal(size=n) * rng.uniform(0.5, 3.0)
            direct = C.contains(y, 1e-10) and all(
                contains(hs, y, 1e-10) for hs in halfspaces
            )
            assert system.contains(y, 1e-10) == direct
            checked += 1
