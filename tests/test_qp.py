"""Projection solver: analytic cross-checks, KKT certificates, contraction properties."""

import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from oracle import UnsupportedShape, kkt_residual_lstsq, oracle_project
from test_solver import run_iterations
import vifd.solver
from vifd import qp, sets
from vifd.operators import make_problem
from vifd.qp import InfeasibleSystem, MaxPivots, least_distance, simplex_projection
from vifd.sets import Box, ConstraintStore, LinearConstraintSystem, SimplexSlice, assemble
from vifd.solver import SolverParams, SolverState, solve, step


def _system(G, h, A=None, b=None):
    n = np.atleast_2d(G).shape[1] if np.size(G) else np.atleast_2d(A).shape[1]
    if A is None:
        A, b = np.zeros((0, n)), np.zeros(0)
    return LinearConstraintSystem(G, h, A, b)


def _random_inequality_system(rng, n=None, m=None):
    """Rows through a known interior point, so the set is nonempty by design."""
    n = n if n is not None else int(rng.integers(1, 5))
    m = m if m is not None else int(rng.integers(1, 2 * n + 3))
    center = rng.normal(size=n)
    G = rng.normal(size=(m, n))
    margins = rng.uniform(0.1, 1.5, size=m)
    h = G @ center + margins
    radius = float(np.min(margins / np.linalg.norm(G, axis=1)))
    return _system(G, h), center, radius


def _interior_sample(rng, center, radius):
    d = rng.normal(size=center.size)
    d /= np.linalg.norm(d)
    return center + d * rng.uniform(0.0, 0.95 * radius)


def test_no_constraints_returns_the_point():
    system = _system(np.zeros((0, 3)), np.zeros(0))
    sol = least_distance(system, [1.0, -2.0, 3.0])
    np.testing.assert_array_equal(sol.point, [1.0, -2.0, 3.0])
    assert sol.active_set == []
    assert sol.kkt_residual == 0.0


def test_box_projection_is_clipping():
    rng = np.random.default_rng(0)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        lower = rng.normal(size=n)
        upper = lower + rng.uniform(0.2, 2.0, size=n)
        system = assemble(Box(lower, upper), [])
        y = rng.normal(size=n) * 2.0
        sol = least_distance(system, y)
        np.testing.assert_allclose(sol.point, np.clip(y, lower, upper), atol=1e-10)
        assert sol.kkt_residual <= 1e-8


def test_single_halfspace_projection_formula():
    rng = np.random.default_rng(1)
    for _ in range(300):
        n = int(rng.integers(1, 6))
        g = rng.normal(size=n)
        rhs = float(rng.normal())
        y = rng.normal(size=n) * 3.0
        gap = float(g @ y - rhs)
        expected = y - max(gap, 0.0) * g / float(g @ g)
        sol = least_distance(_system(g.reshape(1, -1), [rhs]), y)
        np.testing.assert_allclose(sol.point, expected, atol=1e-9)


def test_equality_projection_matches_normal_equations():
    rng = np.random.default_rng(2)
    for _ in range(200):
        n = int(rng.integers(2, 6))
        p = int(rng.integers(1, n))
        A = rng.normal(size=(p, n))
        b = rng.normal(size=p)
        y = rng.normal(size=n)
        nu = np.linalg.solve(A @ A.T, A @ y - b)
        expected = y - A.T @ nu
        sol = least_distance(_system(np.zeros((0, n)), np.zeros(0), A, b), y)
        np.testing.assert_allclose(sol.point, expected, atol=1e-9)


def test_triangle_projections_frozen():
    tri = _system([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    np.testing.assert_allclose(
        least_distance(tri, [0.8, 0.9]).point, [0.45, 0.55], atol=1e-12
    )
    np.testing.assert_allclose(
        least_distance(tri, [2.0, 2.0]).point, [0.5, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        least_distance(tri, [-1.0, 0.5]).point, [0.0, 0.5], atol=1e-12
    )
    np.testing.assert_allclose(
        least_distance(tri, [0.2, 0.3]).point, [0.2, 0.3], atol=1e-12
    )


def test_equalities_that_pin_a_single_point():
    system = _system([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], np.eye(2), [0.3, 0.4])
    sol = least_distance(system, [100.0, -100.0])
    np.testing.assert_allclose(sol.point, [0.3, 0.4], atol=1e-12)
    assert sol.active_set == []


def test_active_rows_are_tight_and_multiplier_signs_certified():
    rng = np.random.default_rng(3)
    for _ in range(200):
        system, center, radius = _random_inequality_system(rng)
        y = rng.normal(size=center.size) * 2.0
        sol = least_distance(system, y)
        assert sol.kkt_residual <= 1e-8
        assert system.max_violation(sol.point) <= 1e-8
        for i in sol.active_set:
            assert abs(float(system.G[i] @ sol.point - system.h[i])) <= 1e-7


def test_projection_is_idempotent():
    rng = np.random.default_rng(4)
    done = 0
    while done < 1000:
        system, center, radius = _random_inequality_system(rng)
        for _ in range(10):
            y = rng.normal(size=center.size) * 2.5
            once = least_distance(system, y).point
            twice = least_distance(system, once).point
            np.testing.assert_allclose(twice, once, atol=1e-9)
            done += 1


def test_obtuse_angle_against_interior_points():
    rng = np.random.default_rng(5)
    done = 0
    while done < 1000:
        system, center, radius = _random_inequality_system(rng)
        for _ in range(10):
            y = rng.normal(size=center.size) * 2.5
            proj = least_distance(system, y).point
            c = _interior_sample(rng, center, radius)
            assert float((y - proj) @ (c - proj)) <= 1e-8
            done += 1


def test_firm_nonexpansiveness():
    rng = np.random.default_rng(6)
    done = 0
    while done < 1000:
        system, center, radius = _random_inequality_system(rng)
        for _ in range(10):
            y1 = rng.normal(size=center.size) * 2.5
            y2 = rng.normal(size=center.size) * 2.5
            p1 = least_distance(system, y1).point
            p2 = least_distance(system, y2).point
            lhs = float(np.sum((p1 - p2) ** 2))
            rhs = float((p1 - p2) @ (y1 - y2))
            assert lhs <= rhs + 1e-8
            done += 1


def test_warm_start_reproduces_cold_solution():
    rng = np.random.default_rng(7)
    for _ in range(200):
        system, center, radius = _random_inequality_system(rng, n=3)
        y = rng.normal(size=3) * 2.0
        cold = least_distance(system, y)
        shifted = y + rng.normal(size=3) * 0.05
        ref = least_distance(system, shifted)
        warm = least_distance(system, shifted, warm_start=cold.active_set)
        np.testing.assert_allclose(warm.point, ref.point, atol=1e-9)
        assert warm.kkt_residual <= 1e-8


def test_warm_start_ignores_out_of_range_indices():
    tri = _system([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    sol = least_distance(tri, [2.0, 2.0], warm_start=[-4, 2, 99, 2])
    np.testing.assert_allclose(sol.point, [0.5, 0.5], atol=1e-10)


def test_warm_start_accepts_a_numpy_array():
    tri = _system([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    cold = least_distance(tri, [2.0, 2.0])
    for warm_start in (np.array([4, 5]), np.array([2, 0])):
        sol = least_distance(tri, [2.0, 2.0], warm_start=warm_start)
        np.testing.assert_array_equal(sol.point, cold.point)
        assert sol.active_set == cold.active_set == [2]


@pytest.mark.parametrize("warm_start", [[True], [1.7], ["1"], [np.bool_(True)], [1, None],
                                       [np.array(True)], [np.array(1.0)]],
                         ids=["bool", "float", "str", "numpy-bool", "none", "0-d-bool",
                              "0-d-float"])
def test_warm_start_refuses_entries_that_are_not_integers(warm_start):
    tri = _system([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    with pytest.raises(ValueError, match="warm_start"):
        least_distance(tri, [2.0, 2.0], warm_start=warm_start)


def test_warm_start_skips_rows_that_vanish_on_the_equality_subspace():
    # row 0 is parallel to the equality normal, so it is constant on the line
    system = _system(
        [[1.0, 1.0], [-1.0, 0.0]], [2.0, 0.0], [[1.0, 1.0]], [1.0]
    )
    sol = least_distance(system, [-3.0, 1.0], warm_start=[0, 1])
    np.testing.assert_allclose(sol.point, [0.0, 1.0], atol=1e-9)


def test_infeasible_inequalities_raise():
    with pytest.raises(InfeasibleSystem):
        least_distance(_system([[1.0], [-1.0]], [0.0, -1.0]), [0.5])
    # a warm start that ends in an unbounded dual step restarts cold, and the
    # cold solve still raises
    strip = _system([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]], [0.0, -1.0, 0.0])
    for warm_start in (None, [0], [0, 1], [0, 1, 2]):
        with pytest.raises(InfeasibleSystem, match="unbounded dual step"):
            least_distance(strip, [0.5, 2.0], warm_start=warm_start)


def test_a_warm_start_on_dependent_rows_restarts_cold():
    # three warm rows in the plane: lstsq gives them minimum-norm multipliers,
    # and the next primal-dual step finds neither a full step nor a blocker
    # (a case of a seeded fuzz of feasible systems h = G x_s + U(0, 1))
    system = _system(
        [[-0.26745221291422216, 0.08619851007298729], [-0.81282692818437, 0.4999061768171808],
         [-0.6277487420361615, 0.18939863693126158], [-0.0687759069720211, -1.8078891229296246],
         [1.4028687379379123, 1.6139178111029446], [-0.9515059443232764, 1.3939894623630342]],
        [0.11016553794478845, -0.8689536205244288, -0.28178331407460955, 0.12800552643592375,
         1.551417588976766, -0.7798624725155399])
    x0 = [-3.2088221108273816, 3.0589808968949006]
    cold = least_distance(system, x0)
    warm = least_distance(system, x0, warm_start=[0, 5, 4])
    assert warm.point.tobytes() == cold.point.tobytes()
    assert warm.active_set == cold.active_set
    # the pivots run on across the restart, so the guard bounds the total
    assert warm.iterations > cold.iterations
    assert warm.kkt_residual <= 1e-12


def test_inconsistent_equalities_raise():
    system = _system(np.zeros((0, 1)), np.zeros(0), [[1.0], [1.0]], [0.0, 1.0])
    with pytest.raises(InfeasibleSystem):
        least_distance(system, [0.0])


def test_constant_violated_row_on_equality_subspace_raises():
    system = _system([[1.0, 1.0]], [0.5], [[1.0, 1.0]], [1.0])
    with pytest.raises(InfeasibleSystem):
        least_distance(system, [0.0, 0.0])


def test_pivot_guard_raises(monkeypatch):
    monkeypatch.setattr(qp, "PIVOTS_PER_ROW", 0)
    tri = _system([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0])
    with pytest.raises(MaxPivots):
        least_distance(tri, [2.0, 2.0])
    # the warm start's first solve counts, whether or not a row is then dropped
    for warm_start in ([0, 1], [2]):
        with pytest.raises(MaxPivots):
            least_distance(tri, [2.0, 2.0], warm_start=warm_start)


def test_a_one_row_tight_solve_is_lstsq_bit_for_bit(monkeypatch):
    lstsq = np.linalg.lstsq
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    rng = np.random.default_rng(31)
    for k in range(3000):
        n = int(rng.integers(1, 6))
        row = rng.normal(size=n)
        row /= np.linalg.norm(row)
        # a unit row has a Gram entry within a few ulps of 1; others spread
        # over [1e-2, 1e2]
        if k % 2:
            row *= 10.0 ** rng.uniform(-1.0, 1.0)
        # at w0 = 0 the right-hand side is -d exactly
        rhs = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-20.0, 20.0)
        w, lam = qp._tight_solve(row[None], np.array([-rhs]), np.zeros(n), [0])
        ref, _, _, _ = lstsq(np.array([[row @ row]]), np.array([rhs]), rcond=None)
        assert np.array(lam).tobytes() == ref.tobytes()
        assert w.tobytes() == (np.zeros(n) - row[:, None] @ ref).tobytes()
    assert not calls
    # outside dgelsd's unscaled range, and at 0, lstsq itself runs: at 1e-300
    # its scaling gives 9.999999999999999e-301, where rhs * (1.0 / 1.0) is 1e-300
    for rhs in (1e-300, 0.0):
        w, lam = qp._tight_solve(np.array([[1.0, 0.0]]), np.array([-rhs]), np.zeros(2), [0])
        ref, _, _, _ = lstsq(np.array([[1.0]]), np.array([rhs]), rcond=None)
        assert np.array(lam).tobytes() == ref.tobytes()
    assert len(calls) == 2


def test_the_entering_row_is_the_first_largest_inactive_slack():
    # against masking the active rows every time: the same row whenever its
    # slack is over TOL, and a row at most TOL whenever no inactive one is over
    rng = np.random.default_rng(32)
    tol = qp.TOL
    levels = np.array([-1.0, 0.0, 0.5 * tol, tol, 2.0 * tol, 1e-3, 1.0])
    for _ in range(4000):
        m = int(rng.integers(1, 8))
        # few distinct values, so that ties are common
        slack = rng.choice(levels, size=m)
        active = [int(i) for i in rng.permutation(m)[:int(rng.integers(0, m + 1))]]
        if active and rng.random() < 0.5:
            slack[active[0]] = slack.max() + 1.0  # the largest slack on an active row
        full = slack.copy()
        full[active] = -np.inf
        ref = int(full.argmax())
        # the loop reads the slack it passed, masked in place
        tested = slack.copy()
        worst, masked = qp._entering_row(tested, active)
        assert (tested[worst] > tol) == (full[ref] > tol)
        if full[ref] > tol:
            assert worst == ref
        assert masked == (int(slack.argmax()) in active and slack.max() > tol)
    assert qp._entering_row(np.zeros(0), []) == (-1, False)


def test_nearly_parallel_rows_stay_feasible():
    # clusters of almost-dependent rows stress the polish step and the warm
    # start; whatever path the pivoting takes, the returned point must satisfy
    # every row, and a warm start from any subset of the rows must reach the
    # cold point (lstsq can leave one of two nearly parallel warm rows violated)
    rng = np.random.default_rng(8)
    pick = np.random.default_rng(80)
    for _ in range(300):
        n = int(rng.integers(2, 4))
        base = rng.normal(size=n)
        rows = base + 1e-8 * rng.normal(size=(int(rng.integers(2, 6)), n))
        extra = rng.normal(size=(2, n))
        G = np.vstack([rows, extra])
        center = rng.normal(size=n)
        h = G @ center + rng.uniform(0.0, 0.5, size=G.shape[0])
        system = _system(G, h)
        x0 = center + rng.normal(size=n) * 3.0
        sol = least_distance(system, x0)
        warm = least_distance(system, x0, warm_start=np.flatnonzero(pick.random(G.shape[0]) < 0.5))
        for s in (sol, warm):
            assert system.max_violation(s.point) <= 5e-9
            assert s.kkt_residual <= 1e-7
        np.testing.assert_allclose(warm.point, sol.point, rtol=0.0, atol=1e-9)


def _slice_with_cuts(seed):
    """A 5-dimensional simplex slice and six cuts that keep its centre."""
    rng = np.random.default_rng(seed)
    system = assemble(SimplexSlice(5.0, 5), [])
    for _ in range(6):
        normal = rng.normal(size=5)
        system = assemble(system, [(normal, 1.0 + rng.uniform(0.1, 0.5) * normal)])
    return system


# factories of equal systems: equalities with cuts, inequalities only, a pinned
# point, and rows that vanish on the equality subspace
CACHED_CASES = [
    (lambda: _slice_with_cuts(12), [4.0, -1.0, 0.5, 3.0, 0.0]),
    (lambda: _system([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]], [0.0, 0.0, 1.0]), [2.0, 2.0]),
    (lambda: _system([[1.0, 0.0], [0.0, 1.0]], [1.0, 1.0], np.eye(2), [0.3, 0.4]), [9.0, 9.0]),
    (lambda: _system([[1.0, 1.0], [-1.0, 0.0]], [2.0, 0.0], [[1.0, 1.0]], [1.0]), [-3.0, 1.0]),
]


@pytest.mark.parametrize(
    "build, x0", CACHED_CASES, ids=["slice-cuts", "triangle", "pinned", "vanishing-row"]
)
def test_a_cache_hit_gives_the_cold_solution(build, x0):
    system = build()
    first = least_distance(system, x0)
    # a result belongs to its caller: writing to it must not reach the cache
    first.point[:] = np.nan
    hit = least_distance(system, x0)
    hit_warm = least_distance(system, x0, warm_start=first.active_set)
    cold = least_distance(build(), x0)
    for sol in (hit, hit_warm):
        np.testing.assert_array_equal(sol.point, cold.point)
        assert sol.active_set == cold.active_set
    assert hit.iterations == cold.iterations
    form = qp._reduced_form(system)
    for name, arr in vars(form).items():
        if arr is not None:
            assert not arr.flags.writeable, name


@pytest.mark.parametrize(
    "build, x0", CACHED_CASES, ids=["slice-cuts", "triangle", "pinned", "vanishing-row"]
)
def test_the_certificate_computed_on_read_is_the_eager_one(build, x0):
    system = build()
    x0 = np.array(x0)
    m, p = system.G.shape[0], system.A.shape[0]
    # the reference: the residual computed eagerly from the solve's own pieces
    form = qp._reduced_form(system)
    w0 = form.Z.T @ (x0 - form.y_part) if form.Z is not None else x0
    w, active, lam, _ = qp._dual_active_set(
        form.rows, form.rhs, w0, qp.PIVOTS_PER_ROW * max(m + p, 1), None)
    y = form.y_part + form.Z @ w if form.Z is not None else w
    mu = np.zeros(m)
    for i, lam_i in zip(active, lam):
        mu[i] = lam_i / form.norms[i]
    eager = qp._kkt_residual(system, form.Z, x0, y, mu)
    read_first = least_distance(system, x0)
    assert read_first.kkt_residual == eager
    # writing to the point or to x0 before the first read changes nothing
    written_first = least_distance(system, x0)
    written_first.point[:] = np.nan
    x0[:] = np.nan
    assert written_first.kkt_residual == eager
    read_first.point[:] = np.nan
    assert read_first.kkt_residual == eager


def test_kkt_residual_from_null_basis_matches_lstsq_reference():
    rng = np.random.default_rng(13)
    shapes = [(4, 0, 2), (5, 3, 1), (5, 3, 2), (6, 4, 3), (4, 3, 0)]
    for _ in range(100):
        for n, m, p in shapes:
            A = rng.normal(size=(p, n))
            if p >= 2:
                A[1] = A[0]  # a duplicated equality row
            y = rng.normal(size=n)
            G = rng.normal(size=(m, n))
            mu = np.where(rng.random(size=m) < 0.5, rng.uniform(0.0, 2.0, size=m), 0.0)
            # rows with a multiplier are tight, the others slack, so the
            # stationarity term decides the residual
            system = _system(G, G @ y + np.where(mu > 0.0, 0.0, 1.0), A, A @ y)
            x0 = y + rng.normal(size=n)
            Z = sets._affine_basis(system.A, system.b)[1]
            got = qp._kkt_residual(system, Z, x0, y, mu)
            ref = kkt_residual_lstsq(system, x0, y, mu)
            assert abs(got - ref) <= 1e-14 * max(1.0, ref)
            if p:
                assert got > 1e-3


def test_a_reduced_form_is_built_once_per_system(monkeypatch):
    built = []
    reduced_rows = sets._reduced_rows

    def counting_reduced_rows(G, h, y_part, Z):
        built.append(G)
        return reduced_rows(G, h, y_part, Z)

    monkeypatch.setattr(sets, "_reduced_rows", counting_reduced_rows)
    system = _slice_with_cuts(15)
    x0 = [4.0, -1.0, 0.5, 3.0, 0.0]
    first = least_distance(system, x0)
    second = least_distance(system, x0, warm_start=first.active_set)
    assert len(built) == 1 and built[0] is system.G
    np.testing.assert_array_equal(second.point, first.point)
    extended = assemble(system, [(np.ones(5), np.full(5, 1.2))])
    least_distance(extended, x0)
    least_distance(extended, x0)
    assert len(built) == 2 and built[1] is extended.G


def test_a_projected_system_is_not_kept_alive():
    system = _slice_with_cuts(14)
    least_distance(system, [1.0, 1.0, 1.0, 1.0, 1.0])
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


def _unlinked(system):
    """An equal system that no store derived."""
    return LinearConstraintSystem(system.G, system.h, system.A, system.b)


@pytest.fixture
def computed_solves(monkeypatch):
    """A list that grows by one on every tight solve that ``_tight_solve``
    computes, with its active rows; one returned from the slot leaves the
    slot as it was.  The slot starts empty.  A reused solve is bitwise the
    computed one, so no public result shows the reuse, and the count reads
    the private slot."""
    calls = []
    tight_solve = qp._tight_solve

    def counted(M, d, w0, active):
        last = qp._last_tight
        result = tight_solve(M, d, w0, active)
        if qp._last_tight is not last:
            calls.append(list(active))
        return result

    monkeypatch.setattr(qp, "_last_tight", None)
    monkeypatch.setattr(qp, "_tight_solve", counted)
    return calls


def _saved(computed_solves, system, x0, warm):
    """``(saved, solution)``: the tight solves that ``least_distance(system,
    x0, warm)`` saves by the slot as it stands, against the same solve from an
    empty slot, which gives bitwise its result; the slot is left as the first
    solve left it."""
    start = len(computed_solves)
    solution = least_distance(system, x0, warm_start=warm)
    middle, slot = len(computed_solves), qp._last_tight
    qp._last_tight = None
    cold = least_distance(system, np.array(x0, dtype=float), warm_start=warm)
    qp._last_tight = slot
    assert solution.point.tobytes() == cold.point.tobytes()
    assert (solution.active_set, solution.iterations) == (cold.active_set, cold.iterations)
    return len(computed_solves) - 2 * middle + start, solution


@pytest.mark.parametrize(
    "build, x0", CACHED_CASES, ids=["slice-cuts", "triangle", "pinned", "vanishing-row"]
)
def test_a_second_solve_on_the_same_inputs_computes_no_tight_solve(computed_solves, build, x0):
    # the slot holds the last tight solve, on the returned active rows, so a
    # solve warm started there on the same system and x0 computes nothing and
    # returns bitwise the same; NaN written into a returned point (on the
    # triangle, the solve's own w) does not reach the slot
    system = build()
    warm = least_distance(build(), x0).active_set
    first = least_distance(system, x0, warm_start=warm)
    want = first.point.copy()
    first.point[:] = np.nan
    start = len(computed_solves)
    second = least_distance(system, x0, warm_start=warm)
    assert len(computed_solves) == start
    assert second.point.tobytes() == want.tobytes()
    assert (second.active_set, second.iterations) == (first.active_set, first.iterations)
    assert not qp._last_tight or not qp._last_tight[1].flags.writeable


# runs whose anchored projections reuse the last tight solve: on a box the
# solve's point is its own w, on a slice it is mapped back from w
CARRY_RUNS = [
    ("hs-quasimonotone", [[0.0, 0.0], [1.0, 0.0]], SolverParams(delta=0.9)),
    ("ray-setvalued", [[100.0, np.pi / 2], [1500.0, np.pi / 8]],
     SolverParams(delta=0.5, theta=0.5, tol_residual=1e-30)),
    ("fractional-simplex", [[0.0, 0.0, 5.0, 0.0, 0.0], [0.0, 2.0, 0.0, 2.0, 1.0]],
     SolverParams(delta=0.5, theta=0.25, tol_residual=1e-4)),
]


@pytest.mark.parametrize("name, starts, params", CARRY_RUNS, ids=[r[0] for r in CARRY_RUNS])
def test_a_carried_solve_gives_the_cold_solution(
        monkeypatch, computed_solves, name, starts, params):
    # every anchored projection of a run, against the same solve from an
    # empty slot: bitwise the same result, and one tight solve fewer exactly
    # when the previous anchored QP ended on rows tight, none of them its
    # slab, no warm row is a twin whose right-hand side the new cut lowered,
    # and no projection onto C computed a tight solve in between; and no harm
    # from a caller that writes into the point
    problem = make_problem(name, a=5.0) if name == "fractional-simplex" else make_problem(name)
    previous = None  # the previous anchored system's slab row, stored h and active set
    outcomes = []
    done = 0  # tight solves computed up to the end of the last anchored QP

    def checked(system, x0, **kwargs):
        nonlocal previous, done
        if "warm_start" not in kwargs:
            return least_distance(system, x0, **kwargs)
        between = len(computed_solves) > done
        saved, sol = _saved(computed_solves, system, x0, kwargs["warm_start"])
        if previous is not None:
            slab, stored, active = previous
            held_slab = slab in active
            lowered = np.flatnonzero(system.h[:stored.size] != stored)
            assert lowered.size <= 1 and (system.h[lowered] < stored[lowered]).all()
            lowered_warm = bool(set(lowered.tolist()) & set(kwargs["warm_start"]))
            outcomes.append((held_slab, lowered_warm, between))
            assert saved == (0 if held_slab or lowered_warm or between or not active else 1)
        else:
            assert saved == 0
        # the first anchored system of a run has no slab row (x = x0)
        slab = system.G.shape[0] - 1 if previous is not None else None
        previous = (slab, system.h[:slab].copy(), sol.active_set)
        done = len(computed_solves)
        out = qp.QpSolution(sol.point.copy(), list(sol.active_set), sol.iterations,
                            sol._certificate)
        sol.point[:] = np.nan
        return out

    monkeypatch.setattr(vifd.solver, "least_distance", checked)
    for x0 in starts:
        previous = None
        solve(problem, x0, params)
    assert outcomes.count((False, False, False)) >= 5
    # the ray operator's cuts of one solve share their unit normal
    assert (name == "ray-setvalued") == any(lowered for _, lowered, _ in outcomes)


@pytest.mark.parametrize("name, starts, params", CARRY_RUNS, ids=[r[0] for r in CARRY_RUNS])
def test_each_anchored_qp_is_warm_started_at_the_last_active_rows_below_the_slab(
        monkeypatch, name, starts, params):
    # step's warm start against the rule: the active set of the previous
    # anchored QP without its slab row, the one row at or past the rows the
    # store held before the new cut, and the active set is kept in the state
    problem = make_problem(name, a=5.0) if name == "fractional-simplex" else make_problem(name)
    step = vifd.solver.step
    anchored = []  # (warm start received, solution) per anchored QP
    previous = None  # the previous anchored QP's active set and the rows stored then
    kept_all = 0

    def watched_qp(system, x0, **kwargs):
        solution = least_distance(system, x0, **kwargs)
        if "warm_start" in kwargs:
            anchored.append((kwargs["warm_start"], solution))
        return solution

    def watched_step(state, problem, params):
        nonlocal previous, kept_all
        count = len(anchored)
        state, report = step(state, problem, params)
        if len(anchored) > count:
            received, solution = anchored[-1]
            active, stored = previous if previous is not None else ([], 0)
            kept = [i for i in active if i < stored]
            assert received == kept
            kept_all += bool(active) and kept == active
            assert state.active_set == solution.active_set
            previous = (list(solution.active_set), state.cuts.rows)
        return state, report

    monkeypatch.setattr(vifd.solver, "least_distance", watched_qp)
    monkeypatch.setattr(vifd.solver, "step", watched_step)
    for x0 in starts:
        previous = None
        solve(problem, x0, params)
    assert kept_all >= 5


@pytest.mark.parametrize("name, starts, params", CARRY_RUNS, ids=[r[0] for r in CARRY_RUNS])
def test_the_store_system_is_the_stored_rows_of_the_last_anchored_system(
        monkeypatch, name, starts, params):
    # after every iteration the store's system is, bit for bit, the first
    # ``rows`` rows of the anchored system that the iteration projected onto,
    # with C's equalities; that system starts with C's rows and every earlier
    # stored row, bit for bit but for at most one right-hand side, which a
    # twin cut lowered, and past them holds at most one row, the slab
    problem = make_problem(name, a=5.0) if name == "fractional-simplex" else make_problem(name)
    base = assemble(problem.feasible, [])
    step = vifd.solver.step
    anchored = []
    checked = lowered = 0

    def watched_qp(system, x0, **kwargs):
        if "warm_start" in kwargs:
            anchored.append(system)
        return least_distance(system, x0, **kwargs)

    def watched_step(state, problem, params):
        nonlocal previous, checked, lowered
        count = len(anchored)
        state, report = step(state, problem, params)
        if len(anchored) > count:
            system, rows, stored = anchored[-1], state.cuts.rows, state.cuts.system
            assert system.G.shape[0] - rows in (0, 1)
            for got, want in ((stored.G, system.G[:rows]), (stored.h, system.h[:rows]),
                              (system.G[:previous[0].shape[0]], previous[0])):
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            h = system.h[:previous[1].size].copy()
            changed = np.flatnonzero(h != previous[1])
            assert changed.size <= 1 and (h[changed] < previous[1][changed]).all()
            h[changed] = previous[1][changed]
            assert h.tobytes() == previous[1].tobytes()
            assert stored.A is system.A is base.A and stored.b is system.b is base.b
            previous = stored.G.copy(), stored.h.copy()
            checked += 1
            lowered += changed.size
        return state, report

    monkeypatch.setattr(vifd.solver, "least_distance", watched_qp)
    monkeypatch.setattr(vifd.solver, "step", watched_step)
    for x0 in starts:
        previous = base.G, base.h
        solve(problem, x0, params)
    assert checked >= 5
    assert (lowered > 0) == (name == "ray-setvalued")


def test_step_drops_the_slab_row_from_the_warm_start(monkeypatch):
    # each anchored QP made to report its slab row, the system's last row
    # past the stored ones, as active: step leaves that row out of the next
    # warm start, where the next cut takes its index, and the run is bitwise
    # the run without the report
    problem, params = make_problem("hs-quasimonotone"), SolverParams(delta=0.9)
    alone = solve(problem, [0.0, 0.0], params)
    state, report, received, reported = SolverState.initial([0.0, 0.0]), None, [], []

    def reporting(system, x0, warm_start=None):
        received.append(warm_start)
        solution = least_distance(system, x0, warm_start=warm_start)
        if system.G.shape[0] > state.cuts.rows:
            solution.active_set = solution.active_set + [state.cuts.rows]
        reported.append((solution.active_set, state.cuts.rows))
        return solution

    monkeypatch.setattr(vifd.solver, "least_distance", reporting)
    while report is None:
        state, report = step(state, problem, params)
    slabs = sum(rows in active for active, rows in reported)
    assert slabs >= 5
    for warm, (active, rows) in zip(received[1:], reported):
        assert warm == [i for i in active if i < rows] and rows not in warm
    assert (report.stop_reason, report.counters) == (alone.stop_reason, alone.counters)
    assert report.terminal_point.tobytes() == alone.terminal_point.tobytes()


def test_a_reused_solve_needs_its_rows_their_right_hand_sides_and_its_w0(computed_solves):
    C = Box([-5.0, -5.0], [5.0, 5.0])
    x0 = np.zeros(2)
    store = ConstraintStore(C)
    # iteration 0: x = x0, so no slab row; the cut y1 + y2 <= -2 (row 4) is tight
    first = least_distance(store.add_with_slab(np.ones(2), -np.ones(2), x0 - x0, x0), x0)
    assert first.active_set == [4]
    x1 = first.point
    system = store.add_with_slab(np.array([1.0, -0.5]), np.array([-2.0, 0.0]), x0 - x1, x1)
    # row 4 keeps its bits and its right-hand side, and x0 is the same
    saved, solution = _saved(computed_solves, system, x0, [4])
    assert saved == 1 and solution.active_set == [4, 5]
    # another x0, or x0 written in place after a solve, is a miss
    assert _saved(computed_solves, system, np.array([0.0, 1e-300]), [4, 5])[0] == 0
    moved = x0.copy()
    least_distance(system, moved, warm_start=[4, 5])
    moved[1] = 1e-300
    assert _saved(computed_solves, system, moved, [4, 5])[0] == 0
    # the slot is keyed by content: an equal system that no store derived hits
    least_distance(system, x0, warm_start=[4, 5])
    assert _saved(computed_solves, _unlinked(system), x0, [4, 5])[0] == 1
    # a twin of row 4 that lowers its right-hand side is a miss, and one that
    # leaves it is a hit (row 6, the slab, was not active)
    x2 = solution.point
    lowered = store.add_with_slab(2.0 * np.ones(2), np.full(2, -1.5), x0 - x2, x2)
    assert lowered.h[4] < system.h[4]
    saved, solution = _saved(computed_solves, lowered, x0, [4, 5])
    assert saved == 0 and solution.active_set == [4, 5]
    x3 = solution.point
    kept = store.add_with_slab(0.5 * np.ones(2), np.full(2, -1.0), x0 - x3, x3)
    assert kept.h[4] == lowered.h[4]
    assert _saved(computed_solves, kept, x0, [4, 5])[0] == 1


def test_a_plain_projection_between_two_anchored_qps_changes_no_result(
        monkeypatch, computed_solves):
    # a projection onto C alone after each anchored QP, with active rows,
    # takes the slot, so the next anchored QP computes its first tight solve
    # again; the run is bitwise the same
    problem, params = make_problem("hs-quasimonotone"), SolverParams(delta=0.9)
    plain = assemble(problem.feasible, [])
    counts = {"plain": 0, "anchored": 0}

    def run():
        start = len(computed_solves)
        report = solve(problem, [0.0, 0.0], params)
        return report, len(computed_solves) - start

    alone, alone_computed = run()

    def interleaved(system, x0, **kwargs):
        solution = least_distance(system, x0, **kwargs)
        counts["anchored"] += 1
        counts["plain"] += bool(least_distance(plain, [9.0, -9.0]).active_set)
        return solution

    monkeypatch.setattr(vifd.solver, "least_distance", interleaved)
    mixed, mixed_computed = run()
    assert counts["plain"] == counts["anchored"] >= 5
    assert (mixed.stop_reason, mixed.counters) == (alone.stop_reason, alone.counters)
    assert mixed.terminal_point.tobytes() == alone.terminal_point.tobytes()
    # each projection onto C computes one solve, and every anchored QP but
    # the first, whose warm start is empty, computes one more
    assert mixed_computed - alone_computed == counts["plain"] + counts["anchored"] - 1


def test_concurrent_solves_sharing_the_slot_return_their_own_results():
    # threads that interleave solves of different systems and starts can
    # only make each other miss the slot: every result is bitwise the one
    # computed alone
    cases = [(build(), np.array(x0, dtype=float)) for build, x0 in CACHED_CASES]
    cases.append((_slice_with_cuts(12), np.array([0.0, 2.0, 0.5, -1.0, 3.0])))
    want = [(cold.point.tobytes(), cold.active_set)
            for cold in (least_distance(system, x0) for system, x0 in cases)]
    wrong, done = [], []

    def work(offset):
        for k in range(150):
            i = (k + offset) % len(cases)
            system, x0 = cases[i]
            solution = least_distance(system, x0, warm_start=want[i][1])
            if (solution.point.tobytes(), solution.active_set) != want[i]:
                wrong.append(i)
        done.append(offset)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(offset,)) for offset in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(done) == [0, 1, 2, 3] and not wrong


def test_simplex_projection_frozen_values():
    np.testing.assert_allclose(simplex_projection([2.0, 1.0, 0.0]), [1.0, 0.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(
        simplex_projection([0.5, 0.4, 0.3]),
        [13.0 / 30.0, 10.0 / 30.0, 7.0 / 30.0],
        atol=1e-12,
    )
    np.testing.assert_allclose(simplex_projection([-1.0, 0.0]), [0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(
        simplex_projection([0.0, 0.0, 0.0], a=5.0), [5.0 / 3.0] * 3, atol=1e-12
    )


def test_simplex_projection_requires_positive_scale():
    for a in (0.0, -1.0, np.nan, np.inf, True, "1"):
        with pytest.raises(ValueError, match="'a'"):
            simplex_projection([0.5, 0.5], a=a)


def test_simplex_projection_agrees_with_active_set_solver():
    rng = np.random.default_rng(9)
    for _ in range(300):
        n = int(rng.integers(2, 8))
        a = float(rng.uniform(0.5, 10.0))
        v = rng.normal(size=n) * rng.uniform(0.5, 4.0)
        direct = simplex_projection(v, a)
        assert abs(float(np.sum(direct)) - a) <= 1e-10
        assert float(np.min(direct)) >= 0.0
        system = assemble(SimplexSlice(a, n), [])
        np.testing.assert_allclose(least_distance(system, v).point, direct, atol=1e-9)


def test_oracle_uses_exact_formula_on_simplex_systems():
    system = assemble(SimplexSlice(5.0, 6), [])
    v = np.array([3.0, -1.0, 2.0, 0.5, 4.0, -0.5])
    np.testing.assert_array_equal(oracle_project(system, v), simplex_projection(v, 5.0))


def test_oracle_matches_solver_on_run_generated_planar_systems():
    # the working systems built while solving the two planar benchmark
    # problems: the store of C's rows and every cut so far, plus the slab
    cases = [
        ("hs-quasimonotone", [(0.1, 0.9), (1.0, 0.1), (0.0, 0.0)],
         SolverParams(delta=0.01, theta=0.5, tol_residual=1e-8)),
        ("ray-setvalued", [(1.0, np.pi / 2), (10.0, np.pi / 4), (0.5, np.pi / 3)],
         SolverParams(delta=0.5, theta=0.5, tol_residual=1e-30)),
    ]
    compared = 0
    for name, starts, params in cases:
        problem = make_problem(name)
        for x0 in starts:
            _, iterations = run_iterations(problem, x0, params)
            anchor = iterations[0].x
            for rec in iterations:
                if rec.x_next is None:
                    continue
                system = assemble(rec.cuts, [(anchor - rec.x, rec.x)])
                exact = least_distance(system, anchor).point
                brute = oracle_project(system, anchor, resolution=1e-3)
                assert float(np.linalg.norm(exact - brute)) <= 2e-3
                compared += 1
    assert compared >= 5


def test_oracle_distance_quality_on_random_planar_systems():
    # on arbitrary systems the grid argmin can slide along a face whose
    # distance profile is flat, so only the achieved distance is certified
    rng = np.random.default_rng(10)
    for _ in range(40):
        system, center, radius = _random_inequality_system(rng, n=2)
        y = rng.normal(size=2) * 1.5
        exact = least_distance(system, y).point
        brute = oracle_project(system, y, resolution=1e-3)
        assert system.max_violation(brute) <= 1e-6
        excess = float(np.linalg.norm(brute - y) - np.linalg.norm(exact - y))
        assert excess <= 1e-2


def test_oracle_rejects_large_nonsimplex_systems():
    system = assemble(Box(np.zeros(4), np.ones(4)), [])
    with pytest.raises(UnsupportedShape):
        oracle_project(system, [0.5, 0.5, 0.5, 0.5])
    with pytest.raises(ValueError):
        oracle_project(assemble(Box([0.0], [1.0]), []), [0.5], resolution=0.0)
