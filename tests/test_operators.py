"""Benchmark operators: selections, support oracles, and the problem registry."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from vifd.operators import (
    DomainError,
    FractionalGradient,
    HsQuasimonotone,
    PROBLEM_NAMES,
    ProblemInstance,
    RayOperator,
    RhoOperator,
    SupportResult,
    UnknownProblem,
    make_problem,
)
from vifd.sets import Box, LinearConstraintSystem, SimplexSlice


PHI = (1.0 + math.sqrt(5.0)) / 2.0
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


class TestHsQuasimonotone:
    op = HsQuasimonotone()

    def test_frozen_values(self):
        # at (1, 1) the auxiliary root is the golden ratio, and 1 + phi = phi^2
        np.testing.assert_allclose(
            self.op.select([1.0, 1.0]), [-1.0 / PHI, -1.0 / PHI**2], atol=1e-14
        )
        np.testing.assert_allclose(self.op.select([0.0, 0.0]), [0.0, -1.0], atol=1e-14)
        np.testing.assert_allclose(self.op.select([0.0, 1.0]), [-0.5, -0.5], atol=1e-14)
        np.testing.assert_allclose(self.op.select([1.0, 0.0]), [-0.5, -0.5], atol=1e-14)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            self.op.select([1.1, 0.5])
        with pytest.raises(DomainError):
            self.op.select([0.5, -0.1])
        # points a hair outside are treated as boundary points
        self.op.select([1.0 + 1e-9, 0.0])

    def test_minty_inequality_at_unit_corner(self):
        rng = np.random.default_rng(11)
        star = np.ones(2)
        for _ in range(500):
            y = rng.random(2)
            assert float(self.op.select(y) @ (y - star)) >= 0.0


class TestRhoOperator:
    def test_scalar_field_values(self):
        sq = RhoOperator(1, 1.0, "squared")
        np.testing.assert_allclose(sq.select([0.5]), [0.25], atol=1e-15)
        np.testing.assert_allclose(sq.select([-0.5]), [0.25], atol=1e-15)
        nm = RhoOperator(3, 1.0, "norm")
        np.testing.assert_allclose(nm.select([0.6, 0.0, -0.8]), np.ones(3), atol=1e-15)

    def test_validation(self):
        with pytest.raises(ValueError):
            RhoOperator(0, 1.0)
        with pytest.raises(ValueError):
            RhoOperator(2, 0.0)
        with pytest.raises(ValueError):
            RhoOperator(2, 1.0, "cubed")
        # dim and a are numbers by the rule of vifd.sets, refused naming the key
        for dim, a, key in ((True, 1.0, "dim"), (2.5, 1.0, "dim"), ("1", 1.0, "dim"),
                            (2, math.inf, "a"), (2, True, "a"), (2, "1", "a")):
            with pytest.raises(ValueError, match=repr(key)):
                RhoOperator(dim, a)
        op = RhoOperator(np.int64(2), np.array(0.5))
        assert (op.dim, op.a) == (2, 0.5) and (type(op.dim), type(op.a)) == (int, float)
        with pytest.raises(DomainError):
            RhoOperator(1, 1.0).select([1.2])

    def test_dual_certificate_at_negative_corner(self):
        # with x* = -a (1, ..., 1), <rho(y) 1, y - x*> = rho(y) sum(y + a) >= 0
        rng = np.random.default_rng(12)
        done = 0
        while done < 1000:
            n = int(rng.integers(1, 6))
            a = float(rng.uniform(0.5, 3.0))
            variant = "squared" if done % 2 else "norm"
            op = RhoOperator(n, a, variant)
            star = np.full(n, -a)
            for _ in range(10):
                y = rng.uniform(-a, a, size=n)
                assert float(op.select(y) @ (y - star)) >= 0.0
                done += 1


class TestFractionalGradient:
    def test_frozen_uniform_point(self):
        op = FractionalGradient(a=5.0, h=1.0)
        x = np.ones(5)
        assert op.objective(x) == pytest.approx(-0.3, abs=1e-15)
        np.testing.assert_allclose(op.select(x), np.full(5, 0.06), atol=1e-15)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            h = float(rng.uniform(0.1, 1.6))
            op = FractionalGradient(a=5.0, h=h)
            x = 5.0 * rng.dirichlet(np.ones(5))
            grad = op.select(x)
            step = 1e-6
            for i in range(5):
                e = np.zeros(5)
                e[i] = step
                fd = (op.objective(x + e) - op.objective(x - e)) / (2.0 * step)
                assert abs(grad[i] - fd) <= 1e-6

    def test_minty_inequality_at_uniform_point(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            h = float(rng.uniform(0.1, 1.6))
            op = FractionalGradient(a=5.0, h=h)
            star = np.ones(5)
            y = 5.0 * rng.dirichlet(np.ones(5))
            assert float(op.select(y) @ (y - star)) >= -1e-10

    def test_validation(self):
        with pytest.raises(ValueError):
            FractionalGradient(a=0.0)
        with pytest.raises(ValueError):
            FractionalGradient(h=0.0)
        for key in ("a", "h"):
            for bad in (math.inf, True, "1"):
                with pytest.raises(ValueError, match=repr(key)):
                    FractionalGradient(**{key: bad})
        op = FractionalGradient()
        with pytest.raises(DomainError):
            op.objective(np.zeros(5))
        with pytest.raises(DomainError):
            op.select(np.zeros(5))


class TestRayOperator:
    op = RayOperator()

    def test_select_parameter_floor(self):
        np.testing.assert_allclose(self.op.select([1.0, math.pi / 2]), [0.0, 2.0], atol=1e-15)
        np.testing.assert_allclose(self.op.select([0.5, 0.0]), [2.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(self.op.select([3.0, 0.0]), [3.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(
            self.op.select([20.0, math.pi / 6]),
            [10.0 * math.sqrt(3.0), 10.0],
            atol=1e-12,
        )

    def test_support_unbounded_when_ray_points_into_direction(self):
        result = self.op.support([1.0, 0.0], [1.0, 0.0])
        assert result.value == math.inf
        assert result.maximizer is None

    def test_support_attained_at_base_otherwise(self):
        result = self.op.support([1.0, 0.0], [-1.0, 0.0])
        assert result.value == pytest.approx(-1.0, abs=1e-15)
        np.testing.assert_allclose(result.maximizer, [1.0, 0.0], atol=1e-15)
        # a vertical ray is exactly orthogonal to the horizontal direction
        result = self.op.support([2.0, math.pi / 2], [1.0, 0.0])
        assert abs(result.value) <= 1e-15
        np.testing.assert_allclose(result.maximizer, [0.0, 2.0], atol=1e-15)

    def test_witness_above(self):
        np.testing.assert_allclose(
            self.op.witness_above([1.0, 0.0], [1.0, 0.0], 5.0), [5.0, 0.0], atol=1e-15
        )
        np.testing.assert_allclose(
            self.op.witness_above([3.0, 0.0], [1.0, 0.0], 1.0), [3.0, 0.0], atol=1e-15
        )
        # an attained support has its maximizer as the witness, so a witness
        # is refused even for a level the maximizer meets
        for level in (-1.0, -0.5):
            with pytest.raises(ValueError, match="attained"):
                self.op.witness_above([1.0, 0.0], [-1.0, 0.0], level)
        # the level is a finite real
        for level in ("3", True, None, math.nan, math.inf):
            with pytest.raises(ValueError, match="'level'"):
                self.op.witness_above([1.0, 0.0], [1.0, 0.0], level)
        # a singleton's support is always attained: the default has no witness
        for level in (-1.0, 0.0, 1.0, "3", math.nan):
            with pytest.raises(NotImplementedError, match="HsQuasimonotone"):
                HsQuasimonotone().witness_above([1.0, 0.0], [1.0, 0.0], level)

    def test_witness_above_a_level_whose_scale_underflows_returns(self):
        # with r = 0 and level / c underflowing to 0 the scale is floored at
        # the smallest positive float; a zero scale would double forever, so
        # the call runs in a subprocess that a hang fails instead of stalling
        code = ("from vifd.operators import RayOperator\n"
                "for d in ([3.0, 0.0], [1e300, 0.0]):\n"
                "    w = RayOperator().witness_above([0.0, 0.0], d, 5e-324)\n"
                "    assert RayOperator().member([0.0, 0.0], w, 0.0), w\n"
                "    assert float(w @ d) >= 5e-324 and w[1] == 0.0, w\n"
                "print('ok')\n")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             timeout=60, env={**os.environ, "PYTHONPATH": SRC})
        assert out.returncode == 0 and out.stdout == "ok\n", out.stdout + out.stderr

    def test_member(self):
        d = np.array([math.cos(math.pi / 4), math.sin(math.pi / 4)])
        assert self.op.member([1.0, math.pi / 4], 3.0 * d)
        assert self.op.member([1.0, math.pi / 4], 1.0 * d)
        assert not self.op.member([1.0, math.pi / 4], 0.5 * d)
        assert not self.op.member([1.0, math.pi / 4], 2.0 * d + np.array([0.0, 1e-3]))
        for tol in (True, "0.1", None, math.nan):
            with pytest.raises(ValueError, match="'tol'"):
                self.op.member([1.0, math.pi / 4], 0.5 * d, tol=tol)

    def test_domain_enforced(self):
        with pytest.raises(DomainError):
            self.op.select([-0.1, 0.0])
        with pytest.raises(DomainError):
            self.op.select([1.0, math.pi / 2 + 0.1])
        self.op.select([-1e-9, -1e-9])

    def test_outer_semicontinuity_along_convergent_sequences(self):
        # x_k -> x with u_k in T(x_k) and u_k -> u forces u in T(x)
        rng = np.random.default_rng(15)
        for _ in range(100):
            r = float(rng.uniform(0.0, 10.0))
            theta = float(rng.uniform(0.0, math.pi / 2))
            t = r + float(rng.uniform(0.1, 5.0))
            limit = t * np.array([math.cos(theta), math.sin(theta)])
            for k in (10, 100, 1000):
                rk = min(max(r + rng.normal() / k, 0.0), r + 1.0)
                tk = min(max(theta + rng.normal() / k, 0.0), math.pi / 2)
                uk = max(t + rng.normal() / k, rk) * np.array(
                    [math.cos(tk), math.sin(tk)]
                )
                assert self.op.member([rk, tk], uk, tol=1e-9)
            assert self.op.member([r, theta], limit, tol=1e-9)


def test_support_result_validation():
    with pytest.raises(ValueError):
        SupportResult(math.inf, np.array([1.0, 0.0]))
    result = SupportResult(2.0, np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        result.maximizer[0] = 9.0


def test_support_result_refuses_a_nan_value():
    # a NaN value passes no linesearch test, so it would spend the whole
    # halving budget and end as a linesearch failure
    with pytest.raises(ValueError, match="NaN"):
        SupportResult(math.nan)
    with pytest.raises(ValueError, match="NaN"):
        SupportResult(math.nan, np.array([1.0, 2.0]))


def test_support_oracle_consistency_across_operators():
    # wherever a maximizer is reported, it must attain the reported value,
    # and for single-valued operators it must be the selection itself
    rng = np.random.default_rng(16)
    cases = 0
    while cases < 1000:
        op, x = _random_operator_point(rng)
        d = rng.normal(size=op.dim)
        result = op.support(x, d)
        if math.isinf(result.value):
            assert not op.singleton
            cases += 1
            continue
        assert result.maximizer is not None
        assert float(result.maximizer @ d) == result.value
        if op.singleton:
            np.testing.assert_array_equal(result.maximizer, op.select(x))
        else:
            assert op.member(x, result.maximizer, tol=1e-9)
        cases += 1


def _random_operator_point(rng):
    kind = int(rng.integers(0, 5))
    if kind == 0:
        return HsQuasimonotone(), rng.random(2)
    if kind == 1:
        n = int(rng.integers(1, 5))
        return RhoOperator(n, 1.0, "squared"), rng.uniform(-1.0, 1.0, size=n)
    if kind == 2:
        n = int(rng.integers(1, 5))
        return RhoOperator(n, 1.0, "norm"), rng.uniform(-1.0, 1.0, size=n)
    if kind == 3:
        return FractionalGradient(5.0, float(rng.uniform(0.1, 1.6))), 5.0 * rng.dirichlet(np.ones(5))
    return RayOperator(), np.array([rng.uniform(0.0, 20.0), rng.uniform(0.0, math.pi / 2)])


def test_ray_witness_consistency_random():
    rng = np.random.default_rng(17)
    op = RayOperator()
    for _ in range(300):
        x = np.array([rng.uniform(0.0, 20.0), rng.uniform(0.0, math.pi / 2)])
        d = rng.normal(size=2)
        result = op.support(x, d)
        if math.isinf(result.value):
            level = float(rng.uniform(-5.0, 50.0))
            w = op.witness_above(x, d, level)
            assert op.member(x, w, tol=1e-9)
            assert float(w @ d) >= level
        else:
            assert float(result.maximizer @ d) == result.value
            with pytest.raises(ValueError, match="attained"):
                op.witness_above(x, d, result.value - 1e-9)


class TestRegistry:
    def test_names(self):
        assert PROBLEM_NAMES == (
            "hs-quasimonotone",
            "rho-squared",
            "rho-norm",
            "fractional-simplex",
            "ray-setvalued",
        )

    def test_unknown_problem(self):
        with pytest.raises(UnknownProblem):
            make_problem("nope")

    def test_hs_instance(self):
        p = make_problem("hs-quasimonotone")
        assert p.dim == 2
        np.testing.assert_array_equal(p.known_dual_solutions[0], [1.0, 1.0])
        assert p.feasible.contains([0.5, 0.5])
        # a family of one dimension refuses any other, naming both
        for name, dim, n in (("hs-quasimonotone", 3, 2), ("fractional-simplex", 4, 5),
                             ("ray-setvalued", 1, 2)):
            with pytest.raises(ValueError, match=f"^{name} is {n}-dimensional$"):
                make_problem(name, dim=dim)

    def test_refuses_arguments_that_are_not_numbers_of_their_kind(self):
        # each refused before any problem is built, naming its key
        for name, key, bad in [("rho-norm", "dim", 2.5), ("rho-norm", "dim", True),
                               ("rho-norm", "dim", 0), ("rho-norm", "dim", "2"),
                               ("hs-quasimonotone", "dim", 2.0), ("rho-squared", "a", "2"),
                               ("rho-squared", "a", True), ("rho-squared", "a", math.nan),
                               ("fractional-simplex", "a", True),
                               ("fractional-simplex", "a", math.inf),
                               ("fractional-simplex", "seed", 2.5),
                               ("fractional-simplex", "seed", True),
                               ("fractional-simplex", "seed", -1),
                               ("fractional-simplex", "seed", "3")]:
            with pytest.raises(ValueError, match=repr(key)):
                make_problem(name, **{key: bad})
        # numpy integers and reals are numbers of their kind
        p = make_problem("rho-squared", dim=np.int64(3), a=np.float32(2.0))
        assert p.dim == 3 and type(p.operator.a) is float and p.operator.a == 2.0
        q = make_problem("fractional-simplex", a=np.int64(10), seed=np.uint8(4))
        assert q.operator.h == make_problem("fractional-simplex", a=10.0, seed=4).operator.h

    def test_rho_instances(self):
        p = make_problem("rho-squared", dim=4, a=2.0)
        assert p.dim == 4
        np.testing.assert_array_equal(p.known_dual_solutions[0], np.full(4, -2.0))
        q = make_problem("rho-norm")
        assert q.dim == 1
        assert q.operator.variant == "norm"

    def test_fractional_curvature_is_seeded(self):
        p0 = make_problem("fractional-simplex", seed=0)
        p0b = make_problem("fractional-simplex", seed=0)
        p1 = make_problem("fractional-simplex", seed=1)
        assert p0.operator.h == p0b.operator.h
        assert p0.operator.h != p1.operator.h
        assert 0.1 <= p0.operator.h <= 1.6
        np.testing.assert_array_equal(p0.known_dual_solutions[0], np.ones(5))

    def test_ray_instance(self):
        p = make_problem("ray-setvalued")
        assert p.dim == 2
        assert not p.operator.singleton
        assert p.feasible.contains([1e9, math.pi / 2])
        assert not p.feasible.contains([1.0, math.pi / 2 + 0.01])
        np.testing.assert_array_equal(p.known_dual_solutions[0], [0.0, 0.0])

    def test_dual_solution_must_be_feasible(self):
        with pytest.raises(ValueError):
            ProblemInstance(
                name="bad",
                operator=HsQuasimonotone(),
                feasible=Box(np.zeros(2), np.ones(2)),
                known_dual_solutions=(np.array([2.0, 2.0]),),
            )

    def test_operator_and_feasible_set_must_share_a_dimension(self):
        for operator, feasible, dims in (
                (RhoOperator(2), Box(-np.ones(3), np.ones(3)), (2, 3)),
                (HsQuasimonotone(), SimplexSlice(1.0, 5), (2, 5)),
                (RhoOperator(4), LinearConstraintSystem(np.eye(3), np.ones(3),
                                                        np.zeros((0, 3)), np.zeros(0)), (4, 3))):
            message = f"operator has dimension {dims[0]} but the feasible set has dimension {dims[1]}"
            with pytest.raises(ValueError, match=message):
                ProblemInstance("mismatch", operator, feasible)

    def test_dual_solutions_are_read_only(self):
        p = make_problem("hs-quasimonotone")
        with pytest.raises(ValueError):
            p.known_dual_solutions[0][0] = 7.0
