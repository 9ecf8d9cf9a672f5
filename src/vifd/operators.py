"""Set-valued operator contracts and the built-in benchmark operators."""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .sets import Box, FeasibleSet, SimplexSlice, _integer, _real, as_point

__all__ = [
    "DomainError",
    "UnknownProblem",
    "SupportResult",
    "SetValuedOperator",
    "HsQuasimonotone",
    "RhoOperator",
    "FractionalGradient",
    "RayOperator",
    "ProblemInstance",
    "PROBLEM_NAMES",
    "make_problem",
]

_DOMAIN_TOL = 1e-8


class DomainError(ValueError):
    """Operator evaluated outside its feasible domain."""


class UnknownProblem(ValueError):
    """Requested problem name is not registered."""


@dataclass(frozen=True, eq=False)
class SupportResult:
    """Value of ``sup {<u, d> : u in T(x)}`` with the maximizer when attained.

    An infinite value means the supremum is not attained and carries no
    maximizer.  When a maximizer is present, its inner product with the query
    direction reproduces ``value`` exactly.  A NaN value raises ``ValueError``.
    """

    value: float
    maximizer: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "value", float(self.value))
        if math.isnan(self.value):
            raise ValueError("a support value must not be NaN")
        if math.isinf(self.value):
            if self.maximizer is not None:
                raise ValueError("an unattained supremum cannot carry a maximizer")
        elif self.maximizer is not None:
            arr = as_point(self.maximizer)
            arr = np.array(arr)
            arr.flags.writeable = False
            object.__setattr__(self, "maximizer", arr)


class SetValuedOperator(ABC):
    """Point-to-set operator exposed through selection and support oracles.

    Implementations are stateless and deterministic.  ``select(x)`` returns
    one element of T(x); ``support(x, d)`` returns sup over T(x) of <u, d>.
    Singleton operators advertise ``singleton = True``, in which case the
    support value always equals ``<select(x), d>``.
    """

    dim: int
    singleton: bool = False

    @abstractmethod
    def select(self, x) -> np.ndarray:
        """One deterministic element of T(x)."""

    @abstractmethod
    def support(self, x, d) -> SupportResult:
        """Supremum of ``<u, d>`` over ``u in T(x)``."""

    def witness_above(self, x, d, level: float) -> np.ndarray:
        """Some ``u in T(x)`` with ``<u, d> >= level``.

        Callers must first check ``support(x, d).value >= level``.  The default
        works whenever the supremum is attained; operators with unbounded
        images override it.
        """
        _real("level", level)
        result = self.support(x, d)
        if result.maximizer is None:
            raise NotImplementedError(
                "unbounded support requires an operator-specific witness"
            )
        return np.array(result.maximizer)


class _SingletonOperator(SetValuedOperator):
    singleton = True

    def support(self, x, d) -> SupportResult:
        u = self.select(x)
        d = as_point(d, self.dim)
        return SupportResult(float(u @ d), u)


class HsQuasimonotone(_SingletonOperator):
    """Quasimonotone planar operator on the unit box.

    T(x1, x2) = (-t / (1 + t), -1 / (1 + t)) with
    t = (x1 + sqrt(x1^2 + 4 x2)) / 2.
    """

    dim = 2

    def select(self, x) -> np.ndarray:
        x = as_point(x, 2)
        if float(x.min()) < -_DOMAIN_TOL or float(x.max()) > 1.0 + _DOMAIN_TOL:
            raise DomainError(f"point {x} is outside the unit box")
        x = np.clip(x, 0.0, 1.0)
        t = 0.5 * (x[0] + math.sqrt(x[0] * x[0] + 4.0 * x[1]))
        return np.array([-t / (1.0 + t), -1.0 / (1.0 + t)])


class RhoOperator(_SingletonOperator):
    """Operator with all components equal to a scalar field rho(x) on [-a, a]^n.

    ``variant`` picks rho: "squared" uses ||x||^2, "norm" uses ||x||.  ``dim``, an
    integer >= 1, and ``a``, a real > 0, are checked by ``vifd.sets``.
    """

    def __init__(self, dim: int, a: float = 1.0, variant: str = "squared"):
        self.dim = _integer("dim", dim, 1)
        self.a = _real("a", a, 0.0)
        if variant not in ("squared", "norm"):
            raise ValueError("variant must be 'squared' or 'norm'")
        self.variant = variant

    def select(self, x) -> np.ndarray:
        x = as_point(x, self.dim)
        if float(np.max(np.abs(x))) > self.a + _DOMAIN_TOL:
            raise DomainError(f"point is outside [-{self.a}, {self.a}]^{self.dim}")
        x = np.clip(x, -self.a, self.a)
        rho = float(x @ x) if self.variant == "squared" else float(np.linalg.norm(x))
        return np.full(self.dim, rho)


class FractionalGradient(_SingletonOperator):
    """Gradient of F(x) = (h/2 <x, x> - sum(x) + 1) / sum(x) on a simplex slice.

    With the diagonal curvature ``h`` the partial derivatives reduce to

        dF/dx_i = (h x_i sum(x) - h/2 sum(x^2) - 1) / sum(x)^2,

    which is what ``select`` evaluates.  ``objective`` exposes F itself so the
    gradient can be cross-checked by finite differences.

    On the slice {sum(x) = a, x >= 0} this is (h/a)(x - x*) plus a multiple of
    the all-ones vector, where x* = (a/5)(1, ..., 1), and projecting onto the
    slice ignores that multiple.  The problem is therefore a strongly monotone
    affine VI whose modulus and Lipschitz constant are both h/a, with x* its
    unique solution.  ``a`` and ``h``, reals > 0, are checked by ``vifd.sets``.
    """

    dim = 5

    def __init__(self, a: float = 5.0, h: float = 1.0):
        self.a = _real("a", a, 0.0)
        self.h = _real("h", h, 0.0)

    def objective(self, x) -> float:
        x = as_point(x, self.dim)
        total = float(x.sum())
        if total <= 1e-12:
            raise DomainError("sum of coordinates must be positive")
        return (0.5 * self.h * float(x @ x) - total + 1.0) / total

    def select(self, x) -> np.ndarray:
        x = as_point(x, self.dim)
        total = float(x.sum())
        if total <= 1e-12:
            raise DomainError("sum of coordinates must be positive")
        return (self.h * x * total - 0.5 * self.h * float(x @ x) - 1.0) / total**2


class RayOperator(SetValuedOperator):
    """Ray-valued planar operator T(r, theta) = {t (cos theta, sin theta) : t >= r}.

    The domain is {r >= 0, 0 <= theta <= pi/2}.  ``select`` returns the element
    at parameter max(r, 2).  The floor of 2 exceeds sup theta/sin(theta) over
    the domain's angles, so one projected trial step carries any feasible point
    all the way to the horizontal axis; selections that shrink with r make the
    anchored iterates stall on the boundary face at a positive angle instead of
    reaching the origin.  The support of the ray along ``d`` is infinite when
    the ray direction points into ``d`` and is otherwise attained at the base;
    direction components below 1e-12 in magnitude count as zero so that
    boundary angles behave like exact right angles.
    """

    dim = 2
    singleton = False
    _ALIGN_TOL = 1e-12

    def _split(self, x):
        x = as_point(x, 2)
        if x[0] < -_DOMAIN_TOL or not -_DOMAIN_TOL <= x[1] <= math.pi / 2 + _DOMAIN_TOL:
            raise DomainError(f"point {x} is outside {{r >= 0, 0 <= theta <= pi/2}}")
        r = max(float(x[0]), 0.0)
        theta = min(max(float(x[1]), 0.0), math.pi / 2)
        return r, theta

    def _direction(self, theta: float) -> np.ndarray:
        return np.array([math.cos(theta), math.sin(theta)])

    def select(self, x) -> np.ndarray:
        r, theta = self._split(x)
        return max(r, 2.0) * self._direction(theta)

    def support(self, x, d) -> SupportResult:
        r, theta = self._split(x)
        d = as_point(d, 2)
        direction = self._direction(theta)
        c = float(direction @ d)
        if c > self._ALIGN_TOL:
            return SupportResult(math.inf)
        return SupportResult(r * c, r * direction)

    def witness_above(self, x, d, level: float) -> np.ndarray:
        r, theta = self._split(x)
        d, level = as_point(d, 2), _real("level", level)
        direction = self._direction(theta)
        c = float(direction @ d)
        if c > self._ALIGN_TOL:
            t = max(r, level / c)
            return t * direction
        base = r * direction
        if float(base @ d) >= level - 1e-12:
            return base
        raise ValueError("no ray element attains the requested level")

    def member(self, x, u, tol: float = 1e-9) -> bool:
        """Whether ``u`` lies on the ray T(x) (up to ``tol``)."""
        r, theta = self._split(x)
        u, tol = as_point(u, 2), _real("tol", tol)
        direction = self._direction(theta)
        t = float(u @ direction)
        on_line = float(np.linalg.norm(u - t * direction)) <= tol
        return on_line and t >= r - tol


@dataclass(frozen=True, eq=False)
class ProblemInstance:
    """A variational inequality: operator, feasible set, and known solution data.

    ``known_dual_solutions`` lists points of the dual (Minty) solution set,
    which every separating halfspace generated by the solver must retain.
    """

    name: str
    operator: SetValuedOperator
    feasible: FeasibleSet
    known_dual_solutions: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        frozen = []
        for s in self.known_dual_solutions:
            arr = np.array(as_point(s, self.operator.dim))
            arr.flags.writeable = False
            if not self.feasible.contains(arr, 1e-9):
                raise ValueError("known dual solution lies outside the feasible set")
            frozen.append(arr)
        object.__setattr__(self, "known_dual_solutions", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.operator.dim


PROBLEM_NAMES = (
    "hs-quasimonotone",
    "rho-squared",
    "rho-norm",
    "fractional-simplex",
    "ray-setvalued",
)


def make_problem(
    name: str,
    dim: int | None = None,
    a: float | None = None,
    seed: int = 0,
) -> ProblemInstance:
    """Build a registered benchmark problem.

    ``dim`` is required only where the family is dimension-parametric (the
    rho operators); ``a`` scales the feasible set where applicable.  For the
    fractional problem the diagonal curvature h is drawn once, uniformly from
    [0.1, 1.6], from a generator seeded with ``seed``.  A ``dim`` other than
    None or an integer >= 1, an ``a`` other than None or a finite real, or a
    ``seed`` other than an integer >= 0 (a bool is neither) raises a
    ``ValueError`` naming its key; any other ``name`` raises
    :class:`UnknownProblem`, a ``ValueError`` that lists the registered names.
    """
    dim = None if dim is None else _integer("dim", dim, 1)
    a = None if a is None else _real("a", a)
    seed = _integer("seed", seed, 0)
    if name == "hs-quasimonotone":
        if dim not in (None, 2):
            raise ValueError("hs-quasimonotone is two-dimensional")
        return ProblemInstance(
            name=name,
            operator=HsQuasimonotone(),
            feasible=Box(np.zeros(2), np.ones(2)),
            known_dual_solutions=(np.array([1.0, 1.0]),),
        )
    if name in ("rho-squared", "rho-norm"):
        n = 1 if dim is None else dim
        half = 1.0 if a is None else a
        variant = "squared" if name == "rho-squared" else "norm"
        return ProblemInstance(
            name=name,
            operator=RhoOperator(n, half, variant),
            feasible=Box(np.full(n, -half), np.full(n, half)),
            known_dual_solutions=(np.full(n, -half),),
        )
    if name == "fractional-simplex":
        if dim not in (None, 5):
            raise ValueError("fractional-simplex is five-dimensional")
        scale = 5.0 if a is None else a
        h = float(np.random.default_rng(seed).uniform(0.1, 1.6))
        return ProblemInstance(
            name=name,
            operator=FractionalGradient(scale, h),
            feasible=SimplexSlice(scale, 5),
            known_dual_solutions=(np.full(5, scale / 5.0),),
        )
    if name == "ray-setvalued":
        if dim not in (None, 2):
            raise ValueError("ray-setvalued is two-dimensional")
        return ProblemInstance(
            name=name,
            operator=RayOperator(),
            feasible=Box(np.zeros(2), np.array([math.inf, math.pi / 2])),
            known_dual_solutions=(np.zeros(2),),
        )
    raise UnknownProblem(f"'problem' must be one of {', '.join(PROBLEM_NAMES)}, not {name!r}")
