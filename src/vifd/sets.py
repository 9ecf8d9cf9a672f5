"""Feasible sets, linear constraint systems, the store of a run's cuts, and the
one rule for what counts as a number (``as_point``, ``_real``, ``_integer``).
A cut ``(normal, point)`` is the halfspace ``{y : <normal, y - point> <= 0}``.
A projection works on a system's reduced form (``_reduce``), built once per
system and numbered as the system's rows.  The ``ConstraintStore`` keeps only
C's system and the last anchored system; its one writer, ``add_with_slab``,
extends that system's stored rows, raw and reduced, by a cut and a slab row,
links the new system to the last (``_Link``), and alone knows the layout: the
slab is the last row and is never stored."""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Box",
    "SimplexSlice",
    "FeasibleSet",
    "LinearConstraintSystem",
    "ConstraintStore",
    "as_point",
    "assemble",
]

_FLOAT = np.dtype(float)
# feasibility tolerance of the reduction's screen and of every QP solve
TOL = 1e-10


class InfeasibleSystem(RuntimeError):
    """The constraint system has no feasible point."""


def _floats(value, name: str = "vector") -> np.ndarray:
    """``value`` as a float64 array, else a ``ValueError`` naming ``name``: its
    dtype must be an integer or float kind (not bool, string or object, as for
    an integer too large for a float), and a list or tuple, which NumPy turns
    into floats, must hold no boolean."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf" or isinstance(value, (list, tuple)) and any(
            isinstance(v, bool) or getattr(v, "dtype", None) == bool
            for v in np.asarray(value, dtype=object).flat):
        raise ValueError(f"{name} entries must be real numbers, not {value!r}")
    return np.asarray(arr, dtype=float)


def as_point(x, dim: int | None = None) -> np.ndarray:
    """``x`` as a finite 1-D float vector, optionally of a fixed length.

    A 1-D float64 ``np.ndarray`` is checked and returned as it is, the same
    object, as ``np.asarray`` would; anything else is converted by ``_floats``,
    and a scalar becomes a vector of length 1.  A refusal is a ``ValueError``.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == _FLOAT:
        arr = x
    else:
        arr = np.atleast_1d(_floats(x))
        if arr.ndim != 1:
            raise ValueError(f"expected a vector, got array of shape {arr.shape}")
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected a vector of length {dim}, got {arr.size}")
    return arr


def _point(key: str, x, dim: int | None = None) -> np.ndarray:
    """``as_point(x, dim)``, its refusal re-raised naming ``key``."""
    try:
        return as_point(x, dim)
    except ValueError as exc:
        raise ValueError(f"{key!r}: {exc}") from None


def _is_number(value, kinds: str) -> bool:
    """Whether ``value`` is a finite number, of a dtype kind in ``kinds``, that a
    float can hold: a Python or NumPy number or a 0-d array, not a boolean."""
    kind = ("f" if isinstance(value, float) else  # np.float64 is a float
            value.dtype.kind if isinstance(value, np.ndarray) and value.ndim == 0 else
            "b" if isinstance(value, bool) or not isinstance(value, numbers.Real) else
            "i" if isinstance(value, numbers.Integral) else "f")
    try:
        return kind in kinds and math.isfinite(value)
    except OverflowError:  # an integer too large for a float
        return False


def _real(key: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a plain float in (``low``, ``high``), else a ``ValueError`` naming ``key``."""
    if _is_number(value, "iuf") and low < (number := float(value)) < high:
        return number
    bounds = "" if (low, high) == (-math.inf, math.inf) else f" in ({low:g}, {high:g})"
    raise ValueError(f"{key!r} must be a finite real number{bounds}, not {value!r}")


def _integer(key: str, value, minimum: int) -> int:
    """``value`` as a plain int of at least ``minimum``, else a ``ValueError`` naming ``key``."""
    if _is_number(value, "iu") and value >= minimum:
        return int(value)
    raise ValueError(f"{key!r} must be an integer of at least {minimum}, not {value!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Box:
    """Axis-aligned box; entries of ``lower`` may be -inf and of ``upper`` +inf."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lower = np.atleast_1d(_floats(self.lower, "'lower'"))
        upper = np.atleast_1d(_floats(self.upper, "'upper'"))
        if lower.ndim != 1 or upper.shape != lower.shape:
            raise ValueError("box bounds must be two vectors of equal length")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise ValueError("box bounds must not be NaN")
        if np.any(lower > upper):
            raise ValueError("box requires lower <= upper componentwise")
        if np.any(lower == np.inf) or np.any(upper == -np.inf):
            raise ValueError("a box lower bound cannot be +inf, nor an upper bound -inf")
        object.__setattr__(self, "lower", _frozen(lower))
        object.__setattr__(self, "upper", _frozen(upper))

    @property
    def dim(self) -> int:
        return self.lower.size

    def contains(self, y, tol: float = 0.0) -> bool:
        y, tol = as_point(y, self.dim), _real("tol", tol)
        return bool((y >= self.lower - tol).all() and (y <= self.upper + tol).all())

    @cached_property
    def constraints(self) -> LinearConstraintSystem:
        """``+e_i`` rows for the finite uppers, then ``-e_i`` rows for the finite lowers."""
        eye = np.eye(self.dim)
        upper, lower = np.isfinite(self.upper), np.isfinite(self.lower)
        return LinearConstraintSystem(
            np.vstack([eye[upper], -eye[lower]]),
            np.concatenate([self.upper[upper], -self.lower[lower]]),
            np.zeros((0, self.dim)),
            np.zeros(0),
        )


@dataclass(frozen=True, eq=False)
class SimplexSlice:
    """Scaled simplex ``{x >= 0, sum(x) = a}``, ``a`` a real > 0 and ``dim`` an integer >= 1."""

    a: float
    dim: int

    def __post_init__(self):
        object.__setattr__(self, "a", _real("a", self.a, 0.0))
        object.__setattr__(self, "dim", _integer("dim", self.dim, 1))

    def contains(self, y, tol: float = 0.0) -> bool:
        y, tol = as_point(y, self.dim), _real("tol", tol)
        return bool((y >= -tol).all() and abs(float(y.sum()) - self.a) <= tol)

    @cached_property
    def constraints(self) -> LinearConstraintSystem:
        """Nonnegativity rows ``-e_i`` and one all-ones equality."""
        n = self.dim
        return LinearConstraintSystem(-np.eye(n), np.zeros(n), np.ones((1, n)), np.array([self.a]))


def _validate_rows(G, h, A, b):
    G, A = np.atleast_2d(_floats(G, "'G'"), _floats(A, "'A'"))
    h, b = np.atleast_1d(_floats(h, "'h'"), _floats(b, "'b'"))
    if (G.ndim, A.ndim, h.ndim, b.ndim) != (2, 2, 1, 1):
        raise ValueError("G and A must be matrices and h and b vectors, got shapes "
                         f"{G.shape}, {A.shape}, {h.shape} and {b.shape}")
    if G.size == 0:
        G = G.reshape(0, A.shape[1] if A.size else G.shape[-1])
    if A.size == 0:
        A = A.reshape(0, G.shape[1])
    if G.shape[0] != h.size or A.shape[0] != b.size:
        raise ValueError("row counts of G/h and A/b must agree")
    if G.shape[1] != A.shape[1]:
        raise ValueError("G and A must share the ambient dimension")
    if not (np.all(np.isfinite(G)) and np.all(np.isfinite(h))
            and np.all(np.isfinite(A)) and np.all(np.isfinite(b))):
        raise ValueError("constraint data must be finite")
    return _frozen(G), _frozen(h), _frozen(A), _frozen(b)


@dataclass(frozen=True, eq=False)
class LinearConstraintSystem:
    """Stacked constraints ``G y <= h`` and ``A y = b`` over one ambient space.

    ``G`` and ``A`` are matrices (a vector is read as one row) and ``h`` and
    ``b`` vectors; an array of higher rank raises ``ValueError``.
    """

    G: np.ndarray
    h: np.ndarray
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        for name, value in zip("GhAb", _validate_rows(self.G, self.h, self.A, self.b)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return self.G.shape[1]

    def max_violation(self, y) -> float:
        """Largest constraint violation at ``y`` (0 when feasible)."""
        y = as_point(y, self.n)
        worst = 0.0
        if self.G.shape[0]:
            worst = max(worst, float((self.G @ y - self.h).max()))
        if self.A.shape[0]:
            worst = max(worst, float(np.abs(self.A @ y - self.b).max()))
        return worst

    def contains(self, y, tol: float = 0.0) -> bool:
        return self.max_violation(y) <= _real("tol", tol)

    _link = None  # a system from ConstraintStore.add_with_slab has its own


FeasibleSet = Union[Box, SimplexSlice, LinearConstraintSystem]


def _system(G: np.ndarray, h: np.ndarray, A: np.ndarray, b: np.ndarray, **attached):
    """A system around checked rows, frozen in place without a copy, with ``attached`` set."""
    G.flags.writeable = h.flags.writeable = False
    system = object.__new__(LinearConstraintSystem)
    vars(system).update(G=G, h=h, A=A, b=b, **attached)
    return system


def _affine_basis(A: np.ndarray, b: np.ndarray):
    """Minimum-norm particular solution of ``A y = b`` and an orthonormal null basis,
    both read-only; ``(None, None)`` without equalities."""
    if not A.shape[0]:
        return None, None
    y_part, _, _, _ = np.linalg.lstsq(A, b, rcond=None)
    scale = max(1.0, float(np.abs(b).max()))
    if float(np.abs(A @ y_part - b).max()) > 1e-8 * scale:
        raise InfeasibleSystem("equality constraints are inconsistent")
    u, s, vt = np.linalg.svd(A)
    rank = int(np.sum(s > s[0] * max(A.shape) * np.finfo(float).eps)) if s.size else 0
    Z = vt[rank:].T
    y_part.flags.writeable = Z.flags.writeable = False
    return y_part, Z


@dataclass(frozen=True)
class _ReducedForm:
    """The part of a projection onto one system that depends on the system alone.

    ``y_part``/``Z`` are ``None`` without equalities.  Row ``i`` of ``rows``,
    ``rhs`` and ``norms`` is system row ``i``: its reduced row ``G Z`` divided
    by its norm.  A row whose reduced norm is at most 1e-13 is constant on the
    affine subspace, was checked feasible when the form was built, and is
    stored as the inert row ``0 <= 0`` with norm ``inf``.  When the equalities
    pin a single point, ``Z`` has no columns and every row is inert.  Every
    array is read-only.  A system from ``ConstraintStore.add_with_slab``
    carries a ``_Link`` beside its form: the reduced rows it shares with the
    system before it are bitwise the same, so that system's last tight solve
    can stand in for the first one on this system.
    """

    y_part: np.ndarray | None
    Z: np.ndarray | None
    rows: np.ndarray
    rhs: np.ndarray
    norms: np.ndarray


def _reduce(G: np.ndarray, h: np.ndarray, y_part, Z) -> _ReducedForm:
    """The reduced form of the rows ``G y <= h`` on ``{y_part + Z w}`` (the whole
    space when ``Z`` is None), one row per row of ``G``; ``InfeasibleSystem`` if
    a row is constant and violated.

    A row's result depends on that row alone, except that the BLAS may make
    the last bits of ``G @ Z`` and ``G @ y_part`` depend on how many rows share
    the product: with OpenBLAS at n = 5 two or more rows give each row the
    bits of the whole system's product and one row does not, and at n >= 20
    two-row products can differ from the whole system's in the last bits.
    """
    if Z is not None:
        M = G @ Z
        d = h - G @ y_part
    else:
        M, d = G, h
    # screen rows that vanish on the reduced space and make them inert (an
    # infinite norm divides them to exactly 0), then unit-normalize the rest
    norms = np.linalg.norm(M, axis=1)
    vanish = norms <= 1e-13
    if vanish.any():
        if (d[vanish] < -TOL).any():
            raise InfeasibleSystem("a constraint is constant and violated on the affine subspace")
        norms[vanish] = np.inf
    rows, rhs = M / norms[:, None], d / norms
    for arr in (rows, rhs, norms):
        arr.flags.writeable = False
    return _ReducedForm(y_part, Z, rows, rhs, norms)


class _Link:
    """What ``ConstraintStore.add_with_slab`` carries from one system to the
    next: ``carried``, the last tight solve on the previous system when none of
    its active rows was that system's slab, and ``last``, the last tight solve
    on this one, which ``vifd.qp.least_distance`` writes (a
    ``vifd.qp._TightSolve``, O(|A| + n) values)."""

    __slots__ = ("carried", "last")

    def __init__(self, carried):
        self.carried, self.last = carried, None


def _reduced_form(system: LinearConstraintSystem) -> _ReducedForm:
    """The reduced form, built on first use and kept on the immutable system."""
    form = system.__dict__.get("_reduced_form")
    if form is None:
        form = _reduce(system.G, system.h, *_affine_basis(system.A, system.b))
        object.__setattr__(system, "_reduced_form", form)
    return form


def _unit_rows(normals: np.ndarray, points: np.ndarray):
    """One unit-normal row per finite pair with a nonzero normal, which keeps an
    accumulated system uniformly conditioned, and the mask of the pairs kept; a
    non-finite row raises ``ValueError``.  A normal whose norm over- or
    underflows is divided by its largest entry first."""
    try:
        with np.errstate(over="raise", under="raise"):
            norms = np.linalg.norm(normals, axis=1)
    except FloatingPointError:
        with np.errstate(over="ignore", under="ignore"):
            norms = np.linalg.norm(normals, axis=1)
            scale = np.abs(normals).max(axis=1)
            scaled = ((norms == 0.0) | (norms == np.inf)) & (scale > 0.0)
            # only the rows whose norm is 0 or infinite change: x / 1.0 is x
            normals = normals / np.where(scaled, scale, 1.0)[:, None]
            norms = np.where(scaled, np.linalg.norm(normals, axis=1), norms)
    keep = norms > 0.0
    if keep.all():
        rows = normals / norms[:, None]
    else:
        rows, points = normals[keep] / norms[keep, None], points[keep]
    rhs = np.einsum("ij,ij->i", rows, points)
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise ValueError("constraint data must be finite")
    return rows, rhs, keep


def _base_system(C: FeasibleSet) -> LinearConstraintSystem:
    """The rows of ``C`` as a system: C itself, or a box's or a slice's cached
    ``constraints``; any other type raises ``TypeError``."""
    if isinstance(C, LinearConstraintSystem):
        return C
    if isinstance(C, (Box, SimplexSlice)):
        return C.constraints
    raise TypeError(f"unsupported feasible set type: {type(C).__name__}")


def assemble(C: FeasibleSet, cuts=()) -> LinearConstraintSystem:
    """The rows of ``C`` followed by one row per cut ``(normal, point)``, the
    halfspace ``{y : <normal, y - point> <= 0}``.

    Box bounds become +-identity rows (infinite bounds are skipped), a simplex
    slice becomes nonnegativity rows plus one all-ones equality, and a
    ``LinearConstraintSystem`` (a general polyhedral set, or a stacked system)
    contributes its rows verbatim.  A box's or a slice's rows are built once,
    on first use, as its ``constraints`` system.  Any other type of ``C``
    raises ``TypeError``.
    Each cut is checked with ``as_point``, and all cuts are normalised in one
    ``_unit_rows`` batch; their rows follow in order with unit normals, and a
    zero normal adds no row.  When no row is added, the base system itself is
    returned, so ``assemble(C, [])`` is the same object on every call;
    otherwise the result owns new exact-size arrays.  Systems are immutable,
    so sharing them is safe.  No store is built.
    """
    base = _base_system(C)
    cuts = [(as_point(normal, base.n), as_point(point, base.n)) for normal, point in cuts]
    if not cuts:
        return base
    rows, rhs, _ = _unit_rows(np.array([normal for normal, _ in cuts]),
                              np.array([point for _, point in cuts]))
    if not rhs.size:
        return base
    return _system(np.concatenate([base.G, rows]), np.concatenate([base.h, rhs]), base.A, base.b)


class ConstraintStore:
    """The rows of a feasible set C followed by every cut stored so far, and the
    one owner of the anchored systems' layout.

    The store keeps no buffer: its state is C's system, the last anchored
    system it returned, the count ``rows`` of stored rows and ``warm_start``,
    and ``add_with_slab`` is its one writer.  ``system`` is C's own system
    before the first call, then a read-only view of the last system's first
    ``rows`` rows with C's equalities, which later calls never change.
    """

    def __init__(self, C: FeasibleSet):
        self._base = _base_system(C)
        self.rows = self._base.h.size
        self.warm_start = None
        self._last = None

    @property
    def system(self) -> LinearConstraintSystem:
        base, last = self._base, self._last
        if last is None:
            return base
        return _system(last.G[:self.rows], last.h[:self.rows], base.A, base.b)

    def add_with_slab(self, normal, point, slab_normal, slab_point) -> LinearConstraintSystem:
        """Store the cut ``(normal, point)`` and return the stored rows and the
        row of the slab ``(slab_normal, slab_point)``, normalised as one two-row
        batch, as a new system with its reduced form and a ``_Link`` attached;
        a zero normal adds no row, and the slab is not stored.

        The system is one ``np.concatenate`` of the last system's stored rows
        (C's before the first call) with the new rows, so it owns its arrays.
        The slab is always its last row, so of the last tight solve on the
        previous system the active rows below that system's slab keep their
        index: they become ``warm_start`` (None without a last solve), and the
        solve is carried when it dropped none of them.  The first call reduces
        C's rows with the first cut and slab in one ``_reduce`` batch (reduced
        alone, a one-row product may round differently); each later call
        reduces only its new rows and extends the previous reduced rows.
        """
        base, previous, stored = self._base, self._last, self.rows
        n = base.n
        last = None if previous is None else previous._link.last
        self.warm_start = None if last is None else [i for i in last.active if i < stored]
        rows, rhs, kept = _unit_rows(
            np.array((as_point(normal, n), as_point(slab_normal, n))),
            np.array((as_point(point, n), as_point(slab_point, n))))
        source = base if previous is None else previous
        G = np.concatenate([source.G[:stored], rows])
        h = np.concatenate([source.h[:stored], rhs])
        if previous is None:
            form = _reduce(G, h, *_affine_basis(base.A, base.b))
        else:
            done = previous._reduced_form
            new = _reduce(G[stored:], h[stored:], done.y_part, done.Z)
            arrays = [np.concatenate([getattr(done, name)[:stored], getattr(new, name)])
                      for name in ("rows", "rhs", "norms")]
            for arr in arrays:
                arr.flags.writeable = False
            form = _ReducedForm(done.y_part, done.Z, *arrays)
        kept_all = last is not None and len(self.warm_start) == len(last.active)
        self.rows += int(kept[0])
        self._last = _system(G, h, base.A, base.b, _reduced_form=form,
                             _link=_Link(last if kept_all else None))
        return self._last
