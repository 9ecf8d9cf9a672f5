"""Feasible sets, linear constraint systems, and the store of a run's cuts; a
cut ``(normal, point)`` is the halfspace ``{y : <normal, y - point> <= 0}``.
A projection works on a system's reduced form (``_reduce``), built once per
system and numbered as the system's rows; the ``ConstraintStore`` writes every
cut row, keeps its rows' reduced form beside the raw rows, reduces each row
once, and links each anchored system it derives to the one before (``_Link``)."""

from __future__ import annotations

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


def as_point(x, dim: int | None = None) -> np.ndarray:
    """Coerce ``x`` to a finite 1-D float vector, optionally of a fixed length.

    A 1-D float64 ``np.ndarray`` is checked and returned as it is, the same
    object, as ``np.asarray`` would; anything else is converted first.
    """
    if type(x) is np.ndarray and x.ndim == 1 and x.dtype == _FLOAT:
        arr = x
    else:
        arr = np.atleast_1d(np.asarray(x, dtype=float))
        if arr.ndim != 1:
            raise ValueError(f"expected a vector, got array of shape {arr.shape}")
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise ValueError("vector entries must be finite")
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected a vector of length {dim}, got {arr.size}")
    return arr


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
        lower = np.atleast_1d(np.asarray(self.lower, dtype=float))
        upper = np.atleast_1d(np.asarray(self.upper, dtype=float))
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
        y = as_point(y, self.dim)
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
    """Scaled simplex ``{x >= 0, sum(x) = a}`` with ``a > 0``."""

    a: float
    dim: int

    def __post_init__(self):
        a, dim = self.a, self.dim
        def kind(x):  # a 0-d NumPy array of a numeric dtype counts as a number
            return np.asarray(x).dtype.kind if np.ndim(x) == 0 else None
        real = isinstance(a, numbers.Real) or kind(a) in ("i", "u", "f")
        if isinstance(a, bool) or not real or not 0.0 < a < np.inf:
            raise ValueError(f"simplex slice field a must be a finite real > 0, got {a!r}")
        integer = isinstance(dim, numbers.Integral) or kind(dim) in ("i", "u")
        if isinstance(dim, bool) or not integer or dim < 1:
            raise ValueError(f"simplex slice field dim must be an integer >= 1, got {dim!r}")

    def contains(self, y, tol: float = 0.0) -> bool:
        y = as_point(y, self.dim)
        return bool((y >= -tol).all() and abs(float(y.sum()) - self.a) <= tol)

    @cached_property
    def constraints(self) -> LinearConstraintSystem:
        """Nonnegativity rows ``-e_i`` and one all-ones equality."""
        n = self.dim
        return LinearConstraintSystem(-np.eye(n), np.zeros(n), np.ones((1, n)), np.array([self.a]))


def _validate_rows(G, h, A, b):
    G = np.atleast_2d(np.asarray(G, dtype=float))
    A = np.atleast_2d(np.asarray(A, dtype=float))
    h = np.atleast_1d(np.asarray(h, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    if (G.ndim, A.ndim, h.ndim, b.ndim) != (2, 2, 1, 1):
        raise ValueError("G and A must be matrices and h and b vectors, got shapes "
                         f"{G.shape}, {A.shape}, {h.shape} and {b.shape}")
    if G.size == 0:
        G = G.reshape(0, A.shape[1] if A.size else G.shape[-1])
    if A.size == 0:
        A = A.reshape(0, G.shape[1])
    if h.size == 0:
        h = h.reshape(0)
    if b.size == 0:
        b = b.reshape(0)
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
        return self.max_violation(y) <= tol


FeasibleSet = Union[Box, SimplexSlice, LinearConstraintSystem]


def _system(G: np.ndarray, h: np.ndarray, A: np.ndarray, b: np.ndarray):
    """A system around rows that are already checked, frozen in place without a copy."""
    G.flags.writeable = h.flags.writeable = False
    system = object.__new__(LinearConstraintSystem)
    for name, value in zip("GhAb", (G, h, A, b)):
        object.__setattr__(system, name, value)
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
    next: ``carried``, the last tight solve on the previous system when it held
    no slab row tight, and ``last``, the last tight solve on this one, which
    ``vifd.qp.least_distance`` writes (a ``vifd.qp._TightSolve``, O(|A| + n)
    values)."""

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
    halfspace ``{y : <normal, y - point> <= 0}``, written by ``ConstraintStore.add``.

    Box bounds become +-identity rows (infinite bounds are skipped), a simplex
    slice becomes nonnegativity rows plus one all-ones equality, and a
    ``LinearConstraintSystem`` (a general polyhedral set, or a stacked system)
    contributes its rows verbatim.  A box's or a slice's rows are built once,
    on first use, as its ``constraints`` system.  Any other type of ``C``
    raises ``TypeError``.
    Cut rows follow in order with unit normals; a zero normal adds no row.
    When no row is added, the base system itself is returned, so
    ``assemble(C, [])`` is the same object on every call, and no store is
    built without a cut.  Systems are immutable, so sharing them is safe.
    Otherwise the result owns exact-size copies of the rows, not a view of
    the store's spare capacity.
    """
    cuts = list(cuts)
    if not cuts:
        return _base_system(C)
    store = ConstraintStore(C)
    for normal, point in cuts:
        store.add(normal, point)
    system = store.system
    if system is store._base:
        return system
    return _system(system.G.copy(), system.h.copy(), system.A, system.b)


class ConstraintStore:
    """The rows of a feasible set C followed by every cut added so far.

    The first cut copies C's rows into one buffer, whose capacity doubles
    when full, and each cut is written into it as one unit-normal row in
    O(n).  ``system`` is a read-only view of the ``rows`` inequality rows so
    far with C's equalities; rows never move, so later cuts leave a system
    taken earlier unchanged.  ``add`` stores a cut; ``add_with_slab`` stores
    one and returns the rows plus a slab row, reduced, as a new system.
    """

    def __init__(self, C: FeasibleSet):
        base = _base_system(C)
        # C's own read-only rows stand in for the buffer until the first cut
        self._G, self._h = base.G, base.h
        self.rows = base.h.size
        self._base = self._view = base
        # the last add_with_slab's reduced form, the stored rows it covers and
        # its system's link
        self._reduced = None, 0, None

    def _write(self, row: np.ndarray, rhs: float) -> None:
        """Append one unit-normal row, growing the buffer when it is full."""
        if self.rows == self._h.size:
            # room for a few cuts past C's own read-only rows, then doubling
            capacity = self.rows + 16 if self._h is self._base.h else 2 * self.rows
            G, h = np.empty((capacity, self._G.shape[1])), np.empty(capacity)
            G[:self.rows], h[:self.rows] = self._G, self._h
            self._G, self._h = G, h
        self._G[self.rows], self._h[self.rows] = row, rhs
        self.rows += 1
        self._view = None

    def add(self, normal, point) -> None:
        """Store the cut ``{y : <normal, y - point> <= 0}``; a zero normal adds no row."""
        n = self._G.shape[1]
        row, rhs, kept = _unit_rows(as_point(normal, n)[None], as_point(point, n)[None])
        if kept[0]:
            self._write(row[0], rhs[0])

    @property
    def system(self) -> LinearConstraintSystem:
        if self._view is None:
            G, h, base = self._G[:self.rows], self._h[:self.rows], self._base
            self._view = _system(G, h, base.A, base.b)
        return self._view

    def add_with_slab(self, normal, point, slab_normal, slab_point) -> LinearConstraintSystem:
        """Store the cut ``(normal, point)`` as ``add`` does and return the stored
        rows and the row of the slab ``(slab_normal, slab_point)`` (none for a
        zero normal) as a new system that owns its arrays, with its reduced
        form and a ``_Link`` attached; the slab is not stored.

        The cut and the slab are normalised as one two-row batch.  The rows not
        reduced yet and the slab row are reduced in one ``_reduce`` batch and
        appended to the previous call's reduced rows, so each row is reduced
        once.
        """
        n, base = self._G.shape[1], self._base
        rows, rhs, kept = _unit_rows(
            np.array((as_point(normal, n), as_point(slab_normal, n))),
            np.array((as_point(point, n), as_point(slab_point, n))))
        if kept[0]:
            self._write(rows[0], rhs[0])
            rows, rhs = rows[1:], rhs[1:]
        # what is left is the slab's row, or none for a zero slab normal
        G = np.concatenate([self._G[:self.rows], rows])
        h = np.concatenate([self._h[:self.rows], rhs])
        done, start, link = self._reduced
        basis = _affine_basis(base.A, base.b) if done is None else (done.y_part, done.Z)
        form = _reduce(G[start:], h[start:], *basis)
        if start:
            arrays = [np.concatenate([getattr(done, name)[:start], getattr(form, name)])
                      for name in ("rows", "rhs", "norms")]
            for arr in arrays:
                arr.flags.writeable = False
            form = _ReducedForm(*basis, *arrays)
        last = link.last if link is not None else None
        link = _Link(last if last is not None and max(last.active) < start else None)
        system = _system(G, h, base.A, base.b)
        object.__setattr__(system, "_reduced_form", form)
        object.__setattr__(system, "_link", link)
        self._reduced = form, self.rows, link
        return system
