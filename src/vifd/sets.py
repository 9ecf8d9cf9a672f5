"""Feasible sets, separating halfspaces, and stacked linear constraint systems."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Union

import numpy as np

__all__ = [
    "Halfspace",
    "Box",
    "SimplexSlice",
    "FeasibleSet",
    "LinearConstraintSystem",
    "as_point",
    "halfspace_from_pair",
    "w_halfspace",
    "contains",
    "assemble",
]

_FLOAT = np.dtype(float)


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
    if not np.isfinite(arr).all():
        raise ValueError("vector entries must be finite")
    if dim is not None and arr.size != dim:
        raise ValueError(f"expected a vector of length {dim}, got {arr.size}")
    return arr


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.flags.writeable = False
    return out


@dataclass(frozen=True, eq=False)
class Halfspace:
    """Closed halfspace ``{y : <normal, y - anchor> <= 0}``.

    A zero normal is allowed and denotes the whole space.
    """

    normal: np.ndarray
    anchor: np.ndarray

    def __post_init__(self):
        normal = _frozen(as_point(self.normal))
        anchor = _frozen(as_point(self.anchor, normal.size))
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "anchor", anchor)

    @property
    def dim(self) -> int:
        return self.normal.size

    @property
    def is_whole_space(self) -> bool:
        return not self.normal.any()


def _owned_halfspace(normal: np.ndarray, anchor: np.ndarray) -> Halfspace:
    """A ``Halfspace`` around checked arrays that no caller holds, frozen in place."""
    normal.flags.writeable = anchor.flags.writeable = False
    halfspace = object.__new__(Halfspace)
    object.__setattr__(halfspace, "normal", normal)
    object.__setattr__(halfspace, "anchor", anchor)
    return halfspace


def halfspace_from_pair(z, u) -> Halfspace:
    """Halfspace ``{y : <u, y - z> <= 0}`` with its boundary through ``z``.

    The normal is rescaled to unit length so that accumulated constraint rows
    stay uniformly conditioned; a zero ``u`` yields the whole space.
    """
    z = as_point(z)
    u = as_point(u, z.size)
    norm = float(np.linalg.norm(u))
    return _owned_halfspace(u / norm if norm > 0.0 else u.copy(), z.copy())


def w_halfspace(x0, x) -> Halfspace:
    """Halfspace ``{y : <y - x, x0 - x> <= 0}``; equals the whole space when x0 = x."""
    x0 = as_point(x0)
    x = as_point(x, x0.size)
    return _owned_halfspace(x0 - x, x.copy())


def contains(halfspace: Halfspace, y, tol: float = 0.0) -> bool:
    """Membership test ``<normal, y - anchor> <= tol``."""
    y = as_point(y, halfspace.dim)
    return float(halfspace.normal @ (y - halfspace.anchor)) <= tol


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
        if not (np.isfinite(self.a) and self.a > 0.0):
            raise ValueError("simplex slice requires a finite a > 0")
        if self.dim < 1:
            raise ValueError("simplex slice requires dimension >= 1")

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
        G, h, A, b = _validate_rows(self.G, self.h, self.A, self.b)
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)

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


def _stacked(base: LinearConstraintSystem, rows: np.ndarray, rhs: np.ndarray):
    """``base`` with ``rows``/``rhs`` appended; only the new rows are validated."""
    if not (np.isfinite(rows).all() and np.isfinite(rhs).all()):
        raise ValueError("constraint data must be finite")
    G, h = np.concatenate([base.G, rows]), np.concatenate([base.h, rhs])
    G.flags.writeable = h.flags.writeable = False
    system = object.__new__(LinearConstraintSystem)
    for name, value in (("G", G), ("h", h), ("A", base.A), ("b", base.b)):
        object.__setattr__(system, name, value)
    return system


def assemble(C: FeasibleSet, halfspaces) -> LinearConstraintSystem:
    """Stack the rows of ``C`` with one row per halfspace.

    Box bounds become +-identity rows (infinite bounds are skipped), a simplex
    slice becomes nonnegativity rows plus one all-ones equality, and a
    ``LinearConstraintSystem`` (a general polyhedral set, or a stacked system)
    contributes its rows verbatim.  A box's or a slice's rows are built once,
    on first use, as its ``constraints`` system.  Any other type of ``C``
    raises ``TypeError``.
    Halfspace rows follow in list order with unit-normalized normals;
    whole-space halfspaces are dropped.  When no row is added, the base
    system itself is returned, so ``assemble(C, [])`` is the same object on
    every call.  Extending a system one halfspace at a time gives the same
    arrays as stacking them all at once.  Systems are immutable, so sharing
    them is safe.
    """
    if isinstance(C, LinearConstraintSystem):
        base = C
    elif isinstance(C, (Box, SimplexSlice)):
        base = C.constraints
    else:
        raise TypeError(f"unsupported feasible set type: {type(C).__name__}")
    n = base.n
    halfspaces = list(halfspaces)
    if not halfspaces:
        return base
    bad = next((hs for hs in halfspaces if hs.dim != n), None)
    if bad is not None:
        raise ValueError(
            f"halfspace dimension {bad.dim} does not match feasible set dimension {n}"
        )
    normals = np.array([hs.normal for hs in halfspaces])
    anchors = np.array([hs.anchor for hs in halfspaces])
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 0.0
    if not keep.any():
        return base
    rows = normals[keep] / norms[keep, None]
    rhs = np.einsum("ij,ij->i", rows, anchors[keep])
    return _stacked(base, rows, rhs)
