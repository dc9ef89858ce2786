"""Similarities, words, word levels, cylinders, linear maps and subspaces.

All types are immutable values and all operations are pure functions, so
instances can be shared freely between threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from . import tolerances


class GeometryError(ValueError):
    pass


class DimensionMismatchError(GeometryError):
    pass


class DegenerateSystemError(GeometryError):
    """The attractor would be a single point."""


class NumericFailureError(RuntimeError):
    pass


def _as_matrix(m) -> np.ndarray:
    a = np.array(m, dtype=float)
    a.setflags(write=False)
    return a


def _as_vector(v) -> np.ndarray:
    a = np.atleast_1d(np.array(v, dtype=float))
    a.setflags(write=False)
    return a


def orthogonality_defect(rotation: np.ndarray) -> float:
    d = rotation.shape[0]
    return float(np.abs(rotation.T @ rotation - np.eye(d)).max())


def reorthonormalize(rotation: np.ndarray) -> np.ndarray:
    # Polar factor: nearest orthogonal matrix in Frobenius norm.
    u, _, vt = np.linalg.svd(rotation)
    return u @ vt


def _orthogonality_defects(rotation: np.ndarray) -> np.ndarray:
    """orthogonality_defect of every matrix of an (N, d, d) stack."""
    gram = np.einsum("nki,nkj->nij", rotation, rotation)
    return np.abs(gram - np.eye(rotation.shape[1])).max(axis=(1, 2), initial=0.0)


def _reorthonormalize_where(rotation: np.ndarray, limit: float) -> np.ndarray:
    """The stack with every matrix whose defect exceeds limit replaced by its polar factor."""
    bad = _orthogonality_defects(rotation) > limit
    if bad.any():
        rotation = rotation.copy()
        rotation[bad] = [reorthonormalize(r) for r in rotation[bad]]
    return rotation


def checked_rotations(rotation: np.ndarray) -> np.ndarray:
    """The orthogonality check of Similarity, applied to an (N, d, d) stack.

    A defect above tau_orth raises; one above tau_orth / 10 is repaired.
    """
    tau = tolerances.tau_orth()
    defect = _orthogonality_defects(rotation)
    if (defect > tau).any():
        raise GeometryError(f"rotation is not orthogonal (defect {defect.max():.3e})")
    return _reorthonormalize_where(rotation, tau / 10.0)


def _fixed_points(ratio: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """Fixed point of every similarity given as (N,), (N, d, d), (N, d) arrays."""
    d = translation.shape[1]
    a = np.eye(d) - ratio[:, None, None] * rotation
    return np.linalg.solve(a, translation[..., None])[..., 0]


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Similarity:
    """Contracting similarity x -> ratio * rotation @ x + translation."""

    ratio: float
    rotation: np.ndarray
    translation: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rotation", _as_matrix(self.rotation))
        object.__setattr__(self, "translation", _as_vector(self.translation))
        d = self.translation.shape[0]
        if self.rotation.shape != (d, d):
            raise DimensionMismatchError(
                f"rotation shape {self.rotation.shape} does not match translation length {d}"
            )
        tau = tolerances.tau_orth()
        defect = orthogonality_defect(self.rotation)
        if defect > tau:
            raise GeometryError(f"rotation is not orthogonal (defect {defect:.3e})")
        if defect > tau / 10.0:
            object.__setattr__(self, "rotation", _as_matrix(reorthonormalize(self.rotation)))
        if not 0.0 < self.ratio < 1.0:
            # Ratio 1 is permitted only for the identity sentinel (empty word).
            if self.ratio == 1.0 and self._is_identity_map():
                return
            raise GeometryError(f"ratio must lie in (0, 1), got {self.ratio}")

    def _is_identity_map(self) -> bool:
        d = self.ambient_dim
        return (
            np.abs(self.rotation - np.eye(d)).max() <= tolerances.tau_num()
            and np.abs(self.translation).max() <= tolerances.tau_num()
        )

    @property
    def ambient_dim(self) -> int:
        return self.translation.shape[0]

    @classmethod
    def identity(cls, d: int) -> "Similarity":
        return cls(1.0, np.eye(d), np.zeros(d))

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.ratio * (x @ self.rotation.T) + self.translation

    def fixed_point(self) -> np.ndarray:
        d = self.ambient_dim
        return np.linalg.solve(np.eye(d) - self.ratio * self.rotation, self.translation)


def compose(a: Similarity, b: Similarity) -> Similarity:
    """Similarity of x -> a(b(x))."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"cannot compose maps in dimension {a.ambient_dim} and {b.ambient_dim}"
        )
    rotation = a.rotation @ b.rotation
    if orthogonality_defect(rotation) > tolerances.tau_orth() / 10.0:
        rotation = reorthonormalize(rotation)
    translation = a.ratio * (a.rotation @ b.translation) + a.translation
    return Similarity(a.ratio * b.ratio, rotation, translation)


def similarity_equal(a: Similarity, b: Similarity, tol: float | None = None) -> bool:
    if tol is None:
        tol = tolerances.tau_num()
    return (
        a.ambient_dim == b.ambient_dim
        and abs(a.ratio - b.ratio) <= tol
        and np.abs(a.rotation - b.rotation).max() <= tol
        and np.abs(a.translation - b.translation).max() <= tol
    )


class SSIFS:
    """Self-similar iterated function system: a finite list of similarities.

    The maps are also held as arrays: ``ratios`` (m,), ``rotations``
    (m, d, d) and ``translations`` (m, d).  A system built from arrays (a
    word level, see ``iterate``) creates its ``maps`` only on first use.
    """

    def __init__(self, maps: Sequence[Similarity], name: str | None = None):
        maps = tuple(maps)
        if not maps:
            raise GeometryError("an SSIFS needs at least one map")
        d = maps[0].ambient_dim
        for s in maps:
            if s.ambient_dim != d:
                raise DimensionMismatchError("all maps must share the ambient dimension")
            if not s.ratio < 1.0:
                raise GeometryError("SSIFS maps must be strict contractions")
        self.maps = maps
        self._set_arrays(
            np.array([s.ratio for s in maps]),
            np.array([s.rotation for s in maps]),
            np.array([s.translation for s in maps]),
            name,
        )

    @classmethod
    def _from_arrays(cls, ratios, rotations, translations, name=None) -> "SSIFS":
        """A system over already validated map arrays; ``maps`` is built lazily."""
        ifs = cls.__new__(cls)
        ifs._set_arrays(ratios, rotations, translations, name)
        return ifs

    def _set_arrays(self, ratios, rotations, translations, name) -> None:
        fps = _fixed_points(ratios, rotations, translations)
        if len(fps) == 1 or np.abs(fps - fps[0]).max() <= tolerances.tau_num():
            raise DegenerateSystemError(
                "all maps share a fixed point; the attractor is a single point"
            )
        self.ratios = _frozen(ratios)
        self.rotations = _frozen(rotations)
        self.translations = _frozen(translations)
        self.name = name

    @cached_property
    def maps(self) -> tuple[Similarity, ...]:
        return tuple(
            Similarity(float(r), o, t)
            for r, o, t in zip(self.ratios, self.rotations, self.translations)
        )

    @property
    def ambient_dim(self) -> int:
        return self.translations.shape[1]

    def __len__(self) -> int:
        return len(self.ratios)

    def __iter__(self):
        return iter(self.maps)

    def __getitem__(self, i: int) -> Similarity:
        return self.maps[i]

    def word(self, indices: Sequence[int]) -> "Word":
        return Word(self, tuple(indices))

    def iterate(self, depth: int) -> "SSIFS":
        """The system of all composition words of the given length."""
        if depth < 1:
            raise GeometryError("depth must be >= 1")
        level = WordLevel.root(self)
        for _ in range(depth):
            level = level.extend()
        return level.system()


@dataclass(frozen=True, eq=False)
class WordLevel:
    """Every composition word of one length over an SSIFS, held as arrays.

    Word k is the similarity ``ratio[k]``, ``rotation[k]``, ``translation[k]``;
    k runs over the words in lexicographic order, so for depth n its letters
    are ``np.unravel_index(k, (m,) * n)`` (0-based) and the words of the
    next depth are k * m + b.
    """

    ifs: SSIFS
    depth: int
    ratio: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def root(cls, ifs: SSIFS) -> "WordLevel":
        """Depth 0: the empty word, whose map is the identity."""
        d = ifs.ambient_dim
        return cls(ifs, 0, np.ones(1), np.eye(d)[None], np.zeros((1, d)))

    def __len__(self) -> int:
        return len(self.ratio)

    def extend(self) -> "WordLevel":
        """The level one deeper: every word followed by every letter.

        The same arithmetic and checks as ``compose(word, letter)`` per word:
        ratios are the left-fold products, a rotation defect above
        tau_orth / 10 is repaired before the Similarity check.
        """
        ifs = self.ifs
        n, m, d = len(self), len(ifs), ifs.ambient_dim
        rotation = np.einsum("aij,bjk->abik", self.rotation, ifs.rotations).reshape(-1, d, d)
        rotation = _reorthonormalize_where(rotation, tolerances.tau_orth() / 10.0)
        rotation = checked_rotations(rotation)
        moved = np.einsum("aij,bj->abi", self.rotation, ifs.translations)
        translation = self.ratio[:, None, None] * moved + self.translation[:, None]
        ratio = (self.ratio[:, None] * ifs.ratios[None]).ravel()
        if not ((ratio > 0.0) & (ratio < 1.0)).all():
            raise GeometryError("word ratio left (0, 1)")
        return WordLevel(ifs, self.depth + 1, ratio, rotation, translation.reshape(n * m, d))

    def indices(self, k: int) -> tuple[int, ...]:
        """1-based letters of word k."""
        return tuple(int(i) + 1 for i in np.unravel_index(k, (len(self.ifs),) * self.depth))

    def balls(self, root_center, root_radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Centers (N, d) and radii (N,) of the cylinder balls S_w(root ball)."""
        moved = np.einsum("nij,j->ni", self.rotation, np.asarray(root_center, dtype=float))
        return self.ratio[:, None] * moved + self.translation, self.ratio * root_radius

    def system(self) -> SSIFS:
        """The words of this level as an SSIFS (the depth-iterated system)."""
        return SSIFS._from_arrays(self.ratio, self.rotation, self.translation, self.ifs.name)


@dataclass(frozen=True)
class Word:
    """A finite composition word over the maps of an SSIFS (1-based indices)."""

    ifs: SSIFS
    indices: tuple[int, ...]

    def __post_init__(self):
        for i in self.indices:
            if not 1 <= i <= len(self.ifs):
                raise GeometryError(f"word index {i} out of range 1..{len(self.ifs)}")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def ratio(self) -> float:
        # Exact product of the stored ratios, no matrix round-trip.
        return math.prod(self.ifs[i - 1].ratio for i in self.indices)

    @cached_property
    def composed(self) -> Similarity:
        if not self.indices:
            return Similarity.identity(self.ifs.ambient_dim)
        result = self.ifs[self.indices[0] - 1]
        for i in self.indices[1:]:
            result = compose(result, self.ifs[i - 1])
        # Ratios multiply exactly; override the matrix round-trip value.
        return Similarity(self.ratio, result.rotation, result.translation)

    def extend(self, index: int) -> "Word":
        return Word(self.ifs, self.indices + (index,))


def cylinder_ball(word: Word, root_center, root_radius: float):
    """Bounding ball of the cylinder S_w(root ball)."""
    root_center = np.asarray(root_center, dtype=float)
    if not word.indices:
        return root_center, root_radius
    s = word.composed
    return s(root_center), word.ratio * root_radius


def attractor_bounding_ball(ifs, max_iter: int = 1000):
    """A ball B = (center, radius) with S_i(B) subset of B for every map.

    Accepts an SSIFS or a plain sequence of similarities; a degenerate list
    whose maps share a fixed point p yields the guard ball (p, eps_min).
    """
    maps = list(ifs)
    fps = np.array([s.fixed_point() for s in maps])
    eps_min = 1e-12
    if np.abs(fps - fps[0]).max() <= tolerances.tau_num():
        return fps[0], eps_min
    ifs = maps
    center = fps.mean(axis=0)
    for _ in range(max_iter):
        new_center = np.mean([s(center) for s in ifs], axis=0)
        if np.abs(new_center - center).max() <= 1e-14 * (1.0 + np.abs(center).max()):
            center = new_center
            break
        center = new_center
    radius = max(
        float(np.linalg.norm(s(center) - center)) / (1.0 - s.ratio) for s in ifs
    )
    radius = max(radius, eps_min)
    slack = tolerances.tau_num() * (1.0 + radius)
    for s in ifs:
        if np.linalg.norm(s(center) - center) + s.ratio * radius > radius + slack:
            raise NumericFailureError("bounding ball invariance check failed")
    return center, radius


@dataclass(frozen=True)
class LinearMap:
    """A d2 x d real matrix acting on row vectors of points."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(np.atleast_2d(self.matrix)))

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix.T

    def rank(self) -> int:
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        if sv.size == 0 or sv[0] == 0.0:
            return 0
        return int(np.sum(sv > tolerances.tau_rank(float(sv[0]))))

    def operator_norm(self) -> float:
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        return float(sv[0]) if sv.size else 0.0

    @classmethod
    def coordinate_projection(cls, d: int, l: int) -> "LinearMap":
        """Projection onto the first l coordinates."""
        return cls(np.eye(d)[:l])

    @classmethod
    def projection_onto(cls, subspace: "Subspace") -> "LinearMap":
        """Orthogonal projection expressed in the subspace's basis coordinates."""
        return cls(subspace.basis.T)


@dataclass(frozen=True)
class Subspace:
    """An l-dimensional subspace of R^d given by an orthonormal d x l basis."""

    basis: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "basis", _as_matrix(np.atleast_2d(self.basis)))
        if self.basis.ndim != 2:
            raise GeometryError("basis must be a d x l matrix")
        l = self.basis.shape[1]
        defect = np.abs(self.basis.T @ self.basis - np.eye(l)).max()
        if defect > tolerances.tau_orth():
            raise GeometryError(f"basis is not orthonormal (defect {defect:.3e})")

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    @classmethod
    def orthogonal_complement_of_vector(cls, v, l: int | None = None) -> "Subspace":
        """An l-dimensional subspace orthogonal to v (default l = d-1)."""
        v = np.asarray(v, dtype=float)
        d = v.shape[0]
        if l is None:
            l = d - 1
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise GeometryError("cannot take the complement of the zero vector")
        # Columns 2..d of an orthogonal matrix whose first column is v/|v|.
        q, _ = np.linalg.qr(np.column_stack([v / norm, np.eye(d)]))
        return cls(q[:, 1 : 1 + l])

    @classmethod
    def span_of_first_axes(cls, d: int, l: int) -> "Subspace":
        return cls(np.eye(d)[:, :l])
