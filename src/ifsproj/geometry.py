"""Similarities, words, word levels, cylinders, linear maps and subspaces.

All types are immutable values and all operations are pure functions, so
instances can be shared freely between threads.

A deep word level is a stack of tens of thousands of small matrices, and
its passes keep the bits of the row-major form:

- ``_matmul`` is the one small-matrix kernel, row-major; ``extend``'s
  rotation and translation products, ``fold`` and ``balls`` go through it;
- ``extend`` adds its translations along the parents, and writes its
  letters into one (parents, letters, depth) block;
- stacks are gathered with ``np.take(..., axis=0)`` (``WordLevel[rows]``,
  the rotation table, the closure and the corrector search);
- ``constructions.build_projection_gdifs`` sums its translations over
  whole translation columns, in the order of the einsum it replaced;
- ``checked_maps`` checks a broadcast stack (first stride 0), such as a
  projection graph's identity edge rotations, as its one matrix;
- a level whose words share one rotation (all maps have the same one, as in
  Example 7.5) holds it as a broadcast stack: ``extend`` makes one product
  and the m moved translations once, ``WordLevel[rows]`` keeps the
  broadcast, and ``balls``, ``groups._distinct``, the dimension-drop pair
  search and the cylinder search's target test visit its one matrix
  (``_stored_matrices``, and ``_per_row`` for the result).  ``fold`` and
  ``concatenate``, which mix word lengths, copy it out.
"""

from __future__ import annotations

import itertools
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b over broadcast stacks of small matrices, C-ordered (..., p, r).

    One broadcast pass per j sums in order from +0, as np.einsum does, so
    the bits equal those of the einsum products it replaces ("nij,njk->nik"
    and its broadcasts; a matrix-vector product, b of shape (..., d, 1),
    only for d <= 2, where einsum does not use a SIMD reduction).  np.matmul
    rounds differently (it fuses multiply and add).
    """
    out = a[..., :, 0, None] * b[..., None, 0, :]
    out += 0.0  # einsum's sum starts at +0, and 0 + (-0) is +0
    for j in range(1, a.shape[-1]):
        out += a[..., :, j, None] * b[..., None, j, :]
    return out


def _orthogonality_defects(rotation: np.ndarray) -> np.ndarray:
    """orthogonality_defect of every matrix of an (N, d, d) stack.

    The Gram matrix R^T R is built one upper-triangle entry at a time, each
    a pass over the whole stack summed over j in ``_matmul``'s order, so the
    defects are bitwise the max-abs of each matrix of ``_matmul(R^T, R) - I``:
    the Gram matrix is bitwise symmetric, max is exact, and ``_matmul``'s
    ``+= 0.0`` changes only the sign of a zero, which abs drops.  One entry
    at a time keeps the temporaries at N values, which wins on large stacks;
    a one-row stack pays a few more calls.  NaN entries give a NaN defect.
    """
    d = rotation.shape[1]
    out = np.zeros(len(rotation))
    for i in range(d):
        for k in range(i, d):
            entry = rotation[:, 0, i] * rotation[:, 0, k]
            for j in range(1, d):
                entry += rotation[:, j, i] * rotation[:, j, k]
            if i == k:
                entry -= 1.0
            np.maximum(out, np.abs(entry, out=entry), out=out)
    return out


def _stored_matrices(stack: np.ndarray) -> np.ndarray:
    """The matrices an (N, d, d) stack stores: the one row of a broadcast
    stack (first stride 0), else every row.  A per-matrix pass runs over
    these, and ``_per_row`` gives its result back over the N rows."""
    return stack[:1] if stack.strides[0] == 0 else stack


def _per_row(values: np.ndarray, stack: np.ndarray) -> np.ndarray:
    """Values computed over ``_stored_matrices(stack)``, one per row of the
    stack: the values themselves, or the one value broadcast."""
    if len(values) == len(stack):
        return values
    return np.broadcast_to(values, (len(stack),) + values.shape[1:])


def checked_maps(ratio: np.ndarray, rotation: np.ndarray, translation: np.ndarray) -> np.ndarray:
    """The one check of a stack of maps x -> ratio * rotation @ x + translation:
    finite entries, ratios in (0, 1) and orthogonal rotations.  A rotation
    defect above tau_orth raises; one above tau_orth / 10 is repaired.
    Returns the rotations, repaired."""
    # A broadcast stack holds one matrix, checked once.
    matrices = _stored_matrices(rotation)
    broadcast = matrices is not rotation
    if not all(np.isfinite(a).all() for a in (ratio, matrices, translation)):
        raise GeometryError("map ratios, rotations and translations must be finite")
    outside = ~((ratio > 0.0) & (ratio < 1.0))
    if outside.any():
        raise GeometryError(f"ratio must lie in (0, 1), got {ratio[outside][0]}")
    tau = tolerances.tau_orth()
    defect = _orthogonality_defects(matrices)
    if (defect > tau).any():
        raise GeometryError(f"rotation is not orthogonal (defect {defect.max():.3e})")
    bad = defect > tau / 10.0
    if bad.any():
        matrices = matrices.copy()
        matrices[bad] = [reorthonormalize(r) for r in matrices[bad]]
        rotation = np.broadcast_to(matrices, rotation.shape) if broadcast else matrices
    return rotation


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
        if not (np.isfinite(self.rotation).all() and np.isfinite(self.translation).all()):
            raise GeometryError("rotation and translation entries must be finite")
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


class SSIFS:
    """Self-similar iterated function system: a finite list of similarities.

    The maps are held as arrays: ``ratios`` (m,), ``rotations`` (m, d, d)
    and ``translations`` (m, d).  ``from_arrays`` is the one checked
    constructor; ``SSIFS(maps)`` stacks its Similarity objects into it, and
    a system built from arrays creates its ``maps`` only on first use.
    """

    def __init__(self, maps: Sequence[Similarity], name: str | None = None):
        maps = tuple(maps)
        if not maps:
            raise GeometryError("an SSIFS needs at least one map")
        if any(s.ambient_dim != maps[0].ambient_dim for s in maps):
            raise DimensionMismatchError("all maps must share the ambient dimension")
        self._set_arrays(
            np.array([s.ratio for s in maps]),
            np.array([s.rotation for s in maps]),
            np.array([s.translation for s in maps]),
            name,
        )
        self.maps = maps

    @classmethod
    def from_arrays(cls, ratios, rotations, translations, name=None) -> "SSIFS":
        """The system of the maps given as (m,), (m, d, d) and (m, d) arrays,
        after ``checked_maps``; a system whose maps share one fixed point
        raises DegenerateSystemError."""
        ifs = cls.__new__(cls)
        ifs._set_arrays(
            np.array(ratios, dtype=float),
            np.array(rotations, dtype=float),
            np.array(translations, dtype=float),
            name,
        )
        return ifs

    def _set_arrays(self, ratios, rotations, translations, name) -> None:
        m, d = translations.shape
        if m == 0:
            raise GeometryError("an SSIFS needs at least one map")
        if ratios.shape != (m,) or rotations.shape != (m, d, d):
            raise DimensionMismatchError("map ratios, rotations and translations do not match")
        rotations = checked_maps(ratios, rotations, translations)
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
    """Composition words over an SSIFS, held as arrays.

    Word k has the 0-based letters ``letters[k]`` and the similarity
    ``ratio[k]``, ``rotation[k]``, ``translation[k]``.  A level grown from
    ``root`` by ``extend`` holds every word of one length in lexicographic
    order, so the words of the next depth are k * m + b.  A level is the
    sequence of its words: ``level[k]`` and iteration give ``Word`` objects,
    and ``level[rows]`` keeps a subset of the rows as a level.  ``of_words``
    and ``fold`` build the maps of any list of words, and ``concatenate``
    joins levels.
    """

    ifs: SSIFS
    letters: np.ndarray
    ratio: np.ndarray
    rotation: np.ndarray
    translation: np.ndarray

    @classmethod
    def root(cls, ifs: SSIFS) -> "WordLevel":
        """Depth 0: the empty word, whose map is the identity."""
        d = ifs.ambient_dim
        letters = np.empty((1, 0), dtype=np.min_scalar_type(len(ifs)))
        return cls(ifs, letters, np.ones(1), np.eye(d)[None], np.zeros((1, d)))

    @classmethod
    def of_words(cls, ifs: SSIFS, words: Sequence[Sequence[int]]) -> "WordLevel":
        """The maps of the given 1-based words, which may differ in length."""
        m, n = len(ifs), len(words)
        lengths = np.fromiter(map(len, words), dtype=np.intp, count=n)
        flat = np.fromiter(itertools.chain.from_iterable(words), dtype=np.intp) - 1
        if flat.size and not (flat.min() >= 0 and flat.max() < m):
            raise GeometryError(f"word index out of range 1..{m}")
        letters = np.full((n, lengths.max(initial=0)), m, dtype=np.min_scalar_type(m))
        starts = np.repeat(np.cumsum(lengths) - lengths, lengths)
        letters[np.repeat(np.arange(n), lengths), np.arange(flat.size) - starts] = flat
        return cls.fold(ifs, letters)

    @classmethod
    def fold(cls, ifs: SSIFS, letters: np.ndarray) -> "WordLevel":
        """The maps of the words whose 0-based letters are the rows; letter m
        pads a shorter word and stands for the identity map.  The maps are
        folded from the left one column at a time, each step with the
        arithmetic and checks of ``extend``."""
        m, d, n = len(ifs), ifs.ambient_dim, len(letters)
        ratios = np.append(ifs.ratios, 1.0)
        rotations = np.concatenate([ifs.rotations, np.eye(d)[None]])
        translations = np.concatenate([ifs.translations, np.zeros((1, d))])
        ratio, rotation, translation = np.ones(n), np.tile(np.eye(d), (n, 1, 1)), np.zeros((n, d))
        # The empty word keeps ratio 1.
        nonempty = (letters < m).any(axis=1)
        for column in letters.T:
            moved = _matmul(rotation, translations.take(column, axis=0)[..., None])[..., 0]
            translation = ratio[:, None] * moved + translation
            rotation = _matmul(rotation, rotations.take(column, axis=0))
            ratio = ratio * ratios[column]
            rotation = checked_maps(ratio[nonempty], rotation, translation)
        return cls(ifs, letters, ratio, rotation, translation)

    @classmethod
    def concatenate(cls, levels: Sequence["WordLevel"]) -> "WordLevel":
        """The rows of the given levels, in order.  Shorter words are padded
        with letter m, which ``fold`` reads as the identity."""
        m, depth = len(levels[0].ifs), max(v.depth for v in levels)
        pad = [np.pad(v.letters, ((0, 0), (0, depth - v.depth)), constant_values=m) for v in levels]
        arrays = zip(*((v.ratio, v.rotation, v.translation) for v in levels))
        return cls(levels[0].ifs, np.concatenate(pad), *map(np.concatenate, arrays))

    @property
    def depth(self) -> int:
        return self.letters.shape[1]

    def __len__(self) -> int:
        return len(self.ratio)

    def __getitem__(self, rows) -> "Word | WordLevel":
        """Word k for an integer k, else the level of the rows (a mask, slice or index array)."""
        if isinstance(rows, (int, np.integer)):
            return Word(self.ifs, self.indices(rows))
        # One index array (a row mask by np.flatnonzero, anything else through
        # numpy's own indexing checks), and then one np.take per array.
        if isinstance(rows, np.ndarray) and rows.dtype == bool and rows.shape == (len(self),):
            rows = np.flatnonzero(rows)
        else:
            rows = np.arange(len(self))[rows]
        letters, ratio, translation = (
            a.take(rows, axis=0) for a in (self.letters, self.ratio, self.translation)
        )
        # A broadcast rotation stack stays one.
        rotation = _stored_matrices(self.rotation)
        if rotation is self.rotation:
            rotation = rotation.take(rows, axis=0)
        else:
            rotation = np.broadcast_to(rotation, (len(rows),) + rotation.shape[1:])
        return WordLevel(self.ifs, letters, ratio, rotation, translation)

    def __iter__(self):
        """The words as Word objects, in row order."""
        ifs, m = self.ifs, len(self.ifs)
        return (Word(ifs, tuple(i + 1 for i in row if i < m)) for row in self.letters.tolist())

    def extend(self) -> "WordLevel":
        """Every word followed by every letter, in that order.

        The words hold one rotation when the parents do (one row, or a
        broadcast stack) and the m generator rotations are bitwise equal.
        Then the one product and the m moved translations R t_i are computed
        once and broadcast over the parents, and the rotations are a
        broadcast stack.  ``_matmul`` rounds each product on its own, so the
        bits are those of the full products.
        """
        ifs = self.ifs
        n, m, d = len(self), len(ifs), ifs.ambient_dim
        letters = np.empty((n, m, self.depth + 1), dtype=self.letters.dtype)
        letters[:, :, :-1] = self.letters[:, None]
        letters[:, :, -1] = np.arange(m)
        gens, parent = ifs.rotations, _stored_matrices(self.rotation)
        if len(parent) == 1 and gens.tobytes() == gens[:1].tobytes() * m:
            rotation = np.broadcast_to(_matmul(parent, gens[:1]), (n * m, d, d))
            moved = _matmul(parent, ifs.translations[..., None])[..., 0]
            translation = np.multiply(self.ratio[:, None, None], moved)
        else:
            rotation = _matmul(self.rotation[:, None], gens).reshape(n * m, d, d)
            moved = _matmul(self.rotation[:, None], ifs.translations[..., None])[..., 0]
            translation = np.multiply(self.ratio[:, None, None], moved, out=moved)
        # Over the transposes in C order, the inner loops run along the parents.
        np.add(translation.T, self.translation.T[:, None], out=translation.T, order="C")
        ratio = np.multiply(self.ratio[:, None], ifs.ratios).ravel()
        rotation = checked_maps(ratio, rotation, translation)
        letters = letters.reshape(n * m, self.depth + 1)
        return WordLevel(ifs, letters, ratio, rotation, translation.reshape(n * m, d))

    def indices(self, k: int) -> tuple[int, ...]:
        """1-based letters of word k."""
        m = len(self.ifs)
        return tuple(int(i) + 1 for i in self.letters[k] if i < m)

    def balls(self, root_center, root_radius: float) -> tuple[np.ndarray, np.ndarray]:
        """Centers (N, d) and radii (N,) of the cylinder balls S_w(root ball)."""
        center = np.asarray(root_center, dtype=float)
        moved = _matmul(_stored_matrices(self.rotation), center[:, None])[..., 0]
        return self.ratio[:, None] * moved + self.translation, self.ratio * root_radius

    def system(self) -> SSIFS:
        """The words of this level as an SSIFS (the depth-iterated system)."""
        return SSIFS.from_arrays(self.ratio, self.rotation, self.translation, self.ifs.name)


@dataclass(frozen=True)
class Word:
    """A finite composition word over the maps of an SSIFS (1-based indices)."""

    ifs: SSIFS
    indices: tuple[int, ...]

    def __post_init__(self):
        m = len(self.ifs)
        for i in self.indices:
            if not 1 <= i <= m:
                raise GeometryError(f"word index {i} out of range 1..{m}")

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def ratio(self) -> float:
        # Exact left-fold product of the stored ratios.
        ratios = self.ifs.ratios.tolist()
        return math.prod(ratios[i - 1] for i in self.indices)

    @cached_property
    def composed(self) -> Similarity:
        level = WordLevel.of_words(self.ifs, [self.indices])
        return Similarity(float(level.ratio[0]), level.rotation[0], level.translation[0])


def cylinder_ball(word: Word, root_center, root_radius: float):
    """Bounding ball of the cylinder S_w(root ball): the one-word
    ``WordLevel.balls``."""
    centers, radii = WordLevel.of_words(word.ifs, [word.indices]).balls(root_center, root_radius)
    return centers[0], float(radii[0])


# Most mean-of-images steps toward the center of the bounding ball.
_BALL_MAX_ITER = 1000


def attractor_bounding_ball(ifs: SSIFS):
    """A ball B = (center, radius) with S_i(B) subset of B for every map.

    Each map is applied on its own, x -> r * (x @ O^T) + v, as
    ``Similarity.__call__`` does, so the bits do not depend on the map count.
    """
    ratios = ifs.ratios.tolist()
    maps = list(zip(ratios, ifs.rotations, ifs.translations))

    def images(x):
        return [r * (x @ o.T) + v for r, o, v in maps]

    eps_min = 1e-12
    center = _fixed_points(ifs.ratios, ifs.rotations, ifs.translations).mean(axis=0)
    for _ in range(_BALL_MAX_ITER):
        new_center = np.mean(images(center), axis=0)
        if np.abs(new_center - center).max() <= 1e-14 * (1.0 + np.abs(center).max()):
            center = new_center
            break
        center = new_center
    distances = [float(np.linalg.norm(y - center)) for y in images(center)]
    radius = max(max(dist / (1.0 - r) for dist, r in zip(distances, ratios)), eps_min)
    slack = tolerances.tau_num() * (1.0 + radius)
    for dist, r in zip(distances, ratios):
        if dist + r * radius > radius + slack:
            raise NumericFailureError("bounding ball invariance check failed")
    return center, radius


def _checked_dim(l: int, largest: int) -> int:
    """l, the dimension of a projection or subspace, if 1 <= l <= largest."""
    if not 1 <= l <= largest:
        raise GeometryError(f"need 1 <= l <= {largest}, got l={l}")
    return l


@dataclass(frozen=True)
class LinearMap:
    """A d2 x d real matrix acting on row vectors of points."""

    matrix: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "matrix", _as_matrix(np.atleast_2d(self.matrix)))
        if not np.isfinite(self.matrix).all():
            raise GeometryError("linear map must be finite")

    @property
    def domain_dim(self) -> int:
        return self.matrix.shape[1]

    @property
    def codomain_dim(self) -> int:
        return self.matrix.shape[0]

    def __call__(self, x) -> np.ndarray:
        return np.asarray(x, dtype=float) @ self.matrix.T

    def operator_norm(self) -> float:
        sv = np.linalg.svd(self.matrix, compute_uv=False)
        return float(sv[0]) if sv.size else 0.0

    @classmethod
    def coordinate_projection(cls, d: int, l: int) -> "LinearMap":
        """Projection onto the first l coordinates, 1 <= l <= d."""
        return cls(np.eye(d)[: _checked_dim(l, d)])

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
        if self.basis.ndim != 2 or not np.isfinite(self.basis).all():
            raise GeometryError("basis must be a finite d x l matrix")
        l = self.basis.shape[1]
        if l == 0:
            raise GeometryError("basis must have at least one column")
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
        """An l-dimensional subspace orthogonal to v, 1 <= l <= d-1 (default
        l = d-1)."""
        v = np.asarray(v, dtype=float)
        d = v.shape[0]
        l = _checked_dim(d - 1 if l is None else l, d - 1)
        norm = np.linalg.norm(v)
        if norm == 0.0:
            raise GeometryError("cannot take the complement of the zero vector")
        # Columns 2..d of an orthogonal matrix whose first column is v/|v|.
        q, _ = np.linalg.qr(np.column_stack([v / norm, np.eye(d)]))
        return cls(q[:, 1 : 1 + l])

    @classmethod
    def span_of_first_axes(cls, d: int, l: int) -> "Subspace":
        """The span of the first l coordinate axes, 1 <= l <= d."""
        return cls(np.eye(d)[:, : _checked_dim(l, d)])
