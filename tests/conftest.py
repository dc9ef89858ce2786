import functools

import numpy as np
import pytest

from ifsproj import geometry, tolerances
from ifsproj.fixtures import fixture_ifs
from ifsproj.geometry import (
    SSIFS,
    DimensionMismatchError,
    Similarity,
    WordLevel,
    _matmul,
    checked_maps,
    orthogonality_defect,
    reorthonormalize,
)
from ifsproj.groups import group_closure


@pytest.fixture
def sierpinski():
    return fixture_ifs("sierpinski_half")


@pytest.fixture
def cantor():
    return fixture_ifs("cantor_third")


@pytest.fixture
def c4():
    return fixture_ifs("c4_rotation")


@pytest.fixture
def irrational():
    return fixture_ifs("irrational_rotation_planar")


def spy_on_orthogonality_defects(monkeypatch) -> list:
    """The row counts of the stacks checked_maps checks from now on."""
    rows, defects = [], geometry._orthogonality_defects

    def spy(rotation):
        rows.append(len(rotation))
        return defects(rotation)

    monkeypatch.setattr(geometry, "_orthogonality_defects", spy)
    return rows


def random_similarity(rng, d=2, ratio_range=(0.2, 0.8)):
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    ratio = rng.uniform(*ratio_range)
    return Similarity(ratio, q, rng.normal(size=d))


def random_ssifs(rng, d=2, m=3):
    while True:
        maps = [random_similarity(rng, d) for _ in range(m)]
        try:
            return SSIFS(maps)
        except Exception:
            continue


def compose(a: Similarity, b: Similarity) -> Similarity:
    """Similarity of x -> a(b(x)), built one pair of maps at a time: the
    oracle that the array word folds are checked against."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatchError(
            f"cannot compose maps in dimension {a.ambient_dim} and {b.ambient_dim}"
        )
    rotation = a.rotation @ b.rotation
    if orthogonality_defect(rotation) > tolerances.tau_orth() / 10.0:
        rotation = reorthonormalize(rotation)
    translation = a.ratio * (a.rotation @ b.translation) + a.translation
    return Similarity(a.ratio * b.ratio, rotation, translation)


def composed_by_oracle(ifs, indices) -> Similarity:
    """The map of a 1-based word as a left fold of compose (the identity
    for the empty word)."""
    maps = [ifs[i - 1] for i in indices]
    return functools.reduce(compose, maps, Similarity.identity(ifs.ambient_dim))


def extend_by_rows(level: WordLevel) -> WordLevel:
    """WordLevel.extend with one rotation product and one moved translation
    per (parent, letter) row, whatever the rotations: the oracle that the
    broadcast levels of systems with one shared rotation are checked
    against."""
    ifs = level.ifs
    n, m, d = len(level), len(ifs), ifs.ambient_dim
    letters = np.empty((n, m, level.depth + 1), dtype=level.letters.dtype)
    letters[:, :, :-1] = level.letters[:, None]
    letters[:, :, -1] = np.arange(m)
    rotation = _matmul(level.rotation[:, None], ifs.rotations).reshape(n * m, d, d)
    moved = _matmul(level.rotation[:, None], ifs.translations[..., None])[..., 0]
    translation = np.multiply(level.ratio[:, None, None], moved, out=moved)
    # Over the transposes in C order, the inner loops run along the parents.
    np.add(translation.T, level.translation.T[:, None], out=translation.T, order="C")
    ratio = np.multiply(level.ratio[:, None], ifs.ratios).ravel()
    rotation = checked_maps(ratio, rotation, translation)
    letters = letters.reshape(n * m, level.depth + 1)
    return WordLevel(ifs, letters, ratio, rotation, translation.reshape(n * m, d))


def kept_in_order_by_loop(centers, radii, separation) -> np.ndarray:
    """Keep-mask of balls taken in index order: ball k is kept iff
    ||c_k - c_j|| >= r_k + r_j + separation for every earlier kept ball j.
    Each ball is compared with every ball kept so far: the oracle that the
    sweep of constructions._kept_in_order is checked against."""
    kept = np.zeros(len(radii), dtype=bool)
    # The first n rows hold the balls kept so far.
    kept_centers, kept_radii = np.empty_like(centers), np.empty_like(radii)
    n = 0
    for k in range(len(radii)):
        c, r = centers[k], radii[k]
        distance = np.linalg.norm(kept_centers[:n] - c, axis=1)
        if (distance >= r + kept_radii[:n] + separation).all():
            kept[k] = True
            kept_centers[n], kept_radii[n] = c, r
            n += 1
    return kept


# The np.einsum products that geometry._matmul replaced, by the name of the
# place they stood; each takes the stacks a and b of the kernel call.
EINSUM_MATRIX_PRODUCTS = {
    "fold rotation": lambda a, b: np.einsum("nij,njk->nik", a, b),
    "extend rotation": lambda a, b: np.einsum("aij,bjk->abik", a, b),
    "gram": lambda a, b: np.einsum("nki,nkj->nij", a, a),
}
EINSUM_VECTOR_PRODUCTS = {
    "fold translation": lambda a, v: np.einsum("nij,nj->ni", a, v),
    "extend translation": lambda a, v: np.einsum("aij,bj->abi", a, v),
    "balls": lambda a, v: np.einsum("nij,j->ni", a, v[0]),
}


def orthogonality_defects_by_gram(rotation: np.ndarray) -> np.ndarray:
    """max |R^T R - I| of every matrix of an (N, d, d) stack from the whole
    Gram stack, one ``_matmul`` product and a max-abs over each matrix: the
    oracle that geometry._orthogonality_defects, which builds one Gram entry
    at a time, is checked against."""
    gram = _matmul(rotation.transpose(0, 2, 1), rotation)
    gram -= np.eye(rotation.shape[1])
    return np.abs(gram).max(axis=(1, 2))


def projection_graph_by_rows(ratios, rotations, translations, matrix):
    """(source, target, ratio, translation) of the projection graph-directed
    system with the group closed over every map's rotation and each map's
    targets looked up on its own: the oracle that
    constructions.build_projection_gdifs is checked against."""
    group = group_closure(rotations)
    q, m, d = group.order, len(ratios), rotations.shape[1]
    targets = group.indices_of((group.elements[:, None] @ rotations[None]).reshape(-1, d, d))
    translation = np.einsum("lj,ijk,nk->inl", matrix, group.elements, translations)
    return (
        np.repeat(np.arange(q), m),
        targets,
        np.tile(ratios, q),
        translation.reshape(q * m, len(matrix)),
    )


def store_new_by_scan(stored, mats, tol, cap) -> list[int]:
    """The rows of an (N, d, d) stack that a first-come scan stores after the
    matrices ``stored``: a row is kept iff no kept matrix lies within tol in
    max-abs norm and fewer than ``cap`` are kept.  The oracle that
    groups._RotationTable.insert is checked against."""
    kept = list(stored)
    rows = []
    for i, m in enumerate(mats):
        if len(kept) >= cap:
            break
        if all(np.abs(m - k).max() > tol for k in kept):
            kept.append(m)
            rows.append(i)
    return rows
