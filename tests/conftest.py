import functools

import numpy as np
import pytest

from ifsproj import tolerances
from ifsproj.fixtures import fixture_ifs
from ifsproj.geometry import (
    SSIFS,
    DimensionMismatchError,
    Similarity,
    orthogonality_defect,
    reorthonormalize,
)


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
