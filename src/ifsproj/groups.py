"""Closure, block structure and density machinery for orthogonal parts.

The transformation group of an IFS is the group generated by the rotation
parts of its maps.  Finiteness is decided in two steps.

First a certificate: if some generator T has a rotation block of angle alpha
with 2|sin(k alpha / 2)| > 2 d tol for every k = 1..cap, then the powers
T^0..T^cap are cap + 1 matrices pairwise more than 2 tol apart in the
max-abs norm (the operator norm of T^j - T^k is at least that block's
chord, and the max-abs norm is at least the operator norm over d).  No
matrix lies within tol of two of them, so the tolerance closure must store
more than ``cap`` elements: the verdict is infinite, the same verdict the
capped closure reaches, without building it.  Angles that are only close to
a rational multiple of 2 pi fail the test and are left to the closure.

Otherwise the semigroup closure is computed up to the cap, with every
"is this matrix already stored within tol" question answered by an exact
hashed lookup (``_RotationTable``).  An infinite verdict from the cap is a
certificate of exceeding the cap, not a proof of infinitude; the
``reason`` field of the result says which of the two paths decided.

The closure and the corrector search of ``constructions`` walk the Cayley
graph of rotation products one word length at a time.  Both store a
level's products, and ``_distinct`` its generators, through one in-order
batch insert, ``_RotationTable.insert``: a row is stored iff no matrix
stored before it, from earlier batches or earlier in its own, lies within
tol, and the table holds fewer than its cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from . import tolerances
from .geometry import (
    GeometryError,
    NumericFailureError,
    _orthogonality_defects,
    _per_row,
    _stored_matrices,
    orthogonality_defect,
)

TWO_PI = 2.0 * math.pi
# Max-abs distance below which two rotations are one group element.
CLOSURE_TOLERANCE = 1e-6
# Largest rotation-block order angle_order looks for.
_MAX_DENOMINATOR = 10**6
# kronecker_power's density witness must come closer to T than this.
_WITNESS_DELTA = 0.05


class GroupClosureError(GeometryError):
    pass


class _RotationTable:
    """Stored d x d matrices with an exact "within tol in max-abs" lookup.

    A matrix is keyed by floor(<W, M> / width), with W a fixed matrix of
    positive weights summing to 1, so matrices within tol of each other have
    keys at most 1 apart; width exceeds tol by a bound on the rounding of the
    inner product for entries of size at most 1.  A lookup probes the keys
    k - 1, k and k + 1 in the sorted stored keys and then checks the max-abs
    distance, which is the same predicate as a scan over every stored matrix.
    """

    def __init__(self, d: int, tol: float):
        self.tol = tol
        self._width = tol + 4.0 * d * d * np.finfo(float).eps
        # Weights at golden-ratio offsets, so structured matrices (signed
        # permutations, say) do not share one inner product.
        raw = 1.0 + (np.arange(1, d * d + 1) * 0.6180339887498949) % 1.0
        self._weights = (raw / raw.sum()).reshape(d, d)
        self.elements = np.empty((0, d, d))
        # The stored keys, their stable sort order and the sorted keys.
        self._keys = self._order = self._sorted_keys = np.empty(0, dtype=np.int64)

    @property
    def size(self) -> int:
        return len(self._keys)

    def _key(self, mats: np.ndarray) -> np.ndarray:
        dots = np.einsum("nij,ij->n", mats, self._weights)
        return np.floor(dots / self._width).astype(np.int64)

    def lookup(self, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each matrix of an (N, d, d) stack: how many stored matrices lie
        within tol, and the index of one of them (-1 when there is none)."""
        n = len(mats)
        counts = np.zeros(n, dtype=np.int64)
        match = np.full(n, -1, dtype=np.int64)
        if self.size == 0 or n == 0:
            return counts, match
        keys = self._key(mats)
        lo = np.searchsorted(self._sorted_keys, keys - 1, side="left")
        hi = np.searchsorted(self._sorted_keys, keys + 1, side="right")
        lens = hi - lo
        query = np.repeat(np.arange(n), lens)
        offset = np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)
        stored = self._order[np.repeat(lo, lens) + offset]
        diff = self.elements.take(stored, axis=0) - mats.take(query, axis=0)
        dist = np.abs(diff).max(axis=(1, 2))
        hit = dist <= self.tol
        hit_query = query.compress(hit)
        counts += np.bincount(hit_query, minlength=n)
        match[hit_query] = stored.compress(hit)
        return counts, match

    def insert(self, mats: np.ndarray, cap: float = math.inf) -> tuple[np.ndarray, np.ndarray]:
        """Store, in order, each row of an (N, d, d) stack that lies farther
        than tol from every stored matrix, while the table holds fewer than
        ``cap`` matrices.  Returns (stored_rows, match): the indices of the
        stored rows, and for each row the table index of a stored matrix
        within tol (its own for a stored row, the first one stored from this
        batch when an earlier row of it matched), or -1 for a row that
        matched nothing once the table was full.
        """
        match = self.lookup(mats)[1]
        rows = np.flatnonzero(match < 0)
        keys = self._key(mats)[rows]
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        # Positions in ``rows`` that no stored matrix matches yet.
        unmatched = np.ones(len(rows), dtype=bool)
        kept: list[int] = []
        pos = 0
        while pos < len(rows) and self.size + len(kept) < cap:
            pos += int(unmatched[pos:].argmax())
            if not unmatched[pos]:
                break
            row, unmatched[pos] = rows[pos], False
            match[row] = self.size + len(kept)
            kept.append(pos)
            # Only unmatched rows with keys in [k - 1, k + 1] can lie within tol.
            lo, hi = sorted_keys.searchsorted([keys[pos] - 1, keys[pos] + 2])
            near = order[lo:hi]
            near = near.compress(unmatched[near])
            if near.size:
                dist = np.abs(mats.take(rows[near], axis=0) - mats[row]).max(axis=(1, 2))
                near = near.compress(dist <= self.tol)
                unmatched[near] = False
                match[rows[near]] = match[row]
        stored_rows = rows[kept]
        if kept:
            self.elements = np.concatenate([self.elements, mats.take(stored_rows, axis=0)])
            self._keys = np.concatenate([self._keys, keys[kept]])
            self._order = np.argsort(self._keys, kind="stable")
            self._sorted_keys = self._keys[self._order]
        return stored_rows, match


@dataclass(frozen=True)
class TransformationGroup:
    """Result of the closure computation over the generators, a read-only
    (N, d, d) stack.

    ``elements`` is a canonically ordered, read-only (N, d, d) stack when the
    closure is finite and None otherwise; ``witness_count`` then records how
    many distinct elements the closure must hold (one more than the cap).
    ``reason`` is ``"closed"`` (finite), ``"cap_exceeded"`` (the closure
    passed the cap) or ``"cyclic_orbit_exceeds_cap"`` (certified from one
    generator's powers); for the last, ``margin`` is (smallest power
    distance, threshold).
    """

    generators: np.ndarray
    elements: np.ndarray | None
    witness_count: int
    tolerance: float
    reason: str
    margin: tuple[float, float] | None = None
    # The closure's table, and the canonical index of each matrix it stores.
    _table: _RotationTable | None = field(default=None, compare=False, repr=False)
    _canonical: np.ndarray | None = field(default=None, compare=False, repr=False)

    @property
    def is_finite(self) -> bool:
        return self.elements is not None

    @property
    def order(self) -> int:
        if self.elements is None:
            raise GroupClosureError("group closure exceeded the cap; no finite order")
        return len(self.elements)

    def index_of(self, matrix: np.ndarray) -> int:
        """Index of the element matching the matrix within tolerance.

        Raises when there is no match or more than one match.
        """
        return int(self.indices_of(np.asarray(matrix, dtype=float)[None])[0])

    def indices_of(self, matrices: np.ndarray) -> np.ndarray:
        """``index_of`` for every matrix of an (N, d, d) stack at once."""
        if self.elements is None:
            raise GroupClosureError("infinite verdict has no element list")
        counts, match = self._table.lookup(np.asarray(matrices, dtype=float))
        if (counts == 0).any():
            raise GroupClosureError("matrix matches no group element within tolerance")
        if (counts > 1).any():
            raise GroupClosureError(
                f"matrix matches {int(counts.max())} group elements; tolerance too loose"
            )
        return self._canonical[match]


def _distinct(gens: np.ndarray, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """(distinct, inverse): the generators that lie farther than tol from
    every earlier kept one, in order, and for each generator n the index
    ``inverse[n]`` of the first kept one within tol (its own, when it is
    kept).  This is one ``_RotationTable.insert`` into an empty table; a
    broadcast stack (first stride 0) inserts its one matrix, and every
    generator's class is 0.
    """
    table = _RotationTable(gens.shape[1], tol)
    inverse = table.insert(_stored_matrices(gens))[1]
    return table.elements, _per_row(inverse, gens)


def _cyclic_certificate(gens: np.ndarray, tol: float, cap: int) -> tuple[float, float] | None:
    """(smallest power distance, threshold) of the first generator whose
    powers T^0..T^cap are pairwise more than 2 tol apart in max-abs norm, or
    None when no generator certifies this.

    The angles are ``_blocks`` of ``np.linalg.eigvals`` (bitwise ``eig``'s):
    those of ``block_diagonalize``, in order, without building the form."""
    d = gens.shape[1]
    threshold = 2.0 * d * tol
    half_k = 0.5 * np.arange(1, cap + 1)
    for g in gens:
        for b in _blocks(np.linalg.eigvals(g)):
            if b.kind is BlockKind.ROTATION:
                chord = 2.0 * float(np.abs(np.sin(half_k * b.angle)).min())
                if chord > threshold:
                    return chord, threshold
    return None


def _canonical_order(elements: np.ndarray) -> np.ndarray:
    flat = elements.reshape(len(elements), -1)
    return np.lexsort(flat.T[::-1])


def group_closure(generators, closure_cap: int = 5000) -> TransformationGroup:
    """Semigroup closure of the generators (and their transposes).

    The generators are an (N, d, d) array or any iterable of d x d matrices;
    an array is read as one stack, without a Python object per matrix.

    Returns a finite element list closed under generator multiplication, or
    an infinite verdict once more than ``closure_cap`` distinct elements
    accumulate, or at once when one generator's powers certify that they
    would (see the module docstring).
    """
    if not isinstance(generators, np.ndarray):
        generators = list(generators)
    try:
        gens = np.array(generators, dtype=float)
    except ValueError:
        raise GroupClosureError("generators must share their dimension") from None
    if len(gens) == 0:
        raise GroupClosureError("need at least one generator")
    if closure_cap < 1:
        raise GroupClosureError("closure_cap must be >= 1")
    if gens.ndim != 3 or gens.shape[1] != gens.shape[2]:
        raise GroupClosureError("generators must share their dimension")
    d = gens.shape[1]
    tau = tolerances.tau_orth()
    if not np.isfinite(gens).all() or (_orthogonality_defects(gens) > tau).any():
        raise GroupClosureError("generator is not a finite orthogonal matrix")
    gens.setflags(write=False)
    tolerance = CLOSURE_TOLERANCE
    distinct, _ = _distinct(gens, tolerance)

    certificate = _cyclic_certificate(distinct, tolerance, closure_cap)
    if certificate is not None:
        return TransformationGroup(
            gens, None, closure_cap + 1, tolerance, "cyclic_orbit_exceeds_cap", certificate
        )

    multipliers = np.concatenate([distinct, distinct.transpose(0, 2, 1)])
    table = _RotationTable(d, tolerance)
    frontier = np.eye(d)[None]
    table.insert(frontier)
    while len(frontier):
        candidates = (multipliers[None] @ frontier[:, None]).reshape(-1, d, d)
        frontier = candidates.take(table.insert(candidates, closure_cap + 1)[0], axis=0)
        if table.size > closure_cap:
            return TransformationGroup(gens, None, table.size, tolerance, "cap_exceeded")
    order = _canonical_order(table.elements)
    elements = table.elements.take(order, axis=0)
    elements.setflags(write=False)
    canonical = np.argsort(order)
    return TransformationGroup(
        gens, elements, len(elements), tolerance, "closed", _table=table, _canonical=canonical
    )


class BlockKind(enum.Enum):
    PLUS_ONE = "+1"
    MINUS_ONE = "-1"
    ROTATION = "rotation"


@dataclass(frozen=True)
class Block:
    kind: BlockKind
    angle: float = 0.0  # in [0, 2*pi), meaningful for ROTATION blocks only

    @property
    def size(self) -> int:
        return 2 if self.kind is BlockKind.ROTATION else 1


@dataclass(frozen=True)
class BlockForm:
    basis_change: np.ndarray
    blocks: tuple[Block, ...]

    def reassemble(self) -> np.ndarray:
        q = self.basis_change
        core = np.zeros(q.shape)
        i = 0
        for b in self.blocks:
            if b.kind is BlockKind.ROTATION:
                c, s = math.cos(b.angle), math.sin(b.angle)
                core[i : i + 2, i : i + 2] = [[c, -s], [s, c]]
            else:
                core[i, i] = -1.0 if b.kind is BlockKind.MINUS_ONE else 1.0
            i += b.size
        return q @ core @ q.T


def _orthogonal(t) -> np.ndarray:
    """t as a float array, checked to be a finite orthogonal matrix."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all() or orthogonality_defect(t) > tolerances.tau_orth():
        raise GeometryError("matrix is not a finite orthogonal matrix")
    return t


def _blocks(eigenvalues: np.ndarray) -> list[Block]:
    """An orthogonal matrix's normal-form blocks, in its eigenvalues' order: a
    pair with Im > tau_orth is a rotation block of angle atan2(Im, Re); a real
    eigenvalue is [1] or [-1], and a pair with 0 < Im <= tau_orth two of them
    (a miss of at most tau_orth, inside ``block_diagonalize``'s check)."""
    tau = tolerances.tau_orth()
    blocks: list[Block] = []
    for lam in eigenvalues:
        sign = Block(BlockKind.PLUS_ONE if lam.real > 0 else BlockKind.MINUS_ONE)
        if lam.imag == 0:
            blocks.append(sign)
        elif lam.imag > tau:
            blocks.append(Block(BlockKind.ROTATION, math.atan2(lam.imag, lam.real)))
        elif lam.imag > 0:
            blocks += [sign, sign]
    return blocks


def block_diagonalize(t: np.ndarray) -> BlockForm:
    """Real normal form of an orthogonal matrix: [1], [-1] and rotation blocks.

    The blocks are ``_blocks`` of eig(T), a rotation block on sqrt(2) [Re u,
    Im u] for u an eigenvector of e^{-i theta}.  eig(T) separates 1 from
    e^{i theta} by about theta ((T + T^T) / 2 would by theta^2 / 2), so tiny
    angles keep their planes.  Eigenvectors of a repeated eigenvalue need
    not be orthogonal (those of distinct ones are, T being normal): one QR
    of all columns normalises them, orthogonalises each cluster and moves
    the rest by rounding.
    """
    t = _orthogonal(t)
    w, v = np.linalg.eig(t)
    columns: list[np.ndarray] = []
    for lam, u in zip(w, v.T):
        if lam.imag == 0:
            columns.append(u.real)
        elif lam.imag > 0:  # one member of each conjugate pair
            columns += [u.real, -u.imag]
    q, r = np.linalg.qr(np.array(columns).T)
    form = BlockForm(q * np.where(np.diag(r) < 0, -1.0, 1.0), tuple(_blocks(w)))
    residual = np.abs(form.reassemble() - t).max()
    if residual > 10.0 * tolerances.tau_orth():
        raise NumericFailureError(f"block reassembly residual {residual:.3e} exceeds tolerance")
    return form


def angle_order(alpha: float) -> int | None:
    """Order k when alpha is (close to) a rational multiple 2*pi*p/k, else None.

    Returns the smallest k <= 10^6 with |alpha/(2 pi) - p/k| < TAU_ANGLE/k
    found along the continued-fraction convergents; ties at the tolerance
    boundary resolve to the finite order.
    """
    if not math.isfinite(alpha):
        raise GeometryError("angle must be finite")
    x = (alpha % TWO_PI) / TWO_PI
    # Continued-fraction convergents p/q of x.
    p_prev, q_prev = 1, 0
    p, q = int(math.floor(x)), 1
    rem = x - math.floor(x)
    for _ in range(64):
        if q <= _MAX_DENOMINATOR and abs(x - p / q) < tolerances.TAU_ANGLE / q:
            return q
        if rem == 0.0 or q > _MAX_DENOMINATOR:
            break
        rem = 1.0 / rem
        a = int(math.floor(rem))
        rem -= a
        p, p_prev = a * p + p_prev, p
        q, q_prev = a * q + q_prev, q
    return None


def power_witness(t: np.ndarray, k: int, z_cap: int = 10**5):
    """Smallest z <= z_cap minimizing ||T^(k z) - T||, restricted to k z = 1 mod k0.

    k0, the lcm of the finite block orders, keeps those blocks matching
    exactly; the admissible z are z0 + j k0, z0 = k^-1 mod k0 (1 if k0 = 1).
    Returns (z, residual), the residual being the largest chord
    2|sin((k z - 1) alpha / 2)| over the irrational angles alpha, or 0.0 at
    z = z0 when there are none.  Raises NumericFailureError when k z alpha
    2^-52, the float rounding of (k z - 1) alpha at the largest admissible
    z, exceeds _WITNESS_DELTA / 10: the witness would be rounding noise.
    """
    orders, irrational = [], []
    for b in _blocks(np.linalg.eigvals(_orthogonal(t))):
        # A [1] block's angle is 0, of order 1.
        order = 2 if b.kind is BlockKind.MINUS_ONE else angle_order(b.angle)
        if order is None:
            irrational.append(b.angle)
        else:
            orders.append(order)
    k0 = math.lcm(*orders)
    if math.gcd(k, k0) != 1:
        raise NumericFailureError("k is not invertible modulo the finite block order")
    z0 = pow(k, -1, k0) if k0 > 1 else 1
    if z0 > z_cap:
        raise NumericFailureError("no admissible witness exponent below the cap")
    if not irrational:
        return z0, 0.0
    zs = np.arange(z0, z_cap + 1, k0, dtype=float)
    if k * int(zs[-1]) > _WITNESS_DELTA / 10.0 * 2.0**52 / max(irrational):
        raise NumericFailureError("k z is too large for the witness angles to resolve")
    residual = np.max([2.0 * np.abs(np.sin((zs * k - 1.0) * a / 2.0)) for a in irrational], axis=0)
    best = int(np.argmin(residual))
    return int(zs[best]), float(residual[best])


def kronecker_power(t: np.ndarray, n: int) -> int:
    """An exponent k >= N such that the powers of T^k come back near T.

    k = 2^N * (product of finite rotation-block orders) + 1, the blocks
    ``_blocks`` of eigvals(T); the density of the group generated by T^k in
    the closure of <T> is certified constructively by ``power_witness``'s
    z <= 10^5 with ||T^(k z) - T|| < 0.05.
    """
    if n < 1:
        raise GeometryError("N must be >= 1")
    t = _orthogonal(t)
    rotations = [b for b in _blocks(np.linalg.eigvals(t)) if b.kind is BlockKind.ROTATION]
    k = 2**n * math.prod(angle_order(b.angle) or 1 for b in rotations) + 1
    z, residual = power_witness(t, k)
    if residual >= _WITNESS_DELTA:
        raise NumericFailureError(
            f"density witness search failed: best residual {residual:.3e} at z={z}"
        )
    return k


class OrbitDensity(enum.Enum):
    DENSE = "dense"
    NOT_DENSE = "not_dense"
    UNKNOWN = "unknown"


def orbit_dense_classification(group: TransformationGroup, l: int) -> OrbitDensity:
    """Whether the group orbit of an l-plane is dense in the Grassmannian.

    Decidable only for d = 2, l = 1, where density is equivalent to the group
    being infinite; a finite group is never dense; otherwise unknown (an
    infinite group in d >= 3 need not act densely).
    """
    d = group.generators[0].shape[0]
    if not 1 <= l < d:
        raise GeometryError(f"need 1 <= l < d, got l={l}, d={d}")
    if group.is_finite:
        return OrbitDensity.NOT_DENSE
    if d == 2 and l == 1:
        return OrbitDensity.DENSE
    return OrbitDensity.UNKNOWN


def rotation_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Operator-norm distance (largest singular value of the difference)."""
    diff = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return float(np.linalg.norm(diff, 2))


def planar_rotation(angle: float) -> np.ndarray:
    if not math.isfinite(angle):
        raise GeometryError("rotation angle must be finite")
    c, s = math.cos(angle), math.sin(angle)
    return np.array([[c, -s], [s, c]])
