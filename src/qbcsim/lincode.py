"""Binary linear (n,k,d) code toolkit for the codeword commitment layer.

Bit strings are numpy uint8 arrays with entries in {0,1}.  Every generator
matrix that leaves this module has had its minimum distance verified by a
brute-force scan over all nonzero codewords, so `verified_min_distance` can be
trusted downstream.  Brute force caps the dimension at k <= 24; above that the
toolkit refuses rather than guessing.

Distance scans, enumeration and distance counts share one codebook walk:
rows packed into ceil(n/64) uint64 words, spanned by XOR-doubling so that
codeword i is the XOR of the rows j with bit j of i set, weighed by popcount.
Past k = 16 the walk yields blocks of 2^16 codewords in the same order.
`parity_check` gives the null space of a generator as n-k rows spanning the
dual code C-perp, and `dual_codewords` enumerates C-perp with the same walk.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

RandomStream = np.random.Generator

BRUTE_FORCE_MAX_K = 24
ENUMERATION_MAX_K = 16


class CodeError(ValueError):
    """Invalid code parameters or bit strings."""


class GenerationFailure(CodeError):
    """Rejection sampling exhausted its attempt budget."""


class DegenerateMaskError(CodeError):
    """The parity functional c -> c.r vanishes on the whole code, but b=1."""


class UnsupportedScale(CodeError):
    """Dimension too large for brute-force verification."""


def as_bits(value, length: int | None = None) -> np.ndarray:
    """Coerce a sequence (or 0/1 string) to a validated uint8 bit vector."""
    if isinstance(value, str):
        value = [int(ch) for ch in value]
    arr = np.asarray(value, dtype=np.uint8)
    if arr.ndim != 1:
        raise CodeError("bit string must be one-dimensional")
    if arr.size and arr.max() > 1:
        raise CodeError("bit string entries must be 0 or 1")
    if length is not None and arr.size != length:
        raise CodeError(f"expected length {length}, got {arr.size}")
    return arr


def _gf2_rank(rows: np.ndarray) -> int:
    basis: list[int] = []  # distinct leading bits, kept in descending order
    for bits in np.packbits(rows, axis=1):
        r = int.from_bytes(bits.tobytes(), "big")
        for b in basis:
            r = min(r, r ^ b)
        if r:
            basis = sorted(basis + [r], reverse=True)
    return len(basis)


def _pack(bits: np.ndarray) -> np.ndarray:
    """Pack (m, n) bits into (m, ceil(n/64)) uint64 words; padding bits are 0."""
    padded = np.pad(bits, ((0, 0), (0, -bits.shape[1] % 64)))
    return np.packbits(padded, axis=1, bitorder="little").view(np.uint64)


def _span(packed: np.ndarray) -> np.ndarray:
    """Every XOR combination of the packed rows; entry i uses the rows j in i."""
    table = np.zeros((1 << len(packed), packed.shape[1]), dtype=np.uint64)
    for j, row in enumerate(packed):
        table[1 << j : 2 << j] = table[: 1 << j] ^ row
    return table


def _codebook_blocks(rows: np.ndarray):
    """Packed codewords in message order, 2^ENUMERATION_MAX_K at most per block."""
    packed = _pack(rows)
    low = _span(packed[:ENUMERATION_MAX_K])
    for high in _span(packed[ENUMERATION_MAX_K:]):
        yield low ^ high


def _weights(words: np.ndarray) -> np.ndarray:
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


def _scan_min_weight(rows: np.ndarray, abort_below: int | None = None) -> int | None:
    """Minimum Hamming weight over nonzero codewords.

    With abort_below set, returns None as soon as a weight strictly below the
    threshold shows up; this keeps rejection sampling cheap.
    """
    best = rows.shape[1] + 1
    for h, block in enumerate(_codebook_blocks(rows)):
        skip = 1 if h == 0 else 0  # the zero message opens the first block
        best = min(best, int(_weights(block[skip:]).min()))
        if abort_below is not None and best < abort_below:
            return None
        if best == 1:
            break
    return best


@dataclass(frozen=True, eq=False)
class GeneratorMatrix:
    """Full-rank k x n generator matrix with a brute-force-certified distance."""

    rows: np.ndarray
    n: int
    k: int
    verified_min_distance: int

    @classmethod
    def from_rows(cls, rows) -> "GeneratorMatrix":
        m = np.atleast_2d(np.asarray(rows, dtype=np.uint8))
        if m.size and m.max() > 1:
            raise CodeError("matrix entries must be 0 or 1")
        k, n = m.shape
        if not (1 <= k <= n):
            raise CodeError(f"need 1 <= k <= n, got k={k}, n={n}")
        if k > BRUTE_FORCE_MAX_K:
            raise UnsupportedScale(f"k={k} exceeds the brute-force cap {BRUTE_FORCE_MAX_K}")
        if _gf2_rank(m) != k:
            raise CodeError("rows are linearly dependent over GF(2)")
        d = _scan_min_weight(m)
        m = m.copy()
        m.setflags(write=False)
        return cls(rows=m, n=n, k=k, verified_min_distance=int(d))

    def row_strings(self) -> list[str]:
        return ["".join(str(int(b)) for b in row) for row in self.rows]


def encode(G: GeneratorMatrix, message) -> np.ndarray:
    msg = as_bits(message, G.k)
    return (msg @ G.rows) & 1


def _enumerate(rows: np.ndarray, n: int) -> np.ndarray:
    if len(rows) > ENUMERATION_MAX_K:
        raise UnsupportedScale(f"full enumeration capped at dimension {ENUMERATION_MAX_K}")
    words = next(_codebook_blocks(rows)).view(np.uint8)
    return np.unpackbits(words, axis=1, count=n, bitorder="little")


def codewords(G: GeneratorMatrix) -> np.ndarray:
    """All 2^k codewords as a (2^k, n) array; meant for small k only."""
    return _enumerate(G.rows, G.n)


def parity_check(G: GeneratorMatrix) -> np.ndarray:
    """(n-k, n) parity-check matrix H: its rows span C-perp and G.H^T = 0.

    Gauss-Jordan elimination over rows packed into Python ints (bit j is
    column j) leaves one row per pivot column, zero in every other pivot
    column.  Row i of H sets free column f_i and, on each pivot column p, the
    bit f_i of p's reduced row.
    """
    reduced: dict[int, int] = {}  # pivot column -> reduced row
    for bits in np.packbits(G.rows, axis=1, bitorder="little"):
        r = int.from_bytes(bits.tobytes(), "little")
        for p, row in reduced.items():
            if r >> p & 1:
                r ^= row
        p = (r & -r).bit_length() - 1  # full rank, so r != 0
        for q, row in reduced.items():
            if row >> p & 1:
                reduced[q] = row ^ r
        reduced[p] = r
    free = [f for f in range(G.n) if f not in reduced]
    H = np.zeros((len(free), G.n), dtype=np.uint8)
    pivots = list(reduced)
    for i, f in enumerate(free):
        H[i, f] = 1
        H[i, pivots] = [row >> f & 1 for row in reduced.values()]
    return H


def dual_codewords(G: GeneratorMatrix) -> np.ndarray:
    """All 2^(n-k) words of the dual code as a (2^(n-k), n) array."""
    return _enumerate(parity_check(G), G.n)


def min_distance(G: GeneratorMatrix) -> int:
    """Recompute the minimum distance by exhaustive scan."""
    return int(_scan_min_weight(G.rows))


def dot(c, r) -> int:
    """Parity of the bitwise AND: xor_i (c_i and r_i)."""
    cv = as_bits(c)
    rv = as_bits(r, cv.size)
    return int(np.bitwise_and(cv, rv).sum()) & 1


def is_codeword(G: GeneratorMatrix, word) -> bool:
    """Row-space membership test over GF(2)."""
    w = as_bits(word, G.n)
    stacked = np.vstack([G.rows, w[None, :]])
    return _gf2_rank(stacked) == G.k


def mask_is_degenerate(G: GeneratorMatrix, r) -> bool:
    """True when every codeword has parity 0 under the mask r."""
    rv = as_bits(r, G.n)
    return not np.any((G.rows @ rv) & 1)


def sample_codeword_with_parity(G: GeneratorMatrix, r, b: int, rng: RandomStream) -> np.ndarray:
    """Uniform sample from the codewords c with dot(c, r) = b.

    Raises DegenerateMaskError when the functional is identically zero on the
    code but b=1; the caller should pick a fresh mask.
    """
    rv = as_bits(r, G.n)
    if not np.any(rv):
        raise CodeError("mask r must be nonzero")
    if b not in (0, 1):
        raise CodeError("parity b must be 0 or 1")
    t = (G.rows @ rv) & 1
    msg = rng.integers(0, 2, size=G.k, dtype=np.uint8)
    if not np.any(t):
        if b == 1:
            raise DegenerateMaskError("parity functional vanishes on the code")
        return (msg @ G.rows) & 1
    if (int(msg @ t) & 1) != b:
        # flipping a fixed pivot maps the wrong coset bijectively onto the
        # right one, so uniformity of msg carries over
        msg[int(np.argmax(t))] ^= 1
    return (msg @ G.rows) & 1


def sample_nondegenerate_mask(G: GeneratorMatrix, rng: RandomStream, max_attempts: int = 1000) -> np.ndarray:
    """Nonzero mask r whose parity functional is not identically zero on C."""
    for _ in range(max_attempts):
        r = rng.integers(0, 2, size=G.n, dtype=np.uint8)
        if np.any(r) and not mask_is_degenerate(G, r):
            return r
    raise GenerationFailure("could not find a non-degenerate mask")


def count_codewords_at_distance(G: GeneratorMatrix, c, d0: int) -> int:
    """Exact number of codewords at Hamming distance d0 from c."""
    cv = as_bits(c, G.n)
    if d0 < 0:
        raise CodeError("distance must be non-negative")
    target = _pack(cv[None, :])[0]
    return sum(
        int(np.count_nonzero(_weights(block ^ target) == d0))
        for block in _codebook_blocks(G.rows)
    )


def binary_entropy(x: float) -> float:
    if not 0.0 < x < 1.0:
        raise CodeError(f"binary entropy needs 0 < x < 1, got {x}")
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def inv_binary_entropy(y: float) -> float:
    """The unique x in (0, 1/2] with binary_entropy(x) = y, by bisection."""
    if not 0.0 < y <= 1.0:
        raise CodeError(f"need 0 < y <= 1, got {y}")
    if y == 1.0:
        return 0.5
    lo, hi = 0.0, 0.5
    for _ in range(80):
        mid = (lo + hi) / 2.0
        if mid <= 0.0:
            break
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


@dataclass(frozen=True)
class CodeSpec:
    """Requested code shape.  Validates the agreed rate and distance ratios."""

    n: int
    k: int
    d_target: int

    def __post_init__(self) -> None:
        if not (1 <= self.k < self.n):
            raise CodeError(f"need 1 <= k < n, got k={self.k}, n={self.n}")
        if not (1 <= self.d_target <= self.n - self.k + 1):
            raise CodeError(
                f"d_target={self.d_target} violates 1 <= d <= n-k+1 = {self.n - self.k + 1}"
            )
        # concealment wants k/n above one half; the k=n/2 boundary is allowed
        # so the smallest repetition code (n=2, k=1) stays constructible
        if 2 * self.k < self.n:
            raise CodeError(f"rate k/n = {self.k}/{self.n} below the concealment floor 1/2")


def generate_code(spec: CodeSpec, rng: RandomStream, max_attempts: int = 2000) -> GeneratorMatrix:
    """Rejection-sample a random full-rank matrix with min distance >= d_target."""
    if spec.k > BRUTE_FORCE_MAX_K:
        raise UnsupportedScale(f"k={spec.k} exceeds the brute-force cap {BRUTE_FORCE_MAX_K}")
    for _ in range(max_attempts):
        m = rng.integers(0, 2, size=(spec.k, spec.n), dtype=np.uint8)
        if _gf2_rank(m) != spec.k:
            continue
        d = _scan_min_weight(m, abort_below=spec.d_target)
        if d is None:
            continue
        # the scan above already certified d, so skip from_rows' second scan
        m.setflags(write=False)
        return GeneratorMatrix(rows=m, n=spec.n, k=spec.k, verified_min_distance=d)
    raise GenerationFailure(
        f"no (n={spec.n}, k={spec.k}) matrix with d >= {spec.d_target} in {max_attempts} attempts"
    )


def block_repetition_matrix(k: int, t: int, n: int | None = None) -> GeneratorMatrix:
    """Generator [I_k (x) 1_t | 0]: k blocks of t repeated bits, zero padding.

    Minimum distance is exactly t.  Useful when a long code with a known
    certified distance is needed and random search would be too slow.
    """
    if k < 1 or t < 1:
        raise CodeError("need k >= 1 and t >= 1")
    width = k * t
    if n is None:
        n = width
    if n < width:
        raise CodeError(f"n={n} too short for {k} blocks of {t}")
    rows = np.zeros((k, n), dtype=np.uint8)
    for i in range(k):
        rows[i, i * t : (i + 1) * t] = 1
    return GeneratorMatrix.from_rows(rows)


def identity_matrix_code(n: int) -> GeneratorMatrix:
    return GeneratorMatrix.from_rows(np.eye(n, dtype=np.uint8))


CodeProvider = Callable[[int, RandomStream], GeneratorMatrix]


def ratio_code_provider(ratio_k: float, ratio_d: float, max_attempts: int = 2000) -> CodeProvider:
    """Provider that samples a fresh random code of the agreed ratios for each n."""

    def provide(n: int, rng: RandomStream) -> GeneratorMatrix:
        k = max(1, round(ratio_k * n))
        d = max(1, round(ratio_d * n))
        spec = CodeSpec(n=n, k=min(k, n - 1), d_target=min(d, n - min(k, n - 1)))
        return generate_code(spec, rng, max_attempts)

    return provide


def block_repetition_provider(k: int, t: int | None = None, ratio_d: float | None = None) -> CodeProvider:
    """Provider for block-repetition codes; fix t or derive it from ratio_d.

    When the requested n cannot hold k blocks of the nominal t, the block
    width shrinks to n // k so the provider still returns a working code.
    """
    if (t is None) == (ratio_d is None):
        raise CodeError("give exactly one of t or ratio_d")

    def provide(n: int, rng: RandomStream) -> GeneratorMatrix:
        width = t if t is not None else max(1, round(ratio_d * n))
        if k * width > n:
            width = n // k
        if width < 1:
            raise CodeError(f"n={n} cannot hold {k} repetition blocks")
        return block_repetition_matrix(k, width, n)

    return provide


def identity_code_provider() -> CodeProvider:
    return lambda n, rng: identity_matrix_code(n)


def code_to_json(G: GeneratorMatrix) -> str:
    payload = {
        "n": G.n,
        "k": G.k,
        "d": G.verified_min_distance,
        "rows": G.row_strings(),
    }
    return json.dumps(payload, indent=2)


def code_from_json(text: str) -> GeneratorMatrix:
    payload = json.loads(text)
    rows = [as_bits(row, payload["n"]) for row in payload["rows"]]
    if len(rows) != payload["k"]:
        raise CodeError("row count does not match k")
    G = GeneratorMatrix.from_rows(np.array(rows, dtype=np.uint8))
    if G.verified_min_distance != payload["d"]:
        raise CodeError(
            f"recorded distance {payload['d']} but brute force found {G.verified_min_distance}"
        )
    return G
