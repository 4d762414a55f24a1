import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qbcsim.lincode import (
    BRUTE_FORCE_MAX_K,
    ENUMERATION_MAX_K,
    CodeError,
    CodeSpec,
    DegenerateMaskError,
    GenerationFailure,
    GeneratorMatrix,
    UnsupportedScale,
    as_bits,
    binary_entropy,
    block_repetition_matrix,
    block_repetition_provider,
    code_from_json,
    code_to_json,
    codewords,
    count_codewords_at_distance,
    dot,
    dual_codewords,
    encode,
    generate_code,
    identity_code_provider,
    identity_matrix_code,
    inv_binary_entropy,
    mask_is_degenerate,
    min_distance,
    parity_check,
    ratio_code_provider,
    sample_codeword_with_parity,
    sample_nondegenerate_mask,
)
from qbcsim.lincode import _gf2_rank, _scan_min_weight

HAMMING_7_4 = [
    [1, 0, 0, 0, 1, 1, 0],
    [0, 1, 0, 0, 1, 0, 1],
    [0, 0, 1, 0, 0, 1, 1],
    [0, 0, 0, 1, 1, 1, 1],
]

# chi-square upper critical values at the 1% level, by degrees of freedom
CHI2_CRIT = {7: 18.475, 15: 30.578}


def test_as_bits_validation():
    assert list(as_bits("0110")) == [0, 1, 1, 0]
    with pytest.raises(CodeError):
        as_bits([0, 2, 1])
    with pytest.raises(CodeError):
        as_bits("01", length=3)


def test_hamming_code_distance():
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    assert G.n == 7 and G.k == 4
    assert G.verified_min_distance == 3
    assert min_distance(G) == 3


def test_min_distance_degenerate_families():
    rep = GeneratorMatrix.from_rows([[1] * 9])
    assert rep.verified_min_distance == 9
    eye = identity_matrix_code(6)
    assert eye.verified_min_distance == 1


def test_from_rows_rejects_dependent_rows():
    with pytest.raises(CodeError):
        GeneratorMatrix.from_rows([[1, 0, 1], [0, 1, 1], [1, 1, 0]])


def test_from_rows_scale_cap():
    big = np.zeros((BRUTE_FORCE_MAX_K + 1, BRUTE_FORCE_MAX_K + 2), dtype=np.uint8)
    for i in range(BRUTE_FORCE_MAX_K + 1):
        big[i, i] = 1
    with pytest.raises(UnsupportedScale):
        GeneratorMatrix.from_rows(big)


def test_encode_basics():
    G = GeneratorMatrix.from_rows([[1, 1]])
    assert list(encode(G, [0])) == [0, 0]
    assert list(encode(G, [1])) == [1, 1]
    with pytest.raises(CodeError):
        encode(G, [1, 0])


def test_encode_linearity():
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    rng = np.random.default_rng(21)
    for _ in range(30):
        m1 = rng.integers(0, 2, size=4, dtype=np.uint8)
        m2 = rng.integers(0, 2, size=4, dtype=np.uint8)
        lhs = encode(G, m1 ^ m2)
        rhs = encode(G, m1) ^ encode(G, m2)
        assert np.array_equal(lhs, rhs)


def test_dot_values():
    assert dot("0000", "1011") == 0
    assert dot("1010", "1110") == 0
    assert dot("1111", "1111") == 0
    assert dot("1010", "1000") == 1
    with pytest.raises(CodeError):
        dot("10", "100")


def test_parity_functional_dichotomy():
    # every nonzero mask splits the code all-zero or exactly half/half
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    words = codewords(G)
    rng = np.random.default_rng(8)
    for _ in range(40):
        r = rng.integers(0, 2, size=7, dtype=np.uint8)
        if not r.any():
            continue
        parities = (words @ r) & 1
        ones = int(parities.sum())
        assert ones in (0, words.shape[0] // 2)
        assert (ones == 0) == mask_is_degenerate(G, r)


def test_sample_codeword_with_parity_by_enumeration():
    G = GeneratorMatrix.from_rows([[1, 1]])
    rng = np.random.default_rng(3)
    c = sample_codeword_with_parity(G, [1, 0], 1, rng)
    assert list(c) == [1, 1]
    # r=11 kills the functional on the repetition code
    with pytest.raises(DegenerateMaskError):
        sample_codeword_with_parity(G, [1, 1], 1, rng)
    picked = sample_codeword_with_parity(G, [1, 1], 0, rng)
    assert dot(picked, [1, 1]) == 0
    with pytest.raises(CodeError):
        sample_codeword_with_parity(G, [0, 0], 0, rng)


@pytest.mark.parametrize("b", [0, 1])
def test_sample_codeword_uniformity_chi_square(b):
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    rng = np.random.default_rng(100 + b)
    r = as_bits("1010010")
    assert not mask_is_degenerate(G, r)
    qualifying = {tuple(w) for w in codewords(G) if dot(w, r) == b}
    assert len(qualifying) == 8
    n_draws = 4000
    counts = {w: 0 for w in qualifying}
    for _ in range(n_draws):
        c = tuple(sample_codeword_with_parity(G, r, b, rng))
        counts[c] += 1
    expected = n_draws / len(qualifying)
    stat = sum((obs - expected) ** 2 / expected for obs in counts.values())
    assert stat < CHI2_CRIT[len(qualifying) - 1]


def test_sample_nondegenerate_mask():
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    rng = np.random.default_rng(5)
    for _ in range(20):
        r = sample_nondegenerate_mask(G, rng)
        assert r.any()
        assert not mask_is_degenerate(G, r)


def test_count_codewords_at_distance():
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    zero = np.zeros(7, dtype=np.uint8)
    assert count_codewords_at_distance(G, zero, 0) == 1
    assert count_codewords_at_distance(G, zero, 3) == 7
    assert count_codewords_at_distance(G, zero, 4) == 7
    assert count_codewords_at_distance(G, zero, 7) == 1
    # translation invariance across codewords
    words = codewords(G)
    for c in (words[3], words[9], words[14]):
        for d0 in (0, 3, 4, 7):
            assert count_codewords_at_distance(G, c, d0) == count_codewords_at_distance(
                G, zero, d0
            )


def test_binary_entropy_values():
    assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)
    assert binary_entropy(0.1100279) == pytest.approx(0.5, abs=1e-6)
    rng = np.random.default_rng(17)
    for x in rng.uniform(0.01, 0.99, size=20):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)
    for bad in (0.0, 1.0, -0.1, 1.3):
        with pytest.raises(CodeError):
            binary_entropy(bad)


def test_inv_binary_entropy():
    assert inv_binary_entropy(1.0) == pytest.approx(0.5, abs=1e-12)
    assert inv_binary_entropy(0.5) == pytest.approx(0.1100279, abs=1e-6)
    rng = np.random.default_rng(23)
    for y in rng.uniform(0.05, 1.0, size=20):
        assert binary_entropy(inv_binary_entropy(float(y))) == pytest.approx(y, abs=1e-8)
    with pytest.raises(CodeError):
        inv_binary_entropy(0.0)


def test_code_spec_validation():
    CodeSpec(7, 4, 3)
    CodeSpec(2, 1, 2)
    with pytest.raises(CodeError):
        CodeSpec(4, 2, 4)  # Singleton: d <= n-k+1 = 3
    with pytest.raises(CodeError):
        CodeSpec(10, 4, 2)  # rate below 1/2
    with pytest.raises(CodeError):
        CodeSpec(5, 5, 1)


def test_generate_code_hamming_shape():
    rng = np.random.default_rng(41)
    G = generate_code(CodeSpec(7, 4, 3), rng)
    assert G.n == 7 and G.k == 4
    assert G.verified_min_distance >= 3
    assert min_distance(G) == G.verified_min_distance


def test_generate_code_forced_repetition():
    rng = np.random.default_rng(2)
    G = generate_code(CodeSpec(2, 1, 2), rng)
    assert G.row_strings() == ["11"]


def test_generate_code_attempt_exhaustion():
    rng = np.random.default_rng(1)
    # a (8,7) code with d >= 2 exists but is a tiny target; 1 attempt fails
    # almost surely, and we only assert behavior when it does
    with pytest.raises(GenerationFailure):
        for _ in range(50):
            generate_code(CodeSpec(8, 7, 2), rng, max_attempts=1)


def test_distance_count_lower_bound_for_high_rate_codes():
    # for rate > 1/2 codes and d0 >= ceil(gamma*n), the number of codewords at
    # distance exactly d0 should clear 2^(k-n/2)/sqrt(n)
    gamma = inv_binary_entropy(0.5)
    rng = np.random.default_rng(77)
    for n, k in ((14, 8), (16, 9), (20, 11), (24, 13)):
        G = generate_code(CodeSpec(n, k, 2), rng)
        d0 = int(math.floor(0.225 * n + 0.5))
        assert d0 >= math.ceil(gamma * n)
        bound = 2.0 ** (k - n / 2) / math.sqrt(n)
        cnt = count_codewords_at_distance(G, np.zeros(n, dtype=np.uint8), d0)
        assert cnt >= bound


def test_binomial_inequality():
    gamma = inv_binary_entropy(0.5)
    for n in range(8, 65):
        lhs = math.comb(n, math.ceil(gamma * n))
        rhs = 2.0 ** (n / 2) / math.sqrt(n)
        assert lhs >= rhs


def test_block_repetition_matrix():
    G = block_repetition_matrix(3, 4)
    assert (G.n, G.k, G.verified_min_distance) == (12, 3, 4)
    padded = block_repetition_matrix(3, 4, n=15)
    assert (padded.n, padded.verified_min_distance) == (15, 4)
    with pytest.raises(CodeError):
        block_repetition_matrix(3, 4, n=10)


def test_providers():
    rng = np.random.default_rng(71)
    by_ratio = ratio_code_provider(0.6, 0.2)
    G = by_ratio(10, rng)
    assert G.n == 10 and G.k == 6
    assert G.verified_min_distance >= 2

    rep = block_repetition_provider(4, t=5)
    H = rep(23, rng)
    assert H.n == 23 and H.k == 4 and H.verified_min_distance == 5
    # 4 blocks of 5 do not fit into 18, so the width shrinks to 18 // 4
    shrunk = rep(18, rng)
    assert shrunk.verified_min_distance == 4

    eye = identity_code_provider()
    assert eye(5, rng).verified_min_distance == 1

    with pytest.raises(CodeError):
        block_repetition_provider(4)
    with pytest.raises(CodeError):
        block_repetition_provider(4, t=2, ratio_d=0.1)


def test_json_round_trip():
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    text = code_to_json(G)
    back = code_from_json(text)
    assert np.array_equal(back.rows, G.rows)
    assert back.verified_min_distance == 3
    tampered = text.replace('"d": 3', '"d": 4')
    with pytest.raises(CodeError):
        code_from_json(tampered)


def test_rows_are_write_locked():
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    with pytest.raises(ValueError):
        G.rows[0, 0] = 0


def _dense_codebook(rows: np.ndarray) -> np.ndarray:
    k = rows.shape[0]
    msgs = (np.arange(1 << k)[:, None] >> np.arange(k)[None, :]) & 1
    return (msgs.astype(np.uint8) @ rows) & 1


# n = 63, 64, 65 and > 128 straddle the 64-bit word boundaries of the packed
# codebook; the k = 17 example spans two enumeration blocks
@settings(max_examples=60, deadline=None)
@given(
    n=st.sampled_from([5, 9, 12, 63, 64, 65, 130, 200]),
    k=st.integers(1, 12),
    seed=st.integers(0, 2**32 - 1),
    threshold=st.integers(1, 201),
)
@example(n=65, k=ENUMERATION_MAX_K + 1, seed=2024, threshold=3)
def test_packed_codebook_matches_dense_reference(n, k, seed, threshold):
    assume(k <= n)
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, 2, size=(k, n), dtype=np.uint8)
    dense = _dense_codebook(rows)
    weights = dense.sum(axis=1)
    full_rank = bool((weights[1:] > 0).all())
    assert (_gf2_rank(rows) == k) == full_rank
    assume(full_rank)

    G = GeneratorMatrix.from_rows(rows)
    d = int(weights[1:].min())
    assert G.verified_min_distance == d
    assert min_distance(G) == d
    assert _scan_min_weight(rows, abort_below=threshold) == (None if d < threshold else d)
    if k <= ENUMERATION_MAX_K:
        assert np.array_equal(codewords(G), dense)
    else:
        with pytest.raises(UnsupportedScale):
            codewords(G)

    c = rng.integers(0, 2, size=n, dtype=np.uint8)
    dist = (dense ^ c).sum(axis=1)
    for d0 in (int(dist.min()), int(rng.integers(0, n + 1))):
        assert count_codewords_at_distance(G, c, d0) == int(np.count_nonzero(dist == d0))


def _dense_null_space(rows: np.ndarray) -> np.ndarray:
    """Null space over GF(2) by uint8 row reduction, one basis row per free column."""
    m = rows.copy()
    pivots = []
    for col in range(m.shape[1]):
        r = len(pivots)
        hits = np.flatnonzero(m[r:, col])
        if hits.size == 0:
            continue
        m[[r, r + hits[0]]] = m[[r + hits[0], r]]
        for i in np.flatnonzero(m[:, col]):
            if i != r:
                m[i] ^= m[r]
        pivots.append(col)
    basis = []
    for f in (c for c in range(m.shape[1]) if c not in pivots):
        h = np.zeros(m.shape[1], dtype=np.uint8)
        h[f] = 1
        for i, p in enumerate(pivots):
            h[p] = m[i, f]
        basis.append(h)
    return np.array(basis, dtype=np.uint8).reshape(-1, m.shape[1])


@settings(max_examples=60, deadline=None)
@given(n=st.integers(5, 65), k=st.integers(1, 24), seed=st.integers(0, 2**32 - 1))
@example(n=9, k=9, seed=1)  # k = n: C-perp is {0}
def test_parity_check_spans_the_dual_code(n, k, seed):
    assume(k <= n)
    rows = np.random.default_rng(seed).integers(0, 2, size=(k, n), dtype=np.uint8)
    assume(_gf2_rank(rows) == k)
    G = GeneratorMatrix(rows=rows, n=n, k=k, verified_min_distance=0)  # distance unused
    H = parity_check(G)
    assert H.shape == (n - k, n)
    assert _gf2_rank(H) == n - k
    assert not ((G.rows.astype(np.int64) @ H.T.astype(np.int64)) & 1).any()
    dense = _dense_null_space(rows)
    assert _gf2_rank(np.vstack([H, dense])) == n - k
    if n - k <= 10:
        dual = dual_codewords(G)
        assert np.array_equal(dual, _dense_codebook(H))
        assert len({w.tobytes() for w in dual}) == 1 << (n - k)


def test_dual_codewords_of_hamming_code():
    G = GeneratorMatrix.from_rows(HAMMING_7_4)
    dual = dual_codewords(G)
    # the dual of the [7,4,3] Hamming code is the [7,3,4] simplex code
    assert sorted(dual.sum(axis=1)) == [0] + [4] * 7
    assert not ((codewords(G).astype(np.int64) @ dual.T) & 1).any()
