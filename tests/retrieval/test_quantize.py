"""Property tests for the compressed representations (ISSUE 7).

The quantizers back the IVF candidate-scoring stage; these properties
are what makes exact reranking sound:

* int8 round-trip error is bounded by half a quantization step per
  dimension, so compressed scores stay within a computable band of the
  true scores;
* PQ assignments are *optimal* — no other codeword in a subspace's
  codebook reconstructs the subvector better — so ADC scoring degrades
  only with codebook resolution, never with assignment bugs.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.retrieval import Int8Quantizer, ProductQuantizer, make_index

from tests.retrieval.conftest import make_item_matrix

FINITE = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


def matrices(min_rows=2, max_rows=24, min_cols=1, max_cols=12):
    return arrays(
        dtype=np.float64,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=FINITE,
    )


class TestInt8RoundTrip:
    @given(matrix=matrices())
    @settings(max_examples=60, deadline=None)
    def test_round_trip_error_within_half_step(self, matrix):
        quantizer = Int8Quantizer().fit(matrix)
        decoded = quantizer.decode(quantizer.encode(matrix))
        # Fitted on the same matrix, nothing clips: the error is pure
        # rounding, at most half a step (scale / 2) per dimension.
        bound = quantizer.scale / 2.0 * (1.0 + 1e-9) + 1e-12
        assert np.all(np.abs(decoded - matrix) <= bound)

    @given(matrix=matrices())
    @settings(max_examples=30, deadline=None)
    def test_codes_are_int8_and_deterministic(self, matrix):
        quantizer = Int8Quantizer().fit(matrix)
        codes = quantizer.encode(matrix)
        assert codes.dtype == np.int8
        assert np.abs(codes.astype(np.int64)).max(initial=0) <= 127
        assert np.array_equal(codes, quantizer.encode(matrix))

    def test_zero_column_gets_unit_scale(self):
        matrix = np.zeros((5, 3))
        matrix[:, 0] = [1.0, -2.0, 3.0, -4.0, 5.0]
        quantizer = Int8Quantizer().fit(matrix)
        assert quantizer.scale[1] == 1.0 and quantizer.scale[2] == 1.0
        assert np.all(quantizer.encode(matrix)[:, 1:] == 0)

    @given(matrix=matrices(min_rows=3, min_cols=2))
    @settings(max_examples=30, deadline=None)
    def test_scores_match_decoded_inner_products(self, matrix):
        quantizer = Int8Quantizer().fit(matrix)
        codes = quantizer.encode(matrix)
        query = matrix[0]
        via_scores = quantizer.scores(query, codes)
        via_decode = quantizer.decode(codes) @ query
        assert np.allclose(via_scores, via_decode, rtol=1e-9, atol=1e-9)

    def test_state_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(3)
        matrix = rng.normal(size=(20, 6))
        quantizer = Int8Quantizer().fit(matrix)
        restored = Int8Quantizer.from_state(quantizer.state())
        assert np.array_equal(restored.scale, quantizer.scale)
        assert np.array_equal(restored.encode(matrix), quantizer.encode(matrix))


class TestProductQuantizer:
    @given(
        seed=st.integers(0, 2**16),
        n=st.integers(8, 64),
        m=st.sampled_from([1, 2, 4]),
        continued=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_assignment_is_nearest_codeword(self, seed, n, m, continued):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, 8))
        quantizer = ProductQuantizer(m=m, iters=4, seed=0).fit(matrix)
        if continued:  # one step from those codebooks, on a moved matrix
            matrix = matrix + rng.normal(scale=0.3, size=matrix.shape)
            quantizer = ProductQuantizer(m=m, iters=4, seed=0).fit(
                matrix, init=quantizer.codebooks
            )
        codes = quantizer.encode(matrix)
        subvectors = matrix.reshape(n, m, 8 // m)
        for sub in range(m):
            codebook = quantizer.codebooks[sub]  # (256, ds)
            chosen = codebook[codes[:, sub].astype(np.int64)]
            chosen_dist = ((subvectors[:, sub, :] - chosen) ** 2).sum(axis=1)
            all_dist = (
                (subvectors[:, sub, :, None] - codebook.T[None]) ** 2
            ).sum(axis=1)
            assert np.all(chosen_dist <= all_dist.min(axis=1) + 1e-9)

    @pytest.mark.parametrize("num_items", [600, 120])
    def test_fit_codes_are_encode(self, num_items):
        # The codes come from the fit's last k-means assignment, cold and
        # continued; they must be what encode computes from scratch.
        matrix = make_item_matrix(num_items=num_items)
        items = matrix[1:]
        quantizer = ProductQuantizer(m=4, iters=3, seed=1)
        assert np.array_equal(quantizer.fit_encode(items), quantizer.encode(items))
        moved = items + np.random.default_rng(2).normal(scale=0.2, size=items.shape)
        codes = quantizer.fit_encode(moved, init=quantizer.codebooks)
        assert np.array_equal(codes, quantizer.encode(moved))
        # The index adds the padding row's code in front of the fit's.
        index = make_index("ivf_pq", pq_m=4, kmeans_iters=3).build(matrix)
        arrays = index._artifact_arrays()
        codebooks = ProductQuantizer.from_state(arrays)
        assert np.array_equal(arrays["codes"], codebooks.encode(matrix))
        rebuilt = index.rebuild(matrix * 1.1)._artifact_arrays()
        codebooks = ProductQuantizer.from_state(rebuilt)
        assert np.array_equal(rebuilt["codes"], codebooks.encode(matrix * 1.1))

    def test_rejects_indivisible_dim(self):
        with np.testing.assert_raises(ValueError):
            ProductQuantizer(m=3).fit(np.zeros((4, 8)))

    def test_reconstruction_beats_coarser_codebooks_on_train_data(self):
        # With >= as many codewords as distinct rows, PQ is lossless.
        rng = np.random.default_rng(11)
        matrix = rng.normal(size=(40, 8))
        quantizer = ProductQuantizer(m=2, iters=8, seed=0).fit(matrix)
        decoded = quantizer.decode(quantizer.encode(matrix))
        assert np.allclose(decoded, matrix, atol=1e-8)

    def test_scores_match_decoded_inner_products(self):
        rng = np.random.default_rng(5)
        matrix = rng.normal(size=(50, 12))
        quantizer = ProductQuantizer(m=4, iters=4, seed=0).fit(matrix)
        codes = quantizer.encode(matrix)
        query = rng.normal(size=12)
        via_table = quantizer.scores(query, codes)
        via_decode = quantizer.decode(codes) @ query
        assert np.allclose(via_table, via_decode, rtol=1e-9, atol=1e-9)

    def test_state_round_trip_is_bit_identical(self):
        rng = np.random.default_rng(9)
        matrix = rng.normal(size=(30, 8))
        quantizer = ProductQuantizer(m=4, iters=4, seed=2).fit(matrix)
        restored = ProductQuantizer.from_state(quantizer.state())
        assert restored.m == quantizer.m
        assert np.array_equal(restored.codebooks, quantizer.codebooks)
        assert np.array_equal(restored.encode(matrix), quantizer.encode(matrix))
