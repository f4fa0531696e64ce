"""The compute-core fast path (repro.nn.compute + fused attention).

Covers the mask cache (hits, eviction, immutability, and bit-equality
of the combined mask against the reference construction including the
fully-masked-row diagonal fix), the scratch pool (reuse + thread
isolation), fused-vs-reference equivalence for the full attention layer
and FFN from identical parameters, the no-grad inference fast path, and
the refusal of the retired three-projection Q/K/V state-dict layout.
"""

import threading

import numpy as np
import pytest

from repro.nn import compute
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention, causal_mask
from repro.nn.checkpoint import load_checkpoint
from repro.nn.serialization import CheckpointError
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import PositionwiseFeedForward


@pytest.fixture(autouse=True)
def fresh_caches():
    compute.clear_caches()
    yield
    compute.clear_caches()


def reference_combined_mask(causal, key_padding_mask, length):
    """The seed's per-call mask construction, verbatim."""
    batch = key_padding_mask.shape[0]
    mask = np.zeros((batch, 1, length, length), dtype=bool)
    if causal:
        mask |= causal_mask(length)[None, None, :, :]
    mask |= key_padding_mask[:, None, None, :]
    fully_masked = mask.all(axis=-1, keepdims=True)
    diagonal = np.eye(length, dtype=bool)[None, None, :, :]
    return np.where(fully_masked & diagonal, False, mask)


class TestMaskCache:
    def test_causal_mask_values(self):
        cache = compute.MaskCache()
        np.testing.assert_array_equal(cache.causal(5), causal_mask(5))

    def test_hit_returns_same_object(self):
        cache = compute.MaskCache()
        first = cache.causal(6)
        second = cache.causal(6)
        assert first is second
        assert cache.info()["hits"] == 1
        assert cache.info()["misses"] == 1

    def test_cached_masks_are_read_only(self):
        cache = compute.MaskCache()
        mask = cache.causal(4)
        with pytest.raises(ValueError):
            mask[0, 0] = True

    @pytest.mark.parametrize("causal", [True, False])
    def test_combined_matches_reference(self, causal):
        rng = np.random.default_rng(0)
        cache = compute.MaskCache()
        for __ in range(20):
            batch, length = int(rng.integers(1, 5)), int(rng.integers(1, 7))
            # Left-padding patterns plus arbitrary ones, including
            # fully-padded rows (the NaN-row diagonal fix).
            kpm = rng.random((batch, length)) < 0.4
            kpm[0] = True
            np.testing.assert_array_equal(
                cache.combined(causal, kpm, length),
                reference_combined_mask(causal, kpm, length),
            )

    def test_distinct_padding_patterns_get_distinct_entries(self):
        cache = compute.MaskCache()
        a = np.zeros((2, 4), dtype=bool)
        b = np.zeros((2, 4), dtype=bool)
        b[0, 0] = True
        mask_a = cache.combined(True, a, 4)
        mask_b = cache.combined(True, b, 4)
        assert not np.array_equal(mask_a, mask_b)

    def test_lru_eviction(self):
        cache = compute.MaskCache(maxsize=2)
        cache.causal(2)
        cache.causal(3)
        cache.causal(2)  # refresh 2 so 3 is the eviction candidate
        cache.causal(4)  # evicts 3
        assert len(cache) == 2
        before = cache.info()["misses"]
        cache.causal(3)
        assert cache.info()["misses"] == before + 1

    def test_clear_resets_counters(self):
        cache = compute.MaskCache()
        cache.causal(3)
        cache.causal(3)
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["hits"] == 0 and cache.info()["misses"] == 0

    def test_rejects_nonpositive_maxsize(self):
        with pytest.raises(ValueError):
            compute.MaskCache(maxsize=0)


class TestScratchPool:
    def test_same_key_reuses_buffer(self):
        pool = compute.ScratchPool()
        first = pool.get("scores", (2, 3), np.float64)
        second = pool.get("scores", (2, 3), np.float64)
        assert first is second

    def test_shape_and_dtype_key_separately(self):
        pool = compute.ScratchPool()
        base = pool.get("scores", (2, 3), np.float64)
        assert pool.get("scores", (2, 4), np.float64) is not base
        assert pool.get("scores", (2, 3), np.float32) is not base
        assert pool.get("probs", (2, 3), np.float64) is not base

    def test_eviction_bound(self):
        pool = compute.ScratchPool(max_entries=2)
        pool.get("a", (1,), np.float64)
        pool.get("b", (1,), np.float64)
        pool.get("c", (1,), np.float64)
        assert len(pool._entries()) == 2

    def test_buffers_are_thread_local(self):
        pool = compute.ScratchPool()
        mine = pool.get("scores", (2, 2), np.float64)
        theirs = {}

        def worker():
            theirs["buffer"] = pool.get("scores", (2, 2), np.float64)

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert theirs["buffer"] is not mine


class TestUseFused:
    def test_default_on_and_scoped_off(self):
        assert compute.fused_enabled()
        with compute.use_fused(False):
            assert not compute.fused_enabled()
            with compute.use_fused(True):
                assert compute.fused_enabled()
            assert not compute.fused_enabled()
        assert compute.fused_enabled()

    def test_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with compute.use_fused(False):
                raise RuntimeError("boom")
        assert compute.fused_enabled()


def make_attention(dim=8, heads=2, seed=3):
    return MultiHeadSelfAttention(
        dim=dim, num_heads=heads, dropout=0.0, rng=np.random.default_rng(seed)
    )


class TestFusedEquivalence:
    """Fused and reference paths are the same function, bit for bit."""

    @pytest.mark.parametrize("use_padding", [False, True])
    def test_attention_forward_and_grads_match(self, use_padding):
        x = np.random.default_rng(5).normal(size=(3, 6, 8))
        padding = None
        if use_padding:
            padding = np.zeros((3, 6), dtype=bool)
            padding[1, :2] = True
            padding[2, :] = True  # fully padded row exercises the NaN fix

        outputs, grads = [], []
        for fused in (True, False):
            module = make_attention()
            module.eval()
            with compute.use_fused(fused):
                module.zero_grad()
                out = module(Tensor(x.copy()), causal=True, key_padding_mask=padding)
                (out * Tensor(np.ones_like(out.data))).sum().backward()
            outputs.append(out.data.copy())
            grads.append({n: p.grad.copy() for n, p in module.named_parameters()})

        np.testing.assert_array_equal(outputs[0], outputs[1])
        for name in grads[0]:
            np.testing.assert_allclose(
                grads[0][name], grads[1][name], rtol=0, atol=1e-12, err_msg=name
            )

    def test_inference_fast_path_matches_grad_path(self):
        module = make_attention()
        module.eval()
        x = np.random.default_rng(6).normal(size=(2, 5, 8))
        with no_grad():
            fast = module(Tensor(x), causal=True)
        slow = module(Tensor(x), causal=True)
        assert not fast._parents  # no autograd graph attached
        np.testing.assert_allclose(fast.data, slow.data, rtol=0, atol=1e-12)

    def test_inference_fast_path_reuses_scratch(self):
        module = make_attention()
        module.eval()
        x = Tensor(np.random.default_rng(7).normal(size=(2, 5, 8)))
        with no_grad():
            module(x, causal=True)
            buffer = compute.SCRATCH.get("attn.scores", (2, 2, 5, 5), np.float64)
            module(x, causal=True)
            assert compute.SCRATCH.get("attn.scores", (2, 2, 5, 5), np.float64) is buffer

    @pytest.mark.parametrize("activation", ["relu", "gelu"])
    def test_ffn_matches_reference(self, activation):
        x = np.random.default_rng(8).normal(size=(2, 4, 8))
        outputs, grads = [], []
        for fused in (True, False):
            module = PositionwiseFeedForward(
                dim=8, hidden_dim=16, rng=np.random.default_rng(9), activation=activation
            )
            module.eval()
            with compute.use_fused(fused):
                module.zero_grad()
                out = module(Tensor(x.copy()))
                out.sum().backward()
            outputs.append(out.data.copy())
            grads.append({n: p.grad.copy() for n, p in module.named_parameters()})
        np.testing.assert_allclose(outputs[0], outputs[1], rtol=0, atol=1e-12)
        for name in grads[0]:
            np.testing.assert_allclose(
                grads[0][name], grads[1][name], rtol=0, atol=1e-10, err_msg=name
            )

    def test_ffn_rejects_unknown_activation(self):
        with pytest.raises(ValueError):
            PositionwiseFeedForward(
                dim=4, hidden_dim=8, rng=np.random.default_rng(0), activation="swish"
            )

    def test_return_probs_matches(self):
        x = np.random.default_rng(10).normal(size=(2, 4, 8))
        module = make_attention()
        module.eval()
        with compute.use_fused(True):
            out_f, probs_f = module(Tensor(x), causal=True, return_probs=True)
        with compute.use_fused(False):
            out_r, probs_r = module(Tensor(x), causal=True, return_probs=True)
        np.testing.assert_array_equal(out_f.data, out_r.data)
        np.testing.assert_array_equal(probs_f, probs_r)


class TestLegacyQKVLayoutRefused:
    def test_legacy_state_dict_is_refused_by_name(self, tmp_path):
        """The three-projection layout is no longer upgraded on load: it
        is refused by name, and nothing of it is loaded."""
        module = make_attention(seed=11)
        packed = module.state_dict()
        dim = module.dim
        legacy = {
            key: value
            for key, value in packed.items()
            if not key.startswith("qkv_proj.")
        }
        for i, proj in enumerate(("query_proj", "key_proj", "value_proj")):
            block = slice(i * dim, (i + 1) * dim)
            legacy[f"{proj}.weight"] = packed["qkv_proj.weight"][:, block]
            legacy[f"{proj}.bias"] = packed["qkv_proj.bias"][block]

        target = make_attention(seed=12)
        before = target.state_dict()
        with pytest.raises(KeyError, match=r"missing=\[.*'qkv_proj\.weight'"):
            target.load_state_dict(legacy)

        path = tmp_path / "legacy.npz"
        np.savez(path, **{f"model/{key}": value for key, value in legacy.items()})
        with pytest.raises(CheckpointError, match=r"qkv_proj\.weight"):
            load_checkpoint(path, target)
        for key, value in target.state_dict().items():
            np.testing.assert_array_equal(value, before[key], err_msg=key)


