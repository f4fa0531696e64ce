"""The compute-core fast path (repro.nn.compute + fused attention).

Covers the mask cache (hits, eviction, immutability, and bit-equality
of the combined mask against the reference construction including the
fully-masked-row diagonal fix), the scratch pool (reuse + thread
isolation), equivalence of the attention layer and FFN with the seed's
op-for-op ``Tensor`` composition (kept here as the oracle) from
identical parameters, the no-grad body against the grad body, and the
refusal of the retired three-projection Q/K/V state-dict layout.
"""

import threading

import numpy as np
import pytest

from repro.nn import compute
from repro.nn import functional as F
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.serialization import CheckpointError, load_into
from repro.nn.tensor import Tensor, no_grad
from repro.nn.transformer import PositionwiseFeedForward, TransformerEncoder
from repro.runtime.checkpointing import load_model_state


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
        mask |= np.triu(np.ones((length, length), dtype=bool), k=1)
    mask |= key_padding_mask[:, None, None, :]
    fully_masked = mask.all(axis=-1, keepdims=True)
    diagonal = np.eye(length, dtype=bool)[None, None, :, :]
    return np.where(fully_masked & diagonal, False, mask)


class TestMaskCache:
    def test_causal_mask_values(self):
        cache = compute.MaskCache()
        np.testing.assert_array_equal(
            cache.causal(5), np.triu(np.ones((5, 5), dtype=bool), k=1)
        )

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
        cache = compute.MaskCache()
        for length in range(1, cache.maxsize + 1):
            cache.causal(length)
        cache.causal(1)  # refresh 1 so 2 is the eviction candidate
        cache.causal(cache.maxsize + 1)  # evicts 2
        assert len(cache) == cache.maxsize
        before = cache.info()["misses"]
        cache.causal(1)
        assert cache.info()["misses"] == before
        cache.causal(2)
        assert cache.info()["misses"] == before + 1

    def test_clear_resets_counters(self):
        cache = compute.MaskCache()
        cache.causal(3)
        cache.causal(3)
        cache.clear()
        assert len(cache) == 0
        assert cache.info()["hits"] == 0 and cache.info()["misses"] == 0


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
        pool = compute.ScratchPool()
        for tag in range(pool.max_entries + 1):
            pool.get(str(tag), (1,), np.float64)
        assert len(pool._entries()) == pool.max_entries

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


def make_attention(dim=8, heads=2, seed=3):
    """A float64 layer: the oracle compares compositions, not precisions."""
    return MultiHeadSelfAttention(
        dim=dim, num_heads=heads, dropout=0.0, rng=np.random.default_rng(seed)
    ).to_dtype(np.float64)


def reference_attention(module, x, causal, key_padding_mask=None):
    """The seed's op-for-op attention composition on ``module``'s weights:
    three sliced projections, a per-call mask, ``masked_fill`` + ``softmax``.

    Returns the output Tensor.
    """
    batch, length, __ = x.shape
    weight, bias, d = module.qkv_proj.weight, module.qkv_proj.bias, module.dim

    def heads(t):
        shape = (batch, length, module.num_heads, module.head_dim)
        return t.reshape(*shape).transpose(0, 2, 1, 3)

    q = heads(x.matmul(weight[:, :d]) + bias[:d])
    k = heads(x.matmul(weight[:, d : 2 * d]) + bias[d : 2 * d])
    v = heads(x.matmul(weight[:, 2 * d :]) + bias[2 * d :])
    scale = 1.0 / float(np.sqrt(module.head_dim))
    scores = q.matmul(k.swapaxes(-1, -2)) * scale
    if key_padding_mask is None:
        key_padding_mask = np.zeros((batch, length), dtype=bool)
    mask = reference_combined_mask(causal, key_padding_mask, length)
    probs = F.softmax(scores.masked_fill(mask, -1e9))
    context = probs.matmul(v).transpose(0, 2, 1, 3).reshape(batch, length, d)
    out = context.matmul(module.out_proj.weight) + module.out_proj.bias
    return out


def reference_ffn(module, x):
    """``relu(fc1(x))`` then ``fc2``, each linear as ``matmul`` + bias."""
    hidden = F.relu(x.matmul(module.fc1.weight) + module.fc1.bias)
    return hidden.matmul(module.fc2.weight) + module.fc2.bias


def forward_and_grads(module, run, x):
    module.zero_grad()
    out = run(Tensor(x.copy()))
    (out * Tensor(np.ones_like(out.data))).sum().backward()
    return out.data.copy(), {n: p.grad.copy() for n, p in module.named_parameters()}


def padded(batch, length):
    """Left padding of two on row 1 and a fully padded last row."""
    padding = np.zeros((batch, length), dtype=bool)
    padding[1, :2] = True
    padding[-1, :] = True  # exercises the NaN-row diagonal fix
    return padding


class TestFusedEquivalence:
    """The layers and the seed composition are the same function, bit for bit."""

    @pytest.mark.parametrize("use_padding", [False, True])
    def test_attention_forward_and_grads_match(self, use_padding):
        x = np.random.default_rng(5).normal(size=(3, 6, 8))
        padding = padded(3, 6) if use_padding else None
        module = make_attention()
        module.eval()
        fused = forward_and_grads(
            module, lambda t: module(t, causal=True, key_padding_mask=padding), x
        )
        reference = forward_and_grads(
            module, lambda t: reference_attention(module, t, True, padding), x
        )
        np.testing.assert_array_equal(fused[0], reference[0])
        for name in fused[1]:
            np.testing.assert_allclose(
                fused[1][name], reference[1][name], rtol=0, atol=1e-12, err_msg=name
            )

    def test_inference_fast_path_matches_grad_path(self):
        module = make_attention()
        module.eval()
        x = np.random.default_rng(6).normal(size=(2, 5, 8))
        with no_grad():
            fast = module(Tensor(x), causal=True)
        slow = module(Tensor(x), causal=True)
        assert not fast._parents  # no autograd graph attached
        np.testing.assert_array_equal(fast.data, slow.data)
        for causal in (True, False):
            padding = padded(2, 5)
            with no_grad():
                fast = module(Tensor(x), causal=causal, key_padding_mask=padding)
            slow = module(Tensor(x), causal=causal, key_padding_mask=padding)
            np.testing.assert_array_equal(fast.data, slow.data, err_msg=str(causal))

        # A 2-layer encoder with a fully padded row, in both precisions.
        padding = padded(3, 6)
        for dtype in (np.float64, np.float32):
            encoder = TransformerEncoder(
                2, 8, 2, hidden_dim=16, dropout=0.2, rng=np.random.default_rng(4)
            )
            encoder.eval().to_dtype(dtype)
            x = np.random.default_rng(5).normal(size=(3, 6, 8)).astype(dtype)
            with no_grad():
                fast = encoder(Tensor(x), key_padding_mask=padding)
            slow = encoder(Tensor(x), key_padding_mask=padding)
            assert fast.data.dtype == dtype
            np.testing.assert_array_equal(fast.data, slow.data, err_msg=str(dtype))

    def test_inference_fast_path_reuses_scratch(self):
        module = make_attention()
        module.eval()
        x = Tensor(np.random.default_rng(7).normal(size=(2, 5, 8)))
        with no_grad():
            module(x, causal=True)
            buffer = compute.SCRATCH.get("attn.scores", (2, 2, 5, 5), np.float64)
            module(x, causal=True)
            assert compute.SCRATCH.get("attn.scores", (2, 2, 5, 5), np.float64) is buffer

    def test_ffn_matches_reference(self):
        x = np.random.default_rng(8).normal(size=(2, 4, 8))
        module = PositionwiseFeedForward(
            dim=8, hidden_dim=16, rng=np.random.default_rng(9)
        ).to_dtype(np.float64)
        fused = forward_and_grads(module, module, x)
        reference = forward_and_grads(module, lambda t: reference_ffn(module, t), x)
        np.testing.assert_array_equal(fused[0], reference[0])
        for name in fused[1]:
            np.testing.assert_allclose(
                fused[1][name], reference[1][name], rtol=0, atol=1e-10, err_msg=name
            )


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
            load_into(target, load_model_state(path)[0], str(path))
        for key, value in target.state_dict().items():
            np.testing.assert_array_equal(value, before[key], err_msg=key)


