"""GRU cell and layer."""

import numpy as np

from repro.nn.rnn import GRU, GRUCell
from repro.nn.tensor import Tensor
from tests.conftest import numeric_gradient

RNG = np.random.default_rng(3)


class TestGRUCell:
    def test_output_shape(self):
        cell = GRUCell(4, 6, rng=RNG)
        out = cell(Tensor(np.zeros((3, 4))), Tensor(np.zeros((3, 6))))
        assert out.shape == (3, 6)

    def test_zero_update_gate_limits(self):
        """With tiny weights, h' ≈ 0.5*n + 0.5*h (update gate ≈ 0.5)."""
        cell = GRUCell(2, 2, rng=np.random.default_rng(0))
        for param in cell.parameters():
            param.data[:] = 0.0
        h = np.array([[1.0, -1.0]])
        out = cell(Tensor(np.zeros((1, 2))), Tensor(h))
        # r=z=0.5, n=tanh(0)=0 → h' = 0.5*0 + 0.5*h
        np.testing.assert_allclose(out.data, 0.5 * h)

    def test_gradient_wrt_input(self):
        cell = GRUCell(3, 4, rng=np.random.default_rng(1))
        x_arr = RNG.normal(size=(2, 3))
        h_arr = RNG.normal(size=(2, 4))
        x = Tensor(x_arr, requires_grad=True)
        out = cell(x, Tensor(h_arr))
        seed = RNG.normal(size=out.shape)
        (out * Tensor(seed)).sum().backward()
        numeric = numeric_gradient(
            lambda a: cell(Tensor(a), Tensor(h_arr)).data, x_arr, seed
        )
        np.testing.assert_allclose(x.grad, numeric, atol=1e-6)

    def test_gradient_wrt_hidden(self):
        cell = GRUCell(3, 4, rng=np.random.default_rng(1))
        x_arr = RNG.normal(size=(2, 3))
        h_arr = RNG.normal(size=(2, 4))
        h = Tensor(h_arr, requires_grad=True)
        out = cell(Tensor(x_arr), h)
        seed = RNG.normal(size=out.shape)
        (out * Tensor(seed)).sum().backward()
        numeric = numeric_gradient(
            lambda a: cell(Tensor(x_arr), Tensor(a)).data, h_arr, seed
        )
        np.testing.assert_allclose(h.grad, numeric, atol=1e-6)


class TestGRULayer:
    def test_output_shape(self):
        gru = GRU(4, 6, rng=RNG)
        out = gru(Tensor(np.zeros((3, 5, 4))))
        assert out.shape == (3, 5, 6)

    def test_stacked_layers(self):
        gru = GRU(4, 6, num_layers=2, rng=RNG)
        assert len(gru.cells) == 2
        assert gru(Tensor(np.zeros((2, 3, 4)))).shape == (2, 3, 6)

    def test_step_mask_freezes_hidden(self):
        """Padded steps must carry the hidden state through unchanged."""
        gru = GRU(3, 4, rng=np.random.default_rng(2))
        rng = np.random.default_rng(5)
        x = rng.normal(size=(1, 4, 3))
        # Steps 0 and 1 are padding.
        mask = np.array([[0.0, 0.0, 1.0, 1.0]])
        out = gru(Tensor(x), step_mask=mask).data
        # Hidden after the padded prefix equals zero state (unchanged).
        np.testing.assert_allclose(out[0, 0], np.zeros(4))
        np.testing.assert_allclose(out[0, 1], np.zeros(4))
        assert not np.allclose(out[0, 2], np.zeros(4))

    def test_mask_equivalent_to_shorter_sequence(self):
        """A left-padded sequence must produce the same final hidden
        state as the unpadded sequence."""
        gru = GRU(3, 4, rng=np.random.default_rng(3))
        rng = np.random.default_rng(6)
        real = rng.normal(size=(1, 3, 3))
        padded = np.concatenate([np.zeros((1, 2, 3)), real], axis=1)
        mask = np.array([[0.0, 0.0, 1.0, 1.0, 1.0]])
        unpadded_out = gru(Tensor(real)).data[0, -1]
        padded_out = gru(Tensor(padded), step_mask=mask).data[0, -1]
        np.testing.assert_allclose(padded_out, unpadded_out, atol=1e-12)

    def test_gradients_flow_through_time(self):
        gru = GRU(3, 4, rng=np.random.default_rng(4))
        x = Tensor(RNG.normal(size=(2, 6, 3)), requires_grad=True)
        out = gru(x)
        out[:, -1, :].sum().backward()
        assert x.grad is not None
        # Early steps influence the final state → nonzero gradient there.
        assert np.abs(x.grad[:, 0, :]).sum() > 0

    def test_sequentiality(self):
        """Earlier inputs must influence later outputs (recurrence)."""
        gru = GRU(3, 4, rng=np.random.default_rng(5))
        rng = np.random.default_rng(7)
        x = rng.normal(size=(1, 4, 3))
        base = gru(Tensor(x)).data.copy()
        x2 = x.copy()
        x2[0, 0] += 2.0
        out = gru(Tensor(x2)).data
        assert not np.allclose(out[0, 3], base[0, 3])
