"""Shared fixtures for the test suite."""

import numpy as np
import pytest

from repro.data.log import InteractionLog
from repro.data.preprocessing import SequenceDataset
from repro.data.synthetic import SyntheticConfig, generate_log
from repro.nn.layers import Dropout


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(12345)


def make_tiny_dataset(
    num_users: int = 150, num_items: int = 80, seed: int = 0
) -> SequenceDataset:
    """A small but structured dataset that trains in seconds."""
    config = SyntheticConfig(
        num_users=num_users,
        num_items=num_items,
        num_interests=8,
        mean_length=9.0,
        interest_persistence=0.75,
        seed=seed,
    )
    return SequenceDataset.from_log(generate_log(config), name="tiny")


@pytest.fixture(scope="session")
def tiny_dataset() -> SequenceDataset:
    return make_tiny_dataset()


@pytest.fixture(scope="session")
def micro_log() -> InteractionLog:
    """A hand-written log with known 5-core behaviour."""
    # Users 0..4 interact heavily with items 10..14 (each item reaches
    # the 5-interaction threshold); user 9 and item 99 have too few
    # interactions and must be filtered out.
    users, items, times = [], [], []
    t = 0.0
    for user in range(5):
        for item in (10, 11, 12, 13, 14, 10, 11):
            users.append(user)
            items.append(item)
            times.append(t)
            t += 1.0
    users += [9, 9]
    items += [99, 10]
    times += [t, t + 1]
    return InteractionLog(np.asarray(users), np.asarray(items), np.asarray(times))


def numeric_gradient(fn, array, seed_grad, eps=1e-6):
    """Central-difference gradient of ``sum(fn(array) * seed_grad)``."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    for __ in it:
        idx = it.multi_index
        plus = array.copy()
        plus[idx] += eps
        minus = array.copy()
        minus[idx] -= eps
        grad[idx] = ((fn(plus) * seed_grad).sum() - (fn(minus) * seed_grad).sum()) / (
            2 * eps
        )
    return grad


def run_t_wide(encoder):
    """Make ``encoder``'s grad-mode forward the untrimmed oracle.

    ``forward`` becomes ``_embed(item_ids, 0)`` + ``transformer(...)``
    over all ``T`` positions and ``user_representation`` that forward's
    last row: no column cut.  Dropout masks are drawn at the shape a
    forward keeps, so trimmed and T-wide forwards agree only with
    dropout off (:func:`assert_same_step`).  Returns ``encoder``.
    """

    def forward(item_ids):
        hidden, padding_mask = encoder._embed(np.asarray(item_ids, dtype=np.int64), 0)
        return encoder.transformer(
            hidden, causal=encoder.causal, key_padding_mask=padding_mask
        )

    encoder.forward = forward
    encoder.user_representation = lambda item_ids: forward(item_ids)[:, -1, :]
    return encoder


def without_dropout(model):
    """Set every dropout rate in ``model`` to 0 and leave it in train
    mode, so its grad-mode bodies still run.  Returns ``model``."""
    for module in model.modules():
        if isinstance(module, Dropout):
            module.rate = 0.0
    return model


#: (dtype, loss tolerance, gradient tolerance) for trimmed-vs-T-wide
#: comparisons: the two sum the same terms with different zero padding
#: between them, so only the rounding of the last bits may differ.
TRIM_TOLERANCES = [
    pytest.param(np.float32, 1e-6, 1e-5, id="float32"),
    pytest.param(np.float64, 1e-12, 1e-10, id="float64"),
]


def assert_same_step(trimmed, oracle, loss_of, loss_tol, grad_tol):
    """One loss + backward on two identically seeded models agrees, in
    train mode with every dropout rate at 0: the loss and every
    parameter gradient.  (The dropout draws themselves are pinned by
    ``tests/models/test_sasrec.py::TestKeptShapeDropoutDraws``.)"""
    for model in (trimmed, oracle):
        without_dropout(model)
        assert model.training
    loss, expected = loss_of(trimmed), loss_of(oracle)
    np.testing.assert_allclose(loss.item(), expected.item(), rtol=0, atol=loss_tol)
    loss.backward()
    expected.backward()
    for (name, param), reference in zip(trimmed.named_parameters(), oracle.parameters()):
        if reference.grad is None:
            assert param.grad is None, name
            continue
        scale = max(1.0, float(np.abs(reference.grad).max()))
        np.testing.assert_allclose(
            param.grad, reference.grad, rtol=0, atol=grad_tol * scale, err_msg=name
        )
