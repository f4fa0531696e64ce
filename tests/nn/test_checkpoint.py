"""Model and optimizer state through the one artifact writer and reader.

``save_checkpoint`` writes the ``model/`` section serving reads; the
optimizer cases pack ``optim/`` next to it, as ``TrainingRuntime``
does, and restore both through ``section`` + ``load_into``.
"""

import numpy as np
import pytest

from repro.nn.checkpoint import save_checkpoint
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.optim import SGD, Adam
from repro.nn.serialization import (
    CheckpointError,
    load_into,
    read_archive,
    section,
    write_archive,
)
from repro.nn.tensor import Tensor
from repro.runtime.checkpointing import load_model_state


class Net(Module):
    def __init__(self, seed=0):
        super().__init__()
        self.layer = Linear(4, 2, rng=np.random.default_rng(seed))

    def forward(self, x):
        return self.layer(x)


def train_steps(net, optimizer, steps, seed=0):
    rng = np.random.default_rng(seed)
    for __ in range(steps):
        x = rng.normal(size=(8, 4))
        loss = (net(Tensor(x)) ** 2).mean()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()


def save_training_state(path, net, optimizer):
    arrays = {f"model/{name}": values for name, values in net.state_dict().items()}
    arrays.update({f"optim/{name}": values for name, values in optimizer.state_dict().items()})
    write_archive(path, arrays)


def restore_training_state(path, net, optimizer):
    arrays = read_archive(path)
    load_into(net, section(arrays, "model"), str(path))
    load_into(optimizer, section(arrays, "optim"), str(path))


class TestCheckpointRoundTrip:
    def test_model_only(self, tmp_path):
        net = Net(seed=1)
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, net)
        other = Net(seed=99)
        state, step = load_model_state(path)
        load_into(other, state, str(path))
        assert step is None
        for (na, pa), (nb, pb) in zip(
            net.named_parameters(), other.named_parameters()
        ):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_adam_state_restored(self, tmp_path):
        net = Net()
        optimizer = Adam(net.parameters(), lr=0.01)
        train_steps(net, optimizer, 5)
        path = tmp_path / "ckpt.npz"
        save_training_state(path, net, optimizer)

        fresh_net = Net(seed=7)
        fresh_opt = Adam(fresh_net.parameters(), lr=0.5)
        restore_training_state(path, fresh_net, fresh_opt)
        assert fresh_opt.lr == 0.01
        restored = fresh_opt.state_dict()
        for name, values in optimizer.state_dict().items():
            np.testing.assert_array_equal(
                np.asarray(values), np.asarray(restored[name]), err_msg=name
            )

    def test_resume_equals_uninterrupted(self, tmp_path):
        """Train 10 steps straight vs. 5 + checkpoint + 5 — identical."""
        straight = Net()
        opt_straight = Adam(straight.parameters(), lr=0.05)
        train_steps(straight, opt_straight, 10, seed=3)

        first = Net()
        opt_first = Adam(first.parameters(), lr=0.05)
        rng = np.random.default_rng(3)
        for __ in range(5):
            x = rng.normal(size=(8, 4))
            loss = (first(Tensor(x)) ** 2).mean()
            opt_first.zero_grad()
            loss.backward()
            opt_first.step()
        path = tmp_path / "mid.npz"
        save_training_state(path, first, opt_first)

        resumed = Net(seed=42)
        opt_resumed = Adam(resumed.parameters(), lr=0.05)
        restore_training_state(path, resumed, opt_resumed)
        for __ in range(5):
            x = rng.normal(size=(8, 4))
            loss = (resumed(Tensor(x)) ** 2).mean()
            opt_resumed.zero_grad()
            loss.backward()
            opt_resumed.step()

        for (na, pa), (nb, pb) in zip(
            straight.named_parameters(), resumed.named_parameters()
        ):
            np.testing.assert_allclose(pa.data, pb.data, atol=1e-12)

    def test_extras_round_trip(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        write_archive(path, {"extra/epoch": 7, "extra/best_hr10": 0.42, "model/w": np.ones(2)})
        extras = {name: float(value) for name, value in section(read_archive(path), "extra").items()}
        assert extras == {"epoch": 7.0, "best_hr10": 0.42}

    def test_missing_optimizer_state_raises(self, tmp_path):
        net = Net()
        path = tmp_path / "no_opt.npz"
        save_checkpoint(path, net)
        with pytest.raises(ValueError):
            restore_training_state(path, Net(), Adam(Net().parameters(), lr=0.1))

    def test_kind_mismatch_raises(self, tmp_path):
        net = Net()
        sgd = SGD(net.parameters(), lr=0.1)
        path = tmp_path / "sgd.npz"
        save_training_state(path, net, sgd)
        adam_net = Net()
        with pytest.raises(ValueError):
            restore_training_state(path, adam_net, Adam(adam_net.parameters(), lr=0.1))


class WiderNet(Module):
    def __init__(self):
        super().__init__()
        self.layer = Linear(8, 3, rng=np.random.default_rng(0))

    def forward(self, x):
        return self.layer(x)


class TestCheckpointErrors:
    """Mismatch and corruption failures name the offending file."""

    def test_checkpoint_error_is_a_value_error(self):
        assert issubclass(CheckpointError, ValueError)

    def test_shape_mismatch_names_the_path(self, tmp_path):
        path = tmp_path / "small.npz"
        save_checkpoint(path, Net())
        state, __ = load_model_state(path)
        with pytest.raises(CheckpointError, match="small.npz") as excinfo:
            load_into(WiderNet(), state, str(path))
        assert "different configuration" in str(excinfo.value)

    def test_kind_mismatch_names_the_path(self, tmp_path):
        net = Net()
        path = tmp_path / "sgd.npz"
        save_training_state(path, net, SGD(net.parameters(), lr=0.1))
        other = Net()
        with pytest.raises(CheckpointError, match="sgd.npz"):
            restore_training_state(path, other, Adam(other.parameters(), lr=0.1))

    def test_truncated_archive_names_the_path(self, tmp_path):
        path = tmp_path / "cut.npz"
        save_checkpoint(path, Net())
        with open(path, "r+b") as handle:
            handle.truncate(20)
        with pytest.raises(CheckpointError, match="cut.npz"):
            load_model_state(path)
