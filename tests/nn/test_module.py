"""Module/Parameter registration, traversal, modes and state dicts."""

import numpy as np
import pytest

from repro.nn.layers import Dropout, Linear
from repro.nn.module import Module, Parameter


class Leaf(Module):
    def __init__(self):
        super().__init__()
        self.weight = Parameter(np.ones((2, 2)))
        self.bias = Parameter(np.zeros(2))

    def forward(self, x):
        return x


class Tree(Module):
    def __init__(self):
        super().__init__()
        self.left = Leaf()
        self.right = Leaf()
        self.scale = Parameter(np.ones(1))

    def forward(self, x):
        return x


class TestRegistration:
    def test_parameters_found(self):
        leaf = Leaf()
        assert len(list(leaf.parameters())) == 2

    def test_nested_parameters_found(self):
        tree = Tree()
        assert len(list(tree.parameters())) == 5

    def test_named_parameters_dotted(self):
        names = {name for name, __ in Tree().named_parameters()}
        assert names == {
            "left.weight",
            "left.bias",
            "right.weight",
            "right.bias",
            "scale",
        }

    def test_modules_iteration(self):
        mods = list(Tree().modules())
        assert len(mods) == 3

    def test_explicit_registration(self):
        m = Module()
        m.add_module("child", Leaf())
        assert len(list(m.parameters())) == 2


class TestModes:
    def test_train_eval_recursive(self):
        tree = Tree()
        tree.eval()
        assert all(not m.training for m in tree.modules())
        tree.train()
        assert all(m.training for m in tree.modules())

    def test_dropout_respects_eval(self):
        from repro.nn.tensor import Tensor

        drop = Dropout(0.9, rng=np.random.default_rng(0))
        x = Tensor(np.ones((4, 4)))
        drop.eval()
        np.testing.assert_array_equal(drop(x).data, x.data)

    def test_zero_grad(self):
        leaf = Leaf()
        for p in leaf.parameters():
            p.grad = np.ones_like(p.data)
        leaf.zero_grad()
        assert all(p.grad is None for p in leaf.parameters())


class TestStateDict:
    def test_round_trip(self):
        a, b = Tree(), Tree()
        for p in a.parameters():
            p.data += 3.0
        b.load_state_dict(a.state_dict())
        for (na, pa), (nb, pb) in zip(a.named_parameters(), b.named_parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_state_dict_copies(self):
        leaf = Leaf()
        state = leaf.state_dict()
        state["weight"][:] = 99.0
        assert not np.any(leaf.weight.data == 99.0)

    def test_strict_missing_key_raises(self):
        state = Leaf().state_dict()
        del state["bias"]
        with pytest.raises(KeyError):
            Leaf().load_state_dict(state)

    def test_strict_unexpected_key_raises(self):
        state = Leaf().state_dict()
        state["ghost"] = np.zeros(1)
        with pytest.raises(KeyError):
            Leaf().load_state_dict(state)

    def test_shape_mismatch_raises(self):
        state = Leaf().state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            Leaf().load_state_dict(state)

    def test_forward_not_implemented(self):
        with pytest.raises(NotImplementedError):
            Module()(1)


class TestCallProtocol:
    def test_call_invokes_forward(self):
        class Doubler(Module):
            def forward(self, x):
                return x * 2

        assert Doubler()(21) == 42

    def test_linear_repr(self):
        assert "Linear(3, 4" in repr(Linear(3, 4))
