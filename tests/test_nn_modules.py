"""Tests for the Module system and the individual layers."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor
from repro.nn.module import Module, Parameter

RNG = np.random.default_rng(9)


class _ToyNet(Module):
    def __init__(self):
        super().__init__()
        self.first = nn.Linear(4, 8, rng=RNG)
        self.second = nn.Linear(8, 2, rng=RNG)
        self.register_buffer("counter", np.zeros(1))

    def forward(self, x):
        return self.second(self.first(x).relu())


class TestModuleSystem:
    def test_parameters_are_registered_recursively(self):
        net = _ToyNet()
        names = [name for name, _ in net.named_parameters()]
        assert "first.weight" in names and "second.bias" in names
        assert len(net.parameters()) == 4

    def test_buffers_registered(self):
        net = _ToyNet()
        assert dict(net.named_buffers())["counter"].shape == (1,)

    def test_state_dict_roundtrip(self):
        net = _ToyNet()
        state = net.state_dict()
        other = _ToyNet()
        other.load_state_dict(state)
        for (_, a), (_, b) in zip(net.named_parameters(), other.named_parameters()):
            assert np.allclose(a.data, b.data)

    def test_state_dict_is_a_copy(self):
        net = _ToyNet()
        state = net.state_dict()
        state["first.weight"][...] = 0.0
        assert not np.allclose(net.first.weight.data, 0.0)

    def test_load_state_dict_shape_mismatch_raises(self):
        net = _ToyNet()
        state = net.state_dict()
        state["first.weight"] = np.zeros((1, 1))
        with pytest.raises(ValueError):
            net.load_state_dict(state)

    def test_load_state_dict_missing_key_strict(self):
        net = _ToyNet()
        with pytest.raises(KeyError):
            net.load_state_dict({}, strict=True)
        net.load_state_dict({}, strict=False)

    def test_load_state_dict_unexpected_key_strict(self):
        net = _ToyNet()
        state = net.state_dict()
        state["first.extra"] = np.zeros(3)
        with pytest.raises(KeyError, match="first.extra"):
            net.load_state_dict(state, strict=True)
        net.load_state_dict(state, strict=False)

    def test_frozen_parameters_are_not_state(self):
        net = _ToyNet()
        net.first.freeze()
        assert sorted(net.state_dict()) == ["buffer::counter", "second.bias", "second.weight"]
        frozen = net.first.weight.data.copy()
        with pytest.raises(KeyError, match="first.weight"):
            net.load_state_dict({**net.state_dict(), "first.weight": np.zeros_like(frozen)})
        np.testing.assert_array_equal(net.first.weight.data, frozen)

    def test_train_eval_propagates(self):
        net = _ToyNet()
        net.eval()
        assert not net.first.training
        net.train()
        assert net.second.training

    def test_freeze_unfreeze(self):
        net = _ToyNet()
        net.freeze()
        assert all(not p.requires_grad for p in net.parameters())
        net.unfreeze()
        assert all(p.requires_grad for p in net.parameters())

    def test_zero_grad_clears(self):
        net = _ToyNet()
        out = net(Tensor(RNG.standard_normal((3, 4))))
        out.sum().backward()
        assert net.first.weight.grad is not None
        net.zero_grad()
        assert net.first.weight.grad is None

    def test_num_parameters(self):
        net = _ToyNet()
        assert net.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_sequential_runs_in_order(self):
        seq = nn.Sequential(nn.Linear(3, 5, rng=RNG), nn.ReLU(), nn.Linear(5, 2, rng=RNG))
        assert len(seq) == 3
        assert seq(Tensor(RNG.standard_normal((4, 3)))).shape == (4, 2)
        assert isinstance(seq[1], nn.ReLU)

    def test_module_list_registration(self):
        layers = nn.ModuleList([nn.Linear(2, 2, rng=RNG) for _ in range(3)])
        assert len(layers) == 3
        assert len([name for name, _ in layers.named_parameters()]) == 6
        with pytest.raises(NotImplementedError):
            layers(Tensor(np.zeros((1, 2))))


class TestLayers:
    def test_linear_shapes_and_grad(self):
        layer = nn.Linear(6, 3, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((5, 6)), requires_grad=True))
        assert out.shape == (5, 3)
        out.sum().backward()
        assert layer.weight.grad.shape == (3, 6)

    def test_linear_no_bias(self):
        layer = nn.Linear(4, 2, bias=False, rng=RNG)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_conv2d_layer(self):
        layer = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=RNG)
        out = layer(Tensor(RNG.standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_batchnorm_updates_running_stats_only_in_training(self):
        bn = nn.BatchNorm2d(4)
        x = Tensor(RNG.standard_normal((8, 4, 3, 3)) + 3.0)
        bn(x)
        after_train = bn.running_mean.copy()
        assert not np.allclose(after_train, 0.0)
        bn.eval()
        bn(x)
        assert np.allclose(bn.running_mean, after_train)

    def test_layernorm_learnable_params(self):
        ln = nn.LayerNorm(16)
        assert len(ln.parameters()) == 2
        out = ln(Tensor(RNG.standard_normal((2, 5, 16))))
        assert out.shape == (2, 5, 16)

    def test_activations_shapes(self):
        x = Tensor(RNG.standard_normal((3, 4)))
        for layer in (nn.ReLU(), nn.GELU(), nn.Tanh(), nn.Sigmoid(), nn.Identity()):
            assert layer(x).shape == (3, 4)

    def test_pooling_layers(self):
        x = Tensor(RNG.standard_normal((2, 3, 8, 8)))
        assert nn.MaxPool2d(2)(x).shape == (2, 3, 4, 4)
        assert nn.AvgPool2d(4)(x).shape == (2, 3, 2, 2)
        assert nn.GlobalAvgPool2d()(x).shape == (2, 3)

    def test_dropout_validation_and_modes(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)
        drop = nn.Dropout(0.5, rng=RNG)
        x = Tensor(np.ones((50, 50)))
        assert (drop(x).data == 0).any()
        drop.eval()
        assert np.allclose(drop(x).data, 1.0)

    def test_embedding_lookup_and_bounds(self):
        emb = nn.Embedding(10, 6, rng=RNG)
        out = emb(np.array([0, 3, 9]))
        assert out.shape == (3, 6)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_mlp_hidden_stack(self):
        mlp = nn.MLP(8, [16, 16], 4, activation="relu", rng=RNG)
        assert mlp(Tensor(RNG.standard_normal((3, 8)))).shape == (3, 4)
        with pytest.raises(ValueError):
            nn.MLP(8, [16], 4, activation="swish")

    def test_mlp_works_on_token_sequences(self):
        mlp = nn.MLP(8, [16], 8, rng=RNG)
        assert mlp(Tensor(RNG.standard_normal((2, 5, 8)))).shape == (2, 5, 8)


class TestAttention:
    def test_mhsa_shape_preserved(self):
        attn = nn.MultiHeadSelfAttention(16, num_heads=4, rng=RNG)
        x = Tensor(RNG.standard_normal((3, 7, 16)))
        assert attn(x).shape == (3, 7, 16)

    def test_mhsa_head_divisibility(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, num_heads=3)

    def test_transformer_block_gradients_flow(self):
        block = nn.TransformerBlock(16, num_heads=2, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 6, 16)), requires_grad=True)
        block(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in block.parameters())

    def test_attention_depends_on_other_tokens(self):
        block = nn.MultiHeadSelfAttention(8, num_heads=2, rng=RNG)
        base = RNG.standard_normal((1, 4, 8))
        changed = base.copy()
        changed[0, 3] += 10.0
        out_base = block(Tensor(base)).data
        out_changed = block(Tensor(changed)).data
        # Changing token 3 must change the output at token 0 (attention mixes tokens).
        assert not np.allclose(out_base[0, 0], out_changed[0, 0])


class TestSerialization:
    def test_save_and_load_roundtrip(self, tmp_path):
        net = _ToyNet()
        path = nn.save_state_dict(net.state_dict(), tmp_path / "model.npz")
        loaded = nn.load_state_dict(path)
        assert nn.state_dicts_allclose(net.state_dict(), loaded)

    def test_state_dicts_allclose_detects_difference(self):
        net = _ToyNet()
        a = net.state_dict()
        b = net.state_dict()
        b["first.weight"] = b["first.weight"] + 1.0
        assert not nn.state_dicts_allclose(a, b)
        del b["first.weight"]
        assert not nn.state_dicts_allclose(a, b)
