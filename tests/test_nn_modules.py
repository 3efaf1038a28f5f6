"""Tests for the Module system and the individual layers."""

from __future__ import annotations

import numpy as np
import pytest

import repro.nn as nn
from repro.autograd import Tensor, functional as F
from repro.autograd.tensor import default_dtype
from repro.nn import init
from repro.nn.module import Module, Parameter
from repro.nn.serialization import readonly_state_view

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

    def test_freeze(self):
        net = _ToyNet()
        net.freeze()
        assert all(not p.requires_grad for p in net.parameters())

    def test_zero_grad_clears(self):
        net = _ToyNet()
        out = net(Tensor(RNG.standard_normal((3, 4))))
        out.sum().backward()
        assert net.first.weight.grad is not None
        net.zero_grad()
        assert net.first.weight.grad is None

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
        out = layer(Tensor(RNG.standard_normal((3, 8, 8, 2))))
        assert out.shape == (8, 4, 4, 2)

    def test_batchnorm_updates_running_stats_only_in_training(self):
        bn = nn.BatchNorm2d(4)
        x = Tensor(RNG.standard_normal((4, 3, 3, 8)) + 3.0)
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
        assert nn.GELU()(x).shape == (3, 4)

    def test_embedding_lookup_and_bounds(self):
        emb = nn.Embedding(10, 6, rng=RNG)
        out = emb(np.array([0, 3, 9]))
        assert out.shape == (3, 6)
        with pytest.raises(IndexError):
            emb(np.array([10]))

    def test_mlp_hidden_stack(self):
        mlp = nn.MLP(8, [16, 16], 4, rng=RNG)
        assert len(mlp.layers) == 3
        assert mlp(Tensor(RNG.standard_normal((3, 8)))).shape == (3, 4)

    def test_mlp_works_on_token_sequences(self):
        mlp = nn.MLP(8, [16], 8, rng=RNG)
        assert mlp(Tensor(RNG.standard_normal((2, 5, 8)))).shape == (2, 5, 8)

    def test_mlp_is_linear_gelu_between_layers_and_linear_at_the_end(self):
        mlp = nn.MLP(8, [16, 12], 4, rng=RNG)
        x = Tensor(RNG.standard_normal((3, 8)))
        first, second, last = mlp.layers
        expected = last(F.gelu(second(F.gelu(first(x)))))
        np.testing.assert_array_equal(mlp(x).data, expected.data)

    def test_mlp_without_hidden_layers_is_one_linear(self):
        mlp = nn.MLP(8, [], 3, rng=RNG)
        x = Tensor(RNG.standard_normal((2, 8)))
        assert len(mlp.layers) == 1
        np.testing.assert_array_equal(mlp(x).data, mlp.layers[0](x).data)


class TestInit:
    def test_kaiming_uniform_respects_its_bound_and_the_compute_dtype(self):
        with default_dtype(np.float32):
            weight = init.kaiming_uniform((64, 24), fan_in=24, rng=np.random.default_rng(0))
        assert weight.dtype == np.float32 and weight.shape == (64, 24)
        bound = np.sqrt(6.0 / 24)
        assert np.abs(weight).max() <= bound
        assert np.abs(weight).max() > 0.9 * bound  # fills the range, not a corner of it

    def test_normal_has_the_requested_spread(self):
        weight = init.normal((200, 50), std=0.5, rng=np.random.default_rng(1))
        assert weight.dtype == np.float64
        assert abs(weight.mean()) < 0.02
        assert weight.std() == pytest.approx(0.5, rel=0.02)

    def test_same_generator_seed_gives_the_same_weights(self):
        first = init.kaiming_uniform((4, 3), fan_in=3, rng=np.random.default_rng(5))
        second = init.kaiming_uniform((4, 3), fan_in=3, rng=np.random.default_rng(5))
        np.testing.assert_array_equal(first, second)


class TestReadonlyStateView:
    def test_view_shares_memory_and_refuses_writes(self):
        state = {"weight": np.arange(6.0).reshape(2, 3), "bias": np.zeros(3)}
        view = readonly_state_view(state)
        assert set(view) == set(state)
        for key in state:
            assert np.shares_memory(view[key], state[key])
            with pytest.raises(ValueError, match="read-only"):
                view[key][0] = 1.0
        state["bias"][:] = 2.0  # the owner still writes, and the view sees it
        np.testing.assert_array_equal(view["bias"], np.full(3, 2.0))

    def test_loading_a_view_into_a_model_copies_it(self):
        net = _ToyNet()
        view = readonly_state_view(net.state_dict())
        other = _ToyNet()
        other.load_state_dict(view)
        other.first.weight.data += 1.0  # training the loaded model
        assert not np.shares_memory(other.first.weight.data, view["first.weight"])
        np.testing.assert_array_equal(view["first.weight"], net.first.weight.data)


class TestParametersUnderNoGrad:
    def test_a_module_built_under_no_grad_trains(self):
        from repro.autograd import no_grad

        with no_grad():
            lin = nn.Linear(3, 2, rng=np.random.default_rng(0))
            frozen = Parameter(np.ones(2), requires_grad=False)
        assert lin.weight.requires_grad and lin.bias.requires_grad
        assert not frozen.requires_grad
        assert sorted(lin.state_dict()) == ["bias", "weight"]
        lin.load_state_dict(nn.Linear(3, 2, rng=np.random.default_rng(1)).state_dict())
        lin(Tensor(np.ones((4, 3)))).sum().backward()
        assert lin.weight.grad is not None and lin.bias.grad is not None


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
