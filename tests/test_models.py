"""Tests for the model zoo: ResNet10, tokenizer, classifier and the prompted backbone."""

from __future__ import annotations

import re

import numpy as np
import pytest

from repro.autograd import Tensor
from repro.models import BackboneConfig, ClsClassifier, PatchTokenizer, PromptedBackbone, ResNet10
from repro.models.tokenizer import MAX_POSITIONS, sinusoidal_positions

RNG = np.random.default_rng(11)


class TestResNet10:
    def test_output_shape_and_channels(self):
        net = ResNet10(in_channels=3, base_width=8, rng=RNG)
        out = net(Tensor(RNG.standard_normal((2, 3, 16, 16))))
        assert out.shape == (net.out_channels, 4, 4, 2)  # batch-last
        assert net.out_channels == 16

    def test_output_spatial_helper_matches_forward(self):
        net = ResNet10(in_channels=3, base_width=4, stage_strides=(1, 2, 2, 2), rng=RNG)
        out = net(Tensor(RNG.standard_normal((1, 3, 16, 16))))
        assert net.output_spatial(16) == out.shape[1:3]

    def test_requires_four_stages(self):
        with pytest.raises(ValueError):
            ResNet10(widths=(1, 2), stage_strides=(1, 2))

    def test_gradients_reach_stem(self):
        net = ResNet10(in_channels=3, base_width=4, rng=RNG)
        net(Tensor(RNG.standard_normal((2, 3, 16, 16)))).sum().backward()
        assert net.stem_conv.weight.grad is not None

    def test_projection_shortcut_used_when_shapes_change(self):
        from repro.models.resnet import BasicBlock

        block = BasicBlock(4, 8, stride=2, rng=RNG)
        assert block.shortcut_conv is not None
        identity_block = BasicBlock(4, 4, stride=1, rng=RNG)
        assert identity_block.shortcut_conv is None


class TestPatchTokenizer:
    def test_token_shape(self):
        tok = PatchTokenizer(in_channels=16, embed_dim=32, rng=RNG)
        tokens = tok(Tensor(RNG.standard_normal((16, 4, 4, 2))))
        assert tokens.shape == (2, 16, 32)

    def test_tokens_are_row_major_positions_of_the_batch_last_map(self):
        tok = PatchTokenizer(in_channels=6, embed_dim=8, rng=RNG)
        feature_map = RNG.standard_normal((6, 3, 4, 2))
        tokens = tok(Tensor(feature_map)).data
        weight = tok.projection.weight.data.reshape(8, 6)
        for n in range(2):
            for h in range(3):
                for w in range(4):
                    expected = weight @ feature_map[:, h, w, n] + tok.projection.bias.data
                    expected = expected + tok.positional[h * 4 + w]
                    np.testing.assert_allclose(tokens[n, h * 4 + w], expected, rtol=1e-12)

    def test_tokenizer_is_frozen(self):
        tok = PatchTokenizer(in_channels=8, embed_dim=16, rng=RNG)
        assert all(not p.requires_grad for p in tok.parameters())
        assert tok.state_dict() == {}

    def test_positional_encoding_shape_and_determinism(self):
        enc = sinusoidal_positions(10, 8)
        assert enc.shape == (10, 8)
        assert np.allclose(enc, sinusoidal_positions(10, 8))

    def test_too_many_tokens_raises(self):
        tok = PatchTokenizer(in_channels=4, embed_dim=8, rng=RNG)
        assert tok(Tensor(RNG.standard_normal((4, 16, 16, 1)))).shape == (1, MAX_POSITIONS, 8)
        with pytest.raises(ValueError, match=str(MAX_POSITIONS)):
            tok(Tensor(RNG.standard_normal((4, 17, 16, 1))))


class TestClassifier:
    def test_logit_shape(self):
        head = ClsClassifier(16, 7, rng=RNG)
        assert head(Tensor(RNG.standard_normal((5, 16)))).shape == (5, 7)

    def test_rejects_wrong_embedding_size(self):
        head = ClsClassifier(16, 7, rng=RNG)
        with pytest.raises(ValueError):
            head(Tensor(RNG.standard_normal((5, 8))))


class TestPromptedBackbone:
    @pytest.fixture
    def backbone(self, tiny_backbone_config):
        return PromptedBackbone(tiny_backbone_config)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BackboneConfig(image_size=4)
        with pytest.raises(ValueError):
            BackboneConfig(embed_dim=30, num_heads=4)

    def test_logits_shape_without_prompts(self, backbone, tiny_backbone_config):
        images = Tensor(RNG.standard_normal((3, 3, 16, 16)))
        assert backbone(images).shape == (3, tiny_backbone_config.num_classes)

    @pytest.mark.parametrize(
        "shape", [(2, 3, 16, 5), (2, 3, 8, 8), (2, 1, 16, 16), (3, 16, 16)], ids=str
    )
    def test_image_of_the_wrong_shape_is_refused_naming_both_shapes(self, backbone, shape):
        # Before the check the backbone classified a 16x5 or an 8x8 image from
        # fewer patch tokens, and RefFiL's prompt generator, whose MLP maps a
        # fixed token count, failed on it inside NumPy's matmul.
        with pytest.raises(ValueError, match=r"\(N, 3, 16, 16\), got " + re.escape(str(shape))):
            backbone(Tensor(RNG.standard_normal(shape)))

    def test_input_tokens_include_cls(self, backbone):
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        tokens = backbone.input_tokens(images)
        assert tokens.shape == (2, backbone.num_patch_tokens + 1, backbone.config.embed_dim)

    def test_shared_prompts_change_logits(self, backbone):
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        prompts = Tensor(RNG.standard_normal((4, backbone.config.embed_dim)))
        without = backbone(images).data
        with_prompts = backbone(images, prompts).data
        assert without.shape == with_prompts.shape
        assert not np.allclose(without, with_prompts)

    def test_per_sample_prompts_accepted(self, backbone):
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        prompts = Tensor(RNG.standard_normal((2, 3, backbone.config.embed_dim)))
        assert backbone(images, prompts).shape == (2, backbone.config.num_classes)

    def test_per_sample_prompt_batch_mismatch_raises(self, backbone):
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        prompts = Tensor(RNG.standard_normal((3, 3, backbone.config.embed_dim)))
        with pytest.raises(ValueError):
            backbone(images, prompts)

    def test_prompt_rank_validation(self, backbone):
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        with pytest.raises(ValueError):
            backbone(images, Tensor(RNG.standard_normal(8)))

    def test_forward_from_patches_matches_forward(self, backbone):
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        backbone.eval()
        direct = backbone(images).data
        patches = backbone.patch_tokens(images)
        indirect = backbone.forward_from_patches(patches).data
        assert np.allclose(direct, indirect)

    def test_trainable_parameter_names_exclude_tokenizer(self, backbone):
        names = [name for name, param in backbone.named_parameters() if param.requires_grad]
        assert names
        assert not any(name.startswith("tokenizer.") for name in names)

    def test_state_dict_roundtrip_changes_output(self, backbone, tiny_backbone_config):
        """A model's state is what training changes; the frozen tokenizer comes
        from construction (config + seed), so it is not in the state.  A state
        therefore round-trips between models of one config, and a model of
        another seed that loads it differs from the source only in its tokenizer."""
        import dataclasses

        for param in backbone.parameters():
            if param.requires_grad:  # a stand-in for local training
                param.data += 0.1 * RNG.standard_normal(param.shape)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        backbone.eval()
        before = backbone(images).data.copy()
        state = backbone.state_dict()
        assert not [key for key in state if "tokenizer" in key]

        clone = PromptedBackbone(tiny_backbone_config)
        clone.eval()
        assert not np.allclose(clone(images).data, before)
        clone.load_state_dict(state)
        np.testing.assert_array_equal(clone(images).data, before)

        other_config = dataclasses.replace(tiny_backbone_config, seed=tiny_backbone_config.seed + 1)
        other = PromptedBackbone(other_config)
        other.load_state_dict(state)
        source = dict(backbone.named_parameters())
        differing = [
            name for name, param in other.named_parameters()
            if not np.array_equal(param.data, source[name].data)
        ]
        assert differing == ["tokenizer.projection.weight", "tokenizer.projection.bias"]
        np.testing.assert_array_equal(other.tokenizer.positional, backbone.tokenizer.positional)

    def test_same_seed_gives_identical_initialisation(self, backbone, tiny_backbone_config):
        clone = PromptedBackbone(tiny_backbone_config)
        images = Tensor(RNG.standard_normal((2, 3, 16, 16)))
        backbone.eval()
        clone.eval()
        assert np.allclose(backbone(images).data, clone(images).data)
