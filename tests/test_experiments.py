"""Tests for the experiment harness: presets, result tables, the cached runner and table builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ExperimentScale,
    ResultTable,
    clear_run_cache,
    get_scale,
    run_method_on_dataset,
    scaled_config,
)
from repro.experiments.config import ScaledExperimentConfig
from repro.experiments.tables import (
    COMPARED_METHODS,
    METHOD_LABELS,
    TABLE5_CONFIGS,
    TABLE7_ROWS,
    TABLE8_CONFIGS,
    _alternate_order_indices,
    _scaled_selection,
)


class TestScaleSelection:
    def test_default_scale_is_tiny(self, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert get_scale() is ExperimentScale.TINY

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "small")
        assert get_scale() is ExperimentScale.SMALL

    def test_invalid_scale_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "gigantic")
        with pytest.raises(ValueError):
            get_scale()


class TestScaledConfig:
    def test_tiny_config_shapes(self):
        config = scaled_config("office_caltech", scale=ExperimentScale.TINY)
        assert isinstance(config, ScaledExperimentConfig)
        assert config.spec.num_classes <= 4
        assert config.num_tasks == 4
        assert config.backbone.num_classes == config.spec.num_classes
        assert config.federated.rounds_per_task >= 1
        assert config.describe()["dataset"] == "office_caltech"

    def test_paper_scale_mirrors_paper_counts(self):
        digits = scaled_config("digits_five", scale=ExperimentScale.PAPER)
        assert digits.federated.increment.initial_clients == 20
        assert digits.federated.rounds_per_task == 30
        office = scaled_config("office_caltech", scale=ExperimentScale.PAPER)
        assert office.federated.increment.initial_clients == 10
        assert office.federated.clients_per_round == 5

    def test_table_overrides(self):
        config = scaled_config(
            "office_caltech",
            scale=ExperimentScale.TINY,
            clients_per_round=2,
            transfer_fraction=0.5,
        )
        assert config.federated.clients_per_round == 2
        assert config.federated.increment.transfer_fraction == pytest.approx(0.5)

    def test_num_tasks_override(self):
        config = scaled_config("digits_five", scale=ExperimentScale.TINY, num_tasks=3)
        assert config.num_tasks == 3

    def test_configs_are_hashable_for_caching(self):
        a = scaled_config("pacs", scale=ExperimentScale.TINY)
        b = scaled_config("pacs", scale=ExperimentScale.TINY)
        assert hash(a.spec) == hash(b.spec)
        assert hash(a.federated) == hash(b.federated)


class TestResultTable:
    def _table(self):
        table = ResultTable(title="demo", columns=["avg", "last"])
        table.add_row("Finetune", {"avg": 40.0, "last": 20.0})
        table.add_row("RefFiL", {"avg": 50.0, "last": 30.0})
        return table

    def test_add_and_query(self):
        table = self._table()
        assert table.value("RefFiL", "avg") == 50.0
        assert table.column("last") == {"Finetune": 20.0, "RefFiL": 30.0}
        assert table.best_row("avg") == "RefFiL"
        assert table.best_row("avg", largest=False) == "Finetune"

    def test_unknown_column_rejected(self):
        table = self._table()
        with pytest.raises(KeyError):
            table.add_row("X", {"bogus": 1.0})
        with pytest.raises(KeyError):
            table.column("bogus")

    def test_text_and_markdown_render_all_rows(self):
        table = self._table()
        text = table.to_text()
        markdown = table.to_markdown()
        for label in ("Finetune", "RefFiL"):
            assert label in text and label in markdown
        assert "avg" in text
        assert markdown.count("|") > 6

    def test_missing_cells_render_as_dash(self):
        table = ResultTable(title="demo", columns=["a", "b"])
        table.add_row("row", {"a": 1.0})
        assert "-" in table.to_text()


class TestTableDefinitions:
    def test_compared_methods_match_paper(self):
        assert len(COMPARED_METHODS) == 8
        assert METHOD_LABELS["refil"] == "RefFiL"

    def test_table5_configs_match_paper(self):
        labels = [c[0] for c in TABLE5_CONFIGS]
        assert labels == ["sel8_80", "sel2_80", "sel5_50", "sel5_90"]

    def test_table7_rows_cover_all_component_combos(self):
        methods = [m for _, m in TABLE7_ROWS]
        assert methods[0] == "finetune"
        assert methods[-1] == "refil"
        assert len(methods) == 6

    def test_table8_has_default_and_no_decay_rows(self):
        labels = [c[0] for c in TABLE8_CONFIGS]
        assert "ours" in labels and "w/o tau'" in labels

    def test_alternate_order_indices_are_permutations(self):
        for dataset in ("digits_five", "office_caltech", "pacs", "fed_domainnet"):
            indices = _alternate_order_indices(dataset)
            assert sorted(indices) == list(range(len(indices)))

    def test_scaled_selection_mapping(self):
        assert _scaled_selection(8, 10) == 8
        assert _scaled_selection(8, 5) == 4
        assert _scaled_selection(2, 6) == 1


class TestRunner:
    @pytest.fixture
    def micro_config(self, tiny_spec):
        from repro.federated.client import LocalTrainingConfig
        from repro.federated.config import FederatedConfig
        from repro.federated.increment import ClientIncrementConfig
        from repro.models.backbone import BackboneConfig

        backbone = BackboneConfig(
            image_size=tiny_spec.image_size,
            num_classes=tiny_spec.num_classes,
            base_width=4,
            embed_dim=16,
            seed=3,
        )
        federated = FederatedConfig(
            increment=ClientIncrementConfig(initial_clients=3, increment_per_task=0, seed=3),
            clients_per_round=2,
            rounds_per_task=1,
            local=LocalTrainingConfig(local_epochs=1, batch_size=8, learning_rate=0.05),
            seed=3,
        )
        return ScaledExperimentConfig(
            dataset_name="office_caltech",
            spec=tiny_spec,
            backbone=backbone,
            federated=federated,
            num_tasks=2,
        )

    def test_run_and_cache(self, micro_config):
        clear_run_cache()
        first = run_method_on_dataset("finetune", micro_config)
        second = run_method_on_dataset("finetune", micro_config)
        assert first is second  # memoised
        assert first.metrics.matrix.shape == (2, 2)
        assert first.domain_names == ("amazon", "caltech")
        clear_run_cache()
        third = run_method_on_dataset("finetune", micro_config, use_cache=False)
        assert third is not first
        assert np.allclose(third.metrics.matrix, first.metrics.matrix, equal_nan=True)

    def test_domain_order_changes_task_stream(self, micro_config):
        clear_run_cache()
        default = run_method_on_dataset("finetune", micro_config)
        reordered = run_method_on_dataset("finetune", micro_config, domain_order=[1, 0, 2, 3])
        assert reordered.domain_names[0] == default.domain_names[1]

    def test_execution_knobs_do_not_fragment_the_cache(self, micro_config):
        """Regression: runs differing only in execution-plane knobs (executor,
        num_workers, eval_executor) are bit-for-bit identical, so
        they must share one memoised run instead of retraining from scratch."""
        from dataclasses import replace as dc_replace

        from repro.experiments.runner import _cache_key

        def with_federated(**overrides):
            return dc_replace(micro_config, federated=dc_replace(micro_config.federated, **overrides))

        base_key = _cache_key("finetune", micro_config, None, None)
        for overrides in (
            {"executor": "parallel", "num_workers": 4},
            {"eval_executor": "parallel"},
            {"executor": "parallel", "num_workers": 2, "eval_executor": "parallel"},
        ):
            assert _cache_key("finetune", with_federated(**overrides), None, None) == base_key
        # dtype changes the bits and eval_every changes the recorded history:
        # both must keep their own cache entries.
        assert _cache_key("finetune", with_federated(dtype="float64"), None, None) != base_key
        assert _cache_key("finetune", with_federated(eval_every=1), None, None) != base_key

    def test_drop_stragglers_keeps_its_cache_entry_under_frame_faults(self, micro_config):
        """Regression: the transport consults ``drop_stragglers`` when a frame's
        retries run out, not only for a frame over its budget — so with frame
        faults and no budget, drop and defer train different models and must
        not share a memoised run."""
        from dataclasses import replace as dc_replace

        from repro.federated import FaultSpec

        def lossy(drop_stragglers):
            federated = dc_replace(
                micro_config.federated,
                rounds_per_task=2,
                faults=FaultSpec(upload_loss_rate=0.6),
                retries=0,
                drop_stragglers=drop_stragglers,
            )
            return dc_replace(micro_config, federated=federated)

        assert lossy(True).federated.canonical() != lossy(False).federated.canonical()
        clear_run_cache()
        dropped = run_method_on_dataset("finetune", lossy(True))
        deferred = run_method_on_dataset("finetune", lossy(False))
        assert dropped is not deferred
        assert dropped.simulation.round_losses != deferred.simulation.round_losses
        clear_run_cache()

    def test_execution_knob_variants_hit_the_same_memoised_run(self, micro_config):
        from dataclasses import replace as dc_replace

        clear_run_cache()
        first = run_method_on_dataset("finetune", micro_config)
        parallel_config = dc_replace(
            micro_config,
            federated=dc_replace(micro_config.federated, executor="parallel", num_workers=2),
        )
        assert run_method_on_dataset("finetune", parallel_config) is first
