"""Tests for the temporal plane: event scheduler, device profiles, staleness
weights, availability-aware sampling, and the sync/async/buffered regimes."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import build_method
from repro.continual import DomainIncrementalScenario
from repro.datasets import SyntheticDomainDataset
from repro.federated import FederatedDomainIncrementalSimulation
from repro.federated.aggregation import blend_states, staleness_weight
from repro.federated.async_plane import ASYNC_MIXING, STALENESS_DECAY
from repro.federated.clock import (
    CostModel,
    EventScheduler,
    PROFILE_TIERS,
    build_profile,
)
from repro.federated.communication import ClientUpdate
from repro.federated.config import FederatedConfig
from repro.federated.sampling import NoAvailableClientsError, sample_clients
from repro.federated.server import FederatedServer
from repro.nn.linear import Linear


def _scenario(tiny_spec, num_tasks=2):
    return DomainIncrementalScenario(SyntheticDomainDataset(tiny_spec), num_tasks=num_tasks)


def _run(tiny_spec, tiny_backbone_config, config, method_name="finetune", num_tasks=2):
    scenario = _scenario(tiny_spec, num_tasks=num_tasks)
    method = build_method(method_name, tiny_backbone_config, num_tasks=scenario.num_tasks)
    simulation = FederatedDomainIncrementalSimulation(scenario, method, config)
    return simulation, simulation.run()


def _temporal_config(tiny_federated_config, **overrides):
    return replace(tiny_federated_config, clients_per_round=2, rounds_per_task=2, **overrides)


class TestEventScheduler:
    @given(st.lists(st.floats(0.0, 5.0, allow_nan=False), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_pop_order_is_deterministic_function_of_schedule(self, delays):
        """Same schedule program -> same pop trace, with monotone times."""

        def run_program():
            scheduler = EventScheduler()
            pending = 0
            trace = []
            for index, delay in enumerate(delays):
                scheduler.schedule(delay, "event", index)
                pending += 1
                if index % 3 == 2:  # interleave pops with schedules
                    event = scheduler.pop()
                    pending -= 1
                    trace.append((event.time, event.seq, event.client_id))
            while pending:
                event = scheduler.pop()
                pending -= 1
                trace.append((event.time, event.seq, event.client_id))
            return trace

        first, second = run_program(), run_program()
        assert first == second
        times = [time for time, _, _ in first]
        assert times == sorted(times)  # the clock never runs backwards

    def test_simultaneous_events_pop_in_schedule_order(self):
        scheduler = EventScheduler()
        for index in range(5):
            scheduler.schedule(0.0, "tie", index)
        assert [scheduler.pop().client_id for _ in range(5)] == [0, 1, 2, 3, 4]

    @given(st.lists(st.floats(0.0, 3.0, allow_nan=False), min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_no_event_before_its_dependency(self, delays):
        """An event scheduled while processing another can never precede it."""
        scheduler = EventScheduler()
        scheduled_at = {}
        for index, delay in enumerate(delays):
            event = scheduler.schedule(delay, "event", index)
            scheduled_at[event.seq] = scheduler.now
            if len(scheduler) > 2:
                popped = scheduler.pop()
                assert popped.time >= scheduled_at[popped.seq]
        while len(scheduler):
            popped = scheduler.pop()
            assert popped.time >= scheduled_at[popped.seq]

    def test_validation(self):
        scheduler = EventScheduler()
        with pytest.raises(ValueError):
            scheduler.schedule(-0.1, "bad")
        with pytest.raises(ValueError):
            scheduler.schedule(float("nan"), "bad")
        with pytest.raises(IndexError):
            scheduler.pop()
        with pytest.raises(ValueError):
            scheduler.advance(-1.0)
        assert scheduler.advance(2.5) == 2.5


class TestStalenessWeight:
    @given(st.floats(0.0, 100.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_weight_is_one_at_zero_staleness(self, staleness, decay):
        assert staleness_weight(0.0, decay) == 1.0
        assert 0.0 < staleness_weight(staleness, decay) <= 1.0

    @given(st.floats(0.0, 100.0), st.floats(0.0, 100.0), st.floats(0.0, 5.0))
    @settings(max_examples=100, deadline=None)
    def test_monotone_non_increasing_in_staleness(self, a, b, decay):
        lo, hi = min(a, b), max(a, b)
        assert staleness_weight(lo, decay) >= staleness_weight(hi, decay)

    def test_zero_decay_disables_discount(self):
        assert staleness_weight(37.0, 0.0) == 1.0

    def test_validation(self):
        with pytest.raises(ValueError):
            staleness_weight(-1.0, 0.5)
        with pytest.raises(ValueError):
            staleness_weight(1.0, -0.5)


class TestDeviceProfiles:
    def test_instant_tier_is_the_temporal_noop(self):
        profile = build_profile("instant", seed=0, client_id=3)
        assert profile.compute_multiplier == 0.0
        assert profile.always_online
        cost = CostModel()
        assert cost.training_seconds(profile, 100, 16, 5) == 0.0
        assert cost.transfer_seconds(profile, 10**9) == 0.0

    def test_profiles_are_deterministic_per_seed(self):
        for tier in PROFILE_TIERS:
            assert build_profile(tier, seed=5, client_id=2) == build_profile(tier, 5, 2)
        assert build_profile("extreme", 5, 2) != build_profile("extreme", 6, 2)

    def test_unknown_tier_raises(self):
        with pytest.raises(ValueError):
            build_profile("warp", seed=0, client_id=0)
        with pytest.raises(ValueError):
            FederatedConfig(device_profile="warp")

    def test_online_trace_is_deterministic(self):
        profile = build_profile("extreme", seed=0, client_id=1)
        trace = [profile.is_online(0, task_id=1, slot=s) for s in range(50)]
        assert trace == [profile.is_online(0, 1, s) for s in range(50)]

    def test_churn_is_per_task(self):
        profile = build_profile("extreme", seed=0, client_id=1)
        for task_id in range(10):
            present = profile.in_task(0, task_id)
            if not present:
                # Churned out -> offline at every slot of that task.
                assert not any(profile.is_online(0, task_id, s) for s in range(5))

    def test_heterogeneous_tiers_spread_clients(self):
        multipliers = {build_profile("extreme", 0, cid).compute_multiplier for cid in range(8)}
        assert len(multipliers) == 8
        homogeneous = {build_profile("homogeneous", 0, cid).compute_multiplier for cid in range(8)}
        assert homogeneous == {1.0}


class TestAvailabilitySampling:
    def test_filter_restricts_selection(self):
        online = {1, 3, 5}
        chosen = sample_clients(
            list(range(6)), 6, np.random.default_rng(0), available=lambda c: c in online
        )
        assert chosen == [1, 3, 5]

    def test_all_offline_raises_clear_error(self):
        with pytest.raises(NoAvailableClientsError, match="offline after availability"):
            sample_clients([1, 2, 3], 2, np.random.default_rng(0), available=lambda c: False)

    def test_empty_active_set_still_a_value_error(self):
        with pytest.raises(ValueError):
            sample_clients([], 2, np.random.default_rng(0), available=lambda c: True)

    def test_pass_through_filter_matches_no_filter(self):
        plain = sample_clients(list(range(20)), 5, np.random.default_rng(9))
        filtered = sample_clients(
            list(range(20)), 5, np.random.default_rng(9), available=lambda c: True
        )
        assert plain == filtered


class TestSyncTemporal:
    def test_sync_trace_is_round_robin_rounds(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = _temporal_config(tiny_federated_config, device_profile="homogeneous")
        _, result = _run(tiny_spec, tiny_backbone_config, config)
        rounds = [e for e in result.event_log if e["kind"] == "round"]
        assert [e["kind"] for e in result.event_log] == ["round"] * 4
        assert [(e["task_id"], e["round_index"]) for e in rounds] == [
            (0, 0), (0, 1), (1, 0), (1, 1),
        ]
        times = [e["time"] for e in rounds]
        assert times == sorted(times)
        assert result.sim_time == times[-1] > 0.0

    def test_instant_profile_never_moves_the_clock(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = _temporal_config(tiny_federated_config)
        _, result = _run(tiny_spec, tiny_backbone_config, config)
        assert result.sim_time == 0.0
        assert all(e["time"] == 0.0 for e in result.event_log)

    def test_homogeneous_profile_changes_only_the_clock(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        """Always-online finite-speed devices time the run without touching
        its numbers: matrix, losses and ledger match the instant profile
        bit-for-bit."""
        base = _temporal_config(tiny_federated_config)
        _, instant = _run(tiny_spec, tiny_backbone_config, base)
        _, timed = _run(
            tiny_spec, tiny_backbone_config, replace(base, device_profile="homogeneous")
        )
        np.testing.assert_array_equal(instant.metrics.matrix, timed.metrics.matrix)
        assert instant.round_losses == timed.round_losses
        assert instant.communication.uploaded_bytes == timed.communication.uploaded_bytes
        assert instant.communication.broadcast_bytes == timed.communication.broadcast_bytes
        assert timed.sim_time > instant.sim_time == 0.0

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_sync_instant_parity_across_executors(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, dtype
    ):
        """mode="sync" + instantaneous profiles is the untimed engine,
        bit-for-bit, under both executors and both dtypes."""
        base = _temporal_config(tiny_federated_config, mode="sync", dtype=dtype)
        _, serial = _run(tiny_spec, tiny_backbone_config, base)
        _, parallel = _run(
            tiny_spec,
            tiny_backbone_config,
            replace(base, executor="parallel", num_workers=2),
        )
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.round_losses == parallel.round_losses
        assert serial.sim_time == parallel.sim_time == 0.0


class TestAsyncModes:
    def _result(self, tiny_spec, tiny_backbone_config, tiny_federated_config, **overrides):
        config = _temporal_config(tiny_federated_config, **overrides)
        return _run(tiny_spec, tiny_backbone_config, config)

    @pytest.mark.parametrize("mode", ["async", "buffered"])
    def test_deterministic_per_seed(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config, mode
    ):
        run = lambda: self._result(
            tiny_spec, tiny_backbone_config, tiny_federated_config,
            mode=mode, device_profile="moderate",
        )[1]
        first, second = run(), run()
        np.testing.assert_array_equal(first.metrics.matrix, second.metrics.matrix)
        assert first.round_losses == second.round_losses
        assert first.event_log == second.event_log
        assert first.sim_time == second.sim_time

    def test_async_trains_the_sync_budget_and_applies_per_arrival(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        _, result = self._result(
            tiny_spec, tiny_backbone_config, tiny_federated_config,
            mode="async", device_profile="homogeneous",
        )
        budget = 2 * 2  # rounds_per_task * clients_per_round
        for task_id in (0, 1):
            events = [e for e in result.event_log if e.get("task_id") == task_id]
            assert sum(e["kind"] == "dispatch" for e in events) == budget
            arrivals = [e for e in events if e["kind"] == "arrival"]
            assert len(arrivals) == budget
            assert all(e["staleness"] >= 0 for e in arrivals)
            # Zero-staleness arrivals blend at the full base rate; stale ones lower.
            assert all(0.0 < e["mixing"] <= 0.5 for e in arrivals)
        # One aggregation (and one recorded loss) per arrival.
        assert len(result.round_losses) == 2 * budget
        assert result.sim_time > 0.0

    def test_arrivals_blend_at_the_fixed_staleness_discount(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        _, result = self._result(
            tiny_spec, tiny_backbone_config, tiny_federated_config,
            mode="async", device_profile="homogeneous",
        )
        arrivals = [e for e in result.event_log if e["kind"] == "arrival"]
        assert any(e["staleness"] > 0 for e in arrivals)
        for event in arrivals:
            assert event["mixing"] == ASYNC_MIXING * (1.0 + event["staleness"]) ** -STALENESS_DECAY

    def test_buffered_flushes_every_k_arrivals(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        _, result = self._result(
            tiny_spec, tiny_backbone_config, tiny_federated_config,
            mode="buffered", device_profile="homogeneous", buffer_size=3,
        )
        budget = 2 * 2
        for task_id in (0, 1):
            flushes = [
                e for e in result.event_log
                if e["kind"] == "flush" and e["task_id"] == task_id
            ]
            # 4 arrivals with K=3: one full flush plus the task-end partial.
            assert [f["size"] for f in flushes] == [3, 1]
        assert len(result.round_losses) == 4  # one loss entry per flush

    def test_async_modes_run_under_the_parallel_executor(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        _, serial = self._result(
            tiny_spec, tiny_backbone_config, tiny_federated_config,
            mode="async", device_profile="mild",
        )
        _, parallel = self._result(
            tiny_spec, tiny_backbone_config, tiny_federated_config,
            mode="async", device_profile="mild", executor="parallel", num_workers=2,
        )
        np.testing.assert_array_equal(serial.metrics.matrix, parallel.metrics.matrix)
        assert serial.round_losses == parallel.round_losses
        assert serial.event_log == parallel.event_log

    def test_async_refil_payload_machinery_sees_arrivals(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = _temporal_config(
            tiny_federated_config, mode="async", device_profile="mild"
        )
        scenario = _scenario(tiny_spec)
        method = build_method("refil", tiny_backbone_config, num_tasks=scenario.num_tasks)
        result = FederatedDomainIncrementalSimulation(scenario, method, config).run()
        assert not method.store.is_empty
        assert all(np.isfinite(loss) for loss in result.round_losses)

    def test_async_fedewc_blends_fisher_instead_of_overwriting(
        self, tiny_backbone_config
    ):
        """A lone async arrival must not replace the population Fisher: the
        new client's estimate enters an EMA at the arrival's mixing rate."""
        method = build_method("fedewc", tiny_backbone_config, num_tasks=2)
        model = method.build_model()
        server = FederatedServer(model)

        param_names = [name for name, _ in model.named_parameters()]
        spiked = param_names[0]

        def update_with_fisher(spike):
            state = {k: v.copy() for k, v in server.global_state.items()}
            fisher = {
                name: np.full_like(param.data, spike if name == spiked else 1.0)
                for name, param in model.named_parameters()
            }
            return ClientUpdate(0, state, num_samples=4, payload={"fisher": fisher})

        method.aggregate(server, [update_with_fisher(1.0)])
        first = {k: v.copy() for k, v in method._fisher.items()}
        assert all(np.all(v == 1.0) for v in first.values())  # normalized flat
        # The arriving Fisher normalizes to 1.0 on the spiked param and 0.5
        # elsewhere; an EMA at mixing 0.25 lands at 0.875, where the old
        # last-writer-wins behaviour would land at 0.5.
        method.apply_async_update(server, update_with_fisher(2.0), mixing=0.25)
        for name in param_names:
            expected = 1.0 if name == spiked else 0.875
            np.testing.assert_allclose(method._fisher[name], expected)
        first = {k: v.copy() for k, v in method._fisher.items()}
        # An arrival without a Fisher payload leaves the estimate untouched.
        state = {k: v.copy() for k, v in server.global_state.items()}
        method.apply_async_update(server, ClientUpdate(1, state, 4), mixing=0.25)
        for name in first:
            np.testing.assert_allclose(method._fisher[name], first[name])

    def test_eval_every_snapshots_carry_sim_time(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        _, result = self._result(
            tiny_spec, tiny_backbone_config, tiny_federated_config,
            mode="async", device_profile="homogeneous", eval_every=2, eval_batch_size=4,
        )
        assert result.round_eval_history
        times = [entry["sim_time"] for entry in result.round_eval_history]
        assert times == sorted(times)
        assert all(entry["accuracies"] for entry in result.round_eval_history)


class TestServerStalenessPrimitives:
    def test_blend_states_blends_at_the_mixing_rate(self):
        before = Linear(2, 2, rng=np.random.default_rng(0)).state_dict()
        shifted = {key: value + 2.0 for key, value in before.items()}
        blended = blend_states(before, shifted, mixing=0.25)
        for key in before:
            np.testing.assert_allclose(blended[key], before[key] + 0.5)
        with pytest.raises(ValueError):
            blend_states(before, shifted, mixing=0.0)
        with pytest.raises(ValueError):
            blend_states(before, {"nope": np.zeros(2)}, mixing=0.5)

    def test_aggregation_scale_weights_the_next_aggregate(self):
        model = Linear(1, 1, rng=np.random.default_rng(0))
        server = FederatedServer(model)
        updates = [
            ClientUpdate(0, {key: np.zeros_like(value) for key, value in server.global_state.items()}, 10),
            ClientUpdate(1, {key: np.ones_like(value) for key, value in server.global_state.items()}, 10),
        ]
        # Scale the second update to zero weight: the aggregate is all-zeros.
        with server.aggregation_scale([1.0, 0.0]):
            server.aggregate(updates)
        assert all(np.all(value == 0.0) for value in server.global_state.values())
        # The scale is consumed: a later aggregate is plain FedAvg again.
        server.aggregate(updates)
        assert all(np.all(value == 0.5) for value in server.global_state.values())

    def test_aggregation_scale_length_mismatch_raises(self):
        model = Linear(1, 1, rng=np.random.default_rng(0))
        server = FederatedServer(model)
        update = ClientUpdate(0, dict(server.global_state), 10)
        with pytest.raises(ValueError):
            with server.aggregation_scale([1.0, 1.0]):
                server.aggregate([update])


class TestLifecycle:
    def test_context_manager_closes_owned_eval_pool(
        self, tiny_spec, tiny_backbone_config, tiny_federated_config
    ):
        config = replace(
            tiny_federated_config, eval_executor="parallel", num_workers=2, eval_batch_size=4
        )
        scenario = _scenario(tiny_spec)
        method = build_method("finetune", tiny_backbone_config, num_tasks=scenario.num_tasks)
        with FederatedDomainIncrementalSimulation(scenario, method, config) as simulation:
            assert simulation._owns_eval_executor
            simulation.run_task(scenario.task(0))
            assert simulation.eval_executor._pool is not None
        assert simulation.eval_executor._pool is None
        simulation.close()  # idempotent

    def test_run_cache_folds_inert_temporal_knobs(self):
        from repro.experiments.runner import _normalize_execution_knobs

        base = FederatedConfig()
        # The buffer size is inert outside buffered mode.
        inert = replace(base, buffer_size=7)
        assert _normalize_execution_knobs(inert) == _normalize_execution_knobs(base)
        # The device tier always stays in the key: even an always-online tier
        # changes the run's temporal telemetry (sim_time, event_log).
        timed = replace(base, device_profile="homogeneous")
        assert _normalize_execution_knobs(timed) != _normalize_execution_knobs(base)
        churny = replace(base, device_profile="moderate")
        assert _normalize_execution_knobs(churny) != _normalize_execution_knobs(base)
        async_mode = replace(base, mode="async")
        assert _normalize_execution_knobs(async_mode) != _normalize_execution_knobs(base)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            FederatedConfig(mode="lockstep")
        with pytest.raises(ValueError):
            FederatedConfig(buffer_size=-1)
        with pytest.raises(ValueError, match="bandwidth_limit requires mode='sync'"):
            # One upload per arrival would make the keep-one rule deliver
            # every over-budget frame: the budget must be rejected, not inert.
            FederatedConfig(mode="async", bandwidth_limit=1000)
        config = FederatedConfig(mode="buffered", device_profile="extreme", buffer_size=4)
        assert config.mode == "buffered"
