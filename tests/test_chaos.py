"""The deterministic chaos-injection harness (`repro.core.chaos`).

The property the whole harness exists for: a suite running under
sustained chaos — kills, stalls, delays — completes with a merged
report canonically identical to an uninterrupted clean run, the retries
and worker respawns doing the repair work.
"""

import time

import pytest

from repro.core.backoff import BackoffPolicy
from repro.core.chaos import (
    ChaosPlan,
    ChaosPolicy,
    available_chaos_policies,
    get_chaos_policy,
)
from repro.core.runner import ExperimentRunner, experiment_matrix, run_job
from repro.errors import ChaosError, SimulationError
from repro.synth.profiles import get_profile

# Module-level job function so worker processes can unpickle it.


def slow_job_fn(job):
    """Simulate, padded so parent-side kills/stalls have time to land."""
    time.sleep(0.15)
    return run_job(job)


@pytest.fixture(scope="module")
def jobs(tiny_spec):
    profiles = [get_profile("web"), get_profile("database")]
    return experiment_matrix(
        profiles, tiny_spec, schedulers=("fcfs",), span=3.0, base_seed=13
    )


class TestChaosPolicyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(kill_prob=1.5),
            dict(stall_prob=-0.1),
            dict(delay_prob=2.0),
            dict(kill_prob=-0.5),
            dict(kill_delay=-0.1),
            dict(stall_seconds=-1.0),
            dict(delay_seconds=-0.5),
            dict(max_faults_per_job=0),
        ],
    )
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(ChaosError):
            ChaosPolicy(**kwargs)

    def test_inactive_by_default(self):
        assert not ChaosPolicy().active
        assert ChaosPolicy(kill_prob=0.5).active

    def test_runner_rejects_non_policy(self):
        with pytest.raises(SimulationError, match="ChaosPolicy"):
            ExperimentRunner(chaos="heavy")


class TestDeterminism:
    def test_plan_is_pure(self):
        policy = ChaosPolicy(
            seed=5, kill_prob=0.5, stall_prob=0.5, delay_prob=0.5,
        )
        for index in range(8):
            for attempt in (1, 2, 3):
                assert policy.plan(index, attempt) == policy.plan(index, attempt)

    def test_seed_changes_the_schedule(self):
        a = ChaosPolicy(seed=1, kill_prob=0.5)
        b = ChaosPolicy(seed=2, kill_prob=0.5)
        plans_a = [a.plan(i, 1) for i in range(64)]
        plans_b = [b.plan(i, 1) for i in range(64)]
        assert plans_a != plans_b

    def test_attempts_draw_independently(self):
        policy = ChaosPolicy(seed=0, kill_prob=0.5)
        plans = [policy.plan(3, attempt) for attempt in range(1, 40)]
        assert any(p.kill_after is not None for p in plans)
        assert any(p.kill_after is None for p in plans)

    def test_probabilities_are_roughly_honored(self):
        policy = ChaosPolicy(seed=7, kill_prob=0.25)
        hits = sum(
            policy.plan(i, 1).kill_after is not None for i in range(2000)
        )
        assert 0.2 < hits / 2000 < 0.3

    def test_inactive_policy_plans_nothing(self):
        plan = ChaosPolicy().plan(0, 1)
        assert plan == ChaosPlan()
        assert not plan.any


class TestPresets:
    def test_registry_names(self):
        assert set(available_chaos_policies()) == {"light", "moderate", "heavy"}

    def test_presets_are_active_and_escalate(self):
        light = get_chaos_policy("light")
        heavy = get_chaos_policy("heavy")
        assert light.active and heavy.active
        assert light.kill_prob < heavy.kill_prob

    def test_reseeding_keeps_the_recipe(self):
        base = get_chaos_policy("moderate")
        reseeded = get_chaos_policy("moderate", seed=99)
        assert reseeded.seed == 99
        assert reseeded.kill_prob == base.kill_prob
        assert reseeded.name == "moderate"

    def test_unknown_preset_rejected(self):
        with pytest.raises(ChaosError, match="unknown chaos policy"):
            get_chaos_policy("apocalyptic")


class TestSuiteUnderChaos:
    """The headline property: chaos changes nothing observable."""

    def test_pool_suite_completes_identically_under_chaos(self, jobs):
        clean = ExperimentRunner(workers=2).run_suite(jobs, job_fn=slow_job_fn)
        # seed=0 deterministically fires a kill, a stall and a delay on
        # the first submissions of this two-job suite.
        chaos = ChaosPolicy(
            seed=0, kill_prob=0.6, kill_delay=0.02,
            stall_prob=0.4, stall_seconds=0.1,
            delay_prob=0.5, delay_seconds=0.02,
        )
        tortured = ExperimentRunner(workers=2, chaos=chaos).run_suite(
            jobs, job_fn=slow_job_fn
        )
        assert tortured.ok
        assert tortured.canonical_json() == clean.canonical_json()
        # The torture was real: at least one leg fired and was absorbed.
        assert tortured.resilience
        assert tortured.resilience.get("chaos.kills", 0) >= 1

    def test_chaos_kills_do_not_consume_retry_budget(self, jobs):
        # max_retries=0, yet every chaos-killed job still completes.
        # seed=1 deterministically kills both jobs' first submissions.
        chaos = ChaosPolicy(seed=1, kill_prob=0.8, kill_delay=0.02)
        report = ExperimentRunner(
            workers=2, max_retries=0, chaos=chaos
        ).run_suite(jobs, job_fn=slow_job_fn)
        assert report.ok
        assert report.resilience.get("chaos.kills", 0) >= 1
        assert report.resilience.get("suite.resubmissions", 0) >= 1

    def test_injected_kills_skip_the_backoff_ladder(self, jobs):
        # seed=18 kills job 0's first five submissions and never job 1.
        # Each injected kill waits at most `base`; climbing the ladder
        # would wait 0.25 + 0.5 + 1 + 2 + 2 s.
        backoff = BackoffPolicy(base=0.25, factor=2.0, jitter=0.0, max_delay=2.0)
        chaos = ChaosPolicy(seed=18, kill_prob=0.8, kill_delay=0.0)
        start = time.perf_counter()
        report = ExperimentRunner(
            workers=2, chaos=chaos, retry_backoff=backoff
        ).run_suite(jobs, job_fn=slow_job_fn)
        wall = time.perf_counter() - start
        assert report.ok
        kills = report.resilience["chaos.kills"]
        assert kills == 5
        assert wall < kills * backoff.base + 0.6

    def test_resilience_ledger_reports_only_what_happened(self, jobs):
        # Calm jobs under the heavy preset: every ledger entry must be a
        # leg that acted on the pool or the repair it forced, and every
        # injected kill must have cost exactly one resubmission.
        report = ExperimentRunner(
            workers=2, chaos=get_chaos_policy("heavy", seed=3)
        ).run_suite(jobs * 2, job_fn=slow_job_fn)
        assert report.ok
        effects = {
            "chaos.kills", "chaos.stalls", "chaos.delays",
            "suite.resubmissions", "suite.worker_crashes",
        }
        assert set(report.resilience) <= effects
        assert report.resilience["chaos.kills"] >= 1
        assert report.resilience["suite.resubmissions"] == (
            report.resilience["chaos.kills"]
        )

    def test_inline_mode_applies_worker_side_legs(self, jobs):
        chaos = ChaosPolicy(seed=2, delay_prob=1.0, delay_seconds=0.01)
        report = ExperimentRunner(workers=1, chaos=chaos).run_suite(jobs[:2])
        assert report.ok
        assert report.resilience.get("chaos.delays", 0) == 2

    def test_inactive_chaos_is_dropped(self, jobs):
        runner = ExperimentRunner(workers=1, chaos=ChaosPolicy())
        assert runner.chaos is None
        report = runner.run_suite(jobs[:1])
        assert report.ok
        assert report.resilience is None
