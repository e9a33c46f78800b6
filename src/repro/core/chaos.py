"""Deterministic chaos injection for the suite runner.

A :class:`ChaosPolicy` is a *seeded recipe* of worker-level faults — the
failures a fleet actually sees (preempted workers, OOM kills, scheduler
stalls) — that the :class:`~repro.core.runner.ExperimentRunner`
injects into its own worker pool while a suite runs. The point is not
to make suites fail: it is to *prove they don't*. Property tests and
the CI chaos-smoke job run real suites under sustained chaos and assert
the merged :class:`~repro.core.runner.SuiteReport` is identical (canonically, see
:meth:`~repro.core.runner.SuiteReport.canonical_json`) to an
uninterrupted clean run — retries, worker respawns and the durable
journal doing the repair work.

Every decision is drawn from ``default_rng([seed, job_index, attempt,
salt])``, so a policy is a pure function of ``(seed, job, attempt)``:
the same suite under the same policy injects the same kills, stalls
and delays no matter how many workers run it or how the previous faults
landed.

Three fault legs:

* **kill** — SIGKILL the worker mid-job (parent-side). The runner
  detects the crash, respawns the worker and resubmits the job; kills
  injected by the policy do not consume the job's retry budget (they are
  the runner's own doing), but are capped at
  :attr:`ChaosPolicy.max_faults_per_job` so a pathological policy
  cannot loop forever.
* **stall** — SIGSTOP the worker, SIGCONT it ``stall_seconds`` later
  (parent-side). The per-job timeout clock is credited for the stall so
  a stalled-but-healthy job is not misclassified as hung.
* **delay** — the worker sleeps before starting the job (worker-side).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.errors import ChaosError

#: Salts for the per-leg decision streams (stable across releases; the
#: chaos schedule is part of a run's reproducibility surface).
_KILL_SALT = 0x6B696C6C
_STALL_SALT = 0x7374616C
_DELAY_SALT = 0x64656C61


@dataclass(frozen=True)
class ChaosPlan:
    """The injections one ``(job, attempt)`` submission will suffer.

    Parent-side legs (``kill_after``, ``stall_after``) are seconds after
    submission, ``None`` when the leg did not fire; the worker-side
    ``delay`` travels to the worker inside the job message. Frozen and
    picklable.
    """

    kill_after: Optional[float] = None
    stall_after: Optional[float] = None
    stall_seconds: float = 0.0
    delay: float = 0.0

    @property
    def any(self) -> bool:
        return (
            self.kill_after is not None
            or self.stall_after is not None
            or self.delay > 0.0
        )


@dataclass(frozen=True)
class ChaosPolicy:
    """A seeded, validated recipe of injected worker faults.

    Probabilities are per job submission (so a resubmitted job faces
    fresh, independent draws); durations are seconds.

    Injected kills are the runner's own doing, so they are exempt from
    both the retry budget (up to :attr:`max_faults_per_job`) and the
    backoff ladder: the runner resubmits an injected kill after at most
    ``retry_backoff.base`` seconds. Only real crashes and timeouts (and
    kills beyond the cap) consume ``max_retries`` and lengthen the wait.
    """

    name: str = "custom"
    seed: int = 0
    kill_prob: float = 0.0
    kill_delay: float = 0.05
    stall_prob: float = 0.0
    stall_seconds: float = 0.2
    delay_prob: float = 0.0
    delay_seconds: float = 0.05
    #: Free (budget-exempt) injected faults per job before further
    #: crashes start consuming the normal retry budget.
    max_faults_per_job: int = 16

    def __post_init__(self) -> None:
        for field_name in ("kill_prob", "stall_prob", "delay_prob"):
            value = getattr(self, field_name)
            if not 0.0 <= value <= 1.0:
                raise ChaosError(
                    f"{field_name} must be in [0, 1], got {value!r}"
                )
        for field_name in ("kill_delay", "stall_seconds", "delay_seconds"):
            value = getattr(self, field_name)
            if value < 0.0:
                raise ChaosError(f"{field_name} must be >= 0, got {value!r}")
        if self.max_faults_per_job < 1:
            raise ChaosError(
                f"max_faults_per_job must be >= 1, got "
                f"{self.max_faults_per_job!r}"
            )

    @property
    def active(self) -> bool:
        """True when at least one fault leg can fire."""
        return any(
            p > 0.0 for p in (self.kill_prob, self.stall_prob, self.delay_prob)
        )

    def _draw(self, index: int, attempt: int, salt: int) -> float:
        rng = np.random.default_rng(
            [self.seed & 0xFFFFFFFF, int(index), int(attempt), salt]
        )
        return float(rng.random())

    def plan(self, index: int, attempt: int) -> ChaosPlan:
        """The deterministic injection plan for submission ``attempt``
        (1-based) of job ``index``."""
        kill_after = (
            self.kill_delay
            if self.kill_prob > 0.0
            and self._draw(index, attempt, _KILL_SALT) < self.kill_prob
            else None
        )
        stall_after = (
            0.0
            if self.stall_prob > 0.0
            and self._draw(index, attempt, _STALL_SALT) < self.stall_prob
            else None
        )
        delay = (
            self.delay_seconds
            if self.delay_prob > 0.0
            and self._draw(index, attempt, _DELAY_SALT) < self.delay_prob
            else 0.0
        )
        return ChaosPlan(
            kill_after=kill_after,
            stall_after=stall_after,
            stall_seconds=self.stall_seconds if stall_after is not None else 0.0,
            delay=delay,
        )


def _preset(name: str, **kwargs) -> ChaosPolicy:
    return ChaosPolicy(name=name, **kwargs)


_PRESETS: Dict[str, ChaosPolicy] = {
    "light": _preset(
        "light",
        kill_prob=0.10, stall_prob=0.10, stall_seconds=0.1,
        delay_prob=0.25, delay_seconds=0.02,
    ),
    "moderate": _preset(
        "moderate",
        kill_prob=0.25, stall_prob=0.20, stall_seconds=0.15,
        delay_prob=0.40, delay_seconds=0.05,
    ),
    "heavy": _preset(
        "heavy",
        kill_prob=0.45, kill_delay=0.02, stall_prob=0.30, stall_seconds=0.2,
        delay_prob=0.60, delay_seconds=0.08,
    ),
}


def available_chaos_policies() -> Dict[str, ChaosPolicy]:
    """Name -> preset policy, mirroring the fault-profile registry."""
    return dict(_PRESETS)


def get_chaos_policy(name: str, seed: int = 0) -> ChaosPolicy:
    """A preset :class:`ChaosPolicy` reseeded with ``seed``."""
    try:
        preset = _PRESETS[name]
    except KeyError:
        raise ChaosError(
            f"unknown chaos policy {name!r}; available: {sorted(_PRESETS)}"
        ) from None
    return ChaosPolicy(
        **{**preset.__dict__, "seed": int(seed)}
    )
