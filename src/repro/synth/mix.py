"""Read/write mix models.

The paper analyzes "the dynamics of the read and write traffic": not just
the average mix but how it moves over time. :class:`BernoulliMix` gives a
time-stationary mix; :class:`MarkovMix` produces runs of same-direction
requests (write bursts from cache destaging above the disk, read bursts
from scans), which is what makes the R:W ratio *dynamic* at short scales.

A mix model is a callable: given a count, return boolean is-write flags.
"""

from __future__ import annotations

from bisect import bisect_left

import numpy as np

from repro.errors import SynthesisError


class BernoulliMix:
    """Independent per-request direction with a fixed write probability."""

    def __init__(self, write_fraction: float) -> None:
        if not 0.0 <= write_fraction <= 1.0:
            raise SynthesisError(
                f"write_fraction must be in [0, 1], got {write_fraction!r}"
            )
        self.write_fraction = float(write_fraction)

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Is-write flags for ``n`` requests."""
        return rng.uniform(size=n) < self.write_fraction


class MarkovMix:
    """Two-state Markov direction process: same-direction runs.

    Parameters
    ----------
    write_fraction:
        Stationary write probability.
    mean_run_length:
        Mean length of a same-direction run (>= 1). Longer runs mean the
        instantaneous mix swings further from the stationary value —
        more "dynamics" in the R:W ratio.
    """

    def __init__(self, write_fraction: float, mean_run_length: float = 8.0) -> None:
        if not 0.0 < write_fraction < 1.0:
            raise SynthesisError(
                "write_fraction must be in (0, 1) for a Markov mix, "
                f"got {write_fraction!r}"
            )
        if mean_run_length < 1.0:
            raise SynthesisError(
                f"mean_run_length must be >= 1, got {mean_run_length!r}"
            )
        self.write_fraction = float(write_fraction)
        self.mean_run_length = float(mean_run_length)
        # Switching probabilities chosen so the stationary distribution is
        # (write_fraction, 1 - write_fraction) and the mean sojourn in the
        # *more likely* state matches mean_run_length.
        switch = 1.0 / mean_run_length
        major = max(write_fraction, 1.0 - write_fraction)
        minor = 1.0 - major
        self._leave_major = switch
        self._leave_minor = min(1.0, switch * major / minor)
        self._major_is_write = write_fraction >= 0.5

    def generate(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Is-write flags for ``n`` requests."""
        if n == 0:
            return np.zeros(0, dtype=bool)
        in_major = bool(
            rng.uniform() < max(self.write_fraction, 1.0 - self.write_fraction)
        )
        uniforms = rng.uniform(size=n)
        # Request i is served in the current state, and the state flips
        # after it when uniforms[i] falls below that state's leave
        # probability: jump from one flip to the next.
        leaves = {
            True: np.flatnonzero(uniforms < self._leave_major).tolist(),
            False: np.flatnonzero(uniforms < self._leave_minor).tolist(),
        }
        flipped = np.zeros(n, dtype=bool)  # the state changed before i
        state = in_major
        i = 0
        while i < n:
            candidates = leaves[state]
            k = bisect_left(candidates, i)
            if k == len(candidates):
                break
            i = candidates[k] + 1
            if i < n:
                flipped[i] = True
            state = not state
        major = (np.cumsum(flipped) % 2 == 0) == in_major
        return major == self._major_is_write
