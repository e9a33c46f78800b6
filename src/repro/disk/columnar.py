"""Columnar replay engine: structured-array requests, inlined drive.

The reference event loop in :mod:`repro.disk.simulator` steps the drive
one Python method call per request, each call re-deriving geometry
lookups, seek-curve constants and cache bookkeeping. :func:`replay_columnar`
consumes the :data:`~repro.traces.millisecond.REQUEST_DTYPE` structured
array built once per replay and runs one loop for both FCFS and SSTF at
any queue depth. The loop has one ordering part and one serve body:

* **Ordering.** FCFS serves in arrival order. SSTF keeps the
  ``queue_depth`` oldest pending requests as a cylinder-sorted window and
  everything younger in a FIFO backlog — equivalent to the event loop's
  arrival-ordered ``queue[:queue_depth]`` slice, without rebuilding or
  rescanning the window per decision. Full visibility is an unbounded
  window. The nearest-neighbor decision is the shared
  :func:`~repro.disk.scheduler.pick_from_sorted` bisect kernel.
* **Serve body.** A bare drive is served by the drive's decision logic
  inlined over plain Python scalars: everything request-independent is
  hoisted into vectorized precomputation (cylinders, track densities,
  media transfer times), cache and head state are exported from the drive
  before the loop and imported back after it. When the device needs its
  per-access hooks — a :class:`~repro.tier.TieredDevice`, an attached
  fault model, or an event-emitting (trace-level) observer — each request
  instead calls ``device.service_time`` (*hook mode*). The loop works the
  mode out from the device it is handed.

It is a *twin*, not an approximation: every decision is made in the same
order, with the same floating-point operations and the same RNG draw
sequence as :meth:`repro.disk.drive.DiskDrive.service_time` driven by the
reference event loop. Bare mode draws rotational latencies from the
drive's own generator in serve order, block-buffered:
``Generator.uniform(0, h, size=n)`` yields the same value sequence as
``n`` scalar draws, so only the *unused tail* of the final block leaves
the generator further advanced than a scalar replay would. Hook mode
draws nothing itself; the device does. Bit-identity is pinned by
``tests/test_simulator_fast.py`` and the hypothesis sweep in
``tests/test_simulator.py``.
"""

from __future__ import annotations

from bisect import insort
from collections import deque
from dataclasses import replace
from math import sqrt
from typing import List, Optional, Tuple, Union

import numpy as np

from repro.disk.drive import DiskDrive
from repro.disk.faults import FaultEvent
from repro.disk.scheduler import pick_from_sorted
from repro.tier import TieredDevice
from repro.units import SECTOR_BYTES

#: Rotational-latency draws are buffered in blocks of at most this many
#: (never more than the requests left to serve, so a short replay does not
#: pay for a full block); bigger blocks amortize the numpy call, the tail
#: past the last media access is discarded.
DRAW_BLOCK = 4096


def _precompute(drive: DiskDrive, columns: np.ndarray):
    """Request-independent per-run tables and the seek curve's constants.

    The constants are the ones :class:`~repro.disk.mechanics.SeekProfile`
    derives at construction, so ``single + k * (sqrt(d) - 1.0)`` and
    ``t_boundary + slope * (d - b)`` reproduce its ``seek_time`` bit for
    bit.
    """
    lbas = columns["lba"]
    sizes = columns["size"]
    geometry = drive.geometry
    rotation = drive.rotation
    cyl_start = geometry.cylinders_of(lbas).tolist()
    cyl_end = geometry.cylinders_of(lbas + sizes - 1).tolist()
    media = (sizes * rotation / geometry.sectors_per_track_of(lbas)).tolist()
    seek = drive.seek
    return (
        cyl_start,
        cyl_end,
        media,
        rotation,
        float(seek.single_cylinder),
        float(seek.t_boundary),
        float(seek.k),
        float(seek.slope),
        seek.boundary,
        seek.max_distance,
    )


def replay_columnar(
    device: Union[DiskDrive, TieredDevice],
    columns: np.ndarray,
    sstf: bool,
    queue_depth: Optional[int] = None,
) -> Tuple[np.ndarray, np.ndarray, List[FaultEvent], Tuple[int, int, int]]:
    """Replay ``columns`` through ``device`` in FCFS (``sstf=False``) or
    SSTF order; ``queue_depth`` bounds the SSTF window (FCFS ignores it).

    Returns ``(start_times, service_times, fault_events, cache_tally)``.
    ``fault_events`` is sorted by trace index. ``cache_tally`` is
    ``(read_hits, writes_absorbed, writes_fallthrough)`` counted by the
    inlined body; it stays all zero in hook mode, where the cache's own
    obs hooks count instead — each request is counted by exactly one of
    the two.
    """
    n = len(columns)
    drive = device.drive if isinstance(device, TieredDevice) else device
    # Faults and tier residency change what a serve does, and a
    # trace-level observer wants the per-seek and absorbed-write events
    # only the drive's own methods emit: any of them selects hook mode.
    obs = drive.obs
    hooked = (
        drive is not device
        or drive.faults is not None
        or (obs is not None and obs.tracing)
    )
    arrival_list = columns["time"].tolist()
    lba_list = columns["lba"].tolist()
    size_list = columns["size"].tolist()
    write_list = columns["is_write"].tolist()
    head, last_media_end = drive.export_kinematics()
    if hooked:
        # Fault reassignment moves cylinders mid-run, so admission keys
        # come from the drive at admission time, not from a precompute
        # (a tier only delegates both the key and the head to it).
        service_time = device.service_time
        cylinder_of = drive.cylinder_of
        take_fault_event = (
            device.take_fault_event if drive.faults is not None else None
        )
    else:
        nbytes_list = (columns["size"] * SECTOR_BYTES).tolist()
        (
            cyl_start, cyl_end, media_list, rotation,
            single, t_boundary, k, slope, boundary, max_distance,
        ) = _precompute(drive, columns)
        config = drive.spec.cache
        read_ahead = config.read_ahead
        write_back = config.write_back
        hit_overhead = config.hit_overhead
        buffer_cap = config.write_buffer_bytes
        ra_sectors = config.read_ahead_sectors
        seg_max = config.segment_count
        drain_rate = config.drain_rate
        overhead = drive.spec.command_overhead
        segments, dirty, absorbed, drained_total, last_drain = (
            drive.cache.export_state()
        )
        rng_uniform = drive._rng.uniform
        draw_buf: List[float] = []
        draw_pos = 0
    read_hits = 0
    absorbed_n = 0
    fallthrough_n = 0
    events: List[FaultEvent] = []

    starts = [0.0] * n
    services = [0.0] * n
    # The window always holds the min(depth, pending) *oldest* pending
    # requests: admissions go to the window while it has room and to the
    # backlog after (arrivals are admitted in arrival order, so backlog
    # entries are uniformly older than later admissions), and each serve
    # refills from the backlog head. Entries keep the cylinder key they
    # were admitted with, as the event loop's queue does.
    window: List[Tuple[int, int]] = []  # (cylinder, arrival index), sorted
    backlog: deque = deque()  # (cylinder, arrival index), arrival order
    depth = n if queue_depth is None else queue_depth
    next_arrival = 0
    clock = 0.0
    for served in range(n):
        if sstf:
            if not window:
                arrival = arrival_list[next_arrival]
                if arrival > clock:
                    clock = arrival
            while next_arrival < n and arrival_list[next_arrival] <= clock:
                entry = (
                    cylinder_of(lba_list[next_arrival]) if hooked
                    else cyl_start[next_arrival],
                    next_arrival,
                )
                if len(window) < depth:
                    insort(window, entry)
                else:
                    backlog.append(entry)
                next_arrival += 1
            _, i = window.pop(pick_from_sorted(window, head))
            if backlog:
                insort(window, backlog.popleft())
        else:
            i = served
            arrival = arrival_list[i]
            if arrival > clock:
                clock = arrival

        if hooked:
            service = service_time(lba_list[i], size_list[i], write_list[i], clock)
            if take_fault_event is not None:
                event = take_fault_event()
                if event is not None:
                    events.append(replace(event, index=i))
            head = drive._head_cylinder
        else:
            # DiskDrive.service_time, inlined: cache first, then media.
            lba = lba_list[i]
            size = size_list[i]
            is_write = write_list[i]
            service = -1.0
            if is_write:
                if write_back:
                    shed = (clock - last_drain) * drain_rate
                    if shed > dirty:
                        shed = dirty
                    dirty -= shed
                    drained_total += shed
                    last_drain = clock
                    nbytes = nbytes_list[i]
                    if dirty + nbytes <= buffer_cap:
                        dirty += nbytes
                        absorbed += nbytes
                        absorbed_n += 1
                        service = hit_overhead
                    else:
                        fallthrough_n += 1
            elif read_ahead:
                end = lba + size
                for seg_start, seg_stop in segments:
                    if seg_start <= lba and end <= seg_stop:
                        service = hit_overhead
                        read_hits += 1
                        break
            if service < 0.0:
                if lba == last_media_end:
                    positioning = 0.0
                else:
                    if draw_pos == len(draw_buf):
                        draw_buf = rng_uniform(
                            0.0, rotation, min(DRAW_BLOCK, n - served)
                        ).tolist()
                        draw_pos = 0
                    latency = draw_buf[draw_pos]
                    draw_pos += 1
                    distance = cyl_start[i] - head
                    if distance < 0:
                        distance = -distance
                    if distance == 0:
                        positioning = latency
                    elif distance <= boundary:
                        positioning = single + k * (sqrt(distance) - 1.0) + latency
                    else:
                        d = distance if distance < max_distance else max_distance
                        positioning = t_boundary + slope * (d - boundary) + latency
                head = cyl_end[i]
                last_media_end = lba + size
                if not is_write and read_ahead:
                    segments.append((lba, last_media_end + ra_sectors))
                    if len(segments) > seg_max:
                        del segments[0]
                service = overhead + positioning + media_list[i]
        starts[i] = clock
        services[i] = service
        clock += service

    if hooked:
        events.sort(key=lambda e: e.index)
    else:
        drive.cache.import_state(segments, dirty, absorbed, drained_total, last_drain)
        drive.import_kinematics(head, last_media_end)
    return (
        np.asarray(starts, dtype=np.float64),
        np.asarray(services, dtype=np.float64),
        events,
        (read_hits, absorbed_n, fallthrough_n),
    )
