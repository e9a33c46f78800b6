"""``repro-workloads``: the command-line front end.

Examples
--------
List the built-in workload profiles::

    repro-workloads profiles

Synthesize ten minutes of the web workload and analyze it::

    repro-workloads synth-ms --profile web --span 600 -o web.csv
    repro-workloads analyze-ms web.csv

One-shot study (synthesize + simulate + report)::

    repro-workloads study --profile database --span 300

Ingest a real trace (MSR Cambridge format), fit its synthetic twin, and
replay it::

    repro-workloads ingest proj_0.csv --format msr --permissive \
        --calibrate-out fit.json -o proj_0.native.csv
    repro-workloads analyze-ms proj_0.csv --format msr
    repro-workloads run-suite --trace proj_0.csv --trace-format msr

Hour- and lifetime-granularity data sets::

    repro-workloads synth-hourly --drives 50 --weeks 4 -o hourly.jsonl
    repro-workloads analyze-hourly hourly.jsonl
    repro-workloads synth-family --drives 2000 -o family.csv
    repro-workloads analyze-family family.csv
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.report import Table, format_percent, section
from repro.disk.drive import DriveSpec, cheetah_10k, cheetah_15k, nearline_7200
from repro.disk.faults import available_fault_profiles, get_fault_profile
from repro.errors import CliError, ReproError
from repro.obs import OBS_LEVELS, Observer
from repro.fleet.placement import PLACEMENT_POLICIES
from repro.fleet.tenant import DEFAULT_TENANT_PROFILES
from repro.synth.profiles import available_profiles, get_profile
from repro.tier import TIER_MODES, TierConfig, available_heat_policies
from repro.traces.io import (
    read_hourly_dataset,
    read_lifetime_dataset,
    write_hourly_dataset,
    write_lifetime_dataset,
    write_request_trace,
)
from repro.units import format_duration

_DRIVES = {
    "enterprise-10k": cheetah_10k,
    "enterprise-15k": cheetah_15k,
    "nearline-7200": nearline_7200,
}

SCHEDULERS = ["fcfs", "sstf", "scan"]


def _drive(name: str) -> DriveSpec:
    try:
        return _DRIVES[name]()
    except KeyError:
        raise CliError(f"unknown drive {name!r}; available: {sorted(_DRIVES)}") from None


def _fault_profile(name):
    """Resolve a ``--fault-profile`` value (``None`` = healthy drive)."""
    return None if name is None else get_fault_profile(name)


def _load_trace(args: argparse.Namespace):
    """Read ``args.trace`` honoring ``--format``/``--permissive``
    through the ingest parser registry (default ``native``, the
    library's own CSV)."""
    from repro.traces.ingest import get_parser

    return get_parser(args.format).parse(args.trace, strict=not args.permissive)


def _tier_config(args: argparse.Namespace) -> Optional[TierConfig]:
    """Resolve ``--tier``/``--tier-policy`` (``None`` = bare drive)."""
    mode = getattr(args, "tier", "off")
    if mode == "off":
        return None
    return TierConfig(mode=mode, policy=getattr(args, "tier_policy", "lru"))


def _obs_level_from_args(args: argparse.Namespace) -> str:
    """The effective observability level: ``--trace-events PATH``
    implies ``trace`` (no point dumping an empty file)."""
    level = getattr(args, "obs", "off")
    if getattr(args, "trace_events", None) and level != "trace":
        level = "trace"
    return level


def _observer_from_args(args: argparse.Namespace) -> Optional[Observer]:
    """Build the run's :class:`~repro.obs.Observer` (``None`` = off)."""
    level = _obs_level_from_args(args)
    return None if level == "off" else Observer(level)


def _obs_section(obs: Observer) -> str:
    """Render an observer's metrics (and event summary) for the report."""
    table = Table(["metric", "value"], precision=6)
    for name, counter in sorted(obs.metrics.counters.items()):
        table.add_row([name, counter.value])
    for name, gauge in sorted(obs.metrics.gauges.items()):
        table.add_row([name, gauge.last])
    for name, hist in sorted(obs.metrics.histograms.items()):
        table.add_row([f"{name}.n", hist.n])
        table.add_row([f"{name}.mean", hist.moments.mean])
        table.add_row([f"{name}.p95~", hist.approx_quantile(0.95)])
    body = table.render()
    if obs.events is not None:
        by_kind: dict = {}
        for event in obs.events:
            by_kind[event.kind] = by_kind.get(event.kind, 0) + 1
        events = Table(["event_kind", "count"])
        for kind, count in sorted(by_kind.items()):
            events.add_row([kind, count])
        note = f"{obs.events.n_emitted} events emitted"
        if obs.events.n_dropped:
            note += f", {obs.events.n_dropped} dropped (ring full)"
        body += "\n" + events.render() + f"\n({note})"
    return section(f"Observability (level={obs.level})", body)


def _dump_trace_events(obs: Optional[Observer], path: Optional[str]) -> None:
    """Write the observer's retained events to ``path`` as JSONL."""
    if path is None or obs is None or obs.events is None:
        return
    written = obs.events.dump_jsonl(path)
    print(f"wrote {written} trace events to {path}")


def _fault_section(result) -> str:
    """Render the fault summary of a degraded-mode simulation result."""
    summary = result.fault_summary()
    table = Table(["metric", "value"])
    for key in (
        "n_requests", "n_faulted", "n_failed", "completed_requests",
        "n_reassigned", "fault_penalty_seconds",
    ):
        table.add_row([key, summary[key]])
    for kind, count in sorted(summary["events_by_kind"].items()):
        table.add_row([f"events[{kind}]", count])
    return section("Fault injection", table.render())


def _tier_section(result) -> str:
    """Render the tier summary and hit/miss tail split of a tiered run."""
    from repro.core.latency import analyze_tier_tail

    summary = result.tier_summary
    table = Table(["metric", "value"], precision=4)
    for key in (
        "mode", "policy", "requests", "read_hits", "write_hits", "hit_rate",
        "hdd_offload", "flushed_bytes", "evictions", "dirty_evictions",
        "promoted_chunks", "demoted_chunks",
    ):
        table.add_row([key, summary[key]])
    body = table.render()
    tail = analyze_tier_tail(result)
    if tail.n_hits and tail.n_misses:
        split = Table(["statistic", "hit", "miss", "miss/hit"], precision=4)
        for name in ("mean", "p99", "p999", "max"):
            split.add_row([
                f"{name}_response_ms",
                getattr(tail.hit, f"{name}_response") * 1e3,
                getattr(tail.miss, f"{name}_response") * 1e3,
                tail.miss_inflation[name],
            ])
        body += "\n" + split.render()
    return section(
        f"SSD tier ({summary['mode']}:{summary['policy']})", body
    )


def _cmd_profiles(_args: argparse.Namespace) -> int:
    table = Table(["name", "rate_req_s", "arrival", "spatial", "description"])
    for name, profile in sorted(available_profiles().items()):
        table.add_row(
            [name, profile.rate, profile.arrival.model, profile.spatial, profile.description]
        )
    print(table.render())
    return 0


def _cmd_synth_ms(args: argparse.Namespace) -> int:
    drive = _drive(args.drive)
    profile = get_profile(args.profile)
    trace = profile.synthesize(
        span=args.span, capacity_sectors=drive.capacity_sectors, seed=args.seed
    )
    write_request_trace(trace, args.output)
    print(f"wrote {len(trace)} requests ({format_duration(trace.span)}) to {args.output}")
    return 0


def _cmd_synth_hourly(args: argparse.Namespace) -> int:
    from repro.synth.hourly import HourlyWorkloadModel

    drive = _drive(args.drive)
    model = HourlyWorkloadModel(bandwidth=drive.sustained_bandwidth)
    dataset = model.generate(n_drives=args.drives, weeks=args.weeks, seed=args.seed)
    write_hourly_dataset(dataset, args.output)
    print(f"wrote {len(dataset)} drives x {dataset.hours} hours to {args.output}")
    return 0


def _cmd_synth_family(args: argparse.Namespace) -> int:
    from repro.synth.family import FamilyModel

    drive = _drive(args.drive)
    model = FamilyModel(bandwidth=drive.sustained_bandwidth)
    dataset = model.generate(n_drives=args.drives, seed=args.seed, family=drive.name)
    write_lifetime_dataset(dataset, args.output)
    print(f"wrote {len(dataset)} lifetime records to {args.output}")
    return 0


def _cmd_study(args: argparse.Namespace) -> int:
    from repro.core.dossier import render_study_report
    from repro.core.timescales import run_millisecond_study

    drive = _drive(args.drive)
    if (args.profile is None) == (args.trace is None):
        raise CliError("study needs exactly one of --profile or --trace")
    faults = _fault_profile(args.fault_profile)
    tier = _tier_config(args)
    obs = _observer_from_args(args)
    if args.trace is not None:
        workload, synth = _load_trace(args), {}
    else:
        workload = get_profile(args.profile)
        synth = {"span": args.span, "seed": args.seed}
    study = run_millisecond_study(
        workload, drive, scheduler=args.scheduler,
        faults=faults, tier=tier, obs=obs, **synth,
    )
    print(render_study_report(study, drive_name=drive.name))
    if faults is not None:
        print(_fault_section(study.simulation))
    if tier is not None:
        print(_tier_section(study.simulation))
    if obs is not None:
        print(_obs_section(obs))
        _dump_trace_events(obs, args.trace_events)
    return 0


def _cmd_analyze_hourly(args: argparse.Namespace) -> int:
    from repro.core.dossier import render_hour_report
    from repro.core.hour_analysis import analyze_hour_scale, diurnal_peak_ratio

    dataset = read_hourly_dataset(args.dataset)
    drive = _drive(args.drive)
    analysis = analyze_hour_scale(dataset, bandwidth=drive.sustained_bandwidth)
    print(render_hour_report(analysis, diurnal_ratio=diurnal_peak_ratio(dataset)))
    return 0


def _cmd_analyze_family(args: argparse.Namespace) -> int:
    from repro.core.dossier import render_family_report
    from repro.core.lifetime_analysis import analyze_family

    dataset = read_lifetime_dataset(args.dataset)
    drive = _drive(args.drive)
    analysis = analyze_family(dataset, bandwidth=drive.sustained_bandwidth)
    print(render_family_report(analysis, family=dataset.family))
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    from repro.synth.calibrate import calibrate_profile, calibration_report, fingerprint

    trace = _load_trace(args)
    drive = _drive(args.drive)
    fp = fingerprint(trace)
    profile = calibrate_profile(trace)
    report = calibration_report(trace, profile, drive.capacity_sectors, seed=args.seed)

    table = Table(["statistic", "value"])
    table.add_row(["request rate (req/s)", fp.request_rate])
    table.add_row(["write fraction", fp.write_fraction])
    table.add_row(["sequentiality", fp.sequentiality])
    table.add_row(["interarrival CV", fp.interarrival_cv])
    table.add_row(["Hurst", fp.hurst])
    table.add_row(["fitted arrival model", profile.arrival.model])
    table.add_row(["fitted spatial model", profile.spatial])
    print(section("Fingerprint & fit", table.render()))

    errors = Table(["statistic", "relative_error"])
    for key, value in report.items():
        errors.add_row([key, value])
    print(section("Calibration report", errors.render()))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.synth.calibrate import fit_from_trace, validate_twin
    from repro.traces.ingest import get_parser

    parser = get_parser(args.format)
    strict = not args.permissive
    quarantine: list = []
    trace = parser.parse(
        args.trace,
        strict=strict,
        quarantine=None if strict else quarantine,
        max_requests=args.max_requests,
    )

    table = Table(["statistic", "value"], precision=4)
    table.add_row(["format", args.format])
    table.add_row(["mode", "strict" if strict else "permissive"])
    table.add_row(["requests", len(trace)])
    table.add_row(["span", format_duration(trace.span)])
    table.add_row(["request rate (req/s)", trace.request_rate])
    table.add_row(["write fraction", trace.write_fraction])
    # A native file may declare a span and hold no rows.
    mean_sectors = float(trace.nsectors.mean()) if len(trace) else float("nan")
    table.add_row(["mean request (sectors)", mean_sectors])
    table.add_row(["footprint (sectors)", int((trace.lbas + trace.nsectors).max(initial=0))])
    table.add_row(["quarantined rows", len(quarantine)])
    # Render the basename so reports are identical wherever the trace
    # (and the repo) happens to live on disk.
    print(section(f"Ingest: {Path(args.trace).name}", table.render()))

    if quarantine:
        bad = Table(["location", "reason"])
        for row in quarantine[:8]:
            bad.add_row([f"{Path(row.path).name}:{row.lineno}", row.reason])
        note = "" if len(quarantine) <= 8 else f"\n(+{len(quarantine) - 8} more)"
        print(section("Quarantined rows", bad.render() + note))

    if args.output:
        write_request_trace(trace, args.output)
        print(f"wrote {len(trace)} requests to {args.output}")

    if args.calibrate_out:
        fit = fit_from_trace(trace)
        validation = validate_twin(trace, fit, scales=args.scales, seed=args.seed)
        fit_table = Table(["parameter", "value"])
        fit_table.add_row(["arrival model", fit.arrival["model"]])
        fit_table.add_row(["spatial model", fit.spatial["kind"]])
        fit_table.add_row(["size model", fit.sizes["type"]])
        fit_table.add_row(["mix model", fit.mix["type"]])
        print(section("Fitted twin", fit_table.render()))
        div = Table(
            ["scale_s", "rate", "count_cv", "idc", "idle_fraction"],
            title="real vs twin divergence per timescale",
            precision=4,
        )
        for scale in validation.scales:
            stats = validation.per_scale[scale]
            div.add_row(
                [scale, stats["rate"], stats["count_cv"], stats["idc"],
                 stats["idle_fraction"]]
            )
        print(div.render())
        print(f"(max divergence {validation.max_divergence:.4f})")
        payload = {
            "source": {
                "path": args.trace,
                "format": args.format,
                "strict": strict,
                "requests": len(trace),
                "quarantined": len(quarantine),
            },
            "fit": fit.to_dict(),
            "twin_validation": validation.to_dict(),
        }
        with open(args.calibrate_out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        print(f"wrote calibration to {args.calibrate_out}")
    return 0


def _cmd_power(args: argparse.Namespace) -> int:
    from repro.core.timescales import run_millisecond_study
    from repro.disk.power import PowerProfile, sweep_timeouts

    trace = _load_trace(args)
    drive = _drive(args.drive)
    power = PowerProfile()
    study = run_millisecond_study(trace, drive)
    timeouts = sorted(set(args.timeouts + [power.break_even_seconds()]))
    reports = sweep_timeouts(study.simulation.timeline, power, timeouts + [float("inf")])

    table = Table(["timeout_s", "energy_savings", "spin_downs", "added_latency_s"])
    for timeout in sorted(reports):
        r = reports[timeout]
        table.add_row(
            [timeout, format_percent(r.savings_fraction), r.spin_downs,
             r.added_latency_seconds]
        )
    print(
        section(
            f"Spin-down sweep (break-even {power.break_even_seconds():.1f} s)",
            table.render(),
        )
    )
    return 0


def _execute_suite(args, units, unit: str, run, **limits):
    """Run a suite through the runner, journal and chaos plumbing that
    ``run-suite`` and ``fleet`` share; returns ``(report, journal)``.

    ``units`` are the journal's checkpoint units (jobs, or a fleet's
    dispatch shards), named ``unit`` in the resume line.
    ``run(runner, journal)`` executes the suite and ``limits`` are extra
    :class:`~repro.core.runner.ExperimentRunner` options. A
    :class:`~repro.errors.SuiteError` is reported on stderr and its
    partial report returned.
    """
    from repro.core.runner import ExperimentRunner
    from repro.errors import SuiteError

    chaos = None
    if args.chaos != "off":
        from repro.core.chaos import get_chaos_policy

        chaos = get_chaos_policy(args.chaos, seed=args.chaos_seed)
    runner = ExperimentRunner(
        workers=args.workers,
        max_retries=args.max_retries,
        on_error="collect" if args.keep_going else "raise",
        chaos=chaos,
        **limits,
    )
    journal = None
    if args.resume and not args.journal:
        raise CliError("--resume requires --journal PATH")
    if args.journal:
        from repro.core.journal import SuiteJournal

        journal = SuiteJournal.open(args.journal, units, resume=args.resume)
        if journal.resumed and journal.n_completed:
            print(
                f"(resuming from journal {args.journal}: "
                f"{journal.n_completed} of {len(units)} {unit}s already "
                "recorded, skipping them)"
            )
    try:
        report = run(runner, journal)
    except SuiteError as exc:
        report = exc.report
        print(f"error: {exc}", file=sys.stderr)
    finally:
        if journal is not None:
            journal.close()
    return report, journal


def _print_suite_tail(args, report, journal, unit: str) -> None:
    """Print what every suite run ends with: failures, retries, the
    resilience counters, the journal state, a deadline warning and, with
    ``--obs``, the per-phase breakdown and merged-metrics line."""
    if report.failures:
        failures = Table(
            ["job", "error", "attempts", "wall_s", "message"],
            title=f"failures: {len(report.failures)} of {report.n_jobs} jobs",
            precision=3,
        )
        for f in report.failures:
            failures.add_row(
                [f.label, f.error_type, f.attempts, f.wall_seconds, f.message]
            )
        print()
        print(failures.render())
    if report.retries:
        print(f"({report.retries} retried attempt(s) across the suite)")
    if report.resilience:
        resilience = Table(
            ["event", "count"],
            title="resilience: what the crash/chaos machinery absorbed",
        )
        for name, count in sorted(report.resilience.items()):
            resilience.add_row([name, count])
        print(resilience.render())
    if journal is not None:
        print(
            f"(journal {args.journal}: {journal.n_recorded} {unit}(s) recorded "
            f"this run, {journal.n_completed} of {len(journal.fingerprints)} "
            "durable)"
        )
    if report.deadline_exceeded:
        unresolved = report.n_jobs - report.n_completed
        deadline = getattr(args, "suite_deadline", None)  # fleet has none
        print(
            f"warning: suite deadline of {deadline} s expired "
            f"with {unresolved} job(s) unresolved; the report is partial"
            + (" (resume with --journal/--resume)" if journal is not None else ""),
            file=sys.stderr,
        )
    obs_level = _obs_level_from_args(args)
    if obs_level != "off":
        breakdown = report.phase_breakdown()
        if breakdown:
            phases = Table(
                ["phase", "wall_s", "cpu_s", "jobs"],
                title=f"per-phase breakdown (obs={obs_level})",
                precision=4,
            )
            for name, entry in sorted(breakdown.items()):
                phases.add_row(
                    [name, entry["wall_seconds"], entry["cpu_seconds"],
                     int(entry["jobs"])]
                )
            print(phases.render())
        merged = report.merged_metrics()
        if merged is not None:
            print(
                f"(suite-wide metrics: {len(merged)} series merged across "
                f"{len(report.results)} jobs)"
            )


def _write_suite_events(report, path: Optional[str]) -> None:
    """Write ``--trace-events``: every job's retained events as JSONL,
    each tagged with its job label."""
    if not path:
        return
    import json

    written = 0
    with open(path, "w") as fh:
        for r in report.results:
            for event in r.trace_events or ():
                json.dump({**event, "job": r.label}, fh, sort_keys=True)
                fh.write("\n")
                written += 1
    print(f"wrote {written} trace events to {path}")


def _write_suite_json(args, report, noun: str, extra: dict) -> None:
    """Write a suite's ``--json`` payload to ``args.json``: the report
    keys every suite command shares (with ``--obs``, the observability
    keys too) plus the command's own ``extra`` keys."""
    import json

    payload = {
        "jobs": [r.as_dict() for r in report.results],
        "failures": [f.as_dict() for f in report.failures],
        "n_jobs": report.n_jobs,
        "workers": report.workers,
        "retries": report.retries,
        "wall_seconds": report.wall_seconds,
        **extra,
    }
    if report.deadline_exceeded:
        payload["deadline_exceeded"] = True
    if report.resilience:
        payload["resilience"] = dict(report.resilience)
    obs_level = _obs_level_from_args(args)
    if obs_level != "off":
        merged = report.merged_metrics()
        payload["obs_level"] = obs_level
        payload["phase_breakdown"] = report.phase_breakdown()
        payload["metrics"] = None if merged is None else merged.as_dict()
    with open(args.json, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    print(
        f"wrote {len(report.results)} {noun} results "
        f"({len(report.failures)} failures) to {args.json}"
    )


def _cmd_run_suite(args: argparse.Namespace) -> int:
    from repro.core.runner import ExperimentJob, derive_seeds, experiment_matrix

    drive = _drive(args.drive)
    faults = _fault_profile(args.fault_profile)
    tier = _tier_config(args)
    obs_level = _obs_level_from_args(args)
    if args.traces:
        if args.profiles:
            raise CliError("--trace and --profiles are mutually exclusive")
        from repro.traces.ingest import TraceSource

        sources = [
            TraceSource(
                path,
                format=args.trace_format,
                strict=not getattr(args, "permissive", False),
            )
            for path in args.traces
        ]
        combos = [(src, sched) for src in sources for sched in args.schedulers]
        seeds = derive_seeds(args.base_seed, len(combos))
        jobs = [
            ExperimentJob(
                profile=None,
                drive=drive,
                scheduler=scheduler,
                seed=seeds[i],
                queue_depth=args.queue_depth,
                faults=faults,
                tier=tier,
                obs_level=obs_level,
                trace=source,
            )
            for i, (source, scheduler) in enumerate(combos)
        ]
    else:
        catalog = available_profiles()
        names = args.profiles if args.profiles else sorted(catalog)
        unknown = [n for n in names if n not in catalog]
        if unknown:
            raise CliError(f"unknown profiles {unknown}; available: {sorted(catalog)}")
        jobs = experiment_matrix(
            profiles=[catalog[n] for n in names],
            drive=drive,
            schedulers=args.schedulers,
            seeds_per_combo=args.seeds,
            base_seed=args.base_seed,
            span=args.span,
            queue_depth=args.queue_depth,
            faults=faults,
            tier=tier,
            obs_level=obs_level,
        )
    report, journal = _execute_suite(
        args, jobs, "job",
        lambda runner, journal: runner.run_suite(jobs, journal=journal),
        job_timeout=args.job_timeout,
        suite_deadline=args.suite_deadline,
        rss_limit_mb=args.rss_limit_mb,
    )

    columns = [
        "workload", "scheduler", "seed", "requests", "utilization",
        "mean_resp_ms", "p95_resp_ms", "replay_req_s",
    ]
    if faults is not None:
        columns += ["p99_resp_ms", "faulted", "failed"]
    if tier is not None:
        columns += ["tier_hit_rate", "hdd_offload"]
    title = f"run-suite: {len(jobs)} jobs on {drive.name}"
    if faults is not None:
        title += f" (faults={faults.name})"
    if tier is not None:
        title += f" (tier={tier.name})"
    table = Table(columns, title=title, precision=3)
    for r in report.results:
        row = [
            r.profile, r.scheduler, r.seed, r.n_requests, r.utilization,
            r.mean_response * 1e3, r.p95_response * 1e3, round(r.replay_rate),
        ]
        if faults is not None:
            row += [r.p99_response * 1e3, r.n_faulted, r.n_failed]
        if tier is not None:
            row += [r.tier_hit_rate, r.tier_hdd_offload]
        table.add_row(row)
    print(table.render())
    if tier is not None and report.tiered_results:
        print(
            f"(tier {tier.name!r}: hit rate {report.tier_hit_rate:.3f}, "
            f"HDD offload {report.tier_hdd_offload:.3f}, "
            f"{report.tier_flushed_bytes} bytes destaged, "
            f"{report.tier_migrated_chunks} chunks migrated suite-wide)"
        )
    if faults is not None:
        print(
            f"(fault profile {faults.name!r}: {report.n_faulted} faulted, "
            f"{report.n_failed_requests} failed requests, "
            f"{report.fault_penalty_seconds:.3f} s recovery penalty suite-wide)"
        )
    _print_suite_tail(args, report, journal, "job")
    _write_suite_events(report, args.trace_events)
    if args.json:
        extra = {"drive": drive.name, "span": args.span}
        if faults is not None:
            extra["fault_profile"] = faults.name
            extra["fault_summary"] = report.fault_summary()
        if tier is not None:
            extra["tier"] = tier.name
            extra["tier_summary"] = report.tier_summary()
        _write_suite_json(args, report, "job", extra)
    return 1 if report.failures else 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.core.runner import shard_jobs
    from repro.fleet import (
        FleetSpec,
        build_fleet_plan,
        plan_fleet_scrub,
        sample_tenants,
    )

    drive = _drive(args.drive)
    faults = _fault_profile(args.fault_profile)
    tier = _tier_config(args)
    obs_level = _obs_level_from_args(args)
    tenants = sample_tenants(
        args.tenants,
        seed=args.seed,
        profiles=tuple(args.tenant_profiles),
        min_rate=args.min_rate,
        max_rate=args.max_rate,
    )
    spec = FleetSpec(
        n_drives=args.drives,
        tenants=tenants,
        drive=drive,
        placement=args.placement,
        scheduler=args.scheduler,
        span=args.span,
        seed=args.seed,
        queue_depth=args.queue_depth,
        faults=faults,
        tier=tier,
        obs_level=obs_level,
        interference=args.interference,
    )
    plan = build_fleet_plan(spec)
    report, journal = _execute_suite(
        args, shard_jobs(plan.jobs, args.shard_size), "shard",
        lambda runner, journal: runner.run_sharded(
            plan.jobs, shard_size=args.shard_size, journal=journal
        ),
    )

    label_to_drive = {
        job.label: drive_index
        for job, drive_index in zip(plan.jobs, plan.drive_indices)
    }
    table = Table(
        ["drive", "tenants", "requests", "utilization", "mean_resp_ms",
         "p99_resp_ms", "busy_s"],
        title=(
            f"fleet: {len(tenants)} tenants on {args.drives} x {drive.name} "
            f"({args.placement} placement, shard_size={args.shard_size})"
        ),
        precision=3,
    )
    for r in report.results:
        drive_index = label_to_drive.get(r.label)
        table.add_row([
            f"drive{drive_index:03d}" if drive_index is not None else "?",
            len(r.tenant_qos or {}),
            r.n_requests,
            r.utilization,
            r.mean_response * 1e3,
            r.p99_response * 1e3,
            r.total_busy,
        ])
    print(table.render())

    summary = report.fleet_summary()
    if summary:
        per_tenant = Table(
            ["tenant", "requests", "mean_resp_ms", "p99_resp_ms",
             "p999_resp_ms", "max_resp_ms"],
            title="per-tenant QoS (worst across the tenant's drives)",
            precision=3,
        )
        for tenant_id in sorted(summary):
            entry = summary[tenant_id]
            per_tenant.add_row([
                tenant_id,
                int(entry["n_requests"]),
                entry["mean_response"] * 1e3,
                entry["p99_response"] * 1e3,
                entry["p999_response"] * 1e3,
                entry["max_response"] * 1e3,
            ])
        print(per_tenant.render())
    interference_payload = {}
    if args.interference:
        noisy = Table(
            ["tenant", "isolated_p99_ms", "colocated_p99_ms", "p99_inflation"],
            title="noisy-neighbor interference (co-located vs isolated tails)",
            precision=3,
        )
        for r in report.results:
            for tenant_id in sorted(r.tenant_interference or {}):
                entry = r.tenant_interference[tenant_id]
                interference_payload[tenant_id] = entry
                noisy.add_row([
                    tenant_id,
                    entry["isolated_p99"] * 1e3,
                    entry["colocated_p99"] * 1e3,
                    entry["p99_inflation"],
                ])
        print(noisy.render())
    scrub_plan = None
    if args.scrub_budget is not None:
        scrub_plan = plan_fleet_scrub(
            report.results, args.scrub_budget, args.scrub_work
        )
        print(
            f"(fleet scrub: {scrub_plan.total_allocated:.1f} s of the "
            f"{args.scrub_budget:.1f} s idle budget allocated across "
            f"{len(scrub_plan.allocations)} drives, "
            f"{scrub_plan.completion_fraction:.1%} of the scrub workload covered)"
        )
    _print_suite_tail(args, report, journal, "shard")
    _write_suite_events(report, args.trace_events)
    if args.json:
        extra = {
            "schema_version": 1,
            "fleet": {
                "n_drives": args.drives,
                "n_tenants": len(tenants),
                "placement": args.placement,
                "shard_size": args.shard_size,
                "span": args.span,
                "seed": args.seed,
                "drive": drive.name,
                "tenants": [
                    {
                        "tenant_id": t.tenant_id,
                        "profile": t.workload_name,
                        "rate": t.profile.rate if t.profile is not None else None,
                    }
                    for t in tenants
                ],
                "assignments": plan.placement.as_dict()["assignments"],
            },
            "fleet_summary": summary,
        }
        if interference_payload:
            extra["interference"] = interference_payload
        if scrub_plan is not None:
            extra["scrub_plan"] = scrub_plan.as_dict()
        _write_suite_json(args, report, "drive", extra)
    return 1 if report.failures else 0


def _cmd_fleet_anomalies(args: argparse.Namespace) -> int:
    from repro.core.anomaly import population_anomalies, self_anomalies

    dataset = read_hourly_dataset(args.dataset)
    flagged = self_anomalies(
        dataset, recent_hours=args.recent_hours, threshold=args.threshold
    ) + population_anomalies(dataset, threshold=args.threshold)
    table = Table(["drive", "kind", "robust_z", "detail"])
    for anomaly in flagged:
        table.add_row(
            [anomaly.drive_id, anomaly.kind, anomaly.z_score, anomaly.detail]
        )
    if not flagged:
        print("no anomalies detected")
    else:
        print(section(f"Fleet anomalies ({len(flagged)} flagged)", table.render()))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro-workloads",
        description="Multi-time-scale disk-level workload characterization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_drive(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--drive", default="enterprise-10k", choices=sorted(_DRIVES),
            help="drive model (default: enterprise-10k)",
        )

    def add_faults(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--fault-profile", default=None,
            choices=sorted(available_fault_profiles()),
            help="inject drive faults during the replay (default: healthy)",
        )

    def add_tier(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--tier", default="off", choices=["off"] + list(TIER_MODES),
            help="front the drive with an SSD cache tier: wt=write-through, "
            "wb=write-back (default: off, bit-identical to no tier)",
        )
        p.add_argument(
            "--tier-policy", default="lru",
            choices=list(available_heat_policies()),
            help="chunk-heat policy driving eviction and migration "
            "(default: lru)",
        )

    def add_format(p: argparse.ArgumentParser) -> None:
        from repro.traces.ingest import available_formats

        p.add_argument(
            "--format", default="native", choices=sorted(available_formats()),
            help="trace file format (default: native, this library's CSV)",
        )
        p.add_argument(
            "--permissive", action="store_true",
            help="quarantine corrupt rows instead of failing on the first "
            "(default: strict)",
        )

    def add_obs(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--obs", default="off", choices=list(OBS_LEVELS),
            help="observability level: metrics alone, or metrics + event "
            "trace (default: off; results are bit-identical at every level)",
        )
        p.add_argument(
            "--trace-events", default=None, metavar="PATH",
            help="dump the event trace as JSONL to PATH (implies --obs trace)",
        )

    def add_suite(p: argparse.ArgumentParser) -> None:
        """The runner, journal and chaos flags of every suite command."""
        p.add_argument("--queue-depth", type=int, default=None)
        p.add_argument(
            "--workers", type=int, default=None,
            help="worker processes (default: one per CPU; 1 = run inline)",
        )
        p.add_argument(
            "--max-retries", type=int, default=0,
            help="extra attempts per failing job or shard, one budget "
            "across raises, worker crashes and timeouts (default 0)",
        )
        p.add_argument(
            "--keep-going", action="store_true",
            help="run every job even if some fail; report failures at the end "
            "(default: stop submitting after the first failure)",
        )
        p.add_argument(
            "--journal", default=None, metavar="PATH",
            help="durable checkpoint journal (append-only JSONL WAL): every "
            "completed job or shard is fsync'd so a crashed run can resume",
        )
        p.add_argument(
            "--resume", action="store_true",
            help="resume from an existing --journal: skip what it records and "
            "merge the recorded results (requires --journal)",
        )
        p.add_argument(
            "--chaos", default="off",
            choices=["off", "light", "moderate", "heavy"],
            help="inject seeded worker faults (kills/stalls/delays) while "
            "the suite runs (default: off; results stay bit-identical)",
        )
        p.add_argument(
            "--chaos-seed", type=int, default=0,
            help="seed of the chaos policy's fault schedule (default 0)",
        )
        p.add_argument("--json", default=None, help="also write results as JSON")
        add_drive(p)
        add_faults(p)
        add_tier(p)
        add_obs(p)

    p = sub.add_parser("profiles", help="list built-in workload profiles")
    p.set_defaults(func=_cmd_profiles)

    p = sub.add_parser("synth-ms", help="synthesize a millisecond trace")
    p.add_argument("--profile", required=True)
    p.add_argument("--span", type=float, default=600.0, help="seconds (default 600)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    add_drive(p)
    p.set_defaults(func=_cmd_synth_ms)

    p = sub.add_parser("synth-hourly", help="synthesize an hourly dataset")
    p.add_argument("--drives", type=int, default=50)
    p.add_argument("--weeks", type=int, default=4)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    add_drive(p)
    p.set_defaults(func=_cmd_synth_hourly)

    p = sub.add_parser("synth-family", help="synthesize a lifetime family dataset")
    p.add_argument("--drives", type=int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    add_drive(p)
    p.set_defaults(func=_cmd_synth_family)

    p = sub.add_parser("analyze-ms", help="analyze a millisecond trace file")
    p.add_argument("trace")
    p.add_argument("--scheduler", default="fcfs", choices=SCHEDULERS)
    add_format(p)
    add_drive(p)
    add_faults(p)
    add_tier(p)
    add_obs(p)
    p.set_defaults(func=_cmd_study, profile=None)

    p = sub.add_parser(
        "ingest",
        help="parse a foreign trace, optionally converting it and fitting "
        "a synthetic twin",
    )
    p.add_argument("trace")
    from repro.traces.ingest import available_formats as _available_formats

    p.add_argument(
        "--format", required=True, choices=sorted(_available_formats()),
        help="source trace format",
    )
    p.add_argument(
        "--permissive", action="store_true",
        help="quarantine corrupt rows instead of failing on the first "
        "(default: strict)",
    )
    p.add_argument(
        "--max-requests", type=int, default=None,
        help="stop after this many accepted records (default: whole file)",
    )
    p.add_argument(
        "-o", "--output", default=None,
        help="also write the normalized trace as native CSV",
    )
    p.add_argument(
        "--calibrate-out", default=None, metavar="PATH",
        help="fit a synthetic twin and write fit + per-timescale "
        "divergence JSON to PATH",
    )
    p.add_argument(
        "--scales", type=float, nargs="+", default=[0.1, 1.0, 10.0],
        help="timescales (seconds) for twin validation (default: 0.1 1 10)",
    )
    p.add_argument("--seed", type=int, default=0, help="twin synthesis seed")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("study", help="synthesize + simulate + report in one shot")
    p.add_argument("--profile", default=None, help="workload profile to synthesize")
    p.add_argument(
        "--trace", default=None, metavar="PATH",
        help="replay this trace file instead of synthesizing "
        "(mutually exclusive with --profile)",
    )
    p.add_argument("--span", type=float, default=300.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheduler", default="fcfs", choices=SCHEDULERS)
    add_format(p)
    add_drive(p)
    add_faults(p)
    add_tier(p)
    add_obs(p)
    p.set_defaults(func=_cmd_study)

    p = sub.add_parser(
        "run-suite",
        help="simulate a profile x scheduler matrix across worker processes",
    )
    p.add_argument(
        "--profiles", nargs="+", default=None,
        help="profile names (default: every built-in profile)",
    )
    p.add_argument(
        "--trace", dest="traces", nargs="+", default=None, metavar="PATH",
        help="replay these trace files instead of synthesizing profiles "
        "(mutually exclusive with --profiles)",
    )
    p.add_argument(
        "--trace-format", default="native", choices=sorted(_available_formats()),
        help="format of the --trace files (default: native, this library's CSV)",
    )
    p.add_argument(
        "--permissive", action="store_true",
        help="quarantine-drop corrupt rows when loading --trace files "
        "(default: strict)",
    )
    p.add_argument("--schedulers", nargs="+", default=["fcfs"], choices=SCHEDULERS)
    p.add_argument("--span", type=float, default=300.0)
    p.add_argument(
        "--seeds", type=int, default=1,
        help="replicates per profile x scheduler combo (default 1)",
    )
    p.add_argument(
        "--base-seed", type=int, default=0,
        help="root of the deterministic per-job seed stream",
    )
    p.add_argument(
        "--job-timeout", type=float, default=None,
        help="per-job wall-clock budget in seconds (default: none)",
    )
    p.add_argument(
        "--suite-deadline", type=float, default=None,
        help="whole-suite wall-clock budget in seconds; on expiry return "
        "the completed jobs as a partial report (default: none)",
    )
    p.add_argument(
        "--rss-limit-mb", type=float, default=None,
        help="recycle any worker whose resident set exceeds this many MiB "
        "(default: no watchdog)",
    )
    add_suite(p)
    p.set_defaults(func=_cmd_run_suite)

    p = sub.add_parser("calibrate", help="fit a synthetic profile to a trace file")
    p.add_argument("trace")
    p.add_argument("--seed", type=int, default=0)
    add_format(p)
    add_drive(p)
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser("power", help="spin-down energy sweep over a trace file")
    p.add_argument("trace")
    add_format(p)
    p.add_argument(
        "--timeouts", type=float, nargs="+", default=[1.0, 5.0, 60.0],
        help="spin-down timeouts in seconds (break-even added automatically)",
    )
    add_drive(p)
    p.set_defaults(func=_cmd_power)

    p = sub.add_parser("analyze-hourly", help="analyze an hourly dataset file")
    p.add_argument("dataset")
    add_drive(p)
    p.set_defaults(func=_cmd_analyze_hourly)

    p = sub.add_parser(
        "fleet",
        help="simulate a multi-tenant fleet: tenants multiplexed onto "
        "shared drives, sharded across workers, with per-tenant QoS",
    )
    p.add_argument(
        "--tenants", type=int, default=8,
        help="tenant count; rates drawn from the lifetime family model "
        "(default 8)",
    )
    p.add_argument(
        "--drives", type=int, default=4,
        help="shared drives in the fleet (default 4)",
    )
    p.add_argument(
        "--placement", default="roundrobin",
        choices=list(PLACEMENT_POLICIES),
        help="tenant-to-drive placement policy (default: roundrobin)",
    )
    p.add_argument(
        "--shard-size", type=int, default=4,
        help="drives per dispatch shard; never affects results, only "
        "batching, but a --journal resumes only at the same size (default 4)",
    )
    p.add_argument(
        "--tenant-profiles", nargs="+", default=list(DEFAULT_TENANT_PROFILES),
        help="profile names assigned to tenants round-robin "
        f"(default: {' '.join(DEFAULT_TENANT_PROFILES)})",
    )
    p.add_argument("--span", type=float, default=60.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--scheduler", default="fcfs", choices=SCHEDULERS)
    p.add_argument(
        "--min-rate", type=float, default=0.5,
        help="clip tenant request rates below this req/s (default 0.5)",
    )
    p.add_argument(
        "--max-rate", type=float, default=2000.0,
        help="clip tenant request rates above this req/s (default 2000)",
    )
    p.add_argument(
        "--interference", action="store_true",
        help="also replay each tenant alone and report noisy-neighbor "
        "p99 inflation (one extra simulation per tenant)",
    )
    p.add_argument(
        "--scrub-budget", type=float, default=None, metavar="SECONDS",
        help="allocate this global idle-time budget across drives for "
        "background scrub (default: no scrub planning)",
    )
    p.add_argument(
        "--scrub-work", type=float, default=60.0, metavar="SECONDS",
        help="scrub workload per drive in seconds (default 60)",
    )
    add_suite(p)
    p.set_defaults(func=_cmd_fleet)

    p = sub.add_parser(
        "fleet-anomalies", help="flag anomalous drives in an hourly dataset"
    )
    p.add_argument("dataset")
    p.add_argument("--recent-hours", type=int, default=168)
    p.add_argument("--threshold", type=float, default=3.5)
    add_drive(p)
    p.set_defaults(func=_cmd_fleet_anomalies)

    p = sub.add_parser("analyze-family", help="analyze a lifetime dataset file")
    p.add_argument("dataset")
    add_drive(p)
    p.set_defaults(func=_cmd_analyze_family)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
