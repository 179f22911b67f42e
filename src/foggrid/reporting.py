"""Run reports: aggregation, framework comparison, and file emission.

A RunReport is a flat, serialization-ready view of one simulation run.
Aggregates are recomputable from the per-node rows: the headline mean
wait is the arrival-weighted mean of per-node sojourn times over the
serving (fog and cloud) rows, and total energy is the plain sum of the
energy column.

emit_report writes three files into a directory:

``nodes.csv``
    node_id,tier,lambda_hat,mean_wait_s,mean_in_system,utilization,active_time_s,idle_time_s,energy_mj
``sessions.csv``
    session_id,vehicle_id,outlet_meter,owner_meter,state,energy_kwh,amount
``summary.txt``
    one ``key: value`` line per aggregate, ending with the trace digest.

All numbers are rendered with 6 significant digits; emission is
deterministic, so equal reports produce byte-identical files.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .energy import EnergyLedger, ProcessingModel, processing_time
from .engine import RunConfig, SimResult, run
from .errors import FogGridError
from .queueing import QueueStats
from .scenario import ScenarioConfig, with_mode
from .topology import Mode, Tier


class IoFailure(FogGridError):
    """Report files could not be written."""


@dataclass(frozen=True)
class NodeRow:
    node_id: int
    tier: Tier
    stats: QueueStats
    energy: EnergyLedger


@dataclass(frozen=True)
class SessionRow:
    session_id: int
    vehicle_id: str
    outlet_meter: int
    owner_meter: Optional[int]
    state: str
    energy_kwh: float
    amount: float


@dataclass(frozen=True)
class RunReport:
    mode: Mode
    seed: int
    horizon_s: float
    warmup_s: float
    nodes: tuple[NodeRow, ...]
    sessions: tuple[SessionRow, ...]
    #: arrival-weighted mean sojourn over serving rows; None without samples
    mean_wait_s: Optional[float]
    total_energy_mj: float
    messages_generated: int
    messages_delivered: int
    total_message_bytes: int
    #: N log N processing estimate over the total generated bytes
    nlogn_processing_ms: float
    sessions_billed: int
    energy_delivered_kwh: float
    amount_billed: float
    trace_digest: str
    event_count: int


@dataclass(frozen=True)
class Comparison:
    """The same workload under both frameworks, with fog-minus-cloud deltas."""

    cloud: RunReport
    fog: RunReport
    delta_mean_wait_s: Optional[float]
    delta_energy_mj: float


def build_report(
    cfg: RunConfig, result: SimResult, c_ms: float = ProcessingModel.c_ms
) -> RunReport:
    by_id = cfg.topology.by_id()
    rows = tuple(
        NodeRow(
            node_id=node_id,
            tier=by_id[node_id].tier,
            stats=result.queue_stats[node_id],
            energy=result.energy[node_id],
        )
        for node_id in sorted(result.queue_stats)
    )
    lam_sum = 0.0
    wait_sum = 0.0
    for row in rows:
        if row.tier is not Tier.DEVICE:
            lam_sum += row.stats.lambda_hat
            wait_sum += row.stats.lambda_hat * row.stats.mean_wait_s
    mean_wait = wait_sum / lam_sum if lam_sum > 0 else None

    amount_by_session = {b.session_id: b.amount for b in result.bills}
    sessions = tuple(
        SessionRow(
            session_id=s.session_id,
            vehicle_id=s.vehicle_id,
            outlet_meter=s.outlet_meter,
            owner_meter=s.owner_meter,
            state=s.state.value,
            energy_kwh=s.energy_kwh,
            amount=amount_by_session.get(s.session_id, 0.0),
        )
        for s in result.sessions
    )
    total_bytes = result.bytes_generated
    model = ProcessingModel(c_ms=c_ms)
    return RunReport(
        mode=cfg.topology.mode,
        seed=cfg.seed,
        horizon_s=cfg.horizon_s,
        warmup_s=cfg.warmup_s,
        nodes=rows,
        sessions=sessions,
        mean_wait_s=mean_wait,
        total_energy_mj=sum(r.energy.energy_mj for r in rows),
        messages_generated=result.messages_generated,
        messages_delivered=result.messages_delivered,
        total_message_bytes=total_bytes,
        nlogn_processing_ms=(
            processing_time(model, total_bytes) if total_bytes >= 1 else 0.0
        ),
        sessions_billed=len(result.bills),
        energy_delivered_kwh=sum(b.energy_kwh for b in result.bills),
        amount_billed=sum(b.amount for b in result.bills),
        trace_digest=result.trace.digest,
        event_count=result.trace.event_count,
    )


def compare_frameworks(sc: ScenarioConfig) -> Comparison:
    """Run the identical workload under both modes with the same seed.

    The cloud run relays everything through the cloud at its service
    rate; the fog run serves each area at its gateway. Deltas are fog
    minus cloud, so a negative wait delta means fog is faster.
    """
    cloud_cfg = with_mode(sc, Mode.CLOUD_ONLY)
    fog_cfg = with_mode(sc, Mode.FOG_AUGMENTED)
    cloud = build_report(
        cloud_cfg.run_config, run(cloud_cfg.run_config), c_ms=sc.c_ms
    )
    fog = build_report(fog_cfg.run_config, run(fog_cfg.run_config), c_ms=sc.c_ms)
    if cloud.mean_wait_s is None or fog.mean_wait_s is None:
        delta_wait = None
    else:
        delta_wait = fog.mean_wait_s - cloud.mean_wait_s
    return Comparison(
        cloud=cloud,
        fog=fog,
        delta_mean_wait_s=delta_wait,
        delta_energy_mj=fog.total_energy_mj - cloud.total_energy_mj,
    )


def _num(x) -> str:
    """6 significant digits; integers verbatim."""
    if isinstance(x, int):
        return str(x)
    return format(x, ".6g")


def _opt(x) -> str:
    return "n/a" if x is None else _num(x)


NODES_HEADER = (
    "node_id,tier,lambda_hat,mean_wait_s,mean_in_system,utilization,"
    "active_time_s,idle_time_s,energy_mj"
)
SESSIONS_HEADER = (
    "session_id,vehicle_id,outlet_meter,owner_meter,state,energy_kwh,amount"
)


def _write_lines(path: Path, lines: list[str]) -> None:
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")


def emit_report(report: RunReport, out_dir) -> list[Path]:
    """Write nodes.csv, sessions.csv, and summary.txt under ``out_dir``."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)

        nodes_path = out / "nodes.csv"
        with open(nodes_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(NODES_HEADER.split(","))
            for row in report.nodes:
                s, e = row.stats, row.energy
                writer.writerow(
                    [
                        row.node_id,
                        row.tier.name.lower(),
                        _num(s.lambda_hat),
                        _num(s.mean_wait_s),
                        _num(s.mean_in_system),
                        _num(s.utilization),
                        _num(e.active_time_s),
                        _num(e.idle_time_s),
                        _num(e.energy_mj),
                    ]
                )

        sessions_path = out / "sessions.csv"
        with open(sessions_path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(SESSIONS_HEADER.split(","))
            for row in sorted(report.sessions, key=lambda r: r.session_id):
                writer.writerow(
                    [
                        row.session_id,
                        row.vehicle_id,
                        row.outlet_meter,
                        "" if row.owner_meter is None else row.owner_meter,
                        row.state,
                        _num(row.energy_kwh),
                        _num(row.amount),
                    ]
                )

        summary_path = out / "summary.txt"
        _write_lines(
            summary_path,
            [
                f"mode: {report.mode.value}",
                f"seed: {report.seed}",
                f"horizon_s: {_num(report.horizon_s)}",
                f"warmup_s: {_num(report.warmup_s)}",
                f"nodes: {len(report.nodes)}",
                f"messages_generated: {report.messages_generated}",
                f"messages_delivered: {report.messages_delivered}",
                f"mean_wait_s: {_opt(report.mean_wait_s)}",
                f"total_energy_mj: {_num(report.total_energy_mj)}",
                f"total_message_bytes: {report.total_message_bytes}",
                f"nlogn_processing_ms: {_num(report.nlogn_processing_ms)}",
                f"sessions_total: {len(report.sessions)}",
                f"sessions_billed: {report.sessions_billed}",
                f"energy_delivered_kwh: {_num(report.energy_delivered_kwh)}",
                f"amount_billed: {_num(report.amount_billed)}",
                f"trace_digest: {report.trace_digest}",
                f"events: {report.event_count}",
            ],
        )
    except OSError as exc:
        raise IoFailure(f"cannot write report to {out}: {exc}") from None
    return [nodes_path, sessions_path, summary_path]


def emit_comparison(comp: Comparison, out_dir) -> list[Path]:
    """Write both runs' reports plus a comparison.txt with the deltas."""
    out = Path(out_dir)
    paths = emit_report(comp.cloud, out / "cloud-only")
    paths += emit_report(comp.fog, out / "fog-augmented")
    comparison_path = out / "comparison.txt"
    try:
        _write_lines(
            comparison_path,
            [
                f"cloud_mean_wait_s: {_opt(comp.cloud.mean_wait_s)}",
                f"fog_mean_wait_s: {_opt(comp.fog.mean_wait_s)}",
                f"delta_mean_wait_s: {_opt(comp.delta_mean_wait_s)}",
                f"cloud_total_energy_mj: {_num(comp.cloud.total_energy_mj)}",
                f"fog_total_energy_mj: {_num(comp.fog.total_energy_mj)}",
                f"delta_total_energy_mj: {_num(comp.delta_energy_mj)}",
                f"cloud_trace_digest: {comp.cloud.trace_digest}",
                f"fog_trace_digest: {comp.fog.trace_digest}",
            ],
        )
    except OSError as exc:
        raise IoFailure(f"cannot write report to {out}: {exc}") from None
    paths.append(comparison_path)
    return paths
