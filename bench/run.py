"""foggrid benchmark: host time of the ``foggrid`` CLI on generated scenarios.

Usage (from the repository root):

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}
    python3 bench/run.py --smoke

Each run is a batch job: one workload, generated from the workload seed
N, run through the real CLI (``foggrid compare --seed N``, both modes) as
one sequential child process at a time. Invocations and set-up samples
are repeated for S seconds and medians reported. Simulated quantities are
checked for identity, not timed.

Times are host time scaled to a reference host speed. On a shared 2-core
VM the host's speed drifts by 20-30% over minutes as other tenants' load
comes and goes, and CPU time drifts with it, so raw medians of runs
minutes apart disagree by more than a code change should be allowed to
move them. So a run also times ``probe_s``, a fixed pure-Python event
loop that shares no code with foggrid, after every timed sample, and
multiplies its time medians by REFERENCE_PROBE_S over the median probe
time. A change to foggrid moves the scaled times as it moves the raw
ones; a change of host speed moves the samples and the probes alike and
cancels. The run keeps itself and its children on one CPU, so that the
probe sees the same CPU as the program. The raw host medians are printed
too (``host.*`` with ``--trace 1``).

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (spawn to exit of
one invocation, report files written), ``setup_s`` (``load_config`` plus
engine set-up of every mode, timed in this process as ``foggrid.run``
with the horizon cut below the first arrival), ``events_per_s``
(simulated events per second inside ``foggrid.run``) and
``peak_rss_mb`` of the CLI process. ``--trace 1`` adds a traced run
(every public cross-module function wrapped, see child.py) and an
untimed ``record_events`` run, and prints the per-layer metrics.

Every run checks outputs: the workload at DEFAULT_SEED must reproduce the
trace digests and ``summary.txt`` bytes pinned in pinned.json, every
invocation must repeat the first one byte for byte and pass the invariant
checks in ``check_invariants``. A CLI invocation that fails any check
counts in ``failed`` of the result; ``failed_fraction`` is failed over
attempted. The last stdout line is the JSON result.

``--smoke`` runs every workload at tiny size with both trace settings
and checks that every metric named in BENCHMARK.json is printed with its
unit. ``--write-pins`` regenerates pinned.json from the current code;
use it only with a documented change of the model.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import random
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import replace
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
PINS = BENCH / "pinned.json"

sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
MODES = ("cloud-only", "fog-augmented")
EVENT_KINDS = ("Arrival", "ServiceStart", "ServiceEnd", "SessionStep")
LAYERS = ("scenario", "topology", "messages", "engine", "billing", "energy", "reporting", "cli")
COUNTED = (
    "topology.by_id",
    "topology.fog_for_area",
    "messages.resolve_route",
    "messages.seal",
    "messages.classify_route_pattern",
    "billing.initiate_session",
    "billing.resolve_owner",
    "billing.authorize",
    "billing.start_charging",
    "billing.meter_energy",
    "billing.settle_bill",
    "billing.reject_session",
    "energy.accrue_energy",
)
# Horizon that ends every run before its first arrival or session, so
# foggrid.run builds streams, routes and seals and processes no event.
SETUP_HORIZON_S = 1e-9
MIN_INVOCATIONS = 3
IMPORT_SAMPLES = 5
# Little's law holds up to horizon and warmup boundary effects. On fog
# nodes with a few hundred samples those reached 6% over 12 metro-grid
# seeds (about 3 sigma of 720 node runs), so 15% is about 7 sigma.
LITTLE_TOL = 0.15
LITTLE_MIN_SAMPLES = 100
SUM_TOL = 1e-4
# Events of the speed probe, and the probe's time on the reference host
# (about its median in benchmark runs on a shared 2-core Intel Xeon VM
# with Python 3.11.7). Timed samples are reported in seconds of that host.
PROBE_EVENTS = 1_000_000
REFERENCE_PROBE_S = 0.65


class Failure(Exception):
    """The benchmark itself cannot run here (no result is printed)."""


def import_foggrid():
    if not (SRC / "foggrid" / "__init__.py").is_file():
        raise Failure(f"no foggrid package under {SRC}")
    sys.path.insert(0, str(SRC))
    import foggrid

    return foggrid


# -- child processes -----------------------------------------------------


class Invocation:
    """One CLI child process: exit code, wall time, peak RSS and spans."""

    def __init__(self, work: Path, run_id: str, depth: str, args: list[str]):
        self.out = work / f"out-{run_id}"
        spans_path = work / f"spans-{run_id}.json"
        stdout_path, stderr_path = work / "stdout.txt", work / "stderr.txt"
        cmd = [sys.executable, str(BENCH / "child.py"), str(spans_path), run_id, depth, *args]
        if args[0] != "validate":
            cmd += ["--out", str(self.out)]
        with open(stdout_path, "wb") as so, open(stderr_path, "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=so, stderr=se, cwd=ROOT, env=child_env())
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.rc = os.waitstatus_to_exitcode(status)
        self.stdout = stdout_path.read_text(encoding="utf-8")
        self.stderr = stderr_path.read_text(encoding="utf-8")
        written = json.loads(spans_path.read_text()) if spans_path.exists() else {}
        self.spans = written.get("spans", [])
        self.rss_mb = written.get("peak_rss_kb", usage.ru_maxrss) / 1024.0
        self.span_file = spans_path

    def total(self, name: str) -> float:
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("FOGGRID_OUT", None)
    return env


def import_time_s() -> float:
    """Wall time of a fresh interpreter running ``import foggrid.cli``."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import foggrid.cli"], check=True, cwd=ROOT, env=child_env()
    )
    return time.perf_counter() - start


# -- host speed ----------------------------------------------------------------


def probe_s() -> float:
    """Host seconds of a fixed pure-Python M/M/1 event loop (heap, dicts,
    floats, a FIFO list), the kind of work foggrid's own loop does. The
    loop makes no reference cycles; the cyclic collector is off while it
    runs, so its time does not depend on this process's other objects."""
    rng = random.Random(1)
    heap = [(rng.expovariate(1.0), 0, True)]
    seq, busy, queue, waiting = 1, False, [], {}
    gc.disable()
    start = time.perf_counter()
    for _ in range(PROBE_EVENTS):
        t, key, arrival = heapq.heappop(heap)
        if arrival:
            heapq.heappush(heap, (t + rng.expovariate(1.0), seq, True))
            seq += 1
            if busy:
                waiting[key] = t
                queue.append(key)
                continue
            busy = True
        elif queue:
            del waiting[queue.pop(0)]
        else:
            busy = False
            continue
        heapq.heappush(heap, (t + rng.expovariate(1.25), seq, False))
        seq += 1
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


# -- outputs and checks -----------------------------------------------------


def read_outputs(out: Path) -> dict:
    """Report files of one ``foggrid compare`` invocation, keyed by mode."""
    return {
        mode: {f: (out / mode / f).read_text(encoding="utf-8") for f in ("summary.txt", "nodes.csv", "sessions.csv")}
        for mode in MODES
    }


def parse_summary(text: str) -> dict:
    return dict(line.split(": ", 1) for line in text.splitlines())


def printed_digests(stdout: str) -> dict:
    lines = dict(line.split(": ", 1) for line in stdout.splitlines() if ": " in line)
    return {m: lines.get(f"{m.split('-')[0]}_trace_digest") for m in MODES}


def check_invariants(name: str, outputs: dict) -> list[str]:
    problems = []
    for mode, files in outputs.items():
        s = parse_summary(files["summary.txt"])
        where = f"{name}/{mode}"
        if int(s["messages_delivered"]) > int(s["messages_generated"]):
            problems.append(f"{where}: messages_delivered > messages_generated")
        rows = [line.split(",") for line in files["sessions.csv"].splitlines()[1:]]
        billed = [r for r in rows if r[4] == "billed"]
        if len(rows) != int(s["sessions_total"]) or len(billed) != int(s["sessions_billed"]):
            problems.append(f"{where}: sessions.csv disagrees with summary session counts")
        for col, key in ((5, "energy_delivered_kwh"), (6, "amount_billed")):
            total = sum(float(r[col]) for r in billed)
            if not _close(total, float(s[key]), SUM_TOL):
                problems.append(f"{where}: sessions.csv sums {key} to {total}, summary {s[key]}")
        window = float(s["horizon_s"]) - float(s["warmup_s"])
        for row in files["nodes.csv"].splitlines()[1:]:
            node, tier, lam, w, ell = row.split(",")[:5]
            lam, w, ell = float(lam), float(w), float(ell)
            if tier != "device" and lam * window >= LITTLE_MIN_SAMPLES and not _close(ell, lam * w, LITTLE_TOL):
                problems.append(f"{where}: node {node} breaks Little's law: L {ell}, lambda*W {lam * w}")
    return problems


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-9)


class Checker:
    """Counts attempted and failed CLI invocations and keeps the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, problems: list[str]) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems


def invocation_problems(inv: Invocation, name: str, reference) -> list[str]:
    """Exit code, invariants and byte-identity with ``reference`` (the
    report files of the run's first invocation, if given)."""
    if inv.rc != 0:
        return [f"{name}: exit code {inv.rc}: {inv.stderr.strip()[-300:]}"]
    outputs = read_outputs(inv.out)
    problems = check_invariants(name, outputs)
    if reference is not None and outputs != reference:
        problems.append(f"{name}: report files differ from the first invocation")
    return problems


def pinned_problems(inv: Invocation, name: str, pins: dict) -> list[str]:
    problems = invocation_problems(inv, name, None)
    if inv.rc != 0:
        return problems
    summaries = {mode: files["summary.txt"] for mode, files in read_outputs(inv.out).items()}
    if summaries != pins["summary"]:
        problems.append(f"{name}: summary.txt differs from the pinned bytes")
    if printed_digests(inv.stdout) != pins["digest"]:
        problems.append(f"{name}: printed trace digests differ from the pinned values")
    return problems


# -- measurements ------------------------------------------------------------


def mode_configs(foggrid, path: Path) -> list:
    """load_config on the file, then the config of each mode compare runs."""
    sc = foggrid.load_config(path)
    return [foggrid.with_mode(sc, foggrid.Mode(m)) for m in MODES]


def setup_once(foggrid, path: Path) -> tuple[float, float]:
    """(load_config seconds, engine set-up seconds summed over modes)."""
    start = time.perf_counter()
    configs = mode_configs(foggrid, path)
    loaded = time.perf_counter()
    events = 0
    for mc in configs:
        cut = foggrid.with_overrides(mc, horizon_s=SETUP_HORIZON_S)
        events += foggrid.run(cut.run_config).trace.event_count
    done = time.perf_counter()
    if events:
        raise Failure(f"set-up horizon {SETUP_HORIZON_S} s still processed {events} events")
    return loaded - start, done - loaded


def event_counts(foggrid, path: Path, seed: int) -> tuple[dict, dict]:
    """Events by kind (summed over modes) and digest per mode, from an
    untimed ``record_events`` run through the Python API."""
    counts = dict.fromkeys(EVENT_KINDS, 0)
    digests = {}
    for mc in mode_configs(foggrid, path):
        rc = replace(foggrid.with_overrides(mc, seed=seed).run_config, record_events=True)
        result = foggrid.run(rc)
        for ev in result.trace.events:
            counts[ev.kind.value] += 1
        digests[rc.topology.mode.value] = result.trace.digest
        del result
    return counts, digests


def span_table(spans: list) -> dict:
    """Per span name: calls, inclusive seconds and self seconds (the
    duration minus the time its direct child spans cover)."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    table = defaultdict(lambda: [0, 0.0, 0.0])
    for i, (name, start, end, _, _) in enumerate(spans):
        row = table[name]
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - child[i]
    return dict(table)


# -- one benchmark run --------------------------------------------------------


def bench(name: str, seed: int, seconds: float, trace: bool, size: str, pins: dict) -> dict:
    foggrid = import_foggrid()
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return _bench(foggrid, name, seed, seconds, trace, size, pins, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(foggrid, name, seed, seconds, trace, size, pins, work) -> dict:
    checker = Checker()
    path = work / "scenario.yaml"
    path.write_text(workloads.generate(name, seed, size), encoding="utf-8")
    pinned_path = work / "pinned.yaml"
    pinned_path.write_text(workloads.generate(name, workloads.DEFAULT_SEED, size), encoding="utf-8")
    args = ["compare", str(path), "--seed", str(seed)]

    # Untimed: reproduce the pinned outputs (this also warms the bytecode
    # and page caches).
    inv = Invocation(
        work, "pinned", "basic", ["compare", str(pinned_path), "--seed", str(workloads.DEFAULT_SEED)]
    )
    checker.record(pinned_problems(inv, name, pins[size][name]))
    shutil.rmtree(inv.out, ignore_errors=True)

    # Untimed: first-call costs of set-up in this process.
    setup_once(foggrid, path)

    # Timed: CLI invocations, with a set-up sample after every second one,
    # so that both kinds of sample and the probes see the same stretch of
    # host time.
    timed: list[Invocation] = []
    setup: list[tuple[float, float]] = []
    probes = [probe_s()]
    reference = bytes_written = None
    deadline = time.perf_counter() + (0.6 if trace else 1.0) * seconds
    while min(len(timed), len(setup)) < MIN_INVOCATIONS or time.perf_counter() < deadline:
        inv = Invocation(work, f"t{len(timed)}", "basic", args)
        probes.append(probe_s())
        if checker.record(invocation_problems(inv, name, reference)):
            if reference is None:
                reference = read_outputs(inv.out)
                bytes_written = sum(p.stat().st_size for p in inv.out.rglob("*") if p.is_file())
            timed.append(inv)
        shutil.rmtree(inv.out, ignore_errors=True)
        if len(timed) < MIN_INVOCATIONS <= checker.failed:
            return {"checker": checker, "metrics": {}}
        if 2 * len(setup) < len(timed):
            gc.collect()
            setup.append(setup_once(foggrid, path))
            probes.append(probe_s())

    summaries = [parse_summary(f["summary.txt"]) for f in reference.values()]
    events = sum(int(s["events"]) for s in summaries)
    wall, probe = median(inv.wall_s for inv in timed), median(probes)
    scale = REFERENCE_PROBE_S / probe
    n, scaled = f"median of {len(timed)}", f"scaled by probe median of {len(probes)}"
    metrics = {
        "wall_s": (wall * scale, "s", f"{n}, {scaled}"),
        "setup_s": (median(a + b for a, b in setup) * scale, "s", f"median of {len(setup)}, {scaled}"),
        "events_per_s": (
            median(events / inv.total("engine.run") for inv in timed) / scale,
            "events/s",
            f"{n}, {scaled}",
        ),
        "peak_rss_mb": (median(inv.rss_mb for inv in timed), "MB", n),
    }
    print(f"{name} host medians: wall_s {wall:.6g} s, probe_s {probe:.6g} s")
    if trace:
        metrics = layer_metrics(foggrid, name, seed, work, args, checker, reference, timed, setup, summaries, probe)
        if metrics:
            metrics["reporting.bytes_written"] = (bytes_written, "bytes", "exact")
            metrics["host.probe_s"] = (probe, "s", f"median of {len(probes)}")
    return {"checker": checker, "metrics": metrics}


def layer_metrics(foggrid, name, seed, work, args, checker, reference, timed, setup, summaries, probe) -> dict:
    """Per-layer metrics from two traced invocations, the timed untraced
    ones, the set-up samples and an untimed ``record_events`` run. Times
    here are raw host seconds, not scaled to the reference host;
    ``probe`` is the median probe time of the untimed ones."""
    traced, traced_probes = [], []
    for i in range(2):
        inv = Invocation(work, f"traced{i}", "full", args)
        traced_probes.append(probe_s())
        if checker.record(invocation_problems(inv, name, reference)):
            traced.append(inv)
    if len(traced) != 2:
        return {}
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    os.replace(traced[-1].span_file, out_dir / f"spans-{name}-seed{seed}.json")

    # Exact-count pass: call counts must repeat between the traced runs,
    # and the record_events run must reproduce the CLI's events and digests.
    tables = [span_table(inv.spans) for inv in traced]
    calls = [{k: v[0] for k, v in t.items()} for t in tables]
    counts, digests = event_counts(foggrid, work / "scenario.yaml", seed)
    events = sum(int(s["events"]) for s in summaries)
    problems = []
    if calls[0] != calls[1]:
        problems.append(f"{name}: call counts differ between the two traced runs")
    if sum(counts.values()) != events or digests != {s["mode"]: s["trace_digest"] for s in summaries}:
        problems.append(f"{name}: record_events run disagrees with the CLI run")
    checker.record(problems)

    def traced_median(fn):
        return (median(fn(t) for t in tables), "s", f"median of {len(tables)} traced")

    def inclusive(span):
        return traced_median(lambda t: t.get(span, [0, 0.0, 0.0])[1])

    def own(*spans):
        return traced_median(lambda t: sum(t.get(s, [0, 0.0, 0.0])[2] for s in spans))

    def layer_self(layer):
        return traced_median(lambda t: sum(v[2] for k, v in t.items() if k.split(".")[0] == layer))

    n_processes = len(foggrid.load_config(work / "scenario.yaml").run_config.arrival_processes)
    engine_setup = median(b for _, b in setup)
    loop_s = median(inv.total("engine.run") for inv in timed) - engine_setup
    wall = median(inv.wall_s for inv in timed)
    traced_wall = median(inv.wall_s for inv in traced)
    total = {k: sum(int(s[k]) for s in summaries) for k in ("messages_generated", "messages_delivered", "sessions_total", "sessions_billed")}
    n_setup, n_timed = f"median of {len(setup)}", f"median of {len(timed)}"

    m = {
        "scenario.yaml_load_s": inclusive("scenario.yaml_load"),
        "scenario.parse_s": inclusive("scenario.parse_config"),
        "topology.validate_s": inclusive("topology.validate_topology"),
        "topology.by_id_s": inclusive("topology.by_id"),
        "engine.setup_s": (engine_setup, "s", n_setup),
        "engine.setup_per_process_us": (engine_setup / (n_processes * len(summaries)) * 1e6, "us", n_setup),
        "engine.loop_s": (loop_s, "s", f"{n_timed} minus engine.setup_s"),
        "engine.loop_events_per_s": (events / loop_s, "events/s", "events over engine.loop_s"),
        "reporting.build_report_s": inclusive("reporting.build_report"),
        "reporting.emit_s": own("reporting.emit_report", "reporting.emit_comparison"),
        "host.wall_s": (wall, "s", n_timed),
        "cli.import_s": (median(import_time_s() for _ in range(IMPORT_SAMPLES)), "s", f"median of {IMPORT_SAMPLES}"),
        "cli.overhead_s": (median(inv.wall_s - inv.total("cli.main") for inv in timed), "s", n_timed),
        # Traced wall at the host speed of the untraced runs, as the two
        # are timed minutes apart.
        "trace.overhead_s": (
            traced_wall * probe / median(traced_probes) - wall,
            "s",
            f"traced {len(traced)} minus untraced {len(timed)}, at the same probe speed",
        ),
        "billing.billed_ratio": (total["sessions_billed"] / total["sessions_total"], "ratio", "exact"),
        "model.delivered_ratio": (total["messages_delivered"] / total["messages_generated"], "ratio", "exact"),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self(layer)
    for kind in EVENT_KINDS:
        m[f"engine.events.{kind}"] = (counts[kind], "count", "exact")
    for span in COUNTED:
        m[f"{span}.calls"] = (calls[0].get(span, 0), "count", "exact")

    accounted = sum(m[f"{layer}.self_s"][0] for layer in LAYERS) + m["cli.overhead_s"][0]
    print(
        f"{name} accounting: layer self times + cli.overhead_s = {accounted:.4f} s; "
        f"traced wall {traced_wall:.4f} s; untraced wall {wall:.4f} s"
    )
    for span, (count, incl, self_time) in sorted(tables[0].items()):
        print(f"{name} span {span}: calls {count} inclusive {incl:.6f} s self {self_time:.6f} s")
    return m


# -- entry points ---------------------------------------------------------------


def environment() -> dict:
    import numpy
    import yaml

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        sha = None
    src = hashlib.blake2b(digest_size=8)
    for p in sorted((SRC / "foggrid").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "git_sha": sha,
        "src_digest": src.hexdigest(),
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "libyaml": bool(yaml.__with_libyaml__),
    }


def report(name: str, outcome: dict) -> dict:
    checker, metrics = outcome["checker"], outcome["metrics"]
    for problem in checker.problems:
        print(f"{name} FAILED {problem}")
    for key, (value, unit, basis) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit} ({basis})")
    fraction = checker.failed / checker.attempted
    print(f"{name} failed_fraction {fraction:.6g} ratio ({checker.failed} of {checker.attempted} invocations)")
    print(f"{name} env {json.dumps(environment(), sort_keys=True)}")
    return {
        "correct": checker.failed == 0 and bool(metrics),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }


def validate_generated() -> bool:
    """``foggrid validate`` on every workload at both sizes, for the
    pinned and the held-out seed."""
    ok = True
    work = WORK / f"validate-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        for name in workloads.WORKLOADS:
            for size in ("tiny", "full"):
                for seed in (workloads.DEFAULT_SEED, workloads.HELD_OUT_SEED):
                    path = work / f"{name}-{size}-{seed}.yaml"
                    path.write_text(workloads.generate(name, seed, size), encoding="utf-8")
                    inv = Invocation(work, "validate", "basic", ["validate", str(path)])
                    if inv.rc != 0:
                        print(f"smoke: {path.name} fails foggrid validate: {inv.stderr.strip()}")
                        ok = False
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return ok


def smoke(pins: dict) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_foggrid()
    ok = validate_generated()
    for name in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = report(name, bench(name, workloads.DEFAULT_SEED, 1.0, trace, "tiny", pins))
            for metric in spec[group]:
                got = result["metrics"].get(metric["name"])
                if got is None or got["unit"] != metric["unit"]:
                    print(f"smoke: {name} lacks {metric['name']} in {metric['unit']}")
                    ok = False
            ok = ok and result["correct"]
    print("smoke: ok" if ok else "smoke: FAILED")
    return 0 if ok else 1


def write_pins() -> None:
    import_foggrid()
    pins = {}
    for size in ("full", "tiny"):
        pins[size] = {}
        for name in workloads.WORKLOADS:
            work = WORK / f"pin-{name}"
            shutil.rmtree(work, ignore_errors=True)
            work.mkdir(parents=True)
            path = work / "scenario.yaml"
            path.write_text(workloads.generate(name, workloads.DEFAULT_SEED, size), encoding="utf-8")
            inv = Invocation(work, "pin", "basic", ["compare", str(path), "--seed", str(workloads.DEFAULT_SEED)])
            if inv.rc != 0:
                raise Failure(f"{name}: exit code {inv.rc}: {inv.stderr}")
            outputs = read_outputs(inv.out)
            pins[size][name] = {
                "digest": printed_digests(inv.stdout),
                "summary": {mode: files["summary.txt"] for mode, files in outputs.items()},
            }
            shutil.rmtree(work)
    PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-pins", action="store_true")
    args = parser.parse_args()
    # A terminated run still stops its CLI child and removes its work files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # Probe and program on one CPU: the CPUs of a shared host slow down
    # independently, so a probe on the other CPU tracks the program badly.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        if args.write_pins:
            write_pins()
            return 0
        pins = json.loads(PINS.read_text(encoding="utf-8"))
        if args.smoke:
            return smoke(pins)
        if args.workload is None:
            parser.error("--workload is required")
        outcome = bench(args.workload, args.seed, args.seconds, bool(args.trace), "full", pins)
    except Failure as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(args.workload, outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
