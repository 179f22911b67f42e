"""Run the foggrid CLI in this interpreter and record spans around it.

Usage: python child.py SPANS_FILE RUN_ID {basic,full} CLI_ARG...

The CLI runs exactly as the ``foggrid`` console script runs it:
``foggrid.cli.main(CLI_ARGS)``. Before the call, public functions of the
package are wrapped so that each call records a span (name, start, end,
parent, run id). ``basic`` wraps only ``cli.main`` and ``engine.run``,
which is what the timed runs need; ``full`` wraps every public
cross-module function of the layers (the traced run). Spans stay in
memory and are written to SPANS_FILE as JSON after ``main`` returns,
with the peak resident memory of this process. The exit code is the
CLI's.
"""

import json
import resource
import sys
import time

BASIC = (
    ("cli.main", "foggrid.cli", "main"),
    ("engine.run", "foggrid.engine", "run"),
)

FULL = BASIC + (
    ("scenario.load_config", "foggrid.scenario", "load_config"),
    ("scenario.parse_config", "foggrid.scenario", "parse_config"),
    ("scenario.yaml_load", "yaml", "safe_load"),
    ("scenario.with_mode", "foggrid.scenario", "with_mode"),
    ("scenario.with_overrides", "foggrid.scenario", "with_overrides"),
    ("topology.make_topology", "foggrid.topology", "make_topology"),
    ("topology.validate_topology", "foggrid.topology", "validate_topology"),
    ("topology.by_id", "foggrid.topology", "Topology.by_id"),
    ("topology.fog_for_area", "foggrid.topology", "Topology.fog_for_area"),
    ("messages.classify", "foggrid.messages", "classify"),
    ("messages.seal", "foggrid.messages", "seal"),
    ("messages.resolve_route", "foggrid.messages", "resolve_route"),
    ("messages.classify_route_pattern", "foggrid.messages", "classify_route_pattern"),
    ("billing.initiate_session", "foggrid.billing", "initiate_session"),
    ("billing.resolve_owner", "foggrid.billing", "resolve_owner"),
    ("billing.authorize", "foggrid.billing", "authorize"),
    ("billing.start_charging", "foggrid.billing", "start_charging"),
    ("billing.meter_energy", "foggrid.billing", "meter_energy"),
    ("billing.settle_bill", "foggrid.billing", "settle_bill"),
    ("billing.reject_session", "foggrid.billing", "reject_session"),
    ("energy.accrue_energy", "foggrid.energy", "accrue_energy"),
    ("energy.mode_transition", "foggrid.energy", "mode_transition"),
    ("energy.processing_time", "foggrid.energy", "processing_time"),
    ("reporting.build_report", "foggrid.reporting", "build_report"),
    ("reporting.compare_frameworks", "foggrid.reporting", "compare_frameworks"),
    ("reporting.emit_report", "foggrid.reporting", "emit_report"),
    ("reporting.emit_comparison", "foggrid.reporting", "emit_comparison"),
)


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack, clock, run_id = self.spans, self.stack, time.perf_counter, self.run_id

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, run_id)

        return traced

    def install(self, targets) -> None:
        """Wrap each target where it is defined and wherever a foggrid
        module imported it by name (``engine`` binds ``resolve_route``,
        ``seal``, ... in its own namespace, so wrapping only the defining
        module would miss those calls)."""
        for name, module_name, attr in targets:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, attr = attr.split(".")
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            traced = self.wrap(name, original)
            setattr(owner, attr, traced)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] != "foggrid" or mod is owner:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, traced)


def peak_rss_kb() -> int:
    """Peak resident memory of this program image (Linux ``VmHWM``).
    ``ru_maxrss`` would also count the parent's pages that the forked
    process held before it exec'd this interpreter."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main() -> int:
    spans_path, run_id, depth, *cli_args = sys.argv[1:]
    import foggrid.cli

    tracer = Tracer(run_id)
    tracer.install(FULL if depth == "full" else BASIC)
    try:
        return foggrid.cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"peak_rss_kb": peak_rss_kb(), "spans": tracer.spans}, fh, separators=(",", ":"))


if __name__ == "__main__":
    sys.exit(main())
