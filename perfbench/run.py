#!/usr/bin/env python3
"""Benchmark for the mppsoc toolkit.

    python3 perfbench/run.py --workload array-compute --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Runs one workload (see workloads.py) as a closed loop: one caller, one
thread, each op starting after the previous one finished.  Every op is
checked by an oracle; failures are counted, never fatal.  Times are host
wall time (the toolkit's own speed).  Simulated cycles are kept apart,
as exact counts of the toolkit's cycle model.

``--trace 0`` prints the end-to-end metrics of an untraced run.
``--trace 1`` runs untraced for a third of the time (the baseline for
the tracing overhead), then traced, and prints the per-layer metrics.
Either way the last stdout line is one JSON object, and a fuller record
(host metadata, exact simulated counts, workload description) goes to
``.perfbench-run/<workload>-seed<n>-trace<t>.json`` in the checkout.
``--workload all`` runs each workload in a fresh process.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import time_kernel

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench-run"
WORKLOADS = ("array-compute", "noc-program", "design-sweep")
SETUP_PROBES = 5
TAIL_BEYOND = 10      # samples the tail percentile must leave above it
MIN_OPS = TAIL_BEYOND + 1
PROBE_REPEATS = {"NOCSEND": 2}
DEFAULT_PROBE_REPEATS = 20
# Host speed changes within a second, so the kernel is timed before the
# first op and again after every REF_EVERY_S of op time.
REF_EVERY_S = 0.05
CYCLE_MODEL = ("Simulated cycles come from the toolkit's additive cost "
               "model, which has not been validated against hardware; no "
               "error figure is given.")

# Gated end-to-end metrics.  Op times are given in units of the
# host-speed kernel (reference.py) timed beside them; the raw seconds go
# to the printed lines and the result file.
END_TO_END = (("setup_s", "s"), ("ops_per_ref", "1/ref"), ("op_p50_ref", "ref"),
              ("op_tail_ref", "ref"), ("peak_rss_mb", "MiB"))
RAW_END_TO_END = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_tail_s", "s"),
                  ("pe_instr_per_s", "1/s"), ("error_rate", "ratio"))
OPCODES = ("LDI", "LD", "ST", "ADD", "MOVD", "MASK", "UNMASK", "NOCSEND")
# Span names; each gives the per-op self-time metric "<span>_s".
SPAN_METRICS = (
    "config.parse", "rules.validate", "rewrite.generate", "topology.build",
    "mpnoc.build", "mpnoc.transfer", "mpnoc.route", "simulator.load",
    "simulator.machine_init", "simulator.run", "simulator.reduce_sum",
    "cli.validate", "cli.generate", "cli.simulate")
# Per-op exact counts: metric name -> tracer counter.
COUNT_METRICS = {
    "config.parse_calls": "config.parse.calls",
    "rules.validate_calls": "rules.validate.calls",
    "rewrite.rewrite_line_calls": "rewrite.rewrite_line_calls",
    "rewrite.lines_rewritten": "rewrite.lines_rewritten",
    "topology.builds": "topology.build.calls",
    "mpnoc.transfers": "mpnoc.transfer.calls",
    "mpnoc.messages": "mpnoc.messages",
    "mpnoc.passes": "mpnoc.passes",
    "mpnoc.path_calls": "mpnoc.path_calls",
    "mpnoc.conflicts": "mpnoc.conflicts",
    "simulator.pe_instr": "simulator.pe_instr",
    "simulator.sim_cycles": "simulator.sim_cycles",
}
# The simulated statistics a simulator-only speed-up must leave identical.
EXACT_COUNTS = ("simulator.sim_cycles", "simulator.pe_instr", "mpnoc.passes",
                "mpnoc.messages", "mpnoc.conflicts", "rewrite.lines_rewritten")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in SPAN_METRICS}
    units.update({name: "count" for name in COUNT_METRICS})
    units.update({f"simulator.op.{op}_s": "s" for op in OPCODES})
    units.update({
        "simulator.sim_cycles": "cycle",
        "simulator.report_s": "s",
        "simulator.pe_instr_per_s": "1/s",
        "mpnoc.routed_per_attempt": "ratio",
        "trace.overhead": "ratio",
        "trace.bench_side_s": "s",
        "trace.missing_layers": "count",
    })
    return units


# -- set-up -----------------------------------------------------------------


def fail(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def set_up(workload: str, seed: int, workdir: Path):
    """Import the toolkit from this checkout and build the workload's
    inputs.  Returns (workload, seconds taken)."""
    started = time.perf_counter()
    src = ROOT / "src"
    if not (src / "mppsoc" / "__init__.py").is_file():
        fail(f"no mppsoc package under {src}")
    sys.path.insert(0, str(src))
    import mppsoc
    if Path(mppsoc.__file__).resolve().parent != (src / "mppsoc").resolve():
        fail(f"imported mppsoc from {mppsoc.__file__}, not from {src}")
    if workload == "design-sweep" and not (ROOT / "tests" / "delta_oracle.py").is_file():
        fail("design-sweep needs tests/delta_oracle.py")
    import workloads
    made = workloads.make(workload, seed, workdir, ROOT)
    return made, time.perf_counter() - started


def median_setup_s(args, workdir: Path) -> tuple[float, list[float]]:
    """Set up SETUP_PROBES times, each in a fresh interpreter so the
    import is paid every time; return the median and the samples."""
    samples = []
    for probe in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--workdir", str(workdir / f"probe{probe}")],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=False)
        if done.returncode != 0:
            fail(f"set-up probe failed: {done.stderr.strip()}")
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


# -- measurement ------------------------------------------------------------


@dataclass
class Phase:
    """Ops run back to back, with their walls and their check results."""

    latencies: list[float] = field(default_factory=list)
    refs: list[float] = field(default_factory=list)     # kernel samples
    block_ends: list[int] = field(default_factory=list)  # ops before each
    op_ids: list[int] = field(default_factory=list)
    pe_instr: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    selfcheck_missed: bool = False

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def ratios(self) -> list[float]:
        """Each op's wall time in kernel units: over the mean of the kernel
        samples taken just before and just after its block of ops."""
        out = []
        for block in range(1, len(self.refs)):
            ref = (self.refs[block - 1] + self.refs[block]) / 2
            start, end = self.block_ends[block - 1], self.block_ends[block]
            out += [wall / ref for wall in self.latencies[start:end]]
        return out


def run_ops(workload, seconds: float, min_ops: int = MIN_OPS) -> Phase:
    """Closed loop until ``seconds`` have passed, at least ``min_ops`` ops
    ran, and the op sequence sits on a sweep boundary."""
    phase = Phase()
    tracer = workload.tracer
    scratch = workload.workdir / "reference.txt"
    block_time = 0.0

    def sample_host_speed():
        phase.refs.append(time_kernel(scratch))
        phase.block_ends.append(phase.attempted)

    sample_host_speed()
    started = time.perf_counter()
    index = 0
    while (index < min_ops or index % workload.sweep
           or time.perf_counter() - started < seconds):
        inputs = workload.prepare(index)
        tracer.op_id = index
        begin = time.perf_counter()
        try:
            output = workload.op(inputs)
            problem = None
        except Exception as err:  # an op that raises is a failed op
            output, problem = None, f"op raised {err!r}"
        wall = time.perf_counter() - begin
        tracer.op_id = None
        if problem is None:
            try:
                problem = workload.check(inputs, output)
                if index == 0 and workload.check(inputs, output, plant=True) is None:
                    phase.selfcheck_missed = True
            except Exception as err:  # a malformed output fails its op
                problem = f"oracle raised {err!r}"
        phase.latencies.append(wall)
        phase.op_ids.append(index)
        instructions = getattr(output, "instructions", 0)
        phase.pe_instr.append(instructions * len(getattr(output, "registers", ())))
        if problem is not None:
            phase.failures.append(f"op {index}: {problem}")
        index += 1
        block_time += wall
        if block_time >= REF_EVERY_S:
            sample_host_speed()
            block_time = 0.0
    if phase.block_ends[-1] < index:
        sample_host_speed()
    return phase


def timing_metrics(phase: Phase) -> dict:
    n = phase.attempted
    tail_at = n - 1 - TAIL_BEYOND
    out = {"samples": n, "op_tail_percentile": 100.0 * (tail_at + 1) / n,
           "op_tail_beyond": n - 1 - tail_at,
           "ref_s": statistics.median(phase.refs), "ref_samples": len(phase.refs)}
    for unit, values in (("s", phase.latencies), ("ref", phase.ratios())):
        ordered = sorted(values)
        out[f"op_p50_{unit}"] = statistics.median(ordered)
        out[f"op_tail_{unit}"] = ordered[tail_at]
        out[f"ops_per_{unit}"] = n / sum(ordered)
    return out


def pe_instr_per_s(phase: Phase) -> float:
    return statistics.median(
        count / wall for count, wall in zip(phase.pe_instr, phase.latencies))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def count_pass(workload) -> tuple[Phase, dict]:
    """One sweep with the tracer installed, from op 0: exact counts that
    repeat for a seed on any commit that keeps the simulated behaviour."""
    from tracer import Tracer
    workload.tracer = Tracer()
    with workload.tracer.installed():
        phase = run_ops(workload, 0.0, min_ops=workload.sweep)
    counts = dict(workload.tracer.counts)
    workload.tracer = Tracer()
    return phase, counts


def time_opcodes(workload) -> dict[str, float]:
    """Per-instruction host time on the workload's machine: a program
    repeating one instruction, minus the same program without it, over
    the repeat count.  The bare HALT run is the report-building cost."""
    if not workload.opcodes:
        return {}
    import mppsoc.simulator as sim
    machine = sim.SimMachine(workload.config)
    machine.set_values(workload.prepare(0))

    def run_time(lines) -> float:
        program = sim.load_program("\n".join(lines + ["HALT"]) + "\n")
        samples = []
        for _ in range(3):
            begin = time.perf_counter()
            sim.run(machine, program)
            samples.append(time.perf_counter() - begin)
        return statistics.median(samples)

    out = {"simulator.report_s": run_time([])}
    per_op: dict[str, list[float]] = {}
    for opcode, prefix, instruction in workload.opcodes:
        repeats = PROBE_REPEATS.get(opcode, DEFAULT_PROBE_REPEATS)
        extra = run_time([prefix] + [instruction] * repeats) - run_time([prefix])
        per_op.setdefault(opcode, []).append(extra / repeats)
    for opcode, values in per_op.items():
        out[f"simulator.op.{opcode}_s"] = statistics.fmean(values)
    return out


def analyse_trace(workload, phase: Phase) -> tuple[dict, dict]:
    """Per-op self time per span name, plus the sanity check that span
    self times and benchmark-side time add up to every op's wall."""
    tracer = workload.tracer
    selfs = tracer.self_times()
    ops = phase.attempted
    totals: dict[str, float] = {}
    per_op_self: dict[int, float] = {}
    worst_negative = 0.0
    for (name, _start, _end, _parent, op_id), own in zip(tracer.spans, selfs):
        totals[name] = totals.get(name, 0.0) + own
        per_op_self[op_id] = per_op_self.get(op_id, 0.0) + own
        worst_negative = min(worst_negative, own)
    bench_side = [wall - per_op_self.get(op_id, 0.0)
                  for op_id, wall in zip(phase.op_ids, phase.latencies)]
    worst_negative = min([worst_negative] + bench_side)
    missing = [layer for layer in workload.layers
               if layer not in tracer.layers_seen()]
    metrics = {f"{name}_s": totals.get(name, 0.0) / ops for name in SPAN_METRICS}
    metrics["trace.bench_side_s"] = statistics.fmean(bench_side)
    metrics["trace.missing_layers"] = len(missing)
    sanity = {
        "ops": ops,
        "spans": len(tracer.spans),
        # Self times are non-negative and, with the benchmark-side rest,
        # sum to each op's wall by construction; a negative value means
        # spans overlapped or escaped their op.
        "ok": worst_negative > -1e-9 and not missing,
        "worst_negative_s": worst_negative,
        "span_share_of_wall": sum(per_op_self.values()) / sum(phase.latencies),
        "missing_layers": missing,
        "unpatched_targets": tracer.unpatched,
    }
    return metrics, sanity


def write_spans(workload, path: Path, origin: float):
    with path.open("w", encoding="utf-8") as out:
        for name, start, end, parent, op_id in workload.tracer.spans:
            out.write(json.dumps({"name": name, "start": start - origin,
                                  "end": end - origin, "parent": parent,
                                  "op": op_id}) + "\n")


# -- entry points -----------------------------------------------------------


def end_to_end(workload, args, setup_s: float) -> tuple[list, dict, dict]:
    """Untraced run: the gated metrics plus the raw host seconds."""
    measured = run_ops(workload, args.seconds)
    timing = timing_metrics(measured)
    metrics = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(),
               "pe_instr_per_s": (pe_instr_per_s(measured)
                                  if any(measured.pe_instr) else 0.0)}
    metrics.update({name: timing[name] for name, _unit in END_TO_END + RAW_END_TO_END
                    if name in timing})
    return [measured], metrics, {"timing": timing}


def per_layer(workload, args, origin: float) -> tuple[list, dict, dict]:
    """Untraced third as the overhead baseline, then the traced run,
    then the per-opcode probes with tracing off."""
    from tracer import Tracer
    untraced = run_ops(workload, args.seconds / 3)
    workload.tracer = Tracer()
    with workload.tracer.installed():
        traced = run_ops(workload, args.seconds - args.seconds / 3)
    metrics = dict.fromkeys(per_layer_units(), 0.0)
    layer_times, sanity = analyse_trace(workload, traced)
    metrics.update(layer_times)
    spans_path = RUN_DIR / f"{args.workload}-seed{args.seed}.spans.jsonl"
    write_spans(workload, spans_path, origin)
    workload.tracer = Tracer()
    metrics.update(time_opcodes(workload))
    before, after = timing_metrics(untraced), timing_metrics(traced)
    metrics["trace.overhead"] = after["op_p50_ref"] / before["op_p50_ref"] - 1
    metrics["simulator.pe_instr_per_s"] = pe_instr_per_s(untraced)
    if not sanity["ok"]:
        print(f"warning: trace sanity check failed: {sanity}", file=sys.stderr)
    for layer in sanity["missing_layers"]:
        print(f"warning: layer {layer} recorded no spans", file=sys.stderr)
    record = {"untraced": before, "traced": after, "trace_sanity": sanity,
              "spans_file": spans_path.name}
    return [untraced, traced], metrics, record


def run_one(args) -> int:
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = RUN_DIR / f"{tag}-work"
    shutil.rmtree(workdir, ignore_errors=True)
    origin = time.perf_counter()
    workload, inproc_setup_s = set_up(args.workload, args.seed, workdir / "run")
    setup_s, setup_samples = median_setup_s(args, workdir)

    if args.trace:
        phases, metrics, record = per_layer(workload, args, origin)
        units = per_layer_units()
        shown = units
    else:
        phases, metrics, record = end_to_end(workload, args, setup_s)
        units = dict(END_TO_END)
        shown = {**units, **dict(RAW_END_TO_END)}

    counted, counts = count_pass(workload)
    phases.append(counted)
    if args.trace:
        for name, counter in COUNT_METRICS.items():
            metrics[name] = counts.get(counter, 0) / counted.attempted
        messages = counts.get("mpnoc.messages", 0)
        conflicts = counts.get("mpnoc.conflicts", 0)
        metrics["mpnoc.routed_per_attempt"] = (
            messages / (messages + conflicts) if messages else 0.0)

    attempted = sum(p.attempted for p in phases)
    failures = [f for p in phases for f in p.failures]
    selfcheck_ok = not any(p.selfcheck_missed for p in phases)
    metrics["error_rate"] = len(failures) / attempted
    record.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds,
        trace=args.trace, description=workload.describe(),
        cycle_model=CYCLE_MODEL,
        load="closed loop, one caller, one thread, no latency limit",
        host={"python": platform.python_version(), "nproc": os.cpu_count(),
              "platform": platform.platform()},
        samples={"attempted": attempted,
                 "per_phase": [p.attempted for p in phases]},
        setup={"median_s": setup_s, "probes_s": setup_samples,
               "in_process_s": inproc_setup_s},
        failures=failures[:20],
        selfcheck="caught" if selfcheck_ok else "missed",
        exact_counts={"ops": counted.attempted,
                      **{k: counts.get(k, 0) for k in EXACT_COUNTS}},
        all_counts=counts,
        metrics={name: {"value": metrics.get(name, 0.0), "unit": unit}
                 for name, unit in shown.items()})
    (RUN_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    shutil.rmtree(workdir, ignore_errors=True)

    for failure in failures[:5]:
        print(f"failed: {failure}", file=sys.stderr)
    if not selfcheck_ok:
        print("error: the oracle missed a planted wrong value", file=sys.stderr)
    for name, unit in shown.items():
        print(f"{args.workload} {name} = {metrics.get(name, 0.0):.6g} {unit}")
    print(json.dumps({
        "correct": not failures and selfcheck_ok, "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh interpreter, so memory and set-up are
    not inherited; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            fail(f"{name} exited with {done.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        _workload, seconds = set_up(args.workload, args.seed, Path(args.workdir))
        print(repr(seconds))
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    raise SystemExit(main())
