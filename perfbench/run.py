"""Benchmark for stepplan: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a stepplan checkout; the package is imported from its
``src/`` directory, nothing is installed::

    python3 perfbench/run.py --workload trajectories --seed 0 --seconds 45 --trace 0

``--trace 0`` runs the workload untraced for about ``--seconds`` (whole
passes, at least two) and reports the end-to-end metrics.  ``--trace 1`` runs it
untraced for about half that time (at least one pass), then traced for as
many passes, then the isolated micro-benchmarks, and reports the per-layer
metrics.  Every run
checks its outputs; the last line of standard output is one JSON object,
and the exit code is 1 when any check failed.  Metric names and units come
from ``BENCHMARK.json``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference_sha256.json"

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# Set-up probes: three before the first pass, then one after each pass up to
# nine, so that they sample the machine at different moments of the run.
SETUP_PROBES_FIRST, SETUP_PROBES_MAX = 3, 9
MODULES = ("harness", "problems", "optimizers", "planner", "tracing", "svgplot", "theory")


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without starting git; 'unknown' outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _environment(np) -> dict:
    """What the CSV bytes may depend on: interpreter, numpy, and CPU features."""
    simd = np.show_config(mode="dicts").get("SIMD Extensions", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "machine": platform.machine(), "simd": sorted(simd.get("found", []))}


def _same_build(a: dict, b: dict) -> bool:
    keys = ("numpy", "machine", "simd")
    return all(a.get(k) == b.get(k) for k in keys) and \
        a.get("python", "").rsplit(".", 1)[0] == b.get("python", "").rsplit(".", 1)[0]


class Gate:
    """Correctness gate: every run (or trial, or anchor) is one attempt."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def record(self, what: str, faults: list) -> None:
        self.attempted += 1
        if faults:
            self.failures.append(f"{what}: {'; '.join(faults)}")


def _setup_probe(name: str, seed: int) -> float:
    """Seconds for a fresh interpreter to import stepplan and set the workload up.

    The child prints the monotonic clock (shared by all processes) once set-up
    is done, so process teardown and the wait for it are not counted.
    """
    code = (f"import sys, time; sys.path[:0] = [{str(SRC)!r}, {str(BENCH)!r}]; "
            f"import workloads; workloads.setup({name!r}, {seed}); print(time.perf_counter())")
    t0 = perf_counter()
    child = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                           capture_output=True, text=True)
    return float(child.stdout.split()[-1]) - t0


def _passes(workload, out_dir, spans, seconds: float, at_least: int,
            after_pass=lambda: None) -> list:
    """Whole passes while the next one should end within ``seconds``."""
    passes, start = [], perf_counter()
    while len(passes) < at_least or (perf_counter() - start
                                     + statistics.median(p.wall for p in passes) <= seconds):
        passes.append(workload.run_pass(out_dir, spans))
        after_pass()
    return passes


def _check(workload, passes, gate: Gate, reference, anchors: bool) -> None:
    """One attempt per unit of every pass: its own faults, repeat bytes, reference."""
    first = passes[0]
    for index, result in enumerate(passes):
        for label, error in result.errors.items():
            gate.record(f"pass {index} {label}", [error])
        for label, out in result.outputs.items():
            found = list(out.faults)
            base = first.outputs.get(label)
            if out.sha256 and base is not None and out.sha256 != base.sha256:
                found.append("output bytes differ from pass 0")
            if index == 0 and reference is not None and out.sha256 \
                    and reference.get(label) != out.sha256:
                found.append(f"sha256 {out.sha256[:12]} != reference "
                             f"{str(reference.get(label))[:12]}")
            if index == 0 and anchors:
                found += workload.anchor_faults(label, out)
            gate.record(f"pass {index} {label}", found)
    if anchors:
        for what, found in workload.anchors():
            gate.record(what, found)


def _check_traced(workload, untraced, traced, spans_list, gate: Gate) -> None:
    """Traced outputs match the untraced ones, and the proxies saw every call."""
    for index, (result, spans) in enumerate(zip(traced, spans_list)):
        for label, error in result.errors.items():
            gate.record(f"traced pass {index} {label}", [error])
        for label, found in workload.traced_faults(result, spans, untraced[0].outputs):
            gate.record(f"traced pass {index} {label}", found)


def _counts(result) -> dict:
    outs = result.outputs.values()
    records = sum(o.records for o in outs)
    evals = sum(o.grad_evals for o in outs)
    return {
        "core.grad_evals": evals,
        "core.func_evals": sum(o.func_evals for o in outs),
        "tracing.records": records,
        "tracing.csv_bytes": sum(o.csv_bytes for o in outs),
        "svgplot.svg_bytes": sum(o.svg_bytes for o in outs),
        "planner.events": sum(o.events for o in outs),
        "planner.evals_per_iter": evals / records if records else 0.0,
        "planner.evals_to_floor": sum(o.grad_evals for o in outs if o.status == "converged"),
    }


def _emit(values: dict, declared: dict, gate: Gate) -> dict:
    missing, extra = set(declared) - set(values), set(values) - set(declared)
    if missing or extra:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {sorted(missing)}, "
                           f"undeclared {sorted(extra)}")
    for name in declared:
        print(f"  {name:<34} {values[name]:>16.6g} {declared[name]}")
    return {"correct": not gate.failures, "attempted": gate.attempted,
            "failed": len(gate.failures),
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in declared.items()}}


def _reference(name: str, seed: int, env: dict, update: bool):
    """This build's seed-0 hashes of the workload, or None when none apply."""
    from workloads import REFERENCE_SEED

    if seed != REFERENCE_SEED or update:
        return None
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if not _same_build(stored.get("environment", {}), env):
        print(f"  reference hashes not checked: recorded on {stored.get('environment')}")
        return None
    return stored.get("workloads", {}).get(name, {})


def _update_reference(name: str, env: dict, result) -> None:
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    if not _same_build(stored.get("environment", {}), env):
        stored = {}
    stored["environment"] = env
    stored.setdefault("workloads", {})[name] = {
        label: out.sha256 for label, out in sorted(result.outputs.items()) if out.sha256}
    REFERENCE.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    print(f"  wrote {len(stored['workloads'][name])} reference hashes")


def _end_to_end(untraced, setup_s: float) -> dict:
    wall = statistics.median(p.wall for p in untraced)
    latencies = sorted(x * 1e3 for p in untraced for x in p.latencies)
    p90 = statistics.quantiles(latencies, n=10)[-1]
    print(f"  run_ms: {len(latencies)} samples, {sum(x > p90 for x in latencies)} beyond p90")
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "iters_per_s": untraced[0].iterations / wall,
        "trials_per_s": untraced[0].units / wall,
        "run_ms_p50": statistics.median(latencies),
        "run_ms_p90": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(workload, untraced, out_dir: Path, gate: Gate) -> dict:
    """Traced passes (as many as untraced), counts, and the micro-benchmarks."""
    import micro
    import workloads
    from spans import Spans

    spans_list, traced = [], []
    for _ in untraced:
        spans = Spans()
        with workload.instrument(spans):
            traced.append(workload.run_pass(out_dir, spans))
        spans_list.append(spans)
    _check_traced(workload, untraced, traced, spans_list, gate)
    traced_total = sum(p.wall for p in traced)
    print(f"  traced passes {len(traced)}: wall "
          f"{', '.join(f'{p.wall:.3f}' for p in traced)} s")
    _print_spans(spans_list, traced_total)
    with open(OUT / f"{workload.name}.spans.jsonl", "w") as fh:
        for index, spans in enumerate(spans_list):
            spans.write(fh, traced_pass=index)

    self_s = {}
    for spans in spans_list:
        for module, value in spans.self_by_module().items():
            self_s[module] = self_s.get(module, 0.0) + value
    values = {f"self_frac.{m}": self_s.get(m, 0.0) / traced_total for m in MODULES}
    values["trace_overhead_frac"] = (statistics.median(p.wall for p in traced)
                                     / statistics.median(p.wall for p in untraced) - 1.0)
    values.update(_counts(untraced[0]))
    values["harness.setup_ms"] = micro.per_call(
        lambda: workloads.setup(workload.name, workload.seed), 1) * 1e3
    values.update(micro.run_all(out_dir))
    return values


def _print_spans(spans_list, traced_wall: float) -> None:
    """Self time per span name over all traced passes."""
    merged = {}
    for spans in spans_list:
        for key, values in spans.by_name().items():
            acc = merged.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(values):
                acc[i] += v
    print(f"  {'span':<18} {'module':<11} {'calls':>9} {'total s':>9} {'self s':>9} "
          f"{'self us/call':>12} {'self share':>10}")
    for (name, module), (count, total, self_s) in sorted(
            merged.items(), key=lambda item: -item[1][2]):
        print(f"  {name:<18} {module:<11} {count:>9} {total:>9.3f} {self_s:>9.3f} "
              f"{self_s / count * 1e6:>12.2f} {self_s / traced_wall:>10.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="record this workload's seed-0 output hashes as the reference")
    args = parser.parse_args(argv)

    # One BLAS/OpenMP thread, set before numpy is first imported.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not (SRC / "stepplan" / "__init__.py").is_file():
        print(f"error: no stepplan sources at {SRC}; run from a stepplan checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np
    import stepplan
    if Path(stepplan.__file__).resolve().parent != SRC / "stepplan":
        print(f"error: imported stepplan from {stepplan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads
    from spans import NullSpans

    if args.workload not in workloads.NAMES:
        parser.error(f"--workload must be one of {', '.join(workloads.NAMES)}")
    if args.update_reference and args.seed != workloads.REFERENCE_SEED:
        parser.error("--update-reference records seed 0 only")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env = _environment(np)
    print(f"stepplan benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"seconds={args.seconds:g}")
    print(f"  python {env['python']}, numpy {env['numpy']}, nproc {os.cpu_count()}, "
          f"commit {_git_commit()}")

    out_dir = OUT / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    probes = []

    def probe_setup():
        if len(probes) < SETUP_PROBES_MAX:
            probes.append(_setup_probe(args.workload, args.seed))

    if not args.trace:
        for _ in range(SETUP_PROBES_FIRST):
            probe_setup()
    workload = workloads.setup(args.workload, args.seed)
    workload.warm_up(out_dir)

    gate = Gate()
    # Untraced runs make at least two passes, so every unit runs twice and its
    # bytes are compared; a traced run compares its traced pass instead.
    if args.trace:
        untraced = _passes(workload, out_dir, NullSpans(), args.seconds / 2, 1)
    else:
        untraced = _passes(workload, out_dir, NullSpans(), args.seconds, 2, probe_setup)
    reference = _reference(args.workload, args.seed, env, args.update_reference)
    _check(workload, untraced, gate, reference, args.seed == workloads.REFERENCE_SEED)
    if args.update_reference:
        _update_reference(args.workload, env, untraced[0])
    print(f"  passes {len(untraced)}: wall {', '.join(f'{p.wall:.3f}' for p in untraced)} s; "
          f"{untraced[0].units} {workload.unit_name} and {untraced[0].iterations} "
          "iterations per pass")

    if args.trace:
        values = _per_layer(workload, untraced, out_dir, gate)
        declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    else:
        values = _end_to_end(untraced, statistics.median(probes))
        declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}

    for failure in gate.failures[:20]:
        print(f"  FAILED {failure}")
    print(f"  correctness: {gate.attempted - len(gate.failures)}/{gate.attempted} passed, "
          f"failed_frac {len(gate.failures) / max(gate.attempted, 1):.4g}")
    result = _emit(values, declared, gate)
    (OUT / f"{args.workload}.summary.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "trace": args.trace,
         "environment": env, "commit": _git_commit(), "nproc": os.cpu_count(),
         "failures": gate.failures, **result}, indent=2) + "\n")
    print(json.dumps(result))
    return 1 if gate.failures else 0


if __name__ == "__main__":
    sys.exit(main())
