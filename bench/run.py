"""gpiodac benchmark: three workloads, end-to-end metrics, and a traced per-layer run.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload flow-12b --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a run that alternates untraced and traced passes. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. A record of the run (seed, commit, versions, per-pass figures,
gate findings) goes to ``bench/out/``; a traced run also writes its spans
there. BENCHMARK.json and bench/METRICS.md describe the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from hostref import REF_LOOP_S, reference_s, scale
from tracing import LAYER_UNITS, Tracer, layer_metrics

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
ORACLES = ROOT / "tests" / "oracles.py"
OUT = BENCH / "out"
# Set-up probes per run, spread over the run's passes: a shared host's speed
# shifts in periods of seconds to minutes, and probes made back to back all
# land in one of them.
SETUP_PROBES = 15
MAX_MEASURE_S = 120.0  # stop adding passes here, whatever --seconds says, to end within 180 s
TIME_UNITS = ("s", "s/code", "ms")  # per-layer units that the host-speed scaling applies to

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "throughput": "units/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "ok_share": "fraction",
    "peak_rss_mb": "MB",
}
# Printed and recorded but left out of the result line, so they have no bound.
# They are order statistics over a few dozen operations of unequal size, so
# the operation they land on changes from run to run: over 5 seeds they spread
# up to 0.135 on flow-12b, more than a third of the largest bound allowed.
UNBOUNDED = ("op_p50_ms", "op_tail_ms")
# Named in the benchmark's design but not observable through gpiodac's public API.
UNMEASURABLE = {
    "network.newton_iters": "Newton iterations stay inside gpiodac.network; no public "
    "function returns them. Waits for the solver telemetry item.",
    "network.damping_halvings": "not exposed by the public API; waits for solver telemetry",
    "network.fallbacks": "whether the bisection fallback ran is not exposed; waits for "
    "solver telemetry",
}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("flow-12b", "transient-11b", "cli-4b"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(workload: str, seed: int) -> int:
    """Child process: time importing gpiodac and building the workload's inputs."""
    start = time.perf_counter()
    import gpiodac  # noqa: F401
    import gpiodac.cli  # noqa: F401

    imported = time.perf_counter()
    import workloads

    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix="probe-"))
    try:
        workloads.WORKLOADS[workload].build(seed, workdir)
        done = time.perf_counter()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"import_s": imported - start, "setup_s": done - start, "ref_s": reference_s()}))
    return 0


def measure_setup(workload: str, seed: int, count: int) -> list[dict]:
    """``count`` set-up probes, each in a fresh process."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    probes = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        probes.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return probes


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def load_oracle():
    spec = importlib.util.spec_from_file_location("gpiodac_bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_passes(wl, inputs, seconds: float, trace: bool, oracle, after_untraced) -> list[dict]:
    """Timed passes until --seconds of measurement; each is checked right after it ends.

    Untraced runs make at least ``wl.min_passes`` passes. Traced runs
    alternate untraced and traced passes, so the difference of their walls is
    the tracing overhead. ``after_untraced(wall)`` runs, untimed, after each
    untraced pass.
    """
    passes: list[dict] = []
    first_digest = None
    measured = 0.0
    while True:
        traced = trace and len(passes) % 2 == 1
        tracer = Tracer() if traced else None
        start = time.perf_counter()
        if tracer is not None:
            tracer.install()
        try:
            result = wl.run_pass(inputs, len(passes), tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall = time.perf_counter() - start
        measured += wall

        bad = wl.check(inputs, result.outputs, oracle)
        digest = wl.digest(inputs, result.outputs)
        if digest is not None:
            if first_digest is None:
                first_digest = digest
            for k, (got, want) in enumerate(zip(digest, first_digest)):
                if got != want:
                    bad.setdefault(k, "output differs from the first pass's")
        record = {
            "traced": traced,
            "wall_s": wall,
            "units": result.units,
            "ops": result.ops,
            "gate": bad,
            "extra": result.extra,
        }
        if tracer is not None:
            record["layers"] = layer_metrics(tracer.spans, tracer.counts)
            record["spans"] = tracer.spans
            record["counts"] = tracer.counts
        passes.append(record)
        if not traced:
            after_untraced(wall)

        if trace:
            enough = any(p["traced"] for p in passes) and any(not p["traced"] for p in passes)
        else:
            enough = len(passes) >= wl.min_passes
        if measured >= MAX_MEASURE_S or (enough and measured + wall > seconds):
            return passes


def op_tail(latencies: list[float]) -> tuple[float | None, float | None, int]:
    """(value, percentile, samples): the highest percentile with ten samples beyond it.

    None when no percentile qualifies, which the least pass counts rule out
    in untraced runs.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return None, None, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def summarize(wl, passes: list[dict], probes: list[dict]) -> dict:
    """Counts, end-to-end metrics and per-layer metrics of the run's passes."""
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    attempted = failed = infeasible = 0
    failures_by_kind: dict[str, int] = {}
    incorrect = []
    for i, p in enumerate(passes):
        for k, op in enumerate(p["ops"]):
            attempted += 1
            infeasible += op.infeasible
            wrong = p["gate"].get(k)
            if op.error or wrong:
                failed += 1
                label = f"{op.kind}:{op.error or 'WrongOutput'}"
                failures_by_kind[label] = failures_by_kind.get(label, 0) + 1
                incorrect.append(f"pass {i} op {k} {op.kind}: {wrong or op.detail}")

    # Every time is scaled to the reference host speed (bench/hostref.py): an
    # operation's by the reference loop timed around it, a probe's by the one
    # timed in its process, a traced pass's layer times by its operations' mean.
    def scaled(op) -> float:
        return op.latency_s * scale(op.ref_s)

    def pass_wall(p: dict) -> float:
        return sum(scaled(op) for op in p["ops"])

    def pass_scale(p: dict) -> float:
        return pass_wall(p) / sum(op.latency_s for op in p["ops"])

    latencies = [scaled(op) for p in untraced for op in p["ops"]]
    tail_pool = [scaled(op) for p in untraced[: wl.min_passes] for op in p["ops"]]
    tail_value, tail_pct, tail_n = op_tail(tail_pool)
    child_rss = [p["extra"]["peak_rss_kb"] for p in untraced if "peak_rss_kb" in p["extra"]]
    peak_kb = max(child_rss) if child_rss else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    wall_s = statistics.median(pass_wall(p) for p in untraced)
    end_to_end = {
        "setup_s": statistics.median(p["setup_s"] * scale(p["ref_s"]) for p in probes),
        "wall_s": wall_s,
        "throughput": statistics.median(p["units"] for p in untraced) / wall_s,
        "op_p50_ms": 1e3 * statistics.median(latencies),
        "op_tail_ms": None if tail_value is None else 1e3 * tail_value,
        "ok_share": 1.0 - failed / attempted,
        "peak_rss_mb": peak_kb / 1024.0,
    }
    layers = {}
    if traced:
        layers = {
            key: statistics.median(
                p["layers"][key] * (pass_scale(p) if unit in TIME_UNITS else 1.0) for p in traced
            )
            for key, unit in LAYER_UNITS.items()
        }
        layers["cli.import_s"] = statistics.median(p["import_s"] * scale(p["ref_s"]) for p in probes)
        for key in [k for k in layers if k.startswith("cli.cmd.")]:
            kind = key[len("cli.cmd."):-len("_ms")]
            samples = [scaled(op) for p in untraced for op in p["ops"] if op.kind == kind]
            layers[key] = 1e3 * statistics.median(samples) if samples else 0.0
        layers["trace.overhead_s"] = (
            statistics.median(pass_wall(p) for p in traced) - wall_s
        )
    unscaled = {
        "pass_wall_s": statistics.median(sum(op.latency_s for op in p["ops"]) for p in untraced),
        "reference_ms": 1e3 * statistics.median(op.ref_s for p in untraced for op in p["ops"]),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
    }
    return {
        "attempted": attempted,
        "failed": failed,
        "infeasible": infeasible,
        "failures_by_kind": failures_by_kind,
        "incorrect": incorrect,
        "end_to_end": end_to_end,
        "layers": layers,
        "unscaled": unscaled,
        "op_tail": {"percentile": tail_pct, "samples": tail_n,
                    "passes": min(len(untraced), wl.min_passes)},
    }


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "gpiodac" / "__init__.py").is_file() or not ORACLES.is_file():
        print(f"bench: no gpiodac source tree (src/gpiodac, tests/oracles.py) under {ROOT}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)

    import numpy

    import workloads

    wl = workloads.WORKLOADS[args.workload]
    measure_setup(args.workload, args.seed, 1)  # warm-up; it may compile bytecode
    probes: list[dict] = []
    per_pass = 0

    def after_untraced(wall: float) -> None:
        """Set-up probes, spread over the untraced passes the first one predicts."""
        nonlocal per_pass
        if not per_pass:
            expected = max(1, int(args.seconds / wall / (2 if args.trace else 1)))
            per_pass = -(-SETUP_PROBES // expected)
        count = min(per_pass, SETUP_PROBES - len(probes))
        probes.extend(measure_setup(args.workload, args.seed, count))

    oracle = load_oracle()
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        inputs = wl.build(args.seed, workdir)
        passes = run_passes(wl, inputs, args.seconds, bool(args.trace), oracle, after_untraced)
        probes.extend(measure_setup(args.workload, args.seed, SETUP_PROBES - len(probes)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    summary = summarize(wl, passes, probes)

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "unit_of_work": wl.unit,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "setup_probes": probes,
        "passes": [
            {"traced": p["traced"], "wall_s": p["wall_s"], "units": p["units"],
             "ops": len(p["ops"]), "latencies_s": [op.latency_s for op in p["ops"]],
             "reference_s": [op.ref_s for op in p["ops"]]}
            for p in passes
        ],
        "unmeasurable": UNMEASURABLE,
        **{k: v for k, v in summary.items() if k not in ("end_to_end", "layers")},
        "end_to_end": summary["end_to_end"],
        "per_layer": summary["layers"],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [{"pass": i, "spans": p["spans"], "counts": p["counts"]}
                 for i, p in enumerate(passes) if p["traced"]]
        (OUT / f"{stem}-spans.json").write_text(json.dumps(spans))

    if args.trace:
        shown = {k: (summary["layers"][k], u) for k, u in LAYER_UNITS.items()}
    else:
        shown = {k: (summary["end_to_end"][k], u) for k, u in END_TO_END.items()}
    print(f"{args.workload} seed={args.seed} commit={record['commit']} "
          f"python={record['python']} numpy={record['numpy']} nproc={record['nproc']} "
          f"unit={wl.unit} passes={len(passes)}")
    for name, (value, unit) in shown.items():
        print(f"  {name} = {value:.6g} {unit}")
    tail = summary["op_tail"]
    if not args.trace:
        print(f"  op_tail_ms is p{tail['percentile']:.2f} of {tail['samples']} ops "
              f"from the first {tail['passes']} passes")
        raw = summary["unscaled"]
        print(f"  unscaled: pass wall {raw['pass_wall_s']:.6g} s, setup {raw['setup_s']:.6g} s; "
              f"reference loop {raw['reference_ms']:.4g} ms against {1e3 * REF_LOOP_S:.4g} ms")
    if summary["failures_by_kind"]:
        print(f"  failed operations by kind: {summary['failures_by_kind']}")
    for line in summary["incorrect"][:5]:
        print(f"  INCORRECT {line.splitlines()[0]}")
    print(f"  record: {OUT.relative_to(ROOT) / (stem + '.json')}")
    correct = not summary["incorrect"]
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items() if k not in UNBOUNDED},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
