"""torusperc benchmark: run one workload, check its outputs, print its metrics.

    python3 bench/run.py --workload d7-estimates --seed 1 --seconds 30 --trace 0

Run it from the root of a source tree (it imports torusperc from ./src).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones (ops_per_s, cpu_ms_per_op, setup_s, peak_rss_mb); with --trace 1 they
are the per-layer ones from a traced serial run.  `--workload all` runs every
workload in turn, each in its own process.  Every run writes a record to
bench/out/; `--compare FILE` prints the metric deltas against an earlier one.
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
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()
OUT = BENCH / "out"
SETUP_SAMPLES = 3
E2E_UNITS = {"ops_per_s": "ops/s", "cpu_ms_per_op": "ms", "setup_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "lattice.tables_s": "s", "lattice.tables_mb": "MB",
    "percolation.sample_ms": "ms", "percolation.reads_per_op": "count",
    "cluster.label_ms": "ms",
    "cycles.subgraph_ms": "ms", "cycles.count_ms": "ms", "cycles.unknown": "count",
    "surgery.stage1_ms": "ms", "surgery.stage2_ms": "ms",
    "surgery.decisions": "count", "surgery.special_edges": "count",
    "coupling.sample_ms": "ms", "coupling.inclusion_ms": "ms",
    "estimators.dispatch_s": "s", "estimators.report_ms": "ms",
}


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program():
    """Import torusperc from ./src; refuse any other copy."""
    if "torusperc" in sys.modules:
        return sys.modules["torusperc"]
    src = ROOT / "src"
    if not (src / "torusperc" / "__init__.py").is_file():
        fail(f"no torusperc source under {src}; run from the root of a source tree")
    sys.path.insert(0, str(src))
    import torusperc
    if Path(torusperc.__file__).resolve().parent != (src / "torusperc").resolve():
        fail(f"imported torusperc from {torusperc.__file__}, not from {src}")
    return torusperc


def workers() -> int:
    return min(2, len(os.sched_getaffinity(0)))


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped workers."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def peak_rss_mb() -> float:
    """Largest peak resident set of this process or of any one reaped worker."""
    kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
             resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kb / 1024.0


def last_json_line(text: str) -> dict:
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def child(*args: str, timeout: float = 170) -> dict:
    """Run bench/run.py in a fresh interpreter and read its last JSON line."""
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), *args],
                          capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail(f"child {' '.join(args)} exited with {proc.returncode}")
    return last_json_line(proc.stdout)


# ---------------------------------------------------------------------------
# phases


def rounds(workload, seed: int, seconds: float, threads: int, problems,
           max_rounds: int | None = None, tracer=None) -> dict:
    """Run whole rounds for about `seconds` of op time (or max_rounds).

    The run stops when a further round would end more than half a round past
    `seconds`.  Each round's wall and CPU seconds are kept, so that the
    metrics can be medians over rounds.
    """
    walls, cpus = [], []
    attempted = failed = reads = 0
    while True:
        inputs = workload.prepare(seed, len(walls))
        if tracer is not None:
            tracer.active = True
        c0, t0 = cpu_seconds(), time.perf_counter()
        res = workload.execute(inputs, threads)
        t1, c1 = time.perf_counter(), cpu_seconds()
        if tracer is not None:
            tracer.active = False
        walls.append(t1 - t0)
        cpus.append(c1 - c0)
        attempted += res.attempted
        failed += res.failed
        reads += res.reads
        workload.check(res, len(walls) - 1, problems)
        if max_rounds is not None:
            if len(walls) == max_rounds:
                break
        elif sum(walls) + statistics.median(walls) / 2 >= seconds:
            break
    per_round = attempted // len(walls)
    return {"rounds": len(walls), "wall_s": sum(walls), "cpu_s": sum(cpus),
            "attempted": attempted, "failed": failed, "reads": reads,
            "ops_per_s": statistics.median(per_round / w for w in walls),
            "cpu_ms_per_op": statistics.median(c * 1000.0 / per_round for c in cpus),
            "round_wall_s": walls}


def probe_setup(name: str) -> None:
    """Cold start of one workload: imports, geometry tables, first pool start."""
    import_program()
    from workloads import WORKLOADS
    w = WORKLOADS[name]
    w.setup()
    if w.pool:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers()) as ex:
            ex.submit(int).result()
    print(json.dumps({"ready": time.monotonic()}))


def setup_seconds(name: str) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        out.append(child("--probe-setup", name)["ready"] - start)
    return out


# ---------------------------------------------------------------------------
# records


def revision() -> str:
    """Commit of the source tree, read from .git when there is one."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(threads: int) -> dict:
    import numpy
    import scipy
    return {"revision": revision(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "workers": threads}


def compare(path: str, metrics: dict) -> None:
    old = json.loads(Path(path).read_text())["metrics"]
    for name, m in metrics.items():
        if name not in old:
            continue
        a, b = old[name]["value"], m["value"]
        change = f"{(b - a) / a:+.1%}" if a else "n/a"
        print(f"delta {name}: {a:.6g} -> {b:.6g} {m['unit']} ({change})")


def emit(args, result: dict, record: dict) -> None:
    OUT.mkdir(parents=True, exist_ok=True)
    path = OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    path.write_text(json.dumps({**record, **result}, indent=1) + "\n")
    print(f"workload {args.workload}: {result['attempted']} ops attempted, "
          f"{result['failed']} failed, correct={result['correct']}  (record: {path})")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    if args.compare:
        compare(args.compare, result["metrics"])
    print(json.dumps(result))


def report_problems(problems) -> None:
    for p in problems[:20]:
        print(f"CHECK FAILED: {p}", file=sys.stderr)


# ---------------------------------------------------------------------------
# entry points


def run_untraced(args) -> None:
    tp = import_program()
    from checks import Problems
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    threads = workers()
    problems = Problems()
    stats = rounds(w, args.seed, args.seconds, threads, problems)
    peak = peak_rss_mb()
    w.final_check(args.seed, problems)
    setups = setup_seconds(args.workload)
    metrics = {
        "ops_per_s": stats["ops_per_s"],
        "cpu_ms_per_op": stats["cpu_ms_per_op"],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak,
    }
    report_problems(problems)
    result = {"correct": not problems, "attempted": stats["attempted"],
              "failed": stats["failed"],
              "metrics": {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}}
    record = {**environment(threads), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "rounds": stats["rounds"], "wall_s": stats["wall_s"],
              "cpu_s": stats["cpu_s"], "round_wall_s": stats["round_wall_s"],
              "setup_samples": setups, "problems": problems[:20], "version": tp.__version__}
    emit(args, result, record)


def run_pass(args) -> None:
    """Untraced rounds in a fresh process, for the traced run to compare against."""
    import_program()
    from checks import Problems
    from workloads import WORKLOADS
    problems = Problems()
    threads = workers() if args.pass_kind == "pooled" else 1
    stats = rounds(WORKLOADS[args.workload], args.seed, args.seconds, threads, problems,
                   max_rounds=args.max_rounds)
    report_problems(problems)
    print(json.dumps({**stats, "correct": not problems}))


def run_traced(args) -> None:
    """Per-layer metrics: an untraced pooled pass sets the round count, then an
    untraced serial pass and a traced serial pass run the same rounds."""
    common = ("--workload", args.workload, "--seed", str(args.seed))
    pooled = child("--pass-kind", "pooled", *common, "--seconds", str(args.seconds / 4))
    n = pooled["rounds"]
    serial = child("--pass-kind", "serial", *common, "--max-rounds", str(n))
    tp = import_program()
    from checks import Problems
    from spans import Tracer
    from workloads import WORKLOADS
    w = WORKLOADS[args.workload]
    problems = Problems()
    tracer = Tracer()
    tracer.install(tp)
    try:
        stats = rounds(w, args.seed, 0, 1, problems, max_rounds=n, tracer=tracer)
    finally:
        tracer.uninstall()
    w.final_check(args.seed, problems)
    for name, other in (("pooled", pooled), ("serial", serial)):
        problems.expect(other["correct"], f"the untraced {name} pass failed its checks")
        problems.expect((other["attempted"], other["failed"]) ==
                        (stats["attempted"], stats["failed"]),
                        f"the traced and the untraced {name} pass differ in ops")
    threads = workers()
    own = tracer.self_times()
    ops = stats["attempted"]

    def ms(layer: str) -> float:
        return own.get(layer, 0.0) * 1000.0 / ops

    dispatch = (pooled["wall_s"] - serial["wall_s"] / threads) / n if w.pool else 0.0
    metrics = {
        "lattice.tables_s": own.get("lattice.tables", 0.0),
        "lattice.tables_mb": tracer.table_peak_bytes / 2**20,
        "percolation.sample_ms": ms("percolation.sample"),
        "percolation.reads_per_op": stats["reads"] / ops,
        "cluster.label_ms": ms("cluster.label"),
        "cycles.subgraph_ms": ms("cycles.subgraph"),
        "cycles.count_ms": ms("cycles.count"),
        "cycles.unknown": tracer.counts["cycles.unknown"] / ops,
        "surgery.stage1_ms": ms("surgery.stage1"),
        "surgery.stage2_ms": ms("surgery.stage2"),
        "surgery.decisions": tracer.counts["surgery.decisions"] / ops,
        "surgery.special_edges": tracer.counts["surgery.special_edges"] / ops,
        "coupling.sample_ms": ms("coupling.sample"),
        "coupling.inclusion_ms": ms("coupling.inclusion"),
        "estimators.dispatch_s": dispatch,
        "estimators.report_ms": ms("estimators.report"),
    }
    report_problems(problems)
    result = {"correct": not problems, "attempted": stats["attempted"],
              "failed": stats["failed"],
              "metrics": {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in metrics.items()}}
    OUT.mkdir(parents=True, exist_ok=True)
    spans_path = OUT / f"{args.workload}-spans-seed{args.seed}.json"
    spans_path.write_text(json.dumps({
        "workload": args.workload, "rounds": n,
        "traced_serial_s": stats["wall_s"], "untraced_serial_s": serial["wall_s"],
        "tracing_overhead": stats["wall_s"] / serial["wall_s"] - 1.0,
        "untraced_pooled_s": pooled["wall_s"],
        "self_s": own, "self_sum_s": sum(own.values()), "counts": dict(tracer.counts),
        "spans_total": len(tracer.spans), "spans": tracer.span_records(20000)}) + "\n")
    record = {**environment(threads), "workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "rounds": n, "spans": str(spans_path),
              "traced_serial_s": stats["wall_s"], "untraced_serial_s": serial["wall_s"],
              "untraced_pooled_s": pooled["wall_s"], "problems": problems[:20]}
    emit(args, result, record)


def run_all(args) -> None:
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        res = child("--workload", name, "--seed", str(args.seed), "--seconds",
                    str(args.seconds), "--trace", str(args.trace), timeout=600)
        combined["correct"] &= res["correct"]
        combined["attempted"] += res["attempted"]
        combined["failed"] += res["failed"]
        print(f"{name}: {res['attempted']} ops, {res['failed']} failed, "
              f"correct={res['correct']}")
        for metric, m in res["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--compare", metavar="FILE", help="earlier record to print deltas against")
    ap.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    ap.add_argument("--pass-kind", choices=("pooled", "serial"), help=argparse.SUPPRESS)
    ap.add_argument("--max-rounds", type=int, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return
    import_program()
    from workloads import WORKLOADS
    if args.workload != "all" and args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    if args.workload == "all":
        run_all(args)
    elif args.pass_kind:
        run_pass(args)
    elif args.trace:
        run_traced(args)
    else:
        run_untraced(args)


if __name__ == "__main__":
    main()
