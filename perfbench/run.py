"""qmetric benchmark: one workload per run, checked, with end-to-end or
per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; qmetric is imported from its ``src``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. See README.md.
"""

from __future__ import annotations

import argparse
import json
import shutil
import signal
import subprocess
import sys
import time

from common import (OUT_DIR, CheckoutError, child_env, cpu_self, import_qmetric, median,
                    peak_rss_self_mb, pin_blas_threads)

pin_blas_threads()  # before anything imports numpy

import clisession  # noqa: E402
import layers  # noqa: E402
import toral  # noqa: E402
import weyllip  # noqa: E402
from tracer import Tracer  # noqa: E402

WORKLOADS = {m.NAME: m for m in (toral, weyllip, clisession)}
SETUP_STARTS = 3

END_TO_END = {"setup_s": "s", "run_s": "s", "cpu_s": "s", "op_p50_s": "s",
              "peak_rss_mb": "MB"}


class Round:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.op_walls: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.outputs: dict = {}  # label -> result, for in-process workloads
        self.problems: list[str] = []  # failed checks, for cli-session
        self.maxrss_mb = 0.0


def in_process_round(wl, inputs) -> Round:
    rnd = Round()
    cpu0, t0 = cpu_self(), time.perf_counter()
    for label, fn in wl.ops(inputs):
        start = time.perf_counter()
        try:
            rnd.outputs[label] = fn()
        except Exception as exc:  # a failing operation is counted, not fatal
            rnd.failed += 1
            print(f"perfbench: {label} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        rnd.op_walls.append(time.perf_counter() - start)
        rnd.attempted += 1
    rnd.wall = time.perf_counter() - t0
    rnd.cpu = cpu_self() - cpu0
    return rnd


def cli_round(inputs, tracer, round_index) -> Round:
    rnd = Round()
    trace_path = inputs.workdir / "child-trace.jsonl" if tracer is not None else None
    runs = clisession.session(inputs.workdir)
    t0 = time.perf_counter()
    for inv in runs:
        clisession.invoke(inv, trace_path)
        base = len(tracer.spans) if tracer is not None else 0
        for span in inv.spans:
            parent = span["parent"]
            tracer.spans.append(dict(span, round=round_index,
                                     parent=None if parent is None else parent + base))
        rnd.op_walls.append(inv.wall)
        rnd.cpu += inv.cpu
        rnd.maxrss_mb = max(rnd.maxrss_mb, inv.maxrss_mb)
        rnd.attempted += 1
        rnd.failed += inv.failed
    rnd.wall = time.perf_counter() - t0
    rnd.problems = clisession.check(inputs, runs)
    return rnd


def run_rounds(wl, inputs, seconds: float, tracer=None, first_index=0) -> list[Round]:
    """Whole rounds until the next one would end after ``seconds`` (at least one)."""
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        index = first_index + len(rounds)
        if wl is clisession:
            rnd = cli_round(inputs, tracer, index)
        else:
            if tracer is not None:
                tracer.tags["round"] = index
                tracer.install()
            try:
                rnd = in_process_round(wl, inputs)
            finally:
                if tracer is not None:
                    tracer.uninstall()
        rounds.append(rnd)
        if time.perf_counter() - start + rnd.wall > seconds:
            return rounds


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of the time to import qmetric and
    build the seeded inputs."""
    times = []
    for i in range(SETUP_STARTS):
        cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload,
               "--seed", str(seed), "--probe-dir", str(OUT_DIR / f"probe-{i}")]
        start = time.perf_counter()
        subprocess.run(cmd, env=child_env(), check=True, timeout=120,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
        shutil.rmtree(OUT_DIR / f"probe-{i}", ignore_errors=True)
    return median(times)


def check_outputs(wl, inputs, rounds: list[Round]) -> list[str]:
    if wl is clisession:
        return [p for rnd in rounds for p in rnd.problems]
    last = rounds[-1].outputs
    problems = [f"round {i}: {label} differs from the last round"
                for i, rnd in enumerate(rounds[:-1])
                for label in rnd.outputs if repr(rnd.outputs[label]) != repr(last.get(label))]
    return problems + wl.check(inputs, last)


def metric(value, unit):
    return {"value": value, "unit": unit}


def _terminate(signum, frame):
    # unwinds through the ``finally`` blocks that stop a running CLI child
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--probe-dir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    wl = WORKLOADS[args.workload]

    try:
        import_qmetric()
    except CheckoutError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        wl.build(args.seed, args.probe_dir)
        return 0

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        inputs = wl.build(args.seed, workdir)
        if args.trace:
            plain = run_rounds(wl, inputs, args.seconds / 2)
            tracer = Tracer()
            tracer.install()  # notes the traced functions the program lacks
            tracer.uninstall()
            rounds = run_rounds(wl, inputs, args.seconds / 2, tracer, first_index=len(plain))
        else:
            setup_s = setup_seconds(args.workload, args.seed)
            rounds = run_rounds(wl, inputs, args.seconds)
            peak_mb = (max(r.maxrss_mb for r in rounds) if wl is clisession
                       else peak_rss_self_mb())
        problems = check_outputs(wl, inputs, plain + rounds if args.trace else rounds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for p in problems:
        print(f"perfbench: check failed: {p}", file=sys.stderr)
    run_s = median([r.wall for r in rounds])
    if args.trace:
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(trace_file)
        absent = sorted(set(tracer.absent))
        if absent:
            print(f"perfbench: absent from the program: {', '.join(absent)}")
        values = layers.traced_metrics(tracer.spans,
                                       list(range(len(plain), len(plain) + len(rounds))))
        values["cli.import_s"], values["cli.import_sympy_s"] = layers.import_times()
        values["trace.overhead_s"] = run_s - median([r.wall for r in plain])
        metrics = {name: metric(values[name], unit) for name, unit in layers.PER_LAYER.items()}
        rounds = rounds + plain
    else:
        values = {
            "setup_s": setup_s,
            "run_s": run_s,
            "cpu_s": median([r.cpu for r in rounds]),
            "op_p50_s": median([w for r in rounds for w in r.op_walls]),
            "peak_rss_mb": peak_mb,
        }
        metrics = {name: metric(values[name], unit) for name, unit in END_TO_END.items()}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
