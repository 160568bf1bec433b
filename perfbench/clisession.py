"""Workload ``cli-session``: the README's command-line experiments, each run
as a user runs it, in a fresh interpreter.

One round runs nine experiments in a work directory, reruns each output with
``qmetric rerun`` from that directory, and reruns the ``kolmogorov`` output
once more from the directory's parent. That last rerun fails every time
today: ``rerun`` resolves the recorded relative ``--points grid.csv``
against the working directory rather than the source file, and exits 2. It
is counted as failed; if ``rerun`` is fixed it succeeds and must reproduce
the body byte for byte.

The seed draws the inputs of three experiments: a jittered 30 x 30 grid of
points in [0, 1]^2 (``kolmogorov``), a random orthonormal family of 16
vectors in C^16 (``dim-bracket``) and the coefficients of a twisted
polynomial on a fixed support of six exponents (``torus-dim --element``).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import numpy as np

from common import BENCH_DIR, child_env
from tracer import read_spans

NAME = "cli-session"
GRID_SIDE = 30
FAMILY_SIZE = 16
DIM_GRID = (0.9, 0.1, 8)
KOLM_GRID = "0.5:0.0625:4"
POLY_THETA = 0.25
POLY_SUPPORT = ((1, 0), (0, 1), (1, 1), (-1, 2), (2, -1), (0, -2))
PLASTIC = "0,1,0,0,0,1,1,1,0"
LAUNCHER = BENCH_DIR / "launcher.py"

# label -> argv; every output is written in the work directory
EXPERIMENTS = {
    "shift": ["shift-entropy", "--p", "2", "--n-max", "5", "--delta", "0.5"],
    "growth": ["toral-entropy", "--T", "2,1,1,1", "--m", "1", "--n", "8"],
    "bounds": ["lattice-growth", "--T", "2,1,1,1", "--m", "1", "--n", "10",
               "--delta-pad", "0.05"],
    "plastic": ["lattice-growth", "--T", PLASTIC, "--m", "1", "--n", "1",
                "--delta-pad", "0.05"],
    "weyl": ["weyl-dim"],
    "torus": ["torus-dim", "--p", "2", "--n-min", "1", "--n-max", "6",
              "--element", "poly.json", "--element-out", "smoothed.json"],
    "rate": ["cesaro-rate", "--n-list", "16,64,256,1024,4096"],
    "nets": ["kolmogorov", "--points", "grid.csv", "--delta-grid", KOLM_GRID],
    "brackets": ["dim-bracket", "--vectors", "family.json",
                 "--delta-grid", ":".join(str(x) for x in DIM_GRID)],
}
PARENT_RERUN = "nets"


@dataclass
class Inputs:
    workdir: Path


def build(seed: int, workdir) -> Inputs:
    from qmetric import approxdim, nctorus

    workdir = Path(workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 3])
    centers = (np.stack(np.meshgrid(np.arange(GRID_SIDE), np.arange(GRID_SIDE)), -1)
               .reshape(-1, 2) + 0.5) / GRID_SIDE
    points = centers + rng.uniform(-0.3, 0.3, size=centers.shape) / GRID_SIDE
    np.savetxt(workdir / "grid.csv", points, delimiter=",", fmt="%.17g")
    z = rng.standard_normal((FAMILY_SIZE, FAMILY_SIZE, 2)) @ np.array([1.0, 1j])
    q, _ = np.linalg.qr(z)
    (workdir / "family.json").write_text(approxdim.family_to_json(q))
    phase = nctorus.PhaseMatrix.two_torus(POLY_THETA)
    coeffs = {k: complex(rng.uniform(0.5, 1.5) * np.exp(2j * np.pi * rng.random()))
              for k in POLY_SUPPORT}
    (workdir / "poly.json").write_text(
        nctorus.polynomial_to_json(nctorus.TwistedPolynomial(phase, coeffs)))
    return Inputs(workdir)


@dataclass
class Invocation:
    label: str
    argv: list
    cwd: Path
    expected: tuple = (0,)
    returncode: int = -1
    wall: float = 0.0
    cpu: float = 0.0
    maxrss_mb: float = 0.0
    stderr: str = ""
    spans: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return self.returncode != 0


def session(workdir: Path) -> list[Invocation]:
    """The invocations of one round, in order."""
    runs = [Invocation(label, argv + ["--out", f"{label}.csv", "--json-out", f"{label}.json"],
                       workdir) for label, argv in EXPERIMENTS.items()]
    runs += [Invocation(f"rerun:{label}", ["rerun", f"{label}.csv", "--out",
                                           f"{label}.rerun.csv"], workdir)
             for label in EXPERIMENTS]
    name = workdir.name
    runs.append(Invocation(f"rerun-from-parent:{PARENT_RERUN}",
                           ["rerun", f"{name}/{PARENT_RERUN}.csv", "--out",
                            f"{name}/{PARENT_RERUN}.parent.csv"],
                           workdir.parent, expected=(0, 2)))
    return runs


def invoke(inv: Invocation, trace_path: Path | None) -> None:
    """Run one invocation in a fresh interpreter and read its own rusage."""
    env = child_env()
    if trace_path is not None:
        env["PERFBENCH_TRACE"] = str(trace_path)
    log = inv.cwd / f".{inv.label.replace(':', '-')}.stderr"
    with open(log, "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, str(LAUNCHER), *inv.argv], cwd=inv.cwd,
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        inv.wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        inv.stderr = err.read().decode("utf-8", "replace")
    log.unlink()
    inv.returncode = proc.returncode
    inv.cpu = ru.ru_utime + ru.ru_stime
    inv.maxrss_mb = ru.ru_maxrss / 1024.0
    if trace_path is not None:
        if trace_path.exists():
            inv.spans = read_spans(trace_path)
            trace_path.unlink()


# ------------------------------------------------------------------ checks


def body(path: Path) -> list[str]:
    return [line for line in path.read_text().splitlines() if not line.startswith("#")]


def rows(path: Path) -> list[dict]:
    lines = body(path)
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def check_shift(table) -> list[str]:
    target = 2.0 * math.log(2.0)
    bad = [r["n"] for r in table
           if not (float(r["lower"]) <= target + 1e-12 and target <= float(r["upper"]) + 1e-12)]
    return [f"shift-entropy: bracket misses 2 log 2 at n = {', '.join(bad)}"] if bad else []


def check_box_bounds(label, table) -> list[str]:
    bad = [r["n"] for r in table if float(r["box_bound"]) < int(r["card"])]
    return [f"{label}: box bound below the count at n = {', '.join(bad)}"] if bad else []


def dim_grid() -> list[float]:
    a, b, steps = DIM_GRID
    return [a * (b / a) ** (i / (steps - 1)) for i in range(steps)]


def orthonormal_dim(m: int, delta: float) -> int:
    """min{r : (m - r)/m < δ²}."""
    return next(r for r in range(m + 1) if Fraction(m - r, m) < Fraction(delta) ** 2)


def check_dim_brackets(table, m: int = FAMILY_SIZE) -> list[str]:
    deltas = dim_grid()
    if len(table) != len(deltas):
        return [f"dim-bracket: {len(table)} rows, expected {len(deltas)}"]
    problems = []
    for r, delta in zip(table, deltas):
        want = orthonormal_dim(m, delta)
        if abs(float(r["delta"]) - delta) > 1e-9 * delta:
            problems.append(f"dim-bracket: row delta {r['delta']} != {delta:.12g}")
        elif (int(r["lower"]), int(r["upper"])) != (want, want):
            problems.append(f"dim-bracket: δ={r['delta']} gives [{r['lower']}, {r['upper']}], "
                            f"expected {want}")
    return problems


def check_nets(table) -> list[str]:
    by_delta = sorted(table, key=lambda r: float(r["delta"]))
    problems = []
    for col in ("sep", "spn"):
        counts = [int(r[col]) for r in by_delta]
        if any(b > a for a, b in zip(counts, counts[1:])):
            problems.append(f"kolmogorov: {col} increases as delta grows: {counts}")
    return problems


def check_rerun(label, original: Path, again: Path) -> list[str]:
    if body(original) != body(again):
        return [f"{label}: rerun body differs from the original"]
    return []


def check(inputs: Inputs, runs: list[Invocation]) -> list[str]:
    wd = inputs.workdir
    problems = [f"{inv.label}: exit code {inv.returncode}: {inv.stderr.strip()[-200:]}"
                for inv in runs if inv.returncode not in inv.expected]
    ok = {inv.label for inv in runs if inv.returncode == 0}
    if "shift" in ok:
        problems += check_shift(rows(wd / "shift.csv"))
    for label in ("bounds", "plastic"):
        if label in ok:
            problems += check_box_bounds(label, rows(wd / f"{label}.csv"))
    if "brackets" in ok:
        problems += check_dim_brackets(rows(wd / "brackets.csv"))
    if "nets" in ok:
        problems += check_nets(rows(wd / "nets.csv"))
    for label in EXPERIMENTS:
        if f"rerun:{label}" in ok:
            problems += check_rerun(label, wd / f"{label}.csv", wd / f"{label}.rerun.csv")
    if f"rerun-from-parent:{PARENT_RERUN}" in ok:
        problems += check_rerun(f"{PARENT_RERUN} from the parent directory",
                                wd / f"{PARENT_RERUN}.csv", wd / f"{PARENT_RERUN}.parent.csv")
    return problems
