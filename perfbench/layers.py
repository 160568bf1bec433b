"""Per-layer metrics computed from the spans of a traced run.

Each metric is computed per round and reported as the median over the
traced rounds. Counts repeat exactly from round to round, because every
round makes the same calls on the same inputs.
"""

from __future__ import annotations

import re
import subprocess
import sys
from collections import defaultdict

from common import ROOT, child_env, median
from tracer import TARGETS

CLI_SUBCOMMANDS = ("shift-entropy", "toral-entropy", "lattice-growth", "weyl-dim",
                   "torus-dim", "cesaro-rate", "kolmogorov", "dim-bracket", "rerun")

# name -> unit, in the order they are printed
PER_LAYER = {
    "cli.import_s": "s",
    "cli.import_sympy_s": "s",
    **{f"cli.{sub}.s": "s" for sub in CLI_SUBCOMMANDS},
    "entropy.lattice_orbit_card.s": "s",
    "entropy.minkowski_sum.calls": "count",
    "entropy.minkowski_sum.s": "s",
    "entropy.minkowski_sum.candidates": "count",
    "entropy.minkowski_sum.kept_ratio": "ratio",
    "entropy.box_bound_card.calls": "count",
    "entropy.box_bound_card.s": "s",
    "entropy.product_set.s": "s",
    "nctorus.toral_map_apply.calls": "count",
    "nctorus.toral_map_apply.s": "s",
    "nctorus.lip_bounds.s": "s",
    "weyl.weyl_lip_norm.s": "s",
    "weyl.weyl_lip_norm.self_s": "s",
    "weyl.weyl_lip_norm.norms_per_group_elem": "ratio",
    "weyl.weyl_expand.s": "s",
    "weyl.conditional_expectation.s": "s",
    "weyl.monomial_lip_norm.calls": "count",
    "weyl.monomial_lip_norm.s": "s",
    "linalg.operator_norm.calls": "count",
    "linalg.operator_norm.s": "s",
    "linalg.operator_norm.power_s": "s",
    "metricspace.box_dimension.s": "s",
    "metricspace.greedy_spanning.s": "s",
    "approxdim.dim_bracket.s": "s",
    "trace.overhead_s": "s",
}

# operator norms above this side take linalg's power-iteration path
POWER_SIDE = 256

_TIMED = tuple(TARGETS)
_COUNTED = ("entropy.minkowski_sum", "entropy.box_bound_card", "nctorus.toral_map_apply",
            "weyl.monomial_lip_norm", "linalg.operator_norm")


def _ancestors(spans, i):
    j = spans[i]["parent"]
    while j is not None:
        yield j
        j = spans[j]["parent"]


def round_metrics(spans: list[dict]) -> dict:
    """Layer metrics of one round; ``parent`` indexes into ``spans``."""
    dur = [s["end"] - s["start"] for s in spans]
    names = [s["name"] for s in spans]
    total = defaultdict(float)
    calls = defaultdict(int)
    for i, name in enumerate(names):
        if any(names[j] == name for j in _ancestors(spans, i)):
            continue  # counted with its outermost call of the same name
        total[name] += dur[i]
        calls[name] += 1
    out = {}
    for name in _TIMED:
        out[f"{name}.s"] = total[name]
    for name in _COUNTED:
        out[f"{name}.calls"] = calls[name]
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.{sub}.s"] = total[f"cli.{sub}"]

    mink = [s for s in spans if s["name"] == "entropy.minkowski_sum" and "candidates" in s]
    candidates = sum(s["candidates"] for s in mink)
    out["entropy.minkowski_sum.candidates"] = candidates
    out["entropy.minkowski_sum.kept_ratio"] = (
        sum(s["kept"] for s in mink) / candidates if candidates else 0.0)

    lip_norm_time = defaultdict(float)
    lip_norm_calls = defaultdict(int)
    power_s = 0.0
    for i, name in enumerate(names):
        if name != "linalg.operator_norm":
            continue
        if spans[i].get("side", 0) > POWER_SIDE:
            power_s += dur[i]
        owner = next((j for j in _ancestors(spans, i)
                      if names[j] in ("weyl.weyl_lip_norm", "linalg.operator_norm")), None)
        if owner is not None and names[owner] == "weyl.weyl_lip_norm":
            lip_norm_time[owner] += dur[i]
            lip_norm_calls[owner] += 1
    out["linalg.operator_norm.power_s"] = power_s
    lips = [i for i, name in enumerate(names) if name == "weyl.weyl_lip_norm"]
    out["weyl.weyl_lip_norm.self_s"] = sum(dur[i] - lip_norm_time[i] for i in lips)
    group = sum(spans[i].get("group", 0) for i in lips)
    out["weyl.weyl_lip_norm.norms_per_group_elem"] = (
        sum(lip_norm_calls.values()) / group if group else 0.0)
    return out


def traced_metrics(spans: list[dict], rounds: list[int]) -> dict:
    """Median over ``rounds`` of each round's layer metrics."""
    per_round = []
    for r in rounds:
        index = {i: k for k, i in enumerate(i for i, s in enumerate(spans) if s["round"] == r)}
        sub = [dict(s, parent=index.get(s["parent"])) for s in spans if s["round"] == r]
        per_round.append(round_metrics(sub))
    out = {}
    for key in per_round[0]:
        values = [m[key] for m in per_round]
        # a count that repeats exactly is reported as it is, not as a median
        out[key] = values[0] if len(set(values)) == 1 else median(values)
    return out


_IMPORT_LINE = re.compile(r"import time:\s*(\d+)\s*\|\s*(\d+)\s*\|(\s*)(\S+)")


def parse_importtime(text: str) -> tuple[float, float]:
    """(seconds importing qmetric, of which sympy) from ``-X importtime`` output."""
    qmetric_us = sympy_us = 0
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if not m:
            continue
        cumulative, indent, name = int(m.group(2)), len(m.group(3)), m.group(4)
        if indent == 1 and (name == "qmetric" or name.startswith("qmetric.")):
            qmetric_us += cumulative
        elif name == "sympy":
            sympy_us += cumulative
    return qmetric_us / 1e6, sympy_us / 1e6


def import_times(repeats: int = 3) -> tuple[float, float]:
    """Median import time of qmetric.cli and of sympy within it, fresh interpreters."""
    totals, sympys = [], []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qmetric.cli"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=120, check=True)
        total, sympy_s = parse_importtime(proc.stderr)
        totals.append(total)
        sympys.append(sympy_s)
    return median(totals), median(sympys)
