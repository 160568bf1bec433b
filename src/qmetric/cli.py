"""Command-line experiments.

One experiment per subcommand, no interactive mode. Every output carries a
header echoing the full configuration as canonical JSON; rerunning from
that header (``qmetric rerun``) reproduces byte-identical bodies. A run that
reads files also records each one's sha256, and a rerun refuses to read an
input whose contents changed since. CSV uses '.' decimals and 12 significant
digits, rounded to nearest except in the columns that print a bound: those
round toward the side on which the bound stays true. Timestamps appear only
under --stamp.

Exit codes: 0 ok, 2 precondition violated, 3 resource cap exceeded,
4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import math
import os
import sys

import numpy as np

from . import __version__, approxdim, entropy, metricspace, nctorus, weyl
from .errors import PreconditionError, QMetricError


def fmt(x) -> str:
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.12g}"


def _fmt_directed(x, rounding: str) -> str:
    """x as fmt prints it, but rounded to 12 significant digits in the
    direction of the decimal module's ``rounding`` mode, decided on the exact
    value of the float."""
    x = float(x)
    if x == 0 or not math.isfinite(x):  # printed exactly, -0 included
        return fmt(x)
    # decimal is imported only by the experiments that print bounds
    from decimal import Decimal, localcontext

    with localcontext() as ctx:
        ctx.prec, ctx.rounding = 12, rounding
        d = (+Decimal(x)).normalize()
    sign, digits, exp = d.as_tuple()
    lead = len(digits) - 1 + exp  # the exponent of the leading digit
    if -4 <= lead < 12:  # where '.12g' prints fixed-point
        return f"{d:f}"
    mantissa = "".join(map(str, digits))
    if len(mantissa) > 1:
        mantissa = f"{mantissa[0]}.{mantissa[1:]}"
    return f"{'-' if sign else ''}{mantissa}e{lead:+03d}"


def fmt_lower(x) -> str:
    """A lower bound x, printed at most x: 12 digits rounded toward -inf."""
    return _fmt_directed(x, "ROUND_FLOOR")


def fmt_upper(x) -> str:
    """An upper bound x, printed at least x: 12 digits rounded toward +inf."""
    return _fmt_directed(x, "ROUND_CEILING")


def _config_json(command: str, params: dict) -> str:
    cfg = {"command": command}
    cfg.update({k: params[k] for k in sorted(params)})
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


def _write(path, text: str) -> None:
    """Write text to path, or to stdout when path is None or '-'."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _header(command: str, params: dict, digests: dict, stamp: bool) -> list[str]:
    lines = [f"# qmetric {__version__}", f"# config-json: {_config_json(command, params)}"]
    if digests:
        digest_json = json.dumps(digests, sort_keys=True, separators=(",", ":"))
        lines.append(f"# input-sha256: {digest_json}")
    if stamp:
        lines.append(f"# stamp: {datetime.datetime.now().isoformat()}")
    return lines


# ------------------------------------------------------- weyl-dim, torus-dim


def _dim_table(params: dict, family) -> tuple[list[str], dict]:
    """The rows and slopes of a dimension experiment, one pair of rows per n.

    family(n) gives (m, lip_max, delta_upper) at window radius n: the m window
    monomials are orthonormal with Lip norms at most lip_max, so the Lip ball
    needs at least D(m orthonormal vectors, δ) dimensions at δ/lip_max (the
    "lower" row), and every element of it lies within delta_upper of the
    m-dimensional window (the "upper" row).
    """
    delta = params["delta"]
    n_min, n_max = params["n_min"], params["n_max"]
    if n_min < 1 or n_max < n_min:
        raise PreconditionError("need 1 <= n_min <= n_max")
    body = ["series,n,delta,dim"]
    lower_rows, upper_rows = [], []
    for n in range(n_min, n_max + 1):
        m, lip_max, delta_upper = family(n)
        d_lower = approxdim.dim_exact_orthonormal(m, delta)
        delta_lower = delta / lip_max
        lower_rows.append((delta_lower, d_lower))
        upper_rows.append((delta_upper, m))
        body.append(f"lower,{n},{fmt_lower(delta_lower)},{d_lower}")
        body.append(f"upper,{n},{fmt_upper(delta_upper)},{m}")
    summary = {
        "slope_lower": approxdim.mdim_slope(lower_rows),
        "slope_upper": approxdim.mdim_slope(upper_rows),
    }
    return body, summary


def run_weyl_dim(params: dict) -> tuple[list[str], dict]:
    """UHF rows: the window has p^{2(2n+1)} monomials, and the conditional
    expectation E_n onto it moves the Lip ball by at most 2λ^{n+1}/(1−λ)."""
    p, lam = params["p"], params["lam"]

    def family(n):
        lip_max = weyl.family_lip_max(weyl.WeylWindow(p, -n, n), lam)
        return p ** (2 * (2 * n + 1)), lip_max, 2.0 * lam ** (n + 1) / (1.0 - lam)

    body, summary = _dim_table(params, family)
    summary["target"] = 4.0 * np.log(p) / np.log(1.0 / lam)
    return body, summary


def run_torus_dim(params: dict) -> tuple[list[str], dict]:
    """Noncommutative p-torus rows: the window has (2n+1)^p monomials u^k,
    with L(u^k) = |k|₂ ≤ n√p.

    The upper δ is proven. The Cesàro mean σ_n a = ∫ K_n^{⊗p}(t) γ_t(a) dt
    lies in the window, and ‖γ_t(a) − a‖ ≤ 2π|t|₂·L(a) for t in
    [−1/2, 1/2)^p. Since K_n ≥ 0 has integral 1 and |t|₂ ≤ |t|₁,
    ‖σ_n a − a‖ ≤ L(a)·∫ K_n^{⊗p}(t)·2π|t|₂ dt ≤ 2π·p·μ₁(K_n)·L(a), where
    μ₁(K_n) = ∫ |t| K_n(t) dt is fejer_abs_moment(n).
    """
    p = params["p"]
    if p < 1:
        raise PreconditionError(f"torus rank p must be >= 1, got {p}")

    def family(n):
        return (2 * n + 1) ** p, n * np.sqrt(p), 2.0 * np.pi * p * nctorus.fejer_abs_moment(n)

    body, summary = _dim_table(params, family)
    summary["target"] = float(p)
    if params.get("element"):
        with open(params["element"], "r", encoding="utf-8") as fh:
            poly = nctorus.polynomial_from_json(fh.read())
        if poly.phase.p != p:
            raise PreconditionError("element lives on a torus of different rank")
        lo, hi = nctorus.lip_bounds(poly)
        summary.update(element_lip_lower=lo, element_lip_upper=hi)
        if params.get("element_out"):
            smoothed = nctorus.cesaro_mean(poly, params["n_max"])
            with open(params["element_out"], "w", encoding="utf-8") as fh:
                fh.write(nctorus.polynomial_to_json(smoothed) + "\n")
    return body, summary


# ------------------------------------------------------------ shift-entropy


def run_shift_entropy(params: dict) -> tuple[list[str], dict]:
    p, n_max, delta = params["p"], params["n_max"], params["delta"]
    if n_max < 1:
        raise PreconditionError("n_max must be >= 1")
    body = ["n,lower,upper"]
    last = None
    for n in range(1, n_max + 1):
        lo, hi = entropy.shift_entropy_bracket(p, n, delta)
        body.append(f"{n},{fmt_lower(lo)},{fmt_upper(hi)}")
        last = (lo, hi)
    summary = {
        "target": 2.0 * np.log(p),
        "final_lower": last[0],
        "final_upper": last[1],
    }
    return body, summary


# ------------------------------------------------------------ toral-entropy


def _parse_matrix(text: str) -> np.ndarray:
    try:
        vals = [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise PreconditionError(f"--T entries must be integers: {text!r}") from exc
    side = int(round(len(vals) ** 0.5))
    if side * side != len(vals):
        raise PreconditionError(f"--T needs a square number of entries, got {len(vals)}")
    return np.array(vals, dtype=np.int64).reshape(side, side)


def run_toral_entropy(params: dict) -> tuple[list[str], dict]:
    T = _parse_matrix(params["T"])
    m, n, tail = params["m"], params["n"], params["tail"]
    series = entropy.lattice_orbit_card(T, m, n)
    est = entropy.entropy_slope(series, tail)
    body = ["n,card,log_diff"]
    for i, c in enumerate(series.counts, start=1):
        diff = fmt(est.diffs[i - 2]) if i >= 2 else ""
        body.append(f"{i},{c},{diff}")
    summary = {
        "eigen_entropy": entropy.eigen_entropy(T),
        "slope": est.slope,
        "tail": tail,
    }
    return body, summary


# ------------------------------------------------------------ kolmogorov


def run_kolmogorov(params: dict) -> tuple[list[str], dict]:
    if params.get("points"):
        pts = metricspace.load_csv(params["points"])
        space = metricspace.FiniteMetricSpace.from_points(pts)
    elif params.get("matrix"):
        space = metricspace.FiniteMetricSpace.from_matrix(
            metricspace.load_csv(params["matrix"])
        )
    else:
        raise PreconditionError("kolmogorov needs --points or --matrix")
    deltas = metricspace.parse_delta_grid(params["delta_grid"])
    result = metricspace.box_dimension(space, deltas)
    body = ["delta,sep,spn,sep_exact"]
    for s in result.stats:
        body.append(f"{fmt(s.delta)},{s.sep},{s.spn},{int(s.sep_exact)}")
    summary = {"slope_sep": result.slope, "slope_spn": result.slope_spn}
    return body, summary


# ------------------------------------------------------------ cesaro-rate


def run_cesaro_rate(params: dict) -> tuple[list[str], dict]:
    try:
        ns = sorted({int(x) for x in params["n_list"].split(",")})
    except ValueError as exc:
        raise PreconditionError(f"--n-list must be integers: {params['n_list']!r}") from exc
    if any(n < 2 for n in ns):
        raise PreconditionError("Cesàro rate orders must be >= 2")
    body = ["n,abs_moment,moment_ratio"]
    ratios = []
    for n in ns:
        mom = nctorus.fejer_abs_moment(n)
        ratio = mom * n / np.log(n)
        ratios.append(ratio)
        body.append(f"{n},{fmt(mom)},{fmt(ratio)}")
    summary = {"fitted_constant": float(max(ratios))}
    return body, summary


# ------------------------------------------------------------ lattice-growth


def run_lattice_growth(params: dict) -> tuple[list[str], dict]:
    T = _parse_matrix(params["T"])
    m, n = params["m"], params["n"]
    dpad = params["delta_pad"]
    series = entropy.lattice_orbit_card(T, m, n)
    diffs = series.log_diffs()
    bounds = [entropy.box_bound_card(T, m, i, dpad) for i in range(1, len(series.counts) + 1)]
    body = ["n,card,box_bound,log_diff"]
    for i, (c, bound) in enumerate(zip(series.counts, bounds), start=1):
        diff = fmt(diffs[i - 2]) if i >= 2 else ""
        body.append(f"{i},{c},{fmt_upper(bound)},{diff}")
    summary = {
        "eigen_entropy": entropy.eigen_entropy(T),
        "dominates": all(b >= c for b, c in zip(bounds, series.counts)),
    }
    return body, summary


# ------------------------------------------------------------ dim-bracket


def run_dim_bracket(params: dict) -> tuple[list[str], dict]:
    with open(params["vectors"], "r", encoding="utf-8") as fh:
        fam = approxdim.family_from_json(fh.read())
    deltas = metricspace.parse_delta_grid(params["delta_grid"])
    brackets = [
        approxdim.dim_bracket(fam, d, params["norm_tag"], strict=not params["nonstrict"])
        for d in deltas
    ]
    body = ["delta,lower,upper,norm_tag"] + approxdim.brackets_to_csv_rows(brackets)
    summary = {"rows": len(brackets)}
    return body, summary


# flags that say where and how an experiment writes, not what it computes
_OUTPUT_KEYS = ("out", "json_out", "stamp")


def build_parser() -> argparse.ArgumentParser:
    """The one place that names each subcommand, its runner and its flags.

    An experiment's config keys, echoed in its header and read back by
    ``rerun``, are the dests of its flags minus _OUTPUT_KEYS.
    """
    parser = argparse.ArgumentParser(
        prog="qmetric",
        description="dimension and entropy experiments on finite quantum metric spaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    path_keys, input_keys = set(), set()

    def file_arg(sp, flag, written=False, **kw):
        # a flag naming a file; its header entry is relative to the output's
        # directory, and a file the run reads has its sha256 recorded too
        dest = sp.add_argument(flag, metavar="FILE", **kw).dest
        path_keys.add(dest)
        if not written:
            input_keys.add(dest)

    def experiment(name, run, about):
        sp = sub.add_parser(name, help=about)
        sp.set_defaults(run=run)
        sp.add_argument("--out", default=None, help="CSV output path (default stdout)")
        sp.add_argument("--json-out", default=None, help="JSON summary path (default stdout)")
        sp.add_argument("--stamp", action="store_true", help="add a timestamp header line")
        return sp

    sp = experiment("weyl-dim", run_weyl_dim, "UHF dimension certificates and regression")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--lam", type=float, default=0.5)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=3)

    sp = experiment("torus-dim", run_torus_dim, "torus dimension certificates and regression")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--delta", type=float, default=0.5)
    sp.add_argument("--n-min", type=int, default=1)
    sp.add_argument("--n-max", type=int, default=6)
    file_arg(sp, "--element", default=None, help="twisted-polynomial JSON to bracket")
    file_arg(sp, "--element-out", written=True, default=None,
             help="write its Cesàro mean as JSON")

    sp = experiment("shift-entropy", run_shift_entropy, "shift entropy brackets")
    sp.add_argument("--p", type=int, default=2)
    sp.add_argument("--n-max", "--n", dest="n_max", type=int, default=5)
    sp.add_argument("--delta", type=float, default=0.5)

    sp = experiment("toral-entropy", run_toral_entropy, "lattice growth and eigenvalue entropy")
    sp.add_argument("--T", required=True, help="comma-separated row-major entries")
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=14)
    sp.add_argument("--tail", type=int, default=5)

    sp = experiment("kolmogorov", run_kolmogorov, "net statistics and box dimension")
    file_arg(sp, "--points", default=None, help="CSV of points, one per row")
    file_arg(sp, "--matrix", default=None, help="CSV distance matrix")
    sp.add_argument("--delta-grid", required=True, help="a:b:steps geometric grid")

    sp = experiment("cesaro-rate", run_cesaro_rate, "Fejér moment rate table")
    sp.add_argument("--n-list", default="16,32,64,128,256,512,1024,2048,4096")

    sp = experiment("lattice-growth", run_lattice_growth, "growth series with box bounds")
    sp.add_argument("--T", required=True)
    sp.add_argument("--m", type=int, default=1)
    sp.add_argument("--n", type=int, default=10)
    sp.add_argument("--delta-pad", type=float, default=0.05)

    sp = experiment("dim-bracket", run_dim_bracket, "dimension brackets for a vector family")
    file_arg(sp, "--vectors", required=True, help="JSON family path")
    sp.add_argument("--delta-grid", required=True)
    sp.add_argument("--norm-tag", default="cstar")
    sp.add_argument("--nonstrict", action="store_true")

    sp = sub.add_parser("rerun", help="re-execute the config echoed in an output file")
    sp.add_argument("source", help="file produced by a previous run")
    sp.add_argument("--out", default=None)
    sp.add_argument("--json-out", default=None)
    parser.path_keys = frozenset(path_keys)
    parser.input_keys = frozenset(input_keys)
    parser.commands = sub.choices
    return parser


def _relocate(params: dict, path_keys, src_dir: str, out) -> tuple[dict, dict]:
    """File paths as this run uses them and as its header records them.

    A relative path in a header is relative to the directory of the file
    holding that header (the working directory when the output goes to
    stdout); a rerun reads the paths recorded in FILE from FILE's directory.
    A recorded string is kept as written while it still names the same file.
    """
    out_dir = os.getcwd() if out in (None, "-") else os.path.dirname(os.path.abspath(out))
    used, recorded = dict(params), dict(params)
    for k in path_keys & params.keys():
        v = params[k]
        if not v or os.path.isabs(v):
            continue
        used[k] = os.path.join(src_dir, v)
        if os.path.abspath(os.path.join(out_dir, v)) != os.path.abspath(used[k]):
            recorded[k] = os.path.relpath(used[k], out_dir)
    return used, recorded


def _header_json(path: str, key: str) -> dict | None:
    """The JSON object on the ``# key: `` line of path's header, None without one."""
    prefix = f"# {key}: "
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            if not line.startswith("#"):
                break
            if line.startswith(prefix):
                try:
                    value = json.loads(line[len(prefix):])
                except ValueError:
                    value = None
                if not isinstance(value, dict):
                    raise PreconditionError(f"the {key} line in {path} is not a JSON object")
                return value
    return None


def extract_config(path: str) -> dict:
    config = _header_json(path, "config-json")
    if config is None:
        raise PreconditionError(f"no config-json header in {path}")
    return config


def _input_digests(used: dict, input_keys) -> dict:
    """sha256 of every file the run reads, by config key."""
    files = {k: used[k] for k in input_keys & used.keys() if used[k]}
    if not files:
        return {}
    # hashlib loads OpenSSL (about 4 ms and 3.5 MB resident): only runs that
    # read a file import it
    import hashlib

    digests = {}
    for k, path in files.items():
        with open(path, "rb") as fh:
            digests[k] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def main(argv=None) -> int:
    parser = build_parser()
    params = vars(parser.parse_args(argv))
    command, run = params.pop("command"), params.pop("run", None)
    out, json_out, stamp = (params.pop(k, False) for k in _OUTPUT_KEYS)  # rerun has no --stamp
    src_dir, known = "", None  # known: the input digests a rerun's header recorded
    try:
        if run is None:  # rerun: the experiment and its config come from the header
            source = params["source"]
            params = extract_config(source)
            command = params.pop("command", None)
            sp = parser.commands.get(command)
            run = sp.get_default("run") if sp is not None else None
            if run is None:
                raise PreconditionError(f"unknown command {command!r} in config")
            keys = {a.dest for a in sp._actions} - {"help", *_OUTPUT_KEYS}
            problems = [f"{what} keys {', '.join(sorted(found))}" for what, found in
                        (("missing", keys - params.keys()), ("unknown", params.keys() - keys))
                        if found]
            if problems:
                raise PreconditionError(
                    f"config in {source} does not fit {command}: {'; '.join(problems)}")
            src_dir = os.path.dirname(source)
            known = _header_json(source, "input-sha256")  # None: written before digests
        used, recorded = _relocate(params, parser.path_keys, src_dir, out)
        digests = _input_digests(used, parser.input_keys)
        if known is not None:
            changed = sorted(k for k in known.keys() | digests.keys()
                             if known.get(k) != digests.get(k))
            if changed:
                names = ", ".join(str(used.get(k) or k) for k in changed)
                raise PreconditionError(f"{names} changed since {source} was written "
                                        "(sha256 differs from its header)")
        body, summary = run(used)
        header = _header(command, recorded, digests, stamp)
        _write(out, "".join(line + "\n" for line in header + body))
        if json_out is not None:
            _write(json_out, json.dumps(summary, sort_keys=True, indent=2) + "\n")
    except QMetricError as exc:
        print(f"qmetric: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, UnicodeDecodeError) as exc:  # a file that cannot be opened or decoded
        print(f"qmetric: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
