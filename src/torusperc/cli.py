"""Batch command-line front door.

Subcommands: sample, explore, couple, estimate <quantity>, oracle, pc.
Exit codes: 0 success, 1 usage error, 2 runtime error, 3 failed band check
(`estimate --check`).  Errors go to standard error with a machine-parsable
ERROR[kind]: prefix.  A key=value config file can predefine any flag; explicit
flags win.
"""
from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone

from . import bands
from . import coupling as _coupling
from . import cycles as _cycles
from . import estimators as _est
from . import surgery as _surgery
from .lattice import NEAREST_NEIGHBOR, SPREAD_OUT, get_torus
from .percolation import _pc_table, pc_reference, sample_config

QUANTITIES = ("vertex-long-cycle", "cycle-cut", "cluster-size", "cycle-length",
              "long-cycle-tail", "two-point", "ball-boundary")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="torusperc", description=__doc__,
                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", metavar="command")

    def common(sp, *, need_r=True):
        sp.add_argument("--config", help="key=value file; flags override it")
        sp.add_argument("--d", type=int, help="dimension")
        if need_r:
            sp.add_argument("--r", help="torus side, or comma list of sides")
        sp.add_argument("--model", choices=[NEAREST_NEIGHBOR, SPREAD_OUT],
                        default=NEAREST_NEIGHBOR, help="edge model (default nn)")
        sp.add_argument("--L", type=int, default=None, help="spread-out range")
        sp.add_argument("--p", type=float, default=None, help="edge probability")
        sp.add_argument("--pc-ref", action="store_true",
                        help="use the bundled critical-point reference")
        sp.add_argument("--seed", type=int, default=None, help="master seed")
        sp.add_argument("--budget", type=int, default=_cycles.DEFAULT_BUDGET,
                        help="search budget per query (node expansions)")
        sp.add_argument("--threads", type=int, default=1, help="worker count")
        sp.add_argument("--out", default=None, help="output file (default stdout)")
        sp.add_argument("--format", choices=["csv", "jsonl"], default=None)
        sp.add_argument("--no-header-meta", action="store_true",
                        help="suppress the metadata comment lines")

    sp = sub.add_parser("sample", help="sample one config and dump it")
    common(sp)

    sp = sub.add_parser("explore", help="two-stage exploration of one sample")
    common(sp)
    sp.add_argument("--root", type=int, default=None,
                    help="root vertex id (default: the origin)")

    sp = sub.add_parser("couple", help="coupled torus/lattice sample")
    common(sp)
    sp.add_argument("--K", type=int, default=4, help="window factor")
    sp.add_argument("--k-grid", default="0:20",
                    help="inclusive range lo:hi for the inclusion check")

    sp = sub.add_parser("estimate", help="run a Monte Carlo estimator")
    sp.add_argument("quantity", choices=QUANTITIES)
    common(sp)
    sp.add_argument("--replicas", type=int, default=300)
    sp.add_argument("--delta", default="0.5,1,2", help="comma list of deltas")
    sp.add_argument("--k-schedule", default=None, help="comma list of k values")
    sp.add_argument("--eps", default="0.5,1,2", help="comma list of eps values")
    sp.add_argument("--n-list", default=None, help="comma list of box radii")
    sp.add_argument("--origins", type=int, default=4,
                    help="sampled origins per replica (cycle-length)")
    sp.add_argument("--check", action="store_true",
                    help="apply the built-in acceptance band for the quantity")

    sp = sub.add_parser("oracle", help="run the oracle fixture self-checks")
    sp.add_argument("--out", default=None)

    sp = sub.add_parser("pc", help="list the critical-point reference table")
    sp.add_argument("--d", type=int, default=None)
    sp.add_argument("--model", default=None)
    return p


_CONFIG_CASTS = {"d": int, "L": int, "seed": int, "budget": int, "threads": int,
                 "replicas": int, "K": int, "origins": int, "root": int,
                 "p": float, "pc_ref": bool, "check": bool,
                 "no_header_meta": bool}


def _apply_config_file(args: argparse.Namespace, argv: list[str]) -> None:
    if not getattr(args, "config", None):
        return
    explicit = {a.split("=")[0].lstrip("-").replace("-", "_")
                for a in argv if a.startswith("--")}
    with open(args.config) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise UsageError(f"bad config line: {line!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            attr = key.replace("-", "_")
            if not hasattr(args, attr):
                raise UsageError(f"unknown config key: {key!r}")
            if attr in explicit:
                continue
            cast = _CONFIG_CASTS.get(attr)
            if cast is bool:
                setattr(args, attr, value.lower() in ("1", "true", "yes"))
            elif cast is not None:
                try:
                    setattr(args, attr, cast(value))
                except ValueError:
                    raise UsageError(f"bad value for config key {key!r}: {value!r}")
            else:
                setattr(args, attr, value)


def _require(args, *names):
    missing = [n for n in names if getattr(args, n, None) is None]
    if missing:
        raise UsageError("missing required flag(s): "
                         + " ".join("--" + n.replace("_", "-") for n in missing))


def _sizes(args) -> list[int]:
    try:
        return [int(tok) for tok in str(args.r).split(",") if tok]
    except ValueError:
        raise UsageError(f"bad --r value: {args.r!r}")


def _check_probability_flags(args) -> None:
    if args.p is not None and args.pc_ref:
        raise UsageError("--p and --pc-ref are mutually exclusive")
    if args.p is None and not args.pc_ref:
        raise UsageError("need --p or --pc-ref")


def _check_counts(args) -> None:
    """Explicit flags are used as given, so out-of-range counts are usage errors."""
    for flag, low in (("budget", 0), ("replicas", 1), ("threads", 1)):
        value = getattr(args, flag, None)
        if value is not None and value < low:
            raise UsageError(f"--{flag} must be >= {low}, got {value}")


def _resolve_probability(args) -> float:
    _check_probability_flags(args)
    if args.p is not None:
        return args.p
    return pc_reference(args.d, args.model,
                        None if args.model == NEAREST_NEIGHBOR else args.L).p_c


def _emit(text: str, out: str | None) -> None:
    if out in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _meta_line() -> str:
    return f"# generated: {datetime.now(timezone.utc).isoformat()}\n"


def _cmd_sample(args) -> int:
    _require(args, "d", "r", "seed")
    sizes = _sizes(args)
    p = _resolve_probability(args)
    g = get_torus(args.d, sizes[0], args.model, 1 if args.L is None else args.L)
    cfg = sample_config(g, p, args.seed)
    payload = {"d": args.d, "r": sizes[0], "model": args.model,
               "L": args.L if args.model == SPREAD_OUT else None, "p": p,
               "seed": args.seed, "num_edges": g.num_edges,
               "open_edges": cfg.open_edge_ids().tolist()}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_explore(args) -> int:
    _require(args, "d", "r", "seed")
    sizes = _sizes(args)
    p = _resolve_probability(args)
    g = get_torus(args.d, sizes[0], args.model, 1 if args.L is None else args.L)
    cfg = sample_config(g, p, args.seed).instrumented()
    root = args.root if args.root is not None else g.origin
    if not 0 <= root < g.num_vertices:
        raise UsageError(f"root {root} outside [0, {g.num_vertices})")
    s1 = _surgery.depth_first_explore(cfg, root)
    res = _surgery.second_stage(cfg, s1, budget_per_decision=args.budget)
    payload = {"root": root, "stage1": s1.to_json(), "stage2": res.to_json()}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_couple(args) -> int:
    _require(args, "d", "r", "seed")
    sizes = _sizes(args)
    p = _resolve_probability(args)
    lo, hi = (int(t) for t in args.k_grid.split(":"))
    sample = _coupling.coupled_sample(args.d, sizes[0], p, args.seed,
                                      window_factor=args.K)
    inclusion = _coupling.check_inclusion_property(sample, range(lo, hi + 1))
    payload = sample.to_json()
    payload["inclusion_applicable"] = inclusion.applicable
    payload["inclusion_violations"] = {str(k): v
                                       for k, v in inclusion.violations.items()}
    _emit(json.dumps(payload, sort_keys=True) + "\n", args.out)
    return 0


def _parse_floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t]


def _cmd_estimate(args) -> int:
    _require(args, "d", "seed")
    _check_probability_flags(args)
    common = {"model": args.model, "L": 1 if args.L is None else args.L, "p": args.p,
              "replicas": args.replicas, "seed": args.seed, "threads": args.threads}
    budgeted = dict(common, budget=args.budget)
    q = args.quantity
    if q == "ball-boundary":
        if not args.n_list:
            raise UsageError("ball-boundary needs --n-list")
        ns = [int(t) for t in args.n_list.split(",")]
        report = _est.est_ball_boundary_sum(args.d, ns, **common)
    else:
        _require(args, "r")
        sizes = _sizes(args)
        if q == "vertex-long-cycle":
            report = _est.est_vertex_long_cycle(args.d, sizes, **budgeted)
        elif q == "cycle-cut":
            report = _est.est_cycle_cut(args.d, sizes, _parse_floats(args.delta), **budgeted)
        elif q == "cluster-size":
            report = _est.est_mean_cluster_size(args.d, sizes, **common)
        elif q == "cycle-length":
            if not args.k_schedule:
                raise UsageError("cycle-length needs --k-schedule")
            ks = [int(t) for t in args.k_schedule.split(",")]
            report = _est.est_cycle_length_profile(args.d, sizes[0], ks, origins=args.origins,
                                                   **budgeted)
        elif q == "long-cycle-tail":
            report = _est.est_long_cycle_tail(args.d, sizes[0], _parse_floats(args.eps),
                                              **budgeted)
        elif q == "two-point":
            report = _est.est_two_point(args.d, sizes[0], **common)
        else:  # pragma: no cover - argparse restricts choices
            raise UsageError(f"unknown quantity {q!r}")
    fmt = args.format or "csv"
    if fmt == "csv":
        text = report.to_csv(include_meta=not args.no_header_meta)
        if not args.no_header_meta:
            text = _meta_line() + text
    else:
        text = report.to_jsonl()
    _emit(text, args.out)
    if args.check:
        failures = _band_check(q, report)
        if failures:
            for f in failures:
                sys.stderr.write(f"ERROR[check]: {f}\n")
            return 3
    return 0


def _band_check(quantity: str, report: _est.EstimateReport) -> list[str]:
    """The acceptance bands of `bands` applied to one report."""
    failures = []
    if quantity == "vertex-long-cycle":
        fits = [s for s in report.slopes if s.quantity == "vertex-long-cycle-count"]
        if not fits:
            failures.append("no slope fit produced")
        elif not bands.count_slope_in_band(fits[0].slope):
            failures.append(f"count slope {fits[0].slope:.4f} outside 1/3 +/- 0.2")
    elif quantity == "cluster-size":
        vals = [row.mean for row in report.rows if row.quantity == "cluster-size-scaled"]
        span = bands.ratio(vals) if vals else 1.0
        if span > bands.CLUSTER_SIZE_FACTOR:
            failures.append(f"scaled means span {span:.2f} > {bands.CLUSTER_SIZE_FACTOR}")
    elif quantity == "cycle-cut":
        zero = [row for row in report.rows if row.quantity.startswith("cycle-cut-zero-prob[delta=1]")]
        for row in zero:
            if not bands.zero_cut_in_band(row.mean, row.replicas)[0]:
                failures.append(f"zero-cut probability {row.mean:.3f} at r={row.r} "
                                f"outside {bands.ZERO_CUT_PROB} or Wilson CI touches 0/1")
        scaled = [row.mean for row in report.rows
                  if row.quantity.startswith("cycle-cut-scaled")]
        span = bands.positive_ratio(scaled) if any(v > 0 for v in scaled) else 1.0
        if span > bands.CUT_SCALED_FACTOR:
            failures.append(f"delta-scaled means span {span:.2f} > {bands.CUT_SCALED_FACTOR}")
    elif quantity == "ball-boundary":
        vals = [row.mean for row in report.rows if row.quantity == "ball-boundary"]
        span = bands.ratio(vals) if vals else 1.0
        if span > bands.BALL_BOUNDARY_FACTOR:
            failures.append(f"means span {span:.2f} > {bands.BALL_BOUNDARY_FACTOR}")
    return failures


def _cmd_oracle(args) -> int:
    from . import oracle

    lines = []
    g = get_torus(2, 5)
    # tree: no cycles
    sub = _cycles.OpenSubgraph(g, [0, 2])
    lines.append(("tree-no-cycles", len(oracle.enumerate_all_cycles(sub)) == 0))
    # one open unit square: one cycle of length 4
    a = g.origin
    b = g.vertex_index([1, 0])
    c = g.vertex_index([1, 1])
    dd = g.vertex_index([0, 1])
    square = [g.edge_between(a, b), g.edge_between(b, c),
              g.edge_between(dd, c), g.edge_between(a, dd)]
    sub = _cycles.OpenSubgraph(g, square)
    cyc = oracle.enumerate_all_cycles(sub)
    lines.append(("square-single-cycle", len(cyc) == 1 and cyc[0].length == 4))
    # fully open 1d ring: one winding cycle
    g1 = get_torus(1, 5)
    sub1 = _cycles.OpenSubgraph(g1, list(range(g1.num_edges)))
    cyc1 = oracle.enumerate_all_cycles(sub1)
    lines.append(("ring-winding", len(cyc1) == 1 and cyc1[0].winding == (1,)
                  and oracle.exact_min_long_cycle_cut(sub1) == 1))
    ok = all(flag for _, flag in lines)
    text = "".join(f"{name}: {'PASS' if flag else 'FAIL'}\n" for name, flag in lines)
    _emit(text, args.out)
    return 0 if ok else 2


def _cmd_pc(args) -> int:
    rows = _pc_table()
    out = []
    for row in rows:
        if args.d is not None and row.d != args.d:
            continue
        if args.model is not None and row.model != args.model:
            continue
        out.append(f"{row.d}\t{row.model}\t{row.L if row.L is not None else '-'}"
                   f"\t{row.p_c}\t{row.source}")
    sys.stdout.write("\n".join(out) + ("\n" if out else ""))
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.command:
            raise UsageError("a subcommand is required")
        _apply_config_file(args, argv)
        _check_counts(args)
        handler = {"sample": _cmd_sample, "explore": _cmd_explore,
                   "couple": _cmd_couple, "estimate": _cmd_estimate,
                   "oracle": _cmd_oracle, "pc": _cmd_pc}[args.command]
        return handler(args)
    except UsageError as exc:
        sys.stderr.write(f"ERROR[usage]: {exc}\n")
        return 1
    except Exception as exc:
        sys.stderr.write(f"ERROR[runtime]: {type(exc).__name__}: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
