"""Experiment harness: every study in the package as a subcommand.

Artifacts are CSV (default) or JSON. Each one opens with comment lines
recording the tool version and the resolved configuration, so a file is
self-describing; runs with identical flags produce byte-identical files
(wall-clock runtime therefore goes to stderr, never into the artifact).
Floats are rendered with 17 significant digits.

Sweep flags accept small range expressions:

    --m 4,5,6        comma list
    --d 1..5         inclusive integer range
    --d all          every valid depth for the row's register size
    --eps 1e-4..1e-2:log8   8 log-spaced points, endpoints included
    --eps 1e-3..2e-3:lin5   5 evenly spaced points

Phase samples (tvd, cliff) are --phases seeded random phases followed by
a --grid point uniform grid; either count may be 0, but not both.
`cliff --shots N` adds a sampled success column: N outcomes drawn from each
phase's distribution and scored on the same window as the exact column.

Exit codes: 0 success; 1 a flag value or input file that a check
rejects (bad syntax, a value outside the domain of the study, a size
beyond a cap); 2 a numerical failure or an unreadable file; 3 bound
violation (returned when a measured TVD exceeds the truncation bound).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time
from bisect import bisect_right
from pathlib import Path

import numpy as np

from . import __version__
from .calibration import (DEFAULT_NOISE_CONSTANT, cliff_depth, crossover_error_rate,
                          error_budget, load_platforms, platform_report, tvd_bound)
from .circuits import gate_count, plan_truncated_qft, serialize_plan
from .numerics import ConvergenceError, SplitMix64
from .qpe import default_phase_sample, max_tvd_scan, mean_success_probability
# Unused here; perfbench/tracing.py patches these names in this module.
from .numerics import circular_distance_array
from .qpe import grid_phases, max_tvd, phase_distribution, random_phases, sample_outcomes
from .tfim import TfimSpec, encode_phase, qpe_energy_experiment, spectrum

OUTPUT_DIR_ENV = "TQFT_OUTPUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VIOLATION = 3


# Most values one sweep flag may expand to, and most rows one artifact may
# hold. 10 000 `rmse` rows take 0.25 s and 7 MB over the 29 MB interpreter
# (2-vCPU Xeon, Python 3.11, numpy 2.4); cost grows linearly with the count.
MAX_ROWS = 10_000


class UsageError(ValueError):
    """Bad flag values discovered after parsing that no library call checks."""


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad flags; the contract here is 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_USAGE)


# ---------------------------------------------------------------------------
# range expressions


def _check_rows(count: int, what: str) -> None:
    if count > MAX_ROWS:
        raise UsageError(f"{what} gives {count} rows, over the cap of {MAX_ROWS}")


def parse_int_list(text: str) -> list[int] | None:
    """`4,5,6` / `1..5` / `7` -> ints; `all` -> None (resolve per row)."""
    text = text.strip()
    if text == "all":
        return None
    values: list[int] = []
    for token in text.split(","):
        lo_text, dots, hi_text = token.partition("..")
        try:
            lo = int(lo_text)
            hi = int(hi_text) if dots else lo
        except ValueError as exc:
            raise UsageError(f"bad integer range {text!r}") from exc
        if hi < lo:
            raise UsageError(f"empty range {token.strip()!r}")
        _check_rows(len(values) + hi - lo + 1, f"range {text!r}")
        values.extend(range(lo, hi + 1))
    return values


def parse_float_list(text: str) -> list[float]:
    """`1e-4..1e-2:log8` / `0.1..0.5:lin5` / comma list / single float.

    The result holds at least one value and only finite ones.
    """
    text = text.strip()
    try:
        if ":" in text:
            span, scale = text.rsplit(":", 1)
            lo_text, hi_text = span.split("..")
            lo, hi = float(lo_text), float(hi_text)
            if scale[:3] not in ("log", "lin"):
                raise UsageError(f"unknown scale {scale!r} (expected logN or linN)")
            points = int(scale[3:])
            _check_rows(points, f"range {text!r}")
            if not np.isfinite([lo, hi]).all():
                raise UsageError(f"float range {text!r} holds a non-finite value")
            log = scale.startswith("log")
            if log and (lo <= 0 or hi <= 0):
                raise UsageError(f"log range needs positive endpoints: {text!r}")
            # Near the float limit hi - lo or 10**log10(hi) overflows: space at half scale
            # (log in log space, keeping a subnormal lo), clip to the ends and double.
            if max(abs(lo), abs(hi)) < 2.0**1022:
                values = (np.geomspace if log else np.linspace)(lo, hi, points).tolist()
            else:
                half = (10.0 ** (np.linspace(np.log10(lo), np.log10(hi), points) - np.log10(2.0))
                        if log else np.linspace(lo / 2, hi / 2, points))
                inner = np.clip(half[1:-1], min(lo, hi) / 2, max(lo, hi) / 2) * 2
                values = [lo, *inner.tolist(), hi][:points]
        else:
            values = [float(token) for token in text.split(",")]
    except UsageError:
        raise
    except ValueError as exc:
        raise UsageError(f"bad float range {text!r}") from exc
    if not values:
        raise UsageError(f"float range {text!r} selects no values")
    if not all(np.isfinite(values)):
        raise UsageError(f"float range {text!r} holds a non-finite value")
    return values


def _depths_for(args) -> list[tuple[int, range | list[int]]]:
    """Each --m value with its depths: 1..m for 'all', else the requested d <= m.

    Requested depths keep the order they were given in. Rows are counted
    by bisection on a sorted copy and capped before any list is built.
    """
    ms = parse_int_list(args.m)
    if ms is None:
        raise UsageError("--m must be explicit (no 'all')")
    if min(ms) < 1:
        raise UsageError(f"--m values must be >= 1, got {min(ms)}")
    ds = parse_int_list(args.d)
    if ds is None:
        counts = ms
    else:
        order = sorted(range(len(ds)), key=ds.__getitem__)
        ascending = [ds[i] for i in order]
        counts = [bisect_right(ascending, m) for m in ms]
    _check_rows(sum(counts), f"--m {args.m} --d {args.d}")
    if not sum(counts):
        raise UsageError(f"no requested depth fits a register size (need d <= m): "
                         f"--m {args.m} --d {args.d}")
    # The depths d <= m are the first `count` of the sorted order.
    return [(m, range(1, m + 1) if ds is None else [ds[i] for i in sorted(order[:count])])
            for m, count in zip(ms, counts)]


# ---------------------------------------------------------------------------
# artifact plumbing


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return format(value, ".17g")
    if value is None:
        return ""
    return str(value)


def _render(args, rows: list[dict]) -> str:
    """The artifact text; its columns are the keys of the first row."""
    skip = {"func", "out", "format", "out_dir"}
    config = {k: v for k, v in sorted(vars(args).items()) if k not in skip}
    columns = list(rows[0])
    if args.format == "json":
        doc = {
            "tool": "tqft",
            "version": __version__,
            "config": config,
            "columns": columns,
            "rows": rows,
        }
        return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    buf = io.StringIO()
    buf.write(f"# tqft {__version__}\n")
    buf.write("# config " + json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_cell(row[col]) for col in columns])
    return buf.getvalue()


def _resolve_out(path_text: str | None) -> Path | None:
    """Map --out to a path, honoring the default-directory environment
    variable for relative paths; None means stdout."""
    if path_text is None or path_text == "-":
        return None
    path = Path(path_text)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    return path


def _write_text(args, text: str):
    path = _resolve_out(args.out)
    if path is None:
        sys.stdout.write(text)
    else:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)


def _emit(args, rows: list[dict]) -> int:
    _write_text(args, _render(args, rows))
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands


def cmd_tvd(args) -> int:
    """Max TVD between truncated and full estimation vs the two bounds."""
    sample = default_phase_sample(args.seed, args.phases, args.grid)
    rows, violated = [], False
    for m, m_depths in _depths_for(args):
        for d, (max_tv, _) in zip(m_depths, max_tvd_scan(m, m_depths, sample)):
            tight = tvd_bound(m, d, form="tight")
            loose = tvd_bound(m, d, form="loose")
            ratio = max_tv / loose if loose > 0.0 else 0.0
            violated = violated or max_tv > tight
            rows.append({"m": m, "d": d, "max_tv": max_tv, "bound_tight": tight,
                         "bound_loose": loose, "ratio": ratio})
    _emit(args, rows)
    if violated:
        print(json.dumps({"error": "BoundViolation",
                          "message": "max TVD exceeded the tight truncation bound"}),
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_gates(args) -> int:
    """Retained two-qubit gate counts and the saving over the full circuit."""
    rows = []
    for m, m_depths in _depths_for(args):
        full = gate_count(m, m)
        for d in m_depths:
            gates = gate_count(m, d)
            reduction = 100.0 * (1.0 - gates / full) if full else 0.0
            rows.append({"m": m, "d": d, "gates": gates, "gates_full": full,
                         "reduction_pct": reduction})
    return _emit(args, rows)


def cmd_cliff(args) -> int:
    """Mean estimation success vs depth, around the collapse threshold."""
    sample = default_phase_sample(args.seed, args.phases, args.grid)
    rows = []
    for m, m_depths in _depths_for(args):
        marker = cliff_depth(m)
        for d in m_depths:
            exact = mean_success_probability(sample, m, d)
            sampled = None
            if args.shots is not None:
                sampled = mean_success_probability(sample, m, d, args.shots,
                                                   SplitMix64(args.seed).spawn(m * 64 + d))
            rows.append({"m": m, "d": d, "success_exact": exact,
                         "success_sampled": sampled, "cliff_depth_marker": marker})
    return _emit(args, rows)


def cmd_platforms(args) -> int:
    """Depth rule and gate budget for each registered device."""
    platforms = load_platforms(args.file) if args.file else None
    rows = [
        {"name": row.name, "eps_2q": row.eps_2q, "depth": row.depth,
         "gates_truncated": row.gates_truncated, "gates_full": row.gates_full,
         "reduction_pct": 100.0 * row.reduction, "clamped": row.clamped}
        for row in platform_report(args.m, platforms)
    ]
    return _emit(args, rows)


def cmd_rmse(args) -> int:
    """Three-term RMSE model: truncated vs full across an error-rate sweep."""
    if args.m < 1:
        raise UsageError(f"--m must be >= 1, got {args.m}")
    ds = parse_int_list(args.d)
    if ds is None:
        ds = range(1, args.m + 1)
    eps_values = parse_float_list(args.eps)
    _check_rows(len(ds) * len(eps_values), f"--d {args.d} --eps {args.eps}")
    rows = []
    for d in ds:
        for eps in eps_values:
            truncated = error_budget(args.m, d, eps, args.c)
            full = error_budget(args.m, None, eps, args.c)
            rows.append({
                "m": args.m, "d": d, "eps_2q": eps, "c": args.c,
                "tv_bound": tvd_bound(args.m, d, form="loose"),
                "gates": gate_count(args.m, d),
                "gates_full": gate_count(args.m, args.m),
                "rmse_truncated": truncated.rmse, "rmse_full": full.rmse,
            })
    return _emit(args, rows)


def cmd_crossover(args) -> int:
    """Error rate where the truncated circuit starts beating the full one."""
    if args.m < 2:
        raise UsageError(f"crossover needs a truncated depth d < m, so --m >= 2; got {args.m}")
    ds = parse_int_list(args.d)
    if ds is None:
        ds = range(1, args.m)
    _check_rows(len(ds), f"--m {args.m} --d {args.d}")
    rows = []
    for d in ds:
        rows.append({
            "m": args.m, "d": d, "c": args.c,
            "tv_bound": tvd_bound(args.m, d, form="loose"),
            "gates_truncated": gate_count(args.m, d),
            "gates_full": gate_count(args.m, args.m),
            "crossover_eps": crossover_error_rate(args.m, d, args.c),
        })
    return _emit(args, rows)


def cmd_tfim(args) -> int:
    """Ising-chain spectrum, or a phase-estimation accuracy trial on it."""
    spec = TfimSpec(args.n, args.j, args.h)
    if args.m is None:
        count = spec.dim if args.spectrum is None else args.spectrum
        if not 1 <= count <= spec.dim:
            raise UsageError(f"--spectrum must lie in 1..{spec.dim}, got {count}")
        _check_rows(count, f"--n {spec.n} --spectrum {count}")
        eigenvalues, _ = spectrum(spec)
        # max |E| of an ascending spectrum sits at one of its ends.
        ends = eigenvalues[[0, -1]]
        rows = []
        for index in range(count):
            energy = float(eigenvalues[index])
            rows.append({"n": spec.n, "j": spec.j, "h": spec.h, "index": index,
                         "energy": energy, "phi": encode_phase(energy, ends).phi})
        return _emit(args, rows)

    result = qpe_energy_experiment(spec, args.m, args.d, eps_2q=args.eps, c=args.c,
                                   eigenstate_index=args.state, shots=args.shots,
                                   seed=args.seed)
    row = {
        "n": spec.n, "j": spec.j, "h": spec.h, "m": result.m, "d": result.depth,
        "state": result.eigenstate_index, "phi": result.phi, "on_grid": result.on_grid,
        "true_energy": result.true_energy, "estimated_energy": result.estimated_energy,
        "phase_rmse": result.phase_rmse, "energy_rmse": result.energy_rmse,
        "model_rmse": result.budget.rmse, "shots": result.shots,
        "sampled_phase_rmse": result.sampled_phase_rmse,
    }
    return _emit(args, [row])


def cmd_plan(args) -> int:
    """Write the gate list of one truncated circuit in the text format."""
    # A header, m Hadamards, the controlled phases and the bit reversal.
    _check_rows(gate_count(args.m, args.d) + args.m + 2, f"plan --m {args.m} --d {args.d}")
    plan = plan_truncated_qft(args.m, args.d)
    _write_text(args, serialize_plan(plan))
    return EXIT_OK


SUITE = [
    ("tvd.csv", ["tvd", "--m", "4,5,6", "--d", "all"]),
    ("gates.csv", ["gates", "--m", "30", "--d", "11,13,14,30"]),
    ("cliff.csv", ["cliff", "--m", "8", "--d", "all"]),
    ("platforms.csv", ["platforms", "--m", "30"]),
    ("rmse.csv", ["rmse", "--m", "16", "--d", "11", "--eps", "1e-4..1e-2:log25"]),
    ("crossover.csv", ["crossover", "--m", "16", "--d", "11"]),
    ("tfim_spectrum.csv", ["tfim", "--n", "4", "--J", "1", "--h", "0.5",
                           "--spectrum", "4"]),
    ("tfim_qpe.csv", ["tfim", "--n", "4", "--m", "8", "--d", "5", "--state", "3",
                      "--eps", "1e-3"]),
    ("plan_m8_d5.txt", ["plan", "--m", "8", "--d", "5"]),
]


def cmd_suite(args) -> int:
    """Run the default experiment set, one artifact per subcommand."""
    out_dir = Path(args.out_dir or os.environ.get(OUTPUT_DIR_ENV, "tqft-artifacts"))
    out_dir.mkdir(parents=True, exist_ok=True)
    worst = EXIT_OK
    for filename, argv in SUITE:
        code = run(argv + ["--out", str(out_dir / filename)])
        print(f"{filename}: exit {code}", file=sys.stderr)
        worst = max(worst, code)
    return worst


# ---------------------------------------------------------------------------
# parser


def _add_output_flags(sub):
    sub.add_argument("--format", choices=["csv", "json"], default="csv",
                     help="artifact format (default csv)")
    sub.add_argument("--out", default=None,
                     help="output path; '-' or omitted for stdout "
                          f"(relative paths resolve under ${OUTPUT_DIR_ENV} if set)")


@functools.cache
def build_parser() -> _Parser:
    """The whole parser tree, built on first use and shared by every `run`.

    Parsing leaves a parser unchanged; callers must not modify this one.
    """
    parser = _Parser(prog="tqft", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"tqft {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    tvd = subs.add_parser("tvd", help="max TVD of truncation vs the analytic bounds")
    tvd.add_argument("--m", required=True, help="register sizes (range expression)")
    tvd.add_argument("--d", default="all", help="depths (range expression or 'all')")
    tvd.add_argument("--phases", type=int, default=500,
                     help="seeded random phases (default 500)")
    tvd.add_argument("--grid", type=int, default=4096,
                     help="uniform grid points after them (default 4096)")
    tvd.add_argument("--seed", type=int, default=42)
    _add_output_flags(tvd)
    tvd.set_defaults(func=cmd_tvd)

    gates = subs.add_parser("gates", help="two-qubit gate counts and reduction")
    gates.add_argument("--m", required=True)
    gates.add_argument("--d", default="all")
    _add_output_flags(gates)
    gates.set_defaults(func=cmd_gates)

    cliff = subs.add_parser("cliff", help="mean success vs depth (collapse curve)")
    cliff.add_argument("--m", required=True)
    cliff.add_argument("--d", default="all")
    cliff.add_argument("--phases", type=int, default=0,
                       help="seeded random phases (default 0)")
    cliff.add_argument("--grid", type=int, default=256,
                       help="uniform grid points after them (default 256)")
    cliff.add_argument("--shots", type=int, default=None,
                       help="add a sampled-success column with this many shots "
                            "per (m, d, phase)")
    cliff.add_argument("--seed", type=int, default=42)
    _add_output_flags(cliff)
    cliff.set_defaults(func=cmd_cliff)

    plat = subs.add_parser("platforms", help="per-device depth rule and gate budget")
    plat.add_argument("--m", type=int, required=True)
    plat.add_argument("--file", default=None,
                      help="platform registry CSV (header name,eps_2q); "
                           "default: built-in registry")
    _add_output_flags(plat)
    plat.set_defaults(func=cmd_platforms)

    rmse = subs.add_parser("rmse", help="three-term RMSE model across error rates")
    rmse.add_argument("--m", type=int, required=True)
    rmse.add_argument("--d", default="all")
    rmse.add_argument("--eps", default="1e-4..1e-2:log9",
                      help="error-rate sweep (range expression)")
    rmse.add_argument("--c", type=float, default=DEFAULT_NOISE_CONSTANT)
    _add_output_flags(rmse)
    rmse.set_defaults(func=cmd_rmse)

    cross = subs.add_parser("crossover", help="noise threshold where truncation wins")
    cross.add_argument("--m", type=int, required=True)
    cross.add_argument("--d", default="all")
    cross.add_argument("--c", type=float, default=DEFAULT_NOISE_CONSTANT)
    _add_output_flags(cross)
    cross.set_defaults(func=cmd_crossover)

    tfim = subs.add_parser("tfim", help="Ising spectrum / estimation benchmark")
    tfim.add_argument("--n", type=int, default=4, help="chain sites, 2..16 (default 4)")
    tfim.add_argument("--J", dest="j", type=float, default=1.0)
    tfim.add_argument("--h", dest="h", type=float, default=0.5)
    tfim.add_argument("--spectrum", type=int, default=None,
                      help="emit this many lowest eigenvalues (default: all, "
                           "within the row cap)")
    tfim.add_argument("--m", type=int, default=None,
                      help="run an estimation trial with this register size")
    tfim.add_argument("--d", type=int, default=None,
                      help="trial depth (default: full depth, d = m)")
    tfim.add_argument("--state", type=int, default=0,
                      help="eigenstate index for the trial (default 0)")
    tfim.add_argument("--eps", type=float, default=0.0,
                      help="two-qubit error rate for the model column")
    tfim.add_argument("--c", type=float, default=DEFAULT_NOISE_CONSTANT)
    tfim.add_argument("--shots", type=int, default=None,
                      help="add a finite-sample column with this many shots")
    tfim.add_argument("--seed", type=int, default=0)
    _add_output_flags(tfim)
    tfim.set_defaults(func=cmd_tfim)

    plan = subs.add_parser("plan", help="serialize one truncated circuit")
    plan.add_argument("--m", type=int, required=True)
    plan.add_argument("--d", type=int, required=True)
    plan.add_argument("--out", default=None)
    plan.set_defaults(func=cmd_plan, format="text")

    suite = subs.add_parser("suite", help="run the default experiment set")
    suite.add_argument("--out-dir", default=None,
                       help=f"artifact directory (default ${OUTPUT_DIR_ENV} "
                            "or ./tqft-artifacts)")
    suite.set_defaults(func=cmd_suite)

    return parser


def run(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    try:
        code = args.func(args)
    except ValueError as exc:
        # Every ValueError a subcommand can reach rejects a flag value or the
        # contents of an input file; a computed value that fails its check
        # surfaces as an ArithmeticError instead.
        print(json.dumps({"error": "UsageError", "message": str(exc)}), file=sys.stderr)
        return EXIT_USAGE
    except (ConvergenceError, ArithmeticError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc)}),
              file=sys.stderr)
        return EXIT_NUMERICAL
    print(f"runtime: {time.perf_counter() - started:.3f} s", file=sys.stderr)
    return code


main = run


if __name__ == "__main__":
    sys.exit(main())
