"""Command-line surface: analyze strategies, emit figure tables, run trials.

Three subcommands: ``analyze`` reads a graph file or a strategy JSON file
and reports the governing eigenvalue scalars and sample counts; ``curves``
writes the desk-scale data tables behind the two comparison figures;
``simulate`` runs the sampled protocol. Reports go to stdout unless --out
names a file.

The parser built by build_parser is the only record of the flags and their
defaults: each command reads the parsed namespace directly, after one check
refuses the values argparse cannot rule out (ranges, the theta-grid syntax,
and an input given as neither or both of --graph and --strategy).
Each command imports numpy and the qsvkit modules it runs only after that
check, so a rejected flag exits before numpy loads.

All numeric output is serialized with 10 significant digits and a trailing
newline, independent of locale. Infinite quantities appear as the string
"unbounded" in JSON and as "inf" in CSV. Exit codes: 0 on success, 2 on
input or validation problems, 3 when the two-copy pass-bound hypotheses
fail (the report is still written in that case).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .strategy import TwoCopyAnalysis

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

# Largest theta-grid step count; the fig4 table has one row per step.
MAX_THETA_STEPS = 100_000

# Largest strategy file read; on the tersest JSON ([0,0] per entry) a run peaks near 27x its size.
MAX_STRATEGY_BYTES = 32 << 20

FIG3_COLUMNS = ["epsilon", "N_graph", "N_PLM", "N_glob"]
FIG4_COLUMNS = ["theta", "N_de_1", "N_de_2", "N_de_3", "N_de_4", "N_glob"]
# fig4's epsilon when --epsilon is not given; fig3 sweeps its own grid.
FIG4_EPSILON = 1e-3
FIG4_NOTE = (
    "comparison curves for the two locally-measured protocols are omitted; "
    "their sample-count formulas are out of scope for this tool"
)


# =====================================================================
# Flags
# =====================================================================


def parse_theta_grid(text: str) -> tuple[float, float, int]:
    """Parse 'A:B:N' into (start, stop, steps)."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"theta grid must be 'A:B:N', got {text!r}")
    try:
        return float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ValueError(f"theta grid must be 'A:B:N' with numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qsvkit",
        description="Analyze and simulate quantum state-verification strategies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="eigenvalue scalars and sample counts")
    analyze.add_argument("--graph", dest="graph_path", metavar="FILE")
    analyze.add_argument("--strategy", dest="strategy_path", metavar="FILE")
    analyze.add_argument("--epsilon", type=float, default=1e-3, metavar="R")
    analyze.add_argument("--delta", type=float, default=1e-3, metavar="R")
    _add_output_flags(analyze, "json")

    curves = sub.add_parser("curves", help="figure data tables")
    curves.add_argument("--figure", choices=["fig3", "fig4"], required=True)
    curves.add_argument("--epsilon", type=float, default=None, metavar="R",
                        help=f"fig4 only, default {FIG4_EPSILON}; fig3 sweeps epsilon")
    curves.add_argument("--delta", type=float, default=1e-3, metavar="R")
    curves.add_argument("--theta-grid", dest="theta_grid", metavar="A:B:N", help="fig4 only")
    _add_output_flags(curves, "csv")

    simulate = sub.add_parser("simulate", help="sampled protocol runs")
    simulate.add_argument("--graph", dest="graph_path", metavar="FILE")
    simulate.add_argument("--strategy", dest="strategy_path", metavar="FILE")
    simulate.add_argument("--epsilon", type=float, default=None, metavar="R")
    simulate.add_argument("--trials", type=int, default=100000, metavar="N")
    simulate.add_argument("--seed", type=int, default=0, metavar="N")
    _add_output_flags(simulate, "json")
    return parser


def _add_output_flags(sub: argparse.ArgumentParser, default_format: str) -> None:
    sub.add_argument("--out", dest="out_path", metavar="FILE")
    sub.add_argument("--format", choices=["csv", "json"], default=default_format)


def _check_args(ns: argparse.Namespace) -> None:
    """Refuse the flag values argparse cannot rule out, one ValueError at a time.

    Each check runs only when the subcommand has the flag. A --theta-grid
    text is replaced by its parsed (start, stop, steps).
    """
    grid = getattr(ns, "theta_grid", None)
    if getattr(ns, "figure", None) == "fig3":
        for flag, value in (("--theta-grid", grid), ("--epsilon", ns.epsilon)):
            if value is not None:
                raise ValueError(f"{flag} applies to fig4 only; fig3 sweeps epsilon")
    if grid is not None:
        ns.theta_grid = grid = parse_theta_grid(grid)
    if ns.epsilon is not None and not 0.0 < ns.epsilon < 1.0:
        raise ValueError(f"epsilon = {ns.epsilon} outside (0, 1)")
    if "delta" in ns and not 0.0 < ns.delta < 1.0:
        raise ValueError(f"delta = {ns.delta} outside (0, 1)")
    if grid is not None:
        start, stop, steps = grid
        if steps < 2:
            raise ValueError(f"theta grid needs at least 2 steps: {steps}")
        if steps > MAX_THETA_STEPS:
            raise ValueError(f"theta grid needs at most {MAX_THETA_STEPS} steps: {steps}")
        if not 0.0 < start <= stop <= math.pi / 4.0:
            raise ValueError(f"theta grid [{start}, {stop}] outside the open-to-closed (0, pi/4]")
    if "seed" in ns and not 0 <= ns.seed < 2**64:
        raise ValueError(f"seed {ns.seed} outside the 64-bit range")
    if "trials" in ns and ns.trials < 1:
        raise ValueError(f"trials must be positive: {ns.trials}")
    if "graph_path" in ns and (ns.graph_path is None) == (ns.strategy_path is None):
        raise ValueError("provide exactly one of --graph or --strategy")


# =====================================================================
# Report serialization
# =====================================================================


def _round10(value: float) -> float:
    return float(f"{value:.10g}")


def _json_value(value):
    if isinstance(value, bool) or value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, float):
        if math.isinf(value):
            return "unbounded"
        return _round10(value)
    raise ValueError(f"cannot serialize {type(value).__name__}")


def _csv_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


def _emit_report(report: dict, ns: argparse.Namespace) -> None:
    if ns.format == "json":
        body = {key: _json_value(val) for key, val in report.items()}
        text = json.dumps(body, indent=2) + "\n"
    else:
        lines = ["key,value"] + [f"{k},{_csv_value(v)}" for k, v in report.items()]
        text = "\n".join(lines) + "\n"
    _write_text(text, ns.out_path)


def _emit_table(columns, rows, ns: argparse.Namespace, comments=()) -> None:
    if ns.format == "csv":
        lines = [f"# {c}" for c in comments]
        lines.append(",".join(columns))
        lines.extend(",".join(f"{v:.10g}" for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    else:
        body = {
            "figure": ns.figure,
            "columns": list(columns),
            "rows": [[_json_value(float(v)) for v in row] for row in rows],
        }
        if comments:
            body["notes"] = list(comments)
        text = json.dumps(body, indent=2) + "\n"
    _write_text(text, ns.out_path)


def _write_text(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


# =====================================================================
# Commands
# =====================================================================


def cmd_analyze(ns: argparse.Namespace) -> int:
    """Eigenvalue scalars plus sample counts for a graph or strategy input."""
    from .strategy import analysis_from_scalars, lambda2, single_copy_complexity, two_copy_analysis

    if ns.graph_path is not None:
        from .graph_strategy import omega_graph, verify_graph_optimality
        from .graphs import load_graph

        g = load_graph(ns.graph_path)
        opt = verify_graph_optimality(omega_graph(g))
        analysis = analysis_from_scalars(opt.lambda_star, opt.gamma_star, opt.xi_star, ns.epsilon)
        return _two_copy_report(analysis, ns)

    s = _load_strategy(ns.strategy_path)
    if s.copies == 1:
        lam = lambda2(s)
        counts = single_copy_complexity(lam, ns.epsilon, ns.delta)
        report = {
            "lambda2": lam,
            "exact_N": counts.exact_N,
            "approx_N": counts.approx_N,
        }
        _emit_report(report, ns)
        return EXIT_OK
    if s.copies == 2:
        try:
            analysis = two_copy_analysis(s, epsilon=ns.epsilon)
        except ValueError as exc:
            _emit_report({"hypothesis_failure": str(exc)}, ns)
            return EXIT_PRECONDITION
        return _two_copy_report(analysis, ns)
    raise ValueError(f"analysis supports 1 or 2 copies, got {s.copies}")


def _two_copy_report(analysis: TwoCopyAnalysis, ns: argparse.Namespace) -> int:
    from .strategy import two_copy_complexity

    report = {
        "lambda_star": analysis.lambda_star,
        "gamma_star": analysis.gamma_star,
        "xi_star": analysis.xi_star,
        "eps_max": analysis.eps_max,
    }
    try:
        counts = two_copy_complexity(analysis, ns.epsilon, ns.delta)
    except ValueError as exc:
        report["exact_N"] = None
        report["approx_N"] = None
        report["hypothesis_failure"] = str(exc)
        _emit_report(report, ns)
        return EXIT_PRECONDITION
    report["exact_N"] = counts.exact_N
    report["approx_N"] = counts.approx_N
    _emit_report(report, ns)
    return EXIT_OK


def _load_strategy(path: str):
    from .strategy import strategy_from_json

    size = os.path.getsize(path)
    if size > MAX_STRATEGY_BYTES:
        raise ValueError(f"strategy file {path}: {size} bytes, over the {MAX_STRATEGY_BYTES}-byte bound")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValueError(f"strategy file {path}: {exc}") from None
    try:
        return strategy_from_json(data)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"strategy file {path}: missing or malformed field ({exc})") from None


def cmd_curves(ns: argparse.Namespace) -> int:
    """Desk-scale tables for the two comparison figures."""
    import numpy as np

    from .ghz import GhzSpec, n_de_k
    from .strategy import analysis_from_scalars, single_copy_complexity, two_copy_complexity

    if ns.figure == "fig3":
        free = analysis_from_scalars(0.0, 0.0, 0.0)
        rows = []
        for eps in np.logspace(-4.0, -1.0, 30):
            rows.append(
                (
                    float(eps),
                    two_copy_complexity(free, float(eps), ns.delta).exact_N,
                    single_copy_complexity(1.0 / 3.0, float(eps), ns.delta).exact_N,
                    single_copy_complexity(0.0, float(eps), ns.delta).approx_N,
                )
            )
        _emit_table(FIG3_COLUMNS, rows, ns)
        return EXIT_OK

    if ns.theta_grid is not None:
        start, stop, steps = ns.theta_grid
        thetas = np.linspace(start, stop, steps)
    else:
        thetas = np.array([i * (math.pi / 4.0) / 51.0 for i in range(1, 51)])
    eps = FIG4_EPSILON if ns.epsilon is None else ns.epsilon
    n_glob = single_copy_complexity(0.0, eps, ns.delta).approx_N
    rows = []
    for theta in thetas:
        spec = GhzSpec(2, 2, [math.cos(theta), math.sin(theta)])
        counts = [n_de_k(spec, k, eps, ns.delta).approx_N for k in (1, 2, 3, 4)]
        rows.append((float(theta), *counts, n_glob))
    _emit_table(FIG4_COLUMNS, rows, ns, comments=(FIG4_NOTE,))
    return EXIT_OK


def cmd_simulate(ns: argparse.Namespace) -> int:
    """Sample the protocol and report the empirical pass rate."""
    from .graph_strategy import fidelity_from_passrate, omega_graph
    from .graphs import graph_state, load_graph
    from .montecarlo import TrialConfig, simulate_protocol, source_fidelity
    from .qcore import Ket, first_complement_vector

    if ns.graph_path is not None:
        subject = omega_graph(load_graph(ns.graph_path))
        target = graph_state(subject.graph)
    else:
        subject = _load_strategy(ns.strategy_path)
        target = subject.target

    if ns.epsilon is None:
        source: Ket | list = target
    else:
        perp = Ket(first_complement_vector(target), target.dims)
        source = [(1.0 - ns.epsilon, target), (ns.epsilon, perp)]
    cfg = TrialConfig(ns.trials, ns.seed, source)
    passes, p_emp, stderr = simulate_protocol(subject, cfg)
    report = {
        "p_emp": p_emp,
        "stderr": stderr,
        "passes": passes,
        "trials": ns.trials,
        "seed": ns.seed,
    }
    if ns.graph_path is not None:
        report["F_hat"] = fidelity_from_passrate(p_emp)
        report["F_true"] = source_fidelity(target, cfg)
    _emit_report(report, ns)
    return EXIT_OK


_DISPATCH = {"analyze": cmd_analyze, "curves": cmd_curves, "simulate": cmd_simulate}


def main(argv=None) -> int:
    parser = build_parser()
    ns = parser.parse_args(argv)
    try:
        _check_args(ns)
        return _DISPATCH[ns.command](ns)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
