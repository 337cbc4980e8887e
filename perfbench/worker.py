"""The measured part of one benchmark run, in a fresh process.

``run.py`` starts this script once per run, so that imports, caches and
peak RSS never carry over from an earlier run. It builds the workload from
its seed, then:

- untraced (``--trace 0``): alternates passes over the in-process
  operations, for the workload's share of ``--seconds``, with rounds of
  ``python -m qsvkit.cli`` subprocesses for the rest, and reads its own peak
  RSS. launcher.py starts the subprocesses so each reports its own peak RSS;
- traced (``--trace 1``): alternates an untraced pass with a traced pass
  that also calls ``qsvkit.cli.main(argv)`` in-process for every command
  line, and reduces each traced pass to per-layer metrics.

Every output is checked outside the timed region. The record goes to
``--out`` as JSON; nothing is printed to stdout.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_pass(ops, tally, times: dict[str, list[float]], tracer=None) -> float:
    """Run every operation once; returns the summed operation time."""
    total = 0.0
    for op in ops:
        start = time.perf_counter()
        try:
            out = op.run()
        except Exception as exc:  # one failing operation must not end the run
            tally.record(op.name, [f"raised {type(exc).__name__}: {exc}"])
            continue
        elapsed = time.perf_counter() - start
        times[op.name].append(elapsed)
        total += elapsed
        with tracer.paused() if tracer else contextlib.nullcontext():
            tally.check(op.name, out, op.check)
    return total


class Launcher:
    """Client of launcher.py, which starts and reaps the CLI subprocesses."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).with_name("launcher.py"))],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], root: Path, scratch: Path):
        from workloads import CliResult

        out_path, err_path = scratch / "cli.stdout", scratch / "cli.stderr"
        request = {"argv": argv, "cwd": str(root), "stdout": str(out_path), "stderr": str(err_path)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return CliResult(
            reply["code"],
            out_path.read_text(encoding="utf-8", errors="replace"),
            err_path.read_text(encoding="utf-8", errors="replace"),
            reply["wall_s"],
            reply["maxrss_kb"],
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait()


def run_inprocess(argv: list[str]):
    """Call ``qsvkit.cli.main(argv)`` with stdout and stderr captured."""
    import qsvkit.cli
    from workloads import CliResult

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = qsvkit.cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code, out.getvalue(), err.getvalue(), time.perf_counter() - start)


def untraced(wl, seconds: float, min_rounds: int, tally, launcher: Launcher, root: Path,
             scratch: Path) -> dict:
    """Alternate operation passes and command-line rounds until both budgets are spent.

    Alternating spreads the samples of both kinds over the whole run, so a
    slow phase of the machine weighs the same on each.
    """
    op_times: dict[str, list[float]] = {op.name: [] for op in wl.ops}
    cli_runs: dict[str, list[list[float]]] = {case.name: [] for case in wl.cli}
    pass_times: list[float] = []
    budgets = {"pass": seconds * wl.inproc_share, "round": seconds * (1.0 - wl.inproc_share)}
    spent: dict[str, list[float]] = {"pass": [], "round": []}

    def wanted(kind: str) -> bool:
        done = spent[kind]
        return len(done) < min_rounds or sum(done) + statistics.median(done) <= budgets[kind]

    while wanted("pass") or wanted("round"):
        if wanted("pass"):
            began = time.perf_counter()
            pass_times.append(run_pass(wl.ops, tally, op_times))
            spent["pass"].append(time.perf_counter() - began)
        if wanted("round"):
            began = time.perf_counter()
            for case in wl.cli:
                res = launcher.run(case.argv, root, scratch)
                cli_runs[case.name].append([res.wall_s, res.maxrss_kb])
                tally.check(case.name, res, case.check)
            spent["round"].append(time.perf_counter() - began)
    return {
        "op_times": op_times,
        "pass_times": pass_times,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "cli_runs": cli_runs,
    }


def traced(wl, seconds: float, tally) -> dict:
    import tracer as tracing

    tr = tracing.Tracer()
    op_times: dict[str, list[float]] = {op.name: [] for op in wl.ops}
    plain, with_spans, per_pass, rounds = [], [], [], []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start + statistics.median(rounds) <= seconds:
        began = time.perf_counter()
        plain.append(run_pass(wl.ops, tally, op_times))
        with tr.installed():
            with_spans.append(run_pass(wl.ops, tally, op_times, tr))
            for case in wl.cli:
                tr.expect_errors = case.bad_input
                res = run_inprocess(case.argv)
                tr.expect_errors = False
                with tr.paused():
                    tally.check(case.name, res, case.check)
        spans, errors = tr.take()
        per_pass.append((tracing.layer_metrics(spans, errors), tracing.span_table(spans, errors)))
        rounds.append(time.perf_counter() - began)
    layer = {key: statistics.median_low(m[key] for m, _ in per_pass) for key in per_pass[0][0]}
    layer["trace.overhead_s"] = statistics.median(with_spans) - statistics.median(plain)
    return {"layer": layer, "spans": per_pass[-1][1], "traced_passes": len(per_pass)}


def machine_record(root: Path) -> dict:
    """Hardware, BLAS and versions, so that results from two machines are not mixed."""
    import importlib.metadata

    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu_model = platform.processor()
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu_model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                         cpu_model)
    thread_vars = {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                              "MKL_NUM_THREADS") if k in os.environ}
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (root / ".git").exists():
        git = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        commit = git.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "blas_threads": thread_vars or f"library default ({os.cpu_count()} cores)",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "platform": platform.platform(),
        "git_commit": commit,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--dir", required=True, help="scratch directory for inputs and outputs")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    root = Path(args.root).resolve()
    # Started before numpy and qsvkit are imported; see launcher.py.
    launcher = None if args.trace else Launcher()
    sys.path.insert(0, str(root / "src"))
    import qsvkit
    import qsvkit.cli  # noqa: F401

    if Path(qsvkit.__file__).resolve().parent != root / "src" / "qsvkit":
        raise SystemExit(f"qsvkit was imported from {qsvkit.__file__}, not from {root / 'src'}")
    import workloads

    scratch = Path(args.dir)
    wl = workloads.build(args.workload, args.seed, args.size, scratch / "inputs", root)
    tally = workloads.Tally()
    min_rounds = 1 if args.size == "smoke" else 2
    if launcher is None:
        record = traced(wl, args.seconds, tally)
    else:
        try:
            record = untraced(wl, args.seconds, min_rounds, tally, launcher, root, scratch)
        finally:
            launcher.close()
    record.update(
        attempted=tally.attempted,
        failed=tally.failed,
        problems=tally.messages,
        machine=machine_record(root),
    )
    Path(args.out).write_text(json.dumps(record), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
