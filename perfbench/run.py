"""qsvkit benchmark: one run of one workload, every metric printed by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a qsvkit checkout; the program is taken from the
checkout's ``src/``. With ``--trace 0`` the run measures the end-to-end
metrics (see END_TO_END); with ``--trace 1`` it measures the per-layer
metrics of ``tracer.metric_units``. The last line of stdout is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the line before it is a detail record with the machine description, sample
counts and tail percentiles, per-operation medians and any failed checks.
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graph-certify", "small-exhaustive", "sample")

END_TO_END = {
    "wall_s": "s",
    "cli_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cli_peak_rss_mb": "MB",
    "ok_frac": "ratio",
}
SETUP_SAMPLES = 5
IMPORT_SAMPLES = 5
WORKER_TIMEOUT_S = 150.0
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REQUIRED_FILES = ("src/qsvkit/cli.py", "tests/golden/fig3.csv", "tests/golden/fig4.csv")


def python(args: list[str], env: dict, stderr=subprocess.DEVNULL) -> tuple[float, subprocess.CompletedProcess]:
    """Run the interpreter from the checkout root; returns (wall seconds, result)."""
    start = time.perf_counter()
    done = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                          stderr=stderr, timeout=60, check=False)
    wall = time.perf_counter() - start
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(args)} exited with {done.returncode}")
    return wall, done


def scipy_import_s(stderr_text: str) -> float:
    """Cumulative import time of scipy's outermost modules, from -X importtime."""
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    total_us = 0
    ancestors: list[tuple[int, str]] = []
    # The report lists a module after everything it imports, so reversed it
    # lists each parent before its children.
    for depth, name, cumulative in reversed(rows):
        while ancestors and ancestors[-1][0] >= depth:
            ancestors.pop()
        if name.split(".")[0] == "scipy" and not any(a.split(".")[0] == "scipy" for _, a in ancestors):
            total_us += cumulative
        ancestors.append((depth, name))
    return total_us / 1e6


def import_metrics(env: dict) -> dict[str, float]:
    bare, full, scipy_share = [], [], []
    for _ in range(IMPORT_SAMPLES):
        bare.append(python(["-c", "pass"], env)[0])
        full.append(python(["-c", "import qsvkit.cli"], env)[0])
        _, done = python(["-X", "importtime", "-c", "import qsvkit.cli"], env, stderr=subprocess.PIPE)
        scipy_share.append(scipy_import_s(done.stderr.decode("utf-8", "replace")))
    return {
        "cli.import_s": statistics.median(full) - statistics.median(bare),
        "cli.import_scipy_s": statistics.median(scipy_share),
    }


def summary(samples: list[float]) -> dict:
    """Median, sample count, and the highest percentile with 10 samples beyond it."""
    out: dict = {"n": len(samples), "median": statistics.median(samples)}
    for permille in (999, 990, 950, 900, 750, 500):
        if len(samples) * (1000 - permille) >= 10 * 1000:
            out[f"p{permille / 10:g}"] = statistics.quantiles(samples, n=1000)[permille - 1]
            break
    return out


def src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines())
               for p in sorted((ROOT / "src").rglob("*.py")))


def tier1_seconds(env: dict) -> dict:
    """One timing of the repository's tier-1 test suite (opt-in, not gated)."""
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, check=False,
    )
    tail = done.stdout.decode("utf-8", "replace").strip().splitlines()[-1:]
    return {"wall_s": time.perf_counter() - start, "exit_code": done.returncode, "summary": tail}


def run_worker(args, env: dict, work: Path) -> dict:
    out = work / "worker.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT),
           "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--dir", str(work), "--out", str(out)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                            start_new_session=True)
    try:
        proc.wait(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise RuntimeError(f"worker did not finish within {WORKER_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(out.read_text(encoding="utf-8"))


def end_to_end(record: dict, setup: list[float]) -> tuple[dict, dict]:
    """End-to-end metric values and the sample summaries behind the timings."""
    op_medians = {name: statistics.median(t) for name, t in record["op_times"].items() if t}
    cli_walls = {name: [w for w, _ in runs] for name, runs in record["cli_runs"].items()}
    cli_medians = {name: statistics.median(w) for name, w in cli_walls.items() if w}
    values = {
        # Sum of per-operation medians: the time of one pass, robust to a
        # slow call. The work per pass is fixed, so this is 1/throughput.
        "wall_s": sum(op_medians.values()),
        # Mean over the command lines of each one's median, so the mix of
        # commands does not depend on how many rounds fitted in the run.
        "cli_s": statistics.fmean(cli_medians.values()),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": record["maxrss_kb"] / 1024.0,
        "cli_peak_rss_mb": max(kb for runs in record["cli_runs"].values() for _, kb in runs) / 1024.0,
        "ok_frac": 1.0 - record["failed"] / record["attempted"],
    }
    detail = {
        "samples": {
            "wall_s (per pass)": summary(record["pass_times"]),
            "cli_s (per invocation)": summary([w for ws in cli_walls.values() for w in ws]),
            "setup_s": summary(setup),
        },
        "op_median_s": op_medians,
        "cli_median_s": cli_medians,
    }
    return values, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="qsvkit benchmark: one run of one workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measured time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, one round, for the self-tests")
    parser.add_argument("--tier1", action="store_true",
                        help="also time the tier-1 test suite once (not gated)")
    args = parser.parse_args(argv)

    missing = [rel for rel in REQUIRED_FILES if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: {ROOT} is not a qsvkit checkout: {missing[0]} is missing", file=sys.stderr)
        return 2

    # One BLAS thread: on a small shared machine a multi-threaded product
    # stalls whenever any one core is contended, which widens the
    # call-to-call spread by half or more. The machine record shows it.
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **BLAS_THREADS)
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=HERE / ".work"))
    try:
        # Warm the file cache (and any bytecode cache) before timing imports.
        python(["-c", "import qsvkit.cli"], env)
        if args.trace:
            imports = import_metrics(env)
        else:
            setup = [
                python([str(HERE / "fixtures.py"), "--root", str(ROOT), "--workload", args.workload,
                        "--seed", str(args.seed), "--size", args.size, "--out", str(work / f"setup-{i}")],
                       env)[0]
                for i in range(1 if args.size == "smoke" else SETUP_SAMPLES)
            ]
        record = run_worker(args, env, work)
        info = {"src_lines": src_lines()}
        if args.tier1:
            info["tier1"] = tier1_seconds(env)
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        import tracer

        values = {**record["layer"], **imports}
        units = tracer.metric_units()
        detail = {"spans": record["spans"], "traced_passes": record["traced_passes"]}
    else:
        values, detail = end_to_end(record, setup)
        units = END_TO_END
    detail.update(
        workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
        size=args.size, machine=record["machine"], info=info, problems=record["problems"],
    )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    for message in record["problems"]:
        print(f"check failed: {message}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
