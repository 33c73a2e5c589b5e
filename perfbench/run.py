"""atomfield benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload echo-ode --seed 1 --seconds 16 --trace 0

Run from a checkout that holds `src/atomfield`.  The run

1. times `import atomfield` in fresh interpreters (setup_s, median of 3);
2. runs one untimed golden-size config per config kind (warm-up);
3. runs the seeded batch of round(seconds / 5.3) units (`workloads.py`)
   through `atomfield.cli.main(["run", cfg, "--out", csv])`, one config at
   a time, in this process;
4. checks every output (`checks.py`), untimed.

A fixed pure-Python loop, timed after each config and in each setup
interpreter, measures how fast the shared machine runs; times are reported
scaled to the loop's reference speed (`PROBE_REF_S`).

With `--trace 0` the last stdout line reports the end-to-end metrics.  With
`--trace 1` a one-unit batch runs untraced, traced (`tracing.py`) and
untraced again; the traced CSVs must be byte-identical to the untraced ones,
and the last line reports the per-layer metrics and the tracing overhead.
The line before it is a JSON record of the environment and the run; the
full record, with every config's time, goes to `.perfbench_out/`.
"""

from __future__ import annotations

import os

# pin BLAS / OpenMP pools before numpy loads
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import inspect
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from perfbench import checks, tracing, workloads  # noqa: E402

PROCESS_START = time.perf_counter()
NOMINAL_UNIT_S = 5.3
DEADLINE_S = 120
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
# the probe loop's usual time on the reference host (2 vCPUs; see README.md)
PROBE_REF_S = 1.5e-3


def probe() -> float:
    """Seconds for a fixed pure-Python loop: how fast the machine runs now."""
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i
    return time.perf_counter() - start


# a fresh interpreter imports atomfield, then times the same probe ten times
_SETUP_CHILD = (
    "import time, atomfield\n"
    "done = time.perf_counter()\n"
    + inspect.getsource(probe)
    + "probes = [probe() for _ in range(10)]\n"
    "print(repr(done), repr(sum(probes) / len(probes)))\n"
)


def measure_setup() -> list[tuple[float, float]]:
    """(seconds from launching a fresh interpreter to `import atomfield`
    done, mean probe seconds in that interpreter) for each launch."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()  # CLOCK_MONOTONIC, shared with the child
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CHILD], env=env, cwd=ROOT,
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        imported, probe_s = (float(v) for v in done.stdout.split())
        out.append((imported - start, probe_s))
    return out


def git_commit(root: Path) -> str | None:
    """HEAD commit read from .git, or None outside a git checkout."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(args) -> dict:
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(SRC),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_config(cli, cfg_path: Path, csv_path: Path) -> tuple[float, str | None]:
    """Seconds from `cli.main` entry to the CSV on disk, and the failure if any."""
    sink = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["run", str(cfg_path), "--out", str(csv_path)])
    except SystemExit as exc:
        code = exc.code
    except Exception:  # a traceback is a failed config, not a failed benchmark
        return time.perf_counter() - start, traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"exit code {code}: {sink.getvalue().strip()[-500:]}"
    return elapsed, None


def run_batch(cli, batch, work: Path, out_name: str, probes: list | None = None):
    """Run the batch in order; returns its wall seconds (speed probes, if
    asked for, run after each config and are not counted) and per-config
    results.

    Configs not started by DEADLINE_S after the process started are skipped
    and reported as failed, so that a run always ends in time."""
    out_dir = work / out_name
    out_dir.mkdir()
    results = []
    probe_s = 0.0
    start = time.perf_counter()
    for i in range(len(batch)):
        if time.perf_counter() - PROCESS_START > DEADLINE_S:
            results.append((None, f"not run: the run passed its {DEADLINE_S} s limit"))
            continue
        results.append(run_config(cli, work / "cfg" / f"{i}.cfg", out_dir / f"{i}.csv"))
        if probes is not None:
            probes.append(probe())
            probe_s += probes[-1]
    return time.perf_counter() - start - probe_s, results


def traced_run(cli, package, batch, work: Path, first_wall: float, first) -> dict:
    """Rerun the batch traced, then untraced again; compare CSV bytes with the
    first untraced run.  The overhead is the traced wall time minus the mean
    of the two untraced ones, which cancels most of the order effect."""
    tracer = tracing.Tracer()
    with tracer.installed(package):
        traced_wall, traced = run_batch(cli, batch, work, "traced")
    again_wall, _ = run_batch(cli, batch, work, "again")
    differing = [
        i for i, ((_, fail_t), (_, fail_u)) in enumerate(zip(traced, first))
        if (fail_t is None) != (fail_u is None)
        or fail_t is None
        and (work / "traced" / f"{i}.csv").read_bytes() != (work / "out" / f"{i}.csv").read_bytes()
    ]
    metrics = tracer.layer_metrics()
    overhead = traced_wall - (first_wall + again_wall) / 2.0
    metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    return {
        "untraced_wall_s": [first_wall, again_wall],
        "traced_wall_s": traced_wall,
        "overhead_s": overhead,
        "spans": len(tracer.spans),
        "csv_byte_identical": not differing,
        "differing_configs": differing,
        "counter_errors": tracer.counter_errors,
        "layers": tracer.summary(),
        "metrics": metrics,
    }


def quantile(samples: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of the
    order statistics, steadier than a single order statistic."""
    from scipy.stats import beta

    ordered = np.sort(samples)
    n = len(ordered)
    weights = np.diff(beta.cdf(np.arange(n + 1) / n, (n + 1) * q, (n + 1) * (1.0 - q)))
    return float(weights @ ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "atomfield" / "__init__.py").is_file():
        print(f"perfbench: no atomfield sources under {SRC}", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    setup = measure_setup()
    stage_s = {"setup": time.perf_counter() - t0}
    sys.path.insert(0, str(SRC))
    import atomfield
    from atomfield import cli

    if Path(atomfield.__file__).resolve().parent != SRC / "atomfield":
        print(f"perfbench: imported atomfield from {atomfield.__file__}", file=sys.stderr)
        return 2

    env = environment(args)
    units = 1 if args.trace else max(1, round(args.seconds / NOMINAL_UNIT_S))
    batch = workloads.batch(args.workload, args.seed, units)
    out_root = ROOT / ".perfbench_out"
    work = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}-pid{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        t0 = time.perf_counter()
        (work / "cfg").mkdir(parents=True)
        for i, cfg in enumerate(batch):
            (work / "cfg" / f"{i}.cfg").write_text(cfg.text, encoding="utf-8")
        (work / "warmup").mkdir()
        for i, cfg in enumerate(workloads.warmup_configs(args.workload, args.seed)):
            (work / "warmup" / f"{i}.cfg").write_text(cfg.text, encoding="utf-8")
            run_config(cli, work / "warmup" / f"{i}.cfg", work / "warmup" / f"{i}.csv")

        stage_s["warmup"] = time.perf_counter() - t0
        probes: list[float] = []
        wall, results = run_batch(cli, batch, work, "out", probes)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        t0 = time.perf_counter()
        trace = traced_run(cli, atomfield, batch, work, wall, results) if args.trace else None
        stage_s["trace"] = time.perf_counter() - t0
        t0 = time.perf_counter()

        errors, wrong = [], []
        for i, (cfg, (_, error)) in enumerate(zip(batch, results)):
            if error:
                errors.append({"index": i, "config": cfg.values, "error": error})
                continue
            problems = checks.check(cfg, str(work / "out" / f"{i}.csv"), seed=args.seed * 100_003 + i)
            if problems:
                wrong.append({"index": i, "config": cfg.values, "problems": problems})
        stage_s["checks"] = time.perf_counter() - t0
    finally:
        shutil.rmtree(work, ignore_errors=True)

    samples = [seconds for seconds, _ in results if seconds is not None]
    speed = PROBE_REF_S / statistics.fmean(probes)
    failed = len(errors) + len(wrong)
    # correct: every CSV written passed its checks, and tracing changed no byte
    correct = not wrong and (trace is None or trace["csv_byte_identical"])
    if trace is not None:
        metrics = trace.pop("metrics")
    else:
        # the highest quantile with at least 10 samples above it (all batches
        # hold more than 20 configs; skipped configs can leave fewer samples)
        tail_q = max(0.5, (len(samples) - 10) / len(samples))
        measured = {
            "setup_s": statistics.median(t for t, _ in setup),
            "wall_s": wall,
            "scenario_s.p50": quantile(samples, 0.5),
            "scenario_s.tail": quantile(samples, tail_q),
        }
        # times are reported at the reference machine speed; see README.md
        setup_s = statistics.median(t * PROBE_REF_S / p for t, p in setup)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
        metrics.update(
            (name, {"value": measured[name] * speed, "unit": "s"})
            for name in ("wall_s", "scenario_s.p50", "scenario_s.tail")
        )
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    detail = {
        "environment": env,
        "units": units,
        "configs": len(batch),
        "setup_s_samples": setup,
        "probe_s": probes,
        "speed_factor": speed,
        "measured_s": None if args.trace else measured,
        "stage_s": dict(stage_s, batch=wall),
        "scenario_s_tail_percentile": None if args.trace else 100.0 * tail_q,
        "peak_rss_mb": peak_rss_mb,
        "failed_ratio": failed / len(batch),
        "errors": errors,
        "wrong_outputs": wrong,
        "trace": trace,
        "config_s": [[cfg.values, seconds] for cfg, (seconds, _) in zip(batch, results)],
    }
    out_root.mkdir(exist_ok=True)
    record = out_root / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=1) + "\n")
    shown = dict(
        detail, errors=errors[:3], wrong_outputs=wrong[:3], config_s=len(results), probe_s=len(probes)
    )
    if trace is not None:
        shown["trace"] = {k: v for k, v in trace.items() if k != "layers"}
    print(json.dumps(shown, separators=(",", ":")))
    print(json.dumps({
        "correct": correct,
        "attempted": len(batch),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
