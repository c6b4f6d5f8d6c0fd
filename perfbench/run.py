"""Sweep benchmark for gausslink: per-point time, CPU, RSS and set-up time.

Usage (from the repository root):

    python3 perfbench/run.py --workload gain_map --seed 1 --seconds 35 --trace 0

A run starts set-up probes (fresh interpreters that import gausslink and parse
the workload's first config), then one measuring process (``child.py``), then
more set-up probes.  The measuring process sweeps the workload's configs in
passes, closed loop, one row of a grid after another, for about ``--seconds``
in all; each pass writes the same files one ``run_sweep`` call per config
would, and every file of every pass is checked against the sha256 recorded in
``golden.json``.

Each row sweep (and each parse and heatmap) is a step, and before each step
the measuring process times a fixed reference loop outside gausslink.  Other
tenants of a shared host slow this process by up to a quarter for minutes at a
time, and the loop slows with it, so the run reports each step's time scaled
by REF_S over the loop's time just before it: the time the step would take on
a host that runs the loop in REF_S.  It takes each step's median over the
run's passes, sums over the steps and divides by the grid points.  The times
as measured, unscaled, are in the detail record and among the per-layer
metrics.

With ``--trace 0`` the last stdout line holds the end-to-end metrics listed in
``BENCHMARK.json``; with ``--trace 1`` passes alternate between traced and
untraced, and it holds the per-layer metrics, computed from the spans the
traced passes write under ``perfbench/_results/spans``.  The full record, with
the run environment, goes to ``perfbench/_results``.  A failed or mismatching
pass makes the exit code 1.

The seed shuffles the order of the configs within a pass of a multi-config
workload; it changes no config, so the recorded hashes hold at every seed.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from layers import per_layer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# configs swept in one pass, relative to the root
WORKLOADS = {
    "gain_map": ("configs/fig2b_capacity_map.ini",),
    "homodyne_rate": ("configs/fig5b_homodyne_rate.ini",),
    "closed_form_maps": (
        "configs/fig1a_dqt_boundary.ini",
        "perfbench/configs/fig2d_eof_map.ini",
        "perfbench/configs/fig4a_mm_eof.ini",
    ),
}

SETUP_PROBES = 5  # before the measuring process, and as many after it
MIN_PASSES = 2  # a traced and an untraced one with --trace 1
# the host speed the scaled times are given at: one child.reference_loop
# takes 1.0-1.6 ms on the machine in notes.json, whose other tenants make this
# process's time per step drift by up to +-25% over minutes
REF_S = 1e-3
# every run, even one with a hung child, ends within three minutes
RUN_LIMIT_S = 170.0


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_outputs(out_dir: Path, expected: dict) -> list:
    """Problems with the files in out_dir against {file name: sha256}."""
    written = {p.name: p for p in out_dir.iterdir()} if out_dir.is_dir() else {}
    problems = []
    for name, digest in sorted(expected.items()):
        if name not in written:
            problems.append(f"{name}: missing")
        elif sha256(written[name]) != digest:
            problems.append(f"{name}: sha256 mismatch")
    problems.extend(f"{name}: unexpected file" for name in sorted(set(written) - set(expected)))
    return problems


def missing_files(workload: str) -> list:
    """Files of the checkout the workload needs but cannot find."""
    needed = [SRC / "gausslink" / "__init__.py", ROOT / "BENCHMARK.json"]
    needed += [ROOT / c for c in WORKLOADS[workload]]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def spawn(job: dict, timeout: float) -> tuple:
    """Run one child; returns (start time, report or None, error or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "child.py"), json.dumps(job)],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException as exc:
        # the session holds the child and anything it started
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            return start, None, f"timed out after {timeout:.0f} s"
        raise
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [""]
        return start, None, f"exit {proc.returncode}: {tail[0]}"
    return start, json.loads(out.strip().splitlines()[-1]), None


def environment() -> dict:
    sys.path.insert(0, str(SRC))
    import gausslink
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            found = re.search(r"^model name\s*:\s*(.+)$", fh.read(), re.M)
        cpu = found.group(1).strip() if found else cpu
    except OSError:
        pass
    source = hashlib.sha256()
    for path in sorted((SRC / "gausslink").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "gausslink": gausslink.__version__,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": git_commit(),
        "source_sha256": source.hexdigest(),
    }


def git_commit():
    """HEAD of the checkout, or None when it is not itself a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def ms_per_point(passes: list, key: str, points: int) -> float:
    """Per-step medians over the passes, summed, in ms per grid point."""
    steps = zip(*(p[key] for p in passes))
    return 1e3 * sum(statistics.median(times) for times in steps) / points


def ms_per_point_at_ref_speed(passes: list, kind: str, points: int) -> float:
    """As `ms_per_point`, with each step's `kind` ("wall" or "cpu") seconds
    first scaled by REF_S over those of the reference loop run just before
    it: the time the step would take on a host that runs the loop in REF_S."""
    scaled = [
        {"s": [REF_S * t / r for t, r in zip(p[f"{kind}_s"], p[f"ref_{kind}_s"])]}
        for p in passes
    ]
    return ms_per_point(scaled, "s", points)


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    configs = [str(ROOT / c) for c in WORKLOADS[workload]]
    random.Random(seed).shuffle(configs)
    expected = json.loads((BENCH / "golden.json").read_text())[workload]
    span_dir = BENCH / "_results" / "spans" / workload
    if trace:
        shutil.rmtree(span_dir, ignore_errors=True)
        span_dir.mkdir(parents=True)

    run_start = time.perf_counter()

    def remaining():
        return max(RUN_LIMIT_S - (time.perf_counter() - run_start), 1.0)

    setups = []

    def probe_setup():
        job = {"configs": configs[:1], "setup_only": True}
        start, report, error = spawn(job, remaining())
        if error:
            raise RuntimeError(f"set-up probe failed: {error}")
        setups.append(report["ready"] - start)

    for _ in range(SETUP_PROBES):
        probe_setup()
    # leave the probes after the measuring process their share of --seconds
    used = time.perf_counter() - run_start
    job = {
        "configs": configs,
        "work": str(work),
        "seconds": max(seconds - 2 * used, 0.0),
        "min_passes": MIN_PASSES,
        "trace": trace,
        "span_dir": str(span_dir),
    }
    _, report, error = spawn(job, remaining())
    for _ in range(SETUP_PROBES):
        probe_setup()
    if error:
        return {"passes": [], "setups_s": setups, "attempted": 1, "failed": 1,
                "problems": [error], "metrics": {}}

    passes = report["passes"]
    for p in passes:
        out = Path(p.pop("out"))
        p["problems"] = check_outputs(out, expected)
        p["svg_bytes"] = sum(f.stat().st_size for f in out.glob("*.svg"))
    failed = sum(bool(p["problems"]) for p in passes)
    points = report["points"]
    plain = [p for p in passes if not p["traced"]]
    metrics = {}
    if not failed and trace:
        traced = [p for p in passes if p["traced"]]
        metrics = per_layer(
            sorted(span_dir.glob("pass*.npz")),
            len(traced),
            statistics.mean(p["svg_bytes"] for p in traced),
        )
        metrics["trace.overhead_ms_per_point"] = ms_per_point_at_ref_speed(
            traced, "wall", points
        ) - ms_per_point_at_ref_speed(plain, "wall", points)
        metrics["raw.ms_per_point"] = ms_per_point(plain, "wall_s", points)
        metrics["raw.cpu_ms_per_point"] = ms_per_point(plain, "cpu_s", points)
        metrics["host.ref_ms"] = 1e3 * statistics.median(
            r for p in plain for r in p["ref_wall_s"]
        )
    elif not failed:
        metrics = {
            "ms_per_point_at_ref_speed": ms_per_point_at_ref_speed(plain, "wall", points),
            "cpu_ms_per_point_at_ref_speed": ms_per_point_at_ref_speed(plain, "cpu", points),
            "peak_rss_mb": report["rss_kb"] / 1024.0,
            "setup_s": statistics.median(setups),
        }
    return {
        "steps": report["steps"],
        "points": points,
        "passes": passes,
        "setups_s": setups,
        "attempted": len(passes),
        "failed": failed,
        "problems": [q for p in passes for q in p["problems"]],
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # on SIGTERM, unwind: stop the running child and remove the work directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    missing = missing_files(args.workload)
    if missing:
        print(f"perfbench: not a gausslink checkout, missing: {', '.join(missing)}", file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    work = BENCH / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {}
    if not run["failed"]:
        # a traced function that never ran has no spans: 0 calls, 0 s
        values = run["metrics"]
        metrics = {
            m["name"]: {"value": values.get(m["name"], 0.0) if args.trace else values[m["name"]],
                        "unit": m["unit"]}
            for m in listed
        }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        **run,
    }
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    detail = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps(record, indent=1) + "\n")
    for problem in run["problems"]:
        print(f"perfbench: pass failed: {problem}", file=sys.stderr)
    print(json.dumps({"environment": record["environment"], "detail": str(detail.relative_to(ROOT))}))
    print(
        json.dumps(
            {
                "correct": not run["failed"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": metrics,
            }
        )
    )
    return 1 if run["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
