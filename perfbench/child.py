"""The measuring process of one benchmark run.

Usage: python3 child.py '<json job>'

The job names the configs of a workload, a work directory, how long to
measure, and whether to trace.  The child goes through the library's public
entry points as ``gausslink sweep`` does: ``sweeps.parse_config``,
``sweeps.run_sweep`` and, when the config asks for it,
``heatmap.emit_heatmap``.

It sweeps the workload in passes.  A pass parses each config and sweeps its
grid one row at a time, one ``run_sweep`` call per value of the first axis,
with the second axis whole; this gives each run many short timed steps, so
that the run's figures can be medians per step over the passes.  The child
joins the row files of each config into the file one ``run_sweep`` call over
the whole grid writes (untimed), and then timed, renders the heatmap from it.
Every pass leaves its joined files in ``<work>/pass<k>/out`` for the hash
check.  Passes run until the next one would end past the job's ``seconds``,
and at least ``min_passes`` of them run.  With ``trace`` the even passes run
under a `tracer.Tracer` and save their spans to ``<span_dir>/pass<k>.npz``.

Before each step it runs `reference_loop`, a fixed piece of work outside
gausslink, and times it too, so that each step's time can be read against the
speed the host gave this process at that moment.

It prints one JSON line: the step names, and for each pass the wall and CPU
seconds of each step and of the reference loop before it, and whether the
pass was traced; the grid points of a pass; and
the peak RSS of the process.  With ``setup_only`` it stops after parsing the
first config and prints when it got there.
"""

import dataclasses
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np


def row_configs(config) -> list:
    """One config per value of the first axis, with the other axis whole."""
    from gausslink.sweeps import Axis

    if len(config.axes) == 1:
        return [config]
    first, rest = config.axes[0], config.axes[1:]
    stem = Path(config.output).stem
    return [
        dataclasses.replace(
            config,
            axes=(Axis(first.name, float(v), float(v), 1, first.scale),) + rest,
            output=f"{stem}.row{i:04d}.csv",
            emit_svg=False,
        )
        for i, v in enumerate(first.values())
    ]


def join_rows(paths: list, target: Path):
    """Write the header once, then the data lines of every row file in order."""
    with open(target, "w", encoding="utf-8", newline="") as out:
        for i, path in enumerate(paths):
            lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
            out.writelines(lines if i == 0 else lines[1:])


# a fixed mix of interpreter work and small dense linear algebra, like that
# of a grid point, but none of it gausslink's: its time tracks how fast the
# host runs this process at the moment, and no change to gausslink moves it
_REF_MATRIX = np.array(
    [[2.0, 0.3, 0.1, 0.0], [0.3, 2.0, 0.0, 0.1], [0.1, 0.0, 2.0, 0.3], [0.0, 0.1, 0.3, 2.0]]
)
REF_ITERATIONS = 100


def reference_loop() -> float:
    acc = 0.0
    for i in range(REF_ITERATIONS):
        m = _REF_MATRIX @ _REF_MATRIX + i * 1e-9
        acc += float(np.linalg.eigvalsh(m)[0]) + math.sqrt(i + 1.0)
        acc += {"i": i, "acc": acc}["i"] * 1e-12
    return acc


def timed_call(fn, *args, **kwargs) -> tuple:
    """(result, wall s, CPU s)."""
    c0, t0 = time.process_time(), time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0, time.process_time() - c0


def sweep_pass(paths: list, work: Path, timed: list):
    """Sweep every config once, appending to `timed`, per step, its name, wall
    and CPU seconds, and the wall and CPU seconds of the reference loop run
    just before it."""
    from gausslink import heatmap, sweeps

    rows_dir, out_dir = work / "rows", work / "out"
    out_dir.mkdir(parents=True)

    def step(name, fn, *args, **kwargs):
        _, ref_wall, ref_cpu = timed_call(reference_loop)
        result, wall, cpu = timed_call(fn, *args, **kwargs)
        timed.append((name, wall, cpu, ref_wall, ref_cpu))
        return result

    for path in paths:
        tag = Path(path).stem
        config = step(f"{tag}:parse", sweeps.parse_config, path)
        written = [
            step(f"{tag}:row{i}", sweeps.run_sweep, row, out_dir=rows_dir).path
            for i, row in enumerate(row_configs(config))
        ]
        full = out_dir / config.output
        join_rows(written, full)
        if config.emit_svg:
            step(f"{tag}:svg", heatmap.emit_heatmap, full, config.svg_metric,
                 full.with_suffix(".svg"))


def run(job: dict) -> dict:
    from gausslink import sweeps

    if job.get("setup_only"):
        sweeps.parse_config(job["configs"][0])
        return {"ready": time.perf_counter()}

    work = Path(job["work"])
    start = time.perf_counter()
    steps, passes, lengths = None, [], []
    while len(passes) < job.get("min_passes", 1) or (
        time.perf_counter() - start + statistics.median(lengths) <= job["seconds"]
    ):
        k = len(passes)
        traced = bool(job.get("trace")) and k % 2 == 0
        tracer = None
        if traced:
            from tracer import Tracer

            tracer = Tracer(sweep_id=k)
            tracer.install()
        timed = []
        t0 = time.perf_counter()
        try:
            sweep_pass(job["configs"], work / f"pass{k}", timed)
        finally:
            if tracer is not None:
                tracer.restore()
        lengths.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.save(Path(job["span_dir"]) / f"pass{k}.npz")
        names = [t[0] for t in timed]
        if steps is None:
            steps = names
        elif names != steps:
            raise RuntimeError(f"pass {k} ran other steps than pass 0")
        passes.append({
            "traced": traced,
            "wall_s": [t[1] for t in timed],
            "cpu_s": [t[2] for t in timed],
            "ref_wall_s": [t[3] for t in timed],
            "ref_cpu_s": [t[4] for t in timed],
            "out": str(work / f"pass{k}" / "out"),
        })
    points = sum(
        math.prod(a.points for a in sweeps.parse_config(p).axes) for p in job["configs"]
    )
    return {
        "steps": steps,
        "passes": passes,
        "points": points,
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }


if __name__ == "__main__":
    print(json.dumps(run(json.loads(sys.argv[1]))))
