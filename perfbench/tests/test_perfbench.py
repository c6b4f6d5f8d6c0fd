"""Self-tests of the sweep benchmark.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gausslink.heatmap  # noqa: E402
import gausslink.sweeps  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

# small grids that between them call every function the per-layer metrics
# name; the tau axis has an even point count, which keeps tau = 0.5 off it
SMALL_CONFIGS = {
    "gain.ini": """[sweep]
experiment = fig2bc_capacity_maps
output = gain.csv
emit_svg = true
[axis C_om]
min = 0.1
max = 10
points = 5
scale = log
[axis C_em]
min = 0.1
max = 10
points = 4
scale = log
""",
    "rate.ini": """[sweep]
experiment = fig5b_homodyne_rate
output = rate.csv
emit_svg = true
[axis C_om]
min = 0.1
max = 10
points = 3
scale = log
[axis tau]
min = 0.0
max = 1.0
points = 4
""",
    "closed.ini": """[sweep]
experiment = fig1a_dqt_boundary
output = closed.csv
emit_svg = true
[axis C_om]
min = 0.1
max = 10
points = 3
scale = log
[axis C_em]
min = 0.1
max = 10
points = 3
scale = log
""",
    "swapped.ini": """[sweep]
experiment = fig4a_mm_eof
output = swapped.csv
[axis C_om]
min = 0.1
max = 10
points = 3
scale = log
[axis C_em]
min = 0.1
max = 10
points = 3
scale = log
""",
}
POINTS = 5 * 4 + 3 * 4 + 3 * 3 + 3 * 3


@pytest.fixture
def configs(tmp_path):
    paths = []
    for name, text in SMALL_CONFIGS.items():
        path = tmp_path / name
        path.write_text(text)
        paths.append(str(path))
    return paths


def _whole_sweeps(configs, out):
    """The files `gausslink sweep` writes: one run_sweep call per config."""
    for path in configs:
        config = gausslink.sweeps.parse_config(path)
        result = gausslink.sweeps.run_sweep(config, out_dir=out)
        if config.emit_svg:
            gausslink.heatmap.emit_heatmap(
                result.path, config.svg_metric, result.path.with_suffix(".svg")
            )


def _files(out: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def test_row_sweeps_traced_or_not_write_the_whole_sweep_bytes(configs, tmp_path):
    job = {"configs": configs, "work": str(tmp_path / "work"), "seconds": 0,
           "min_passes": 2, "trace": True, "span_dir": str(tmp_path / "spans")}
    (tmp_path / "spans").mkdir()
    _, report, error = run.spawn(job, timeout=120)
    assert error is None
    traced, plain = report["passes"]
    assert traced["traced"] and not plain["traced"]
    assert report["points"] == POINTS
    # a parse and a heatmap step per config with an SVG, a row step per row
    assert len(report["steps"]) == len(traced["wall_s"]) == 4 + 3 + 5 + 3 + 3 + 3
    _whole_sweeps(configs, tmp_path / "whole")
    written = _files(tmp_path / "whole")
    assert written == _files(Path(traced["out"])) == _files(Path(plain["out"]))
    assert sorted(written) == [
        "closed.csv", "closed.svg", "gain.csv", "gain.svg", "rate.csv", "rate.svg", "swapped.csv"
    ]

    metrics = layers.per_layer(sorted((tmp_path / "spans").glob("*.npz")), 1, 0.0)
    assert metrics["sweeps.points.attempted"] == POINTS
    assert metrics["sweeps.points.stable"] + metrics["sweeps.points.unstable"] == POINTS
    gain_rows = written["gain.csv"].decode().splitlines()[1:]
    stable = sum(row.split(",")[2] == "1" for row in gain_rows)
    assert metrics["teleport.optimize_gain.calls"] == stable
    assert metrics["entanglement.entanglement_rate.calls"] == 12
    assert metrics["capacity.integrate_spectrum.nodes_max"] == 513
    assert metrics["capacity.integrate_spectrum.capped"] == 0
    assert sum(metrics[f"{m}.share"] for m in layers.LAYERS) == pytest.approx(1.0)

    # every per-layer metric the benchmark lists is computed, bar those run.py
    # adds from the passes' times
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from_times = {
        "trace.overhead_ms_per_point", "raw.ms_per_point", "raw.cpu_ms_per_point", "host.ref_ms"
    }
    listed = {m["name"] for m in spec["per_layer"]} - from_times
    assert listed <= set(metrics)


def test_ms_per_point_takes_the_median_of_each_step():
    passes = [{"wall_s": [1.0, 9.0]}, {"wall_s": [5.0, 2.0]}, {"wall_s": [2.0, 3.0]}]
    assert run.ms_per_point(passes, "wall_s", points=1000) == pytest.approx(2.0 + 3.0)
    # a pass on a host at half speed: steps and reference loop take twice as long
    for p, slow in zip(passes, (1, 2, 1)):
        p["ref_wall_s"] = [slow * run.REF_S] * 2
        p["wall_s"] = [slow * t for t in p["wall_s"]]
    assert run.ms_per_point_at_ref_speed(passes, "wall", points=1000) == pytest.approx(5.0)


def _bindings() -> dict:
    found = {}
    for name, mod in sys.modules.items():
        if name == "gausslink" or name.startswith("gausslink."):
            for attr, value in vars(mod).items():
                found[(name, attr)] = value
    for key, spec in gausslink.sweeps.EXPERIMENTS.items():
        found[("EXPERIMENTS", key)] = spec
    return found


def test_every_wrapped_binding_is_restored():
    before = _bindings()
    original = gausslink.transducer.stability_check
    tracer = Tracer()
    tracer.install()
    try:
        wrapped = gausslink.sweeps.stability_check
        assert wrapped is not original and wrapped.__wrapped__ is original
        assert gausslink.transducer.stability_check is wrapped
        assert gausslink.stability_check is wrapped
        assert gausslink.sweeps.EXPERIMENTS["fig1a_dqt_boundary"] is not (
            before[("EXPERIMENTS", "fig1a_dqt_boundary")]
        )
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys(), after.keys() ^ before.keys()
    assert all(after[key] is before[key] for key in before)


def test_hash_check_catches_a_perturbed_csv(tmp_path):
    csv = tmp_path / "grid.csv"
    csv.write_text("C_om,stable,e_r\n0.1,1,0.25\n")
    expected = {"grid.csv": run.sha256(csv)}
    assert run.check_outputs(tmp_path, expected) == []

    csv.write_text("C_om,stable,e_r\n0.1,1,0.26\n")
    assert run.check_outputs(tmp_path, expected) == ["grid.csv: sha256 mismatch"]
    (tmp_path / "extra.svg").write_text("<svg/>")
    csv.unlink()
    assert run.check_outputs(tmp_path, expected) == [
        "grid.csv: missing",
        "extra.svg: unexpected file",
    ]


def test_refuses_a_directory_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_*"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gain_map", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
