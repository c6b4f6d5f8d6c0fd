"""One property over whole configs: whatever a config holds, `gausslink sweep`
exits 0, 2 or 3 with a message that says where, and never with a traceback or
a RuntimeWarning; and a sweep that exits 0 writes the same bytes however its
grid is cut into blocks and spread over workers."""

import contextlib
import csv
import io
import re
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest
from gausslink import sweeps
from gausslink.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, main
from gausslink.sweeps import AXIS_NAMES, EXPERIMENTS, FIXED_DEFAULTS

# the limits of a double and of the parameters, and ordinary values between,
# which are drawn twice as often
LIMITS = [0.0, 5e-324, 1e-320, 1e-300, 1e-12, 0.5, 1.0, 2.0, 1e12, 1e300, 1e308, 1.7976931348623157e308]
NUMBERS = st.one_of(
    st.sampled_from(LIMITS), st.floats(0.0, 12.0), st.floats(0.0, 12.0), st.floats(1e-320, 1e308)
).map(repr)
# fig5b's deep lanes near the stability threshold C_om = 1 + C_em take seconds
# each: C_om stays at most 0.9 <= 0.9 (1 + C_em) there
FIG5B_C_OM = st.one_of(st.sampled_from([0.0, 5e-324, 1e-320, 0.1, 0.9]), st.floats(0.0, 0.9)).map(repr)
ZETAS = st.one_of(st.sampled_from([5e-324, 1e-300, 0.5, 1.0]), st.floats(0.0, 1.0, exclude_min=True)).map(repr)
# fields no sweep can take
INVALID = st.one_of(
    st.floats(-2.0, -1e-320).map(repr), st.sampled_from(["nan", "inf", "-inf", "1e309", "abc", ""])
)


def _sometimes(draw, valid, invalid):
    """A draw of ``valid``, or one time in ten of ``invalid``."""
    return draw(invalid if draw(st.integers(0, 9)) == 9 else valid)


@st.composite
def configs(draw):
    """An INI sweep config as text, its experiment and its axis names."""
    experiment = draw(st.sampled_from(sorted(EXPERIMENTS)))

    def value(name):
        if name.startswith("zeta"):
            numbers = ZETAS
        elif (experiment, name) == ("fig5b_homodyne_rate", "C_om"):
            numbers = FIG5B_C_OM
        else:
            numbers = NUMBERS
        return _sometimes(draw, numbers, INVALID)

    lines = ["[sweep]", f"experiment = {experiment}", "output = out.csv"]
    fixed = draw(st.lists(st.sampled_from(sorted(FIXED_DEFAULTS)), max_size=4, unique=True))
    if fixed:
        lines.append("[fixed]")
        lines += [f"{key} = {value(key)}" for key in fixed]
    names = draw(st.lists(st.sampled_from(AXIS_NAMES), min_size=1, max_size=2, unique=True))
    most = 2 if experiment == "fig5b_homodyne_rate" else 3
    for name in names:
        lo, hi = value(name), value(name)
        if draw(st.integers(0, 9)) < 9:  # mostly in order, where both are numbers
            with contextlib.suppress(ValueError):
                lo, hi = sorted((lo, hi), key=float)
        points = _sometimes(draw, st.integers(2, most).map(str), st.sampled_from(["1", "x"]))
        scale = _sometimes(draw, st.sampled_from(["linear", "log"]), st.just("cubic"))
        lines += [f"[axis {name}]", f"min = {lo}", f"max = {hi}", f"points = {points}"]
        lines.append(f"scale = {scale}")
    svg = draw(st.booleans()) if len(names) == 2 else _sometimes(draw, st.just(False), st.just(True))
    lines.insert(3, f"emit_svg = {svg}")
    if draw(st.booleans()):  # any metric of the experiment, or one it does not have
        metric = _sometimes(draw, st.sampled_from(EXPERIMENTS[experiment].metrics), st.just("e_r"))
        lines.insert(4, f"svg_metric = {metric}")
    return "\n".join(lines) + "\n", experiment, names


def _sweep(path: Path, out: Path, *flags) -> tuple:
    """Exit code, stderr and written CSV bytes (None if none) of one in-process
    `gausslink sweep` with RuntimeWarnings as errors."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(["sweep", str(path), "--out", str(out), *flags])
    csv_path = out / "out.csv"
    return code, stderr.getvalue(), csv_path.read_bytes() if csv_path.exists() else None


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(configs(), st.integers(0, 9))
def test_any_config_exits_0_2_or_3_and_says_where(config, pool):
    text, experiment, names = config
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "sweep.ini")
        path.write_text(text, encoding="utf-8")
        code, err, written = _sweep(path, Path(tmp))
        if code == EXIT_CONFIG:
            assert re.fullmatch(r"config error: [^\n]*\[[^\]\n]+\][^\n]*\n", err), err
        elif code == EXIT_NUMERICAL:
            where = ", ".join(rf"{name}=[^,:\n]+" for name in names)
            assert re.fullmatch(rf"numerical failure: {experiment} at {where}: [^\n]+\n", err), err
        else:
            assert code == EXIT_OK and err == "", (code, err)
            metrics = EXPERIMENTS[experiment].metrics
            rows = list(csv.DictReader(io.StringIO(written.decode("utf-8"), newline="")))
            assert rows
            for row in rows:
                assert row["stable"] in ("0", "1")
                if row["stable"] == "1":
                    assert all(row[m] != "" for m in metrics), row
            # one grid row per block, and on one example in ten two workers
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(sweeps, "_BLOCK_POINTS", 1)
                assert _sweep(path, Path(tmp, "rows")) == (EXIT_OK, "", written)
            if pool == 0:
                assert _sweep(path, Path(tmp, "jobs2"), "--jobs", "2") == (EXIT_OK, "", written)
