"""Per-layer metrics from the span files a traced run writes.

Self time of a span is its duration minus the durations of its child spans,
which run one after another in the same process.  Every time and count is per
pass of the workload, averaged over the traced passes.
"""

import json
from collections import Counter

import numpy as np

from tracer import LAYERS, POINT_SPAN

FIELDS = ("ids", "parents", "starts", "ends")


def load(paths) -> tuple:
    """Concatenate span files into (columns, name codes, name table, counts, maxima)."""
    columns = {f: [] for f in FIELDS}
    codes = []
    table = {}
    counts = Counter()
    maxima = {}
    offset = 0  # span ids restart at 1 in every file
    for path in paths:
        with np.load(path) as data:
            remap = np.array(
                [table.setdefault(str(n), len(table)) for n in data["name_table"]],
                dtype=np.int64,
            )
            codes.append(remap[data["names"]] if remap.size else data["names"])
            ids, parents = data["ids"], data["parents"]
            columns["ids"].append(ids + offset)
            columns["parents"].append(np.where(parents >= 0, parents + offset, -1))
            columns["starts"].append(data["starts"])
            columns["ends"].append(data["ends"])
            offset += int(ids.max(initial=0))
            counters = json.loads(str(data["counters"]))
        counts.update(counters["counts"])
        for key, value in counters["maxima"].items():
            maxima[key] = max(maxima.get(key, 0), value)
    columns = {f: np.concatenate(v) for f, v in columns.items()}
    return columns, np.concatenate(codes).astype(np.int64), list(table), counts, maxima


def self_times(ids, parents, starts, ends) -> np.ndarray:
    durations = ends - starts
    order = np.argsort(ids)
    pos = np.searchsorted(ids[order], parents)
    pos = np.minimum(pos, len(ids) - 1)
    child = np.nonzero((parents >= 0) & (ids[order][pos] == parents))[0]
    parent = order[pos[child]]
    covered = np.bincount(parent, weights=durations[child], minlength=len(ids))
    return durations - covered


def per_layer(paths, passes: int, svg_bytes: float) -> dict:
    """All per-layer metrics of `passes` traced passes, by name."""
    cols, codes, names, counts, maxima = load(paths)
    selfs = self_times(cols["ids"], cols["parents"], cols["starts"], cols["ends"])
    durations = cols["ends"] - cols["starts"]
    per = 1.0 / passes
    calls = np.bincount(codes, minlength=len(names)) * per
    self_s = np.bincount(codes, weights=selfs, minlength=len(names)) * per
    total_s = np.bincount(codes, weights=durations, minlength=len(names)) * per

    out = {}
    for i, name in enumerate(names):
        out[f"{name}.calls"] = float(calls[i])
        out[f"{name}.self_s"] = float(self_s[i])
        out[f"{name}.s"] = float(total_s[i])
    out["heatmap.svg_bytes"] = svg_bytes
    if POINT_SPAN in names:
        point_ms = 1e3 * durations[codes == names.index(POINT_SPAN)]
        out["sweeps.point_ms.p50"], out["sweeps.point_ms.p99"] = (
            float(q) for q in np.percentile(point_ms, [50, 99])
        )
        out["sweeps.points.attempted"] = point_ms.size * per
    for key, value in counts.items():
        out[key] = value * per
    out.update(maxima)
    modules = np.array([n.split(".", 1)[0] for n in names])
    grand = float(selfs.sum())
    for layer in LAYERS:
        mod_self = float(self_s[modules == layer].sum()) if names else 0.0
        out[f"{layer}.self_s"] = mod_self
        out[f"{layer}.share"] = mod_self * passes / grand if grand > 0 else 0.0
    return out
