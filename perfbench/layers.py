"""Per-layer metrics from the spans that ``trace_cli.py`` records.

One operation runs one or more commands; each command leaves one span file.
Every metric below is summed over the commands of an operation, and the run
reports its median over operations.  ``<layer>.s`` is the inclusive time of
the outermost calls of that name (a call nested in another layer's span
counts for both layers); ``*.self_s`` subtracts the time child spans cover.
"""

import math
import statistics

CONVOLUTION = frozenset(("convolution.spectrum", "convolution.kernel", "convolution.fields"))
COMMANDS = ("scf", "residuals", "expand", "extend-sweep", "verify")
INCLUSIVE = (
    "scf.solve",
    "hf.build_fields", "hf.energies", "hf.check_orbital_bounds", "hf.strong_residual",
    "residuals.poisson", "residuals.window", "residuals.crosscheck", "residuals.literal",
    "expansion.project", "expansion.ladders",
    "extension.extend", "extension.harmonicity",
    "verify.run",
)
COUNTED = ("fields.laplacian", "fields.norm")
WARNINGS = ("ResolutionWarning", "SupportWarning")

# per-call medians at the workload's grid size, for the baseline layer table
TABLE = (
    ("table.padded_rfftn_ms", "padded rfftn (2N)^3"),
    ("table.warm_coulomb_ms", "warm Coulomb convolution"),
    ("table.cold_spectrum_ms", "cold kernel spectrum (sampling + rfftn)"),
    ("table.laplacian_ms", "spectral Laplacian (fields.laplacian)"),
)


def metric_units():
    """Name -> unit of every per-layer metric, in report order."""
    units = {
        "fft.grid.calls": "count", "fft.grid.s": "s",
        "fft.padded.calls": "count", "fft.padded.s": "s",
        "fft.gflop_computed": "GFLOP", "fft.gbytes_computed": "GB",
        "convolution.kernel_convolutions": "count",
        "convolution.field_convolutions": "count",
        "convolution.self_s": "s",
        "convolution.spectrum.hits": "count", "convolution.spectrum.misses": "count",
        "convolution.spectrum.miss_s": "s", "convolution.spectrum.bytes_computed": "B",
        "kernels.sampling_s": "s",
    }
    for name in COUNTED:
        units[name + ".calls"] = "count"
        units[name + ".s"] = "s"
    units["scf.outer_iterations"] = "count"
    units["scf.s_per_outer_iteration"] = "s"
    for name in INCLUSIVE:
        units[name + ".s"] = "s"
    for command in COMMANDS:
        units[f"cli.{command}.s"] = "s"
    units["cli.startup_s"] = "s"
    units["cli.self_s"] = "s"
    for kind in WARNINGS:
        units["warnings." + kind] = "count"
    units["trace_overhead_frac"] = "ratio"
    for name, _ in TABLE:
        units[name] = "ms"
    return units


class CommandTrace:
    """Spans of one traced command plus the parent's spawn and reap times."""

    def __init__(self, command, spawned, reaped, doc):
        self.command = command
        self.spawned = spawned
        self.reaped = reaped
        self.warnings = doc["warnings"]
        self.spans = [
            {"name": n, "start": s, "end": e, "parent": p, "attrs": a or {}, "children": []}
            for n, s, e, p, a in doc["spans"]
        ]
        for span in self.spans:
            if span["parent"] is not None:
                self.spans[span["parent"]]["children"].append(span)
        self.roots = [s for s in self.spans if s["parent"] is None]

    def ancestors(self, span):
        while span["parent"] is not None:
            span = self.spans[span["parent"]]
            yield span

    def errors(self):
        """Reasons the spans do not form one well-nested tree inside the
        process lifetime; empty when they do."""
        found = []
        if len(self.roots) != 1 or self.roots[0]["name"] != "cli." + self.command:
            found.append(f"{self.command}: expected one root span cli.{self.command}")
            return found
        root = self.roots[0]
        if not self.spawned <= root["start"] <= root["end"] <= self.reaped:
            found.append(f"{self.command}: root span lies outside the process lifetime")
        for span in self.spans:
            kids = span["children"]
            if any(k["start"] < span["start"] or k["end"] > span["end"] for k in kids):
                found.append(f"{self.command}: a {span['name']} child leaves its parent")
            if any(b["start"] < a["end"] for a, b in zip(kids, kids[1:])):
                found.append(f"{self.command}: children of {span['name']} overlap")
        return found


def _duration(span):
    return span["end"] - span["start"]


def _self_time(span):
    return _duration(span) - sum(_duration(k) for k in span["children"])


def _spectrum_missed(span):
    return any(k["name"] == "fft" for k in span["children"])


def _fft_flop(span):
    """5 M log2 M for a complex transform of M points, half for real ones."""
    m = span["attrs"]["points"]
    flop = 5.0 * m * math.log2(m) if m > 1 else 0.0
    return flop / 2 if span["attrs"]["real"] else flop


def operation_metrics(traces, wall_s):
    """Per-layer metrics of one operation (its commands' traces)."""
    m = {name: 0.0 for name in metric_units()
         if name != "trace_overhead_frac" and not name.startswith("table.")}
    iterations = 0
    top_level = 0.0
    for trace in traces:
        root = trace.roots[0]
        m[f"cli.{trace.command}.s"] += _duration(root)
        m["cli.startup_s"] += root["start"] - trace.spawned
        top_level += sum(_duration(k) for k in root["children"])
        for kind in WARNINGS:
            m["warnings." + kind] += trace.warnings.get(kind, 0)
        for span in trace.spans:
            name = span["name"]
            if name == "fft":
                padded = any(a["name"] in CONVOLUTION for a in trace.ancestors(span))
                prefix = "fft.padded" if padded else "fft.grid"
                m[prefix + ".calls"] += 1
                m[prefix + ".s"] += _duration(span)
                m["fft.gflop_computed"] += _fft_flop(span) / 1e9
                m["fft.gbytes_computed"] += span["attrs"]["bytes"] / 1e9
            elif name == "convolution.spectrum":
                if _spectrum_missed(span):
                    m["convolution.spectrum.misses"] += 1
                    m["convolution.spectrum.miss_s"] += _duration(span)
                    m["convolution.spectrum.bytes_computed"] += span["attrs"]["bytes"]
                    m["kernels.sampling_s"] += _self_time(span)
                else:
                    m["convolution.spectrum.hits"] += 1
            elif name in ("convolution.kernel", "convolution.fields"):
                key = "kernel_convolutions" if name == "convolution.kernel" else "field_convolutions"
                m["convolution." + key] += 1
                m["convolution.self_s"] += _self_time(span)
            elif name in COUNTED:
                m[name + ".calls"] += 1
                m[name + ".s"] += _duration(span)
            elif name in INCLUSIVE and all(a["name"] != name for a in trace.ancestors(span)):
                m[name + ".s"] += _duration(span)
                if name == "scf.solve":
                    iterations += span["attrs"]["iterations"]
    m["scf.outer_iterations"] = iterations
    m["scf.s_per_outer_iteration"] = m["scf.solve.s"] / iterations if iterations else 0.0
    # everything of the operation's wall time that no library span covers:
    # interpreter start, imports, argument and config handling, CSV writing
    m["cli.self_s"] = wall_s - top_level
    return m


def table_samples(traces, n):
    """Per-call durations in seconds for each TABLE row at grid size ``n``."""
    rows = {name: [] for name, _ in TABLE}
    padded_shape = [2 * n] * 3
    for trace in traces:
        for span in trace.spans:
            attrs = span["attrs"]
            if span["name"] == "fft":
                if (attrs["fn"] == "rfftn" and attrs["shape"] == padded_shape
                        and any(a["name"] in CONVOLUTION for a in trace.ancestors(span))):
                    rows["table.padded_rfftn_ms"].append(_duration(span))
            elif span["name"] == "convolution.kernel":
                if attrs["kernel"] == "CoulombKernel" and attrs["n"] == n and not any(
                    k["name"] == "convolution.spectrum" and _spectrum_missed(k)
                    for k in span["children"]
                ):
                    rows["table.warm_coulomb_ms"].append(_duration(span))
            elif span["name"] == "convolution.spectrum":
                if attrs["n"] == n and _spectrum_missed(span):
                    rows["table.cold_spectrum_ms"].append(_duration(span))
            elif span["name"] == "fields.laplacian":
                if attrs["n"] == n and attrs["method"] == "spectral":
                    rows["table.laplacian_ms"].append(_duration(span))
    return rows


def table_metrics(samples):
    return {name: 1e3 * statistics.median(v) if v else 0.0 for name, v in samples.items()}
