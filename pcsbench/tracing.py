"""Per-layer tracing of the precubical library, installed from outside it.

Spans: each probed public function is replaced, at every module attribute
that refers to it, by a wrapper that records (name, start, end, parent span,
job id) in memory.  A span's self time is its duration minus the time its
child spans cover.  Span names are the pipeline stages: parse, validate,
extremal partition, assembly, boundary matrices, elimination, report,
subdivide and emit, plus the other public functions listed in TIMED.

Counters: work counts (calls of hot inner functions, bytes, matrix sizes)
are taken in a separate, untimed replay of each traced job, with counting
wrappers in place of span wrappers.  So counting never adds to a span's
time, not even for functions called thousands of times per job.
"""
from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, attribute, span name, metric): functions that get a span.
TIMED = [
    ("cli", "run_command", "command", "cli.self_s"),
    ("cli", "_print_group", "report", "cli.report_s"),
    ("pcsfile", "parse_pcs", "parse", "pcsfile.parse_s"),
    ("pcsfile", "emit_pcs", "emit", "pcsfile.emit_s"),
    ("core", "validate", "validate", "core.validate_s"),
    ("core", "time_reverse", "time reverse", "core.time_reverse_s"),
    ("core", "extremal_partition", "extremal partition", "core.extremal_partition_s"),
    ("core", "final_states", "final states", "core.final_states_s"),
    ("complexes", "assemble_all", "assembly", "complexes.assemble_all_s"),
    ("complexes", "SemiSimplicialSet.components", "components", "complexes.components_s"),
    ("homology", "branching_homology", "branching homology", "homology.branching_homology_s"),
    ("homology", "chain_complex", "boundary matrices", "homology.chain_complex_s"),
    ("homology", "smith_normal_form", "elimination", "homology.snf_s"),
    ("homology", "homology_of", "homology", "homology.homology_of_s"),
    ("subdivision", "subdivide", "subdivide", "subdivision.subdivide_s"),
    ("dipath", "sample", "sample", "dipath.sample_s"),
    ("dipath", "convex_comb", "convex comb", "dipath.convex_comb_s"),
    ("dipath", "sup_distance", "sup distance", "dipath.sup_distance_s"),
    ("dipath", "restrict", "restrict", "dipath.restrict_s"),
    ("dipath", "extend_full", "extend full", "dipath.extend_full_s"),
    ("dipath", "germ_equal", "germ equal", "dipath.germ_equal_s"),
]

def _calls(key):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count

def _bytes_in(counts, args, kwargs, result):
    text = args[0] if args else kwargs["text"]
    counts["pcsfile.bytes_in"] += len(text.encode("utf-8"))

def _bytes_out(counts, args, kwargs, result):
    counts["pcsfile.bytes_out"] += len(result.encode("utf-8"))

def _complexes(counts, args, kwargs, result):
    counts["complexes.vertex_complexes"] += len(result)
    counts["complexes.simplices"] += sum(len(B) for B in result.values())

def _cubes_per_side(counts, args, kwargs, result):
    K = args[0] if args else kwargs["K"]
    counts["core.positive_cubes"] += sum(c for d, c in K.counts().items() if d >= 1)

def _matrix(counts, args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    counts["homology.matrices"] += 1
    counts["homology.matrix_cells"] += M.rows * M.cols
    counts["homology.matrix_nnz"] += sum(1 for row in M.data for x in row if x)
    counts["homology.max_side"] = max(counts["homology.max_side"], M.rows, M.cols)

def _cells(counts, args, kwargs, result):
    counts["subdivision.cells_out"] += len(result.complex)

# (module, attribute, counter): functions whose calls the replay counts.
COUNTED = [
    ("pcsfile", "parse_pcs", _bytes_in),
    ("pcsfile", "emit_pcs", _bytes_out),
    ("core", "extremal_vertex", _calls("core.extremal_vertex_calls")),
    ("complexes", "assemble_all", _complexes),
    ("homology", "branching_homology", _cubes_per_side),
    ("homology", "smith_normal_form", _matrix),
    ("subdivision", "normalize_pair", _calls("subdivision.normalize_calls")),
    ("subdivision", "subdivide", _cells),
    ("dipath", "PLNaturalPath.at", _calls("dipath.at_calls")),
    ("dipath", "PLNaturalPath.__post_init__", _calls("dipath.paths_built")),
]

COUNTS = [
    "pcsfile.bytes_in", "pcsfile.bytes_out",
    "core.extremal_vertex_calls",
    "complexes.vertex_complexes", "complexes.simplices",
    "homology.matrices", "homology.matrix_cells", "homology.matrix_nnz",
    "homology.max_side",
    "subdivision.normalize_calls", "subdivision.cells_out",
    "dipath.at_calls", "dipath.paths_built",
]

RATIOS = [
    # (metric, numerator, denominator)
    ("core.extremal_ratio", "core.extremal_vertex_calls", "core.positive_cubes"),
    ("homology.nnz_ratio", "homology.matrix_nnz", "homology.matrix_cells"),
]

def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {metric: "s" for _, _, _, metric in TIMED}
    units.update({name: "count" for name in COUNTS})
    units.update({"pcsfile.bytes_in": "B", "pcsfile.bytes_out": "B"})
    units.update({metric: "ratio" for metric, _, _ in RATIOS})
    units.update({"trace.overhead_frac": "ratio", "trace.spans": "count",
                  "trace.traced_jobs": "count"})
    return units

class Patches:
    """Replacements for functions at every attribute that refers to them;
    a context manager that installs them and puts the originals back."""

    def __init__(self) -> None:
        self.items: list[tuple[object, str, object, object]] = []
        self.missing: list[str] = []

    def add(self, module: str, attribute: str, make) -> None:
        """Replace precubical.<module>.<attribute> by make(original).

        A dotted attribute names a method, patched on its class.  A
        function is patched on every loaded precubical module that
        refers to it, since `from x import f` copies the reference.
        """
        mod = sys.modules.get(f"precubical.{module}")
        owner_name, _, method = attribute.rpartition(".")
        owner = getattr(mod, owner_name, None) if owner_name else mod
        original = vars(owner).get(method) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{attribute}")
            return
        replacement = make(original)
        owners = [owner] if owner_name else [
            m for name, m in sorted(sys.modules.items())
            if name == "precubical" or name.startswith("precubical.")
        ]
        for o in owners:
            for attr, value in list(vars(o).items()):
                if value is original:
                    self.items.append((o, attr, original, replacement))

    def __enter__(self) -> "Patches":
        for owner, attr, _, replacement in self.items:
            setattr(owner, attr, replacement)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, _ in self.items:
            setattr(owner, attr, original)

class Tracer:
    """Spans and counts of the traced jobs of one run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent index, job id)
        self.current = -1
        self.job = -1
        self.counts: defaultdict = defaultdict(int)
        self.spanned = Patches()
        for module, attribute, name, _ in TIMED:
            self.spanned.add(module, attribute, lambda fn, name=name: self._span(fn, name))
        self.counted = Patches()
        for module, attribute, counter in COUNTED:
            self.counted.add(module, attribute, lambda fn, c=counter: self._count(fn, c))

    def _span(self, fn, name: str):
        spans, clock = self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, index = self.current, len(spans)
            spans.append(None)
            self.current = index
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                self.current = parent
                spans[index] = (name, start, end, parent, self.job)
        return wrapper

    def _count(self, fn, counter):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counter(counts, args, kwargs, result)
            return result
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: defaultdict = defaultdict(float)
        for (name, start, end, _, _), child in zip(self.spans, covered):
            out[name] += end - start - child
        return out

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, except those of the tracing itself."""
        by_span = self.self_times()
        out: dict[str, float] = {}
        for _, _, name, metric in TIMED:
            out[metric] = by_span.get(name, 0.0)
        for name in COUNTS:
            out[name] = self.counts.get(name, 0)
        for metric, top, bottom in RATIOS:
            base = self.counts.get(bottom, 0)
            out[metric] = self.counts.get(top, 0) / base if base else 0.0
        return out
