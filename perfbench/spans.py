"""Outside-in span tracing of the rivercomp layers.

The tracer wraps public functions of each layer at the sites where they
are looked up (a module attribute or a class method), so nothing under
``src/`` changes.  Each call becomes a span: a name, a start, an end and
the index of the enclosing span, taken from a per-thread parent stack.
Spans stay in compact in-memory arrays until ``write`` saves them.
Counters (iterations, fallbacks, computed flops...) are recorded at the
same boundaries as the spans, from the call's arguments and result.

``layer_metrics`` turns the spans and counters of one or more traced
rounds into the per-layer metrics; a layer's self time is its spans'
durations minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

# Roots the benchmark opens around each job's set-up and timed calls.
SETUP_ROOT = "bench.setup"
RUN_ROOT = "bench.run"

# A direct splu call is a layer of its own only under a steady solver;
# inside linsolve.factorize it is that layer's work.
_SPLU = "splu"
_SPLU_LAYER = "steady.splu"
_STEADY_PARENTS = ("steady.single", "steady.pair")

# (metric name, unit) in the order they are reported.
PER_LAYER_METRICS = (
    ("linsolve.solve.count", "count"),
    ("linsolve.solve.self_s", "s"),
    ("linsolve.solve.us_p50", "us"),
    ("linsolve.solve.us_p99", "us"),
    ("linsolve.solve.bytes_computed", "bytes"),
    ("linsolve.solve.flops_computed", "flop"),
    ("linsolve.factorize.count", "count"),
    ("linsolve.factorize.self_s", "s"),
    ("linsolve.factor.nnz", "count"),
    ("model.reaction.count", "count"),
    ("model.reaction.self_s", "s"),
    ("stepping.step.count", "count"),
    ("stepping.step.self_s", "s"),
    ("stepping.step.us_p50", "us"),
    ("stepping.step.us_p99", "us"),
    ("stepping.clamp_events", "count"),
    ("stepping.integrate.self_s", "s"),
    ("steady.single.count", "count"),
    ("steady.single.self_s", "s"),
    ("steady.single.iterations", "count"),
    ("steady.single.fallbacks", "count"),
    ("steady.pair.count", "count"),
    ("steady.pair.self_s", "s"),
    ("steady.pair.iterations", "count"),
    ("steady.pair.found_ratio", "ratio"),
    ("steady.splu.count", "count"),
    ("steady.splu.self_s", "s"),
    ("spectral.eigen.count", "count"),
    ("spectral.eigen.self_s", "s"),
    ("spectral.eigen.ms_p50", "ms"),
    ("spectral.eigen.iterations", "count"),
    ("operators.assemble.count", "count"),
    ("operators.assemble.self_s", "s"),
    ("config.parse.self_s", "s"),
    ("experiments.points", "count"),
    ("experiments.self_s", "s"),
    ("output.write_s", "s"),
    ("output.bytes", "bytes"),
    ("trace.setup_s", "s"),
    ("trace.run_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

# Span names whose self time is reported as "<name>.self_s".
SELF_TIME_LAYERS = (
    "linsolve.solve",
    "linsolve.factorize",
    "model.reaction",
    "stepping.step",
    "stepping.integrate",
    "steady.single",
    "steady.pair",
    _SPLU_LAYER,
    "spectral.eigen",
    "operators.assemble",
    "config.parse",
    "experiments",
)


class Tracer:
    """Records spans and counters; ``install`` patches the layers."""

    def __init__(self) -> None:
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        # id(Factorization) -> (n, nnz of its factor, banded), for computed counts.
        self._factors: dict[int, tuple[int, int, bool]] = {}

    # -- recording -------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self._names)
            self._names.append(name)
        stack = self._stack()
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def span(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recorded as a span; ``on_result(args, kwargs, result)`` counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    def names(self) -> list[str]:
        return list(self._names)

    # -- patching --------------------------------------------------------

    def _patch(self, owner, attr: str, name: str, on_result=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_result))

    def install(self) -> None:
        """Wrap each layer's public calls at the sites the package uses."""
        import scipy.sparse.linalg as spla

        from rivercomp import config, experiments, linsolve, operators, output, spectral
        from rivercomp import steady, stepping

        c = self.counters

        def factorized(args, kwargs, result):
            fact, matrix = args[0], args[1]
            n = matrix.shape[0]
            lu = getattr(fact, "_lu", None)
            banded = lu is None
            nnz = 3 * n if banded else int(lu.nnz)
            self._factors[id(fact)] = (n, nnz, banded)
            c["linsolve.factor.nnz"] += nnz

        def solved(args, kwargs, result):
            n, nnz, banded = self._factors.get(id(args[0]), (0, 0, True))
            # Computed, not measured: one multiply-add per stored factor
            # entry; each entry's value (and its row index unless banded)
            # is read once, the right-hand side read and the solution written.
            c["linsolve.solve.flops_computed"] += 2 * nnz
            c["linsolve.solve.bytes_computed"] += (8 if banded else 12) * nnz + 16 * n

        def single(args, kwargs, result):
            c["steady.single.iterations"] += result.iterations
            if kwargs.get("method", "hybrid") == "hybrid" and result.method == "long-time":
                c["steady.single.fallbacks"] += 1

        def pair(args, kwargs, result):
            if result is not None:
                c["steady.pair.iterations"] += result.iterations
                c["steady.pair.found"] += 1

        def eigen(args, kwargs, result):
            c["spectral.eigen.iterations"] += result.iterations

        def swept(args, kwargs, result):
            c["experiments.points"] += len(result.points) + len(result.edge_points)

        self._patch(linsolve.Factorization, "__init__", "linsolve.factorize", factorized)
        self._patch(linsolve.Factorization, "solve", "linsolve.solve", solved)
        self._patch(spla, "splu", _SPLU)
        self._patch(stepping, "reaction", "model.reaction")
        self._patch(stepping, "raw_reaction", "model.reaction")
        self._patch(stepping.Stepper, "step", "stepping.step")
        self._patch(stepping, "integrate", "stepping.integrate")
        for module in (experiments, steady):
            self._patch(module, "solve_single_steady", "steady.single", single)
            self._patch(module, "solve_coexistence", "steady.pair", pair)
        self._patch(spectral, "principal_eigenpair", "spectral.eigen", eigen)
        for module in (experiments, operators):
            self._patch(module, "transport_for", "operators.assemble")
        for module in (experiments, config):
            self._patch(module, "parse_config", "config.parse")
        self._patch(experiments, "sweep_alpha2", "experiments", swept)
        self._patch(experiments, "run_verification", "experiments")
        self._patch(output, "write_bundle", "output.write")

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- persistence -------------------------------------------------------

    def write(self, path: Path) -> None:
        """Save every span: names table, name ids, parents, starts, ends."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            names=np.array(self._names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )


def layer_spans(names: list[str], name_id, parent) -> np.ndarray:
    """Layer name of every span; a splu outside a steady span joins its parent.

    A span's parent always precedes it, and splu spans have no children,
    so one pass over the parents' layers settles every splu.
    """
    layers = np.array(names, dtype=object)[np.asarray(name_id, dtype=np.int64)]
    parent = np.asarray(parent, dtype=np.int64)
    splu = np.flatnonzero(layers == _SPLU)
    if len(splu):
        has_parent = parent[splu] >= 0
        under_steady = np.zeros(len(splu), dtype=bool)
        under_steady[has_parent] = np.isin(layers[parent[splu][has_parent]], _STEADY_PARENTS)
        layers[splu] = np.where(under_steady, _SPLU_LAYER, "")  # "": folded into the parent
    return layers


def self_times(parent, start, end, keep) -> np.ndarray:
    """Each span's duration minus the time its kept child spans cover.

    Spans on one thread nest and children never overlap each other, so
    the covered time is the sum of the children's durations.  A span
    that is not kept is folded into its parent: its time is not
    subtracted there.
    """
    parent = np.asarray(parent, dtype=np.int64)
    dur = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    keep = np.asarray(keep, dtype=bool)
    covered = np.zeros(len(dur))
    child = keep & (parent >= 0)
    np.add.at(covered, parent[child], dur[child])
    return np.where(keep, dur - covered, 0.0)


def layer_metrics(
    tracer: Tracer, rounds: int, overhead_s: float, clamp_events: int, output_bytes: int
) -> dict[str, float]:
    """Per-layer metrics of ``rounds`` traced rounds; totals are per round."""
    names = tracer.names()
    name_id = np.frombuffer(tracer.name_id, dtype=np.int32)
    parent = np.frombuffer(tracer.parent, dtype=np.int64)
    start = np.frombuffer(tracer.start, dtype=np.float64)
    end = np.frombuffer(tracer.end, dtype=np.float64)
    layers = layer_spans(names, name_id, parent)
    selfs = self_times(parent, start, end, layers != "")
    dur = end - start
    c = tracer.counters

    def total(layer: str, values=selfs) -> float:
        return float(np.sum(values[layers == layer])) / rounds

    def count(layer: str) -> float:
        return int(np.count_nonzero(layers == layer)) / rounds

    def percentile(layer: str, q: float, scale: float) -> float:
        d = dur[layers == layer]
        return float(np.percentile(d, q)) * scale if len(d) else 0.0

    pairs = int(np.count_nonzero(layers == "steady.pair"))
    m = {f"{layer}.self_s": total(layer) for layer in SELF_TIME_LAYERS}
    m.update(
        {
            "linsolve.solve.count": count("linsolve.solve"),
            "linsolve.solve.us_p50": percentile("linsolve.solve", 50, 1e6),
            "linsolve.solve.us_p99": percentile("linsolve.solve", 99, 1e6),
            "linsolve.factorize.count": count("linsolve.factorize"),
            "model.reaction.count": count("model.reaction"),
            "stepping.step.count": count("stepping.step"),
            "stepping.step.us_p50": percentile("stepping.step", 50, 1e6),
            "stepping.step.us_p99": percentile("stepping.step", 99, 1e6),
            "stepping.clamp_events": clamp_events / rounds,
            "steady.single.count": count("steady.single"),
            "steady.pair.count": count("steady.pair"),
            "steady.pair.found_ratio": c["steady.pair.found"] / pairs if pairs else 0.0,
            "steady.splu.count": count(_SPLU_LAYER),
            "spectral.eigen.count": count("spectral.eigen"),
            "spectral.eigen.ms_p50": percentile("spectral.eigen", 50, 1e3),
            "operators.assemble.count": count("operators.assemble"),
            "output.write_s": total("output.write"),
            "output.bytes": output_bytes / rounds,
            "trace.setup_s": total(SETUP_ROOT, dur),
            "trace.run_s": total(RUN_ROOT, dur),
            "trace.unattributed_s": total(SETUP_ROOT) + total(RUN_ROOT),
            "trace.overhead_s": overhead_s,
        }
    )
    for key in (
        "linsolve.solve.bytes_computed",
        "linsolve.solve.flops_computed",
        "linsolve.factor.nnz",
        "steady.single.iterations",
        "steady.single.fallbacks",
        "steady.pair.iterations",
        "spectral.eigen.iterations",
        "experiments.points",
    ):
        m[key] = c[key] / rounds
    return {name: m[name] for name, _ in PER_LAYER_METRICS}


def attributed_s(metrics: dict[str, float]) -> float:
    """Layer self times plus unattributed time; equals traced set-up + run."""
    return (
        sum(metrics[f"{layer}.self_s"] for layer in SELF_TIME_LAYERS)
        + metrics["output.write_s"]
        + metrics["trace.unattributed_s"]
    )
