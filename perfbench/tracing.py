"""Span tracing of the stonekit layers, installed from outside the package.

``install`` replaces, in every loaded ``stonekit`` module, the globals
that name a public entry point with a wrapper recording one span per
call: its name, start, end, parent span and the operation it belongs
to. Dataclass ``__post_init__`` methods (the certification step of each
structure) are wrapped on their classes, the bitmask kernels through the
``_accel`` dispatch, and the CLI through its click command callbacks.
Nothing under ``src/`` changes.

A span is named ``<module>.<entry>``; the module is its layer. Spans
live in flat arrays in memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import json
import sys
import time
from array import array

LAYERS = (
    "_kernels",
    "lattice",
    "galois",
    "spectrum",
    "quasiorbit",
    "topo_models",
    "multiplicity",
    "graph_pairs",
    "documents",
    "conformance",
    "cli",
)

# The _accel dispatch functions; their spans belong to the _kernels layer.
KERNELS = (
    "closure",
    "check_poset",
    "transpose",
    "bound_tables",
    "distributive_witness",
    "downset_masks",
)

CONDITIONS = ("check_JR", "check_C1", "check_MIf", "check_MI", "check_C2", "F_map")
CONSTRUCTIONS = (
    "pi_map",
    "quasi_orbit_space",
    "quasi_orbit_map",
    "restricted_prime_map",
    "induced_prime_map",
    "QuasiOrbitSpace",
)

# Entry points whose argument structure is recorded, so a ratio of
# distinct structures to calls shows how much of the work is repeated.
DISTINCT = {
    "lattice.is_frame": lambda args: args[0].order.below,
    "spectrum.primes": lambda args: args[0].order.below,
    "spectrum.opens_lattice": lambda args: args[0].points.below,
}


SPAN_COLUMNS = ("name", "parent", "op", "resume", "start", "end")


class Tracer:
    """In-memory span store plus the per-entry counters the metrics need."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("l")
        self.op = array("L")
        self.resume = array("B")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.current_op = 0
        self.op_labels: list[str] = []
        self.keys: dict[str, set] = {name: set() for name in DISTINCT}
        self.triples = 0  # sum of n**3 over distributive_witness calls
        self.pairs = 0  # sum of n*(n+1)/2 over bound_tables calls
        self.t0 = time.perf_counter()

    def begin_op(self, label: str) -> int:
        """Start a new operation; later spans carry its identifier."""
        self.op_labels.append(label)
        self.current_op = len(self.op_labels)
        return self.current_op

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _probe(self, span: str):
        if span in DISTINCT:
            keyfn = DISTINCT[span]
            keys = self.keys[span]
            return lambda args: keys.add(keyfn(args))
        if span == "_kernels.distributive_witness":

            def count(args):
                self.triples += len(args[0]) ** 3

            return count
        if span == "_kernels.bound_tables":

            def count(args):
                n = len(args[0])
                self.pairs += n * (n + 1) // 2

            return count
        return None

    def wrap(self, span: str, fn):
        nid = self._intern(span)
        probe = self._probe(span)
        name_add, parent_add = self.name.append, self.parent.append
        op_add, resume_add = self.op.append, self.resume.append
        start_add, end_add = self.start.append, self.end.append
        end, stack, clock = self.end, self.stack, time.perf_counter
        tracer = self

        def opened(resumed: int) -> int:
            idx = len(end)
            name_add(nid)
            parent_add(stack[-1])
            op_add(tracer.current_op)
            resume_add(resumed)
            end_add(0.0)
            stack.append(idx)
            start_add(clock())
            return idx

        if inspect.isgeneratorfunction(fn):
            # One span per resumption, so the time spent producing each
            # item lands on the generator, not on its consumer.
            def gen_wrapper(*args, **kwargs):
                if probe is not None:
                    probe(args)
                inner = fn(*args, **kwargs)
                resumed = 0
                while True:
                    idx = opened(resumed)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        end[idx] = clock()
                        stack.pop()
                    resumed = 1
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            if probe is not None:
                probe(args)
            idx = opened(0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- aggregation ---------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls and self seconds, plus the counters."""
        n = len(self.end)
        start, end, parent = self.start, self.end, self.parent
        child = [0.0] * n
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        per = {name: [0, 0.0] for name in self.names}
        names, resume = self.names, self.resume
        for i in range(n):
            row = per[names[self.name[i]]]
            row[0] += 1 - resume[i]
            row[1] += end[i] - start[i] - child[i]
        return {
            "spans": n,
            "entries": {k: {"calls": v[0], "self_s": v[1]} for k, v in per.items()},
            "keys": {k: sorted(v) for k, v in self.keys.items()},
            "triples": self.triples,
            "pairs": self.pairs,
        }

    def write_spans(self, path) -> None:
        """Write the spans; ``read_spans`` loads them back.

        The file is gzip: one JSON header line (name table, operation
        labels, column layout), then each column as raw native-endian
        array bytes. Times are perf_counter seconds.
        """
        header = {
            "names": self.names,
            "ops": self.op_labels,
            "t0": self.t0,
            "columns": [[col, getattr(self, col).typecode] for col in SPAN_COLUMNS],
            "count": len(self.end),
            "byteorder": sys.byteorder,
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for col in SPAN_COLUMNS:
                fh.write(getattr(self, col).tobytes())


def read_spans(path) -> tuple[dict, dict]:
    """The header and the columns (as arrays) of a ``write_spans`` file."""
    with gzip.open(path, "rb") as fh:
        header = json.loads(fh.readline())
        columns = {}
        for col, code in header["columns"]:
            arr = array(code)
            arr.frombytes(fh.read(arr.itemsize * header["count"]))
            columns[col] = arr
    return header, columns


def install(tracer: Tracer):
    """Wrap every public entry point of the loaded stonekit modules.

    Returns a function that puts the originals back. Call after
    importing every stonekit module the run will use (``stonekit.cli``
    included, when the CLI is traced), since only loaded modules are
    patched.
    """
    import stonekit
    from stonekit import _accel

    undo = []

    def patch(owner, attr, value):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    swap = {}
    for attr in dir(stonekit):
        if attr.startswith("_"):
            continue
        obj = getattr(stonekit, attr)
        module = getattr(obj, "__module__", None) or ""
        if not module.startswith("stonekit."):
            continue
        layer = module.rsplit(".", 1)[1]
        if inspect.isfunction(obj):
            swap[id(obj)] = (obj, tracer.wrap(f"{layer}.{attr}", obj))
        elif inspect.isclass(obj) and "__post_init__" in vars(obj):
            post = vars(obj)["__post_init__"]
            patch(obj, "__post_init__", tracer.wrap(f"{layer}.{obj.__name__}", post))
    for fname in KERNELS:
        patch(_accel, fname, tracer.wrap(f"_kernels.{fname}", getattr(_accel, fname)))
    cli = sys.modules.get("stonekit.cli")
    if cli is not None:
        for command in cli.main.commands.values():
            patch(command, "callback", tracer.wrap(f"cli.{command.name}", command.callback))
    for modname, module in list(sys.modules.items()):
        if modname != "stonekit" and not modname.startswith("stonekit."):
            continue
        for key, value in list(vars(module).items()):
            entry = swap.get(id(value))
            if entry is not None and entry[0] is value:
                patch(module, key, entry[1])

    def restore():
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)

    return restore


def merge(summaries: list[dict]) -> dict:
    """Combine summaries from several processes into one."""
    out = {"spans": 0, "entries": {}, "keys": {k: set() for k in DISTINCT}, "triples": 0, "pairs": 0}
    for s in summaries:
        out["spans"] += s["spans"]
        out["triples"] += s["triples"]
        out["pairs"] += s["pairs"]
        for name, row in s["entries"].items():
            acc = out["entries"].setdefault(name, {"calls": 0, "self_s": 0.0})
            for k in acc:
                acc[k] += row[k]
        for name, keys in s["keys"].items():
            out["keys"][name].update(tuple(k) for k in keys)
    out["keys"] = {k: sorted(v) for k, v in out["keys"].items()}
    return out


def layer_metrics(summary: dict) -> dict:
    """The per-layer figures named in BENCHMARK.json, from a summary."""
    entries = summary["entries"]
    out = {}

    def total(field, names):
        zero = 0 if field == "calls" else 0.0
        return sum((entries[n][field] for n in names if n in entries), zero)

    for layer in LAYERS:
        names = [n for n in entries if n.split(".", 1)[0] == layer]
        metric = layer.lstrip("_")
        out[f"{metric}.self_s"] = (total("self_s", names), "s")
        out[f"{metric}.calls"] = (total("calls", names), "count")
    for span in DISTINCT:
        calls = total("calls", [span])
        distinct = len(summary["keys"][span])
        out[f"{span}.calls"] = (calls, "count")
        out[f"{span}.distinct_ratio"] = (distinct / calls if calls else 0.0, "ratio")
    out["galois.verify_prop26.calls"] = (total("calls", ["galois.verify_prop26"]), "count")
    out["galois.GaloisConnection.calls"] = (total("calls", ["galois.GaloisConnection"]), "count")
    out["quasiorbit.InclusionData.calls"] = (total("calls", ["quasiorbit.InclusionData"]), "count")
    out["kernels.distributive_witness.triples"] = (summary["triples"], "count")
    out["kernels.bound_tables.pairs"] = (summary["pairs"], "count")
    out["quasiorbit.conditions.self_s"] = (
        total("self_s", [f"quasiorbit.{n}" for n in CONDITIONS]),
        "s",
    )
    out["quasiorbit.constructions.self_s"] = (
        total("self_s", [f"quasiorbit.{n}" for n in CONSTRUCTIONS]),
        "s",
    )
    return out
