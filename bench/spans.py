"""Per-layer tracing of realmod from outside its source.

`Tracer.install()` wraps each public function below by replacing the name in
every realmod module that holds it (so `hermitian.inverse` is wrapped as well
as `linalg.inverse`), and wraps the class methods in place.  Spans are kept in
memory as parallel int64 arrays (parent id, name id, start, end, request id)
and written out by `write()` when the run ends.  Scalar operations are only
counted: a span per scalar op would swamp the timing.

Per-layer statistics, named `<module>.<function>.<stat>`:
    calls     number of spans (or counted calls)
    busy_ms   inclusive wall time; a span nested in one of the same name is not
              counted twice
    self_ms   wall time not covered by child spans
The eigen-split memo hit ratio has this base: calls to the public hermitian and
density functions below that take self-dual structures; a call is a hit when
every structure it is given already holds its eigen split.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

# (module, attribute, span name)
FUNCTIONS = (
    ("realmod.scalars", "parse_scalar", "scalars.parse_scalar"),
    ("realmod.scalars", "format_scalar", "scalars.format_scalar"),
    ("realmod.linalg", "parse_matrix", "linalg.parse_matrix"),
    ("realmod.linalg", "inverse", "linalg.inverse"),
    ("realmod.linalg", "kernel_basis", "linalg.kernel_basis"),
    ("realmod.linalg", "det", "linalg.det"),
    ("realmod.linalg", "kron", "linalg.kron"),
    ("realmod.specfile", "parse_spec", "specfile.parse_spec"),
    ("realmod.modules", "is_real_hom", "modules.is_real_hom"),
    ("realmod.hermitian", "make_selfdual", "hermitian.make_selfdual"),
    ("realmod.hermitian", "extract_hermitian", "hermitian.extract_hermitian"),
    ("realmod.hermitian", "dagger", "hermitian.dagger"),
    ("realmod.hermitian", "is_unitary", "hermitian.is_unitary"),
    ("realmod.hermitian", "adjoint_oracle", "hermitian.adjoint_oracle"),
    ("realmod.density", "channel", "density.channel"),
    ("realmod.density", "csmat", "density.csmat"),
    ("realmod.density", "fixed_locus_real_dimension", "density.fixed_locus_real_dimension"),
    ("realmod.density", "positivity_certificate", "density.positivity_certificate"),
    ("realmod.quantization", "quantize", "quantization.quantize"),
    ("realmod.selftest", "run_selftest", "selftest.run_selftest"),
)
# (module, class, method, span name)
METHODS = (
    ("realmod.linalg", "Matrix", "__matmul__", "linalg.matmul"),
    ("realmod.modules", "RealModule", "check", "modules.RealModule.check"),
    ("realmod.equivalence", "HermitianSpace", "check", "equivalence.HermitianSpace.check"),
    ("realmod.hermitian", "SelfDualRealModule", "check", "hermitian.SelfDualRealModule.check"),
)
# (module, class, method, counter name): counted, no span
COUNTED = (
    ("realmod.scalars", "Scalar", "__mul__", "scalars.mul"),
    ("realmod.scalars", "Scalar", "__rmul__", "scalars.mul"),
    ("realmod.scalars", "Scalar", "__add__", "scalars.add"),
    ("realmod.scalars", "Scalar", "__radd__", "scalars.add"),
    ("realmod.scalars", "Scalar", "inv", "scalars.inv"),
)
MEMO_FUNCTIONS = ("hermitian.extract_hermitian", "hermitian.dagger", "hermitian.is_unitary",
                  "density.channel", "density.csmat", "density.positivity_certificate")
CLI_COMMANDS = ("check", "hermitian", "dagger", "unitary", "channel", "quantize", "selftest")

# The per-layer metrics a traced run reports: (name, unit, better).
PER_LAYER = (
    [(f"scalars.{op}.calls", "count", "lower") for op in ("mul", "add", "inv")]
    + [("scalars.parse_scalar.calls", "count", "lower"), ("scalars.parse_scalar.busy_ms", "ms", "lower"),
       ("scalars.format_scalar.busy_ms", "ms", "lower"), ("linalg.parse_matrix.busy_ms", "ms", "lower"),
       ("specfile.parse_spec.calls", "count", "lower"), ("specfile.parse_spec.busy_ms", "ms", "lower"),
       ("specfile.parse_spec.self_ms", "ms", "lower"),
       ("linalg.matmul.calls", "count", "lower"), ("linalg.matmul.busy_ms", "ms", "lower"),
       ("linalg.matmul.self_ms", "ms", "lower"), ("linalg.matmul.entry_mults", "count", "lower")]
    + [(f"linalg.{f}.{stat}", unit, "lower") for f in ("inverse", "kernel_basis", "det", "kron")
       for stat, unit in (("calls", "count"), ("busy_ms", "ms"))]
    + [(f"{f}.{stat}", unit, "lower")
       for f in ("modules.is_real_hom", "modules.RealModule.check", "equivalence.HermitianSpace.check",
                 "hermitian.SelfDualRealModule.check")
       for stat, unit in (("calls", "count"), ("busy_ms", "ms"))]
    + [(f"hermitian.{f}.busy_ms", "ms", "lower")
       for f in ("make_selfdual", "extract_hermitian", "dagger", "is_unitary", "adjoint_oracle")]
    + [("hermitian.eigen.memo_hit_ratio", "ratio", "higher")]
    + [(f"density.{f}.busy_ms", "ms", "lower") for f in ("channel", "csmat", "fixed_locus_real_dimension")]
    + [("density.positivity_certificate.calls", "count", "lower"),
       ("density.positivity_certificate.busy_ms", "ms", "lower"),
       ("density.positivity_certificate.det_calls", "count", "lower"),
       ("quantization.quantize.calls", "count", "lower"), ("quantization.quantize.busy_ms", "ms", "lower")]
    + [(f"cli.{c}.busy_ms", "ms", "lower") for c in CLI_COMMANDS]
    + [("selftest.run_selftest.busy_ms", "ms", "lower"),
       ("trace.untraced_throughput_rps", "1/s", "higher"),
       ("trace.traced_throughput_rps", "1/s", "higher"),
       ("trace.throughput_ratio", "ratio", "higher")]
)


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.parent = array("q")
        self.name = array("q")
        self.start = array("q")
        self.end = array("q")
        self.request = array("q")
        self.counts: Counter = Counter()
        self.request_id = -1
        self._stack: list = []
        self._saved: list = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def spanned(self, name: str, fn, before=None):
        """fn wrapped in a span; `before(args)` runs first when given."""
        nid = self._name_id(name)
        parent, names, start, end, request, stack = (
            self.parent, self.name, self.start, self.end, self.request, self._stack)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args)
            sid = len(start)
            parent.append(stack[-1] if stack else -1)
            names.append(nid)
            end.append(0)
            request.append(self.request_id)
            stack.append(sid)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    def request_span(self, name: str, fn, *args):
        """Run one request under a root span; spans below it share its id."""
        self.request_id += 1
        return self.spanned(name, fn)(*args)

    # -- patching ---------------------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        mods = [m for n, m in sorted(sys.modules.items()) if n == "realmod" or n.startswith("realmod.")]
        counts = self.counts

        def memo_probe(args):
            structures = [a for a in args if hasattr(a, "_memo")]
            if structures:
                counts["memo_calls"] += 1
                counts["memo_hits"] += all("eigen" in s._memo for s in structures)

        for modname, attr, name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            wrapped = self.spanned(name, orig, memo_probe if name in MEMO_FUNCTIONS else None)
            for mod in mods:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        self._set(mod, key, wrapped)
        for modname, cls, meth, name in METHODS:
            owner = getattr(sys.modules[modname], cls)
            orig = getattr(owner, meth)
            if meth == "__matmul__":
                def entry_mults(args, counts=counts):
                    counts["linalg.matmul.entry_mults"] += args[0].rows * args[0].cols * args[1].cols
                self._set(owner, meth, self.spanned(name, orig, entry_mults))
            else:
                self._set(owner, meth, self.spanned(name, orig))
        for modname, cls, meth, name in COUNTED:
            owner = getattr(sys.modules[modname], cls)
            self._set(owner, meth, self.counted(f"{name}.calls", getattr(owner, meth)))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- results ------------------------------------------------------------------------

    def self_times(self) -> array:
        """Span duration minus the durations of its direct children, in ns."""
        out = array("q", (e - s for s, e in zip(self.start, self.end)))
        for sid, p in enumerate(self.parent):
            if p >= 0:
                out[p] -= self.end[sid] - self.start[sid]
        return out

    def stats(self) -> dict:
        """Every statistic of every span name and counter, by metric name."""
        k = len(self.names)
        calls, busy, self_ns = [0] * k, [0] * k, [0] * k
        last_end = [-1] * k
        pos_id = self._ids.get("density.positivity_certificate")
        det_id = self._ids.get("linalg.det")
        in_pos = array("b", bytes(len(self.start)))
        det_in_pos = 0
        own = self.self_times()
        for sid in range(len(self.start)):
            nid, s, e, p = self.name[sid], self.start[sid], self.end[sid], self.parent[sid]
            calls[nid] += 1
            self_ns[nid] += own[sid]
            if s >= last_end[nid]:       # not nested inside a span of the same name
                busy[nid] += e - s
                last_end[nid] = e
            inside = nid == pos_id or (p >= 0 and in_pos[p])
            in_pos[sid] = inside
            det_in_pos += inside and nid == det_id
        out = dict(self.counts)
        for nid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[nid]
            out[f"{name}.busy_ms"] = busy[nid] / 1e6
            out[f"{name}.self_ms"] = self_ns[nid] / 1e6
        out["density.positivity_certificate.det_calls"] = det_in_pos
        calls_memo = out.pop("memo_calls", 0)
        out["hermitian.eigen.memo_hit_ratio"] = out.pop("memo_hits", 0) / calls_memo if calls_memo else 0.0
        return out

    def write(self, path: Path, meta: dict) -> None:
        """Spans as one JSON header plus int64 columns in `<path>.bin`."""
        columns = ("parent", "name", "start", "end", "request")
        bin_path = path.with_suffix(".bin")
        with open(bin_path, "wb") as fh:
            for col in columns:
                getattr(self, col).tofile(fh)
        header = dict(meta, names=self.names, spans=len(self.start), columns=columns,
                      dtype="int64", data=bin_path.name, counts=dict(self.counts))
        path.write_text(json.dumps(header, indent=1) + "\n")
