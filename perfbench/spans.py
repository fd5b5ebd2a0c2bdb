"""Spans around the public functions and methods of each layer.

The tracer wraps library callables from the outside: it rebinds every
module attribute of the `arrayabs` package that holds the original
function (modules import each other's functions by name, so patching
one module is not enough) and replaces methods on their class. Nothing
inside `src/` changes. Each span records name, start, end, parent span
and program id; spans stay in memory and are written out once, at the
end of the run.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

from arrayabs import backend, lang, lia, lift, transform
from arrayabs.backend.affine import AffineEqs
from arrayabs.backend.octagon import Octagon
from arrayabs.backend.product import Product

# AffineEqs operations that do row reduction; the trivial accessors are
# left unwrapped so that tracing does not dominate them.
AFFINE_METHODS = ("add_eq", "meet", "forget", "assign", "leq", "join", "widen")


def _count_stmts(p) -> int:
    return sum(1 for _ in lang.walk_stmts(p.body))


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # one [name id, start, end, parent index, program id] per span; a
        # record is appended whole, so a deadline signal arriving between
        # two bytecodes never leaves a half-written span
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.program_id = -1
        # name -> [sum, count] of a size recorded at a span (vars, paths, ...)
        self.sizes: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        self.peaks: dict[str, int] = defaultdict(int)
        self.unsat = 0
        self._undo: list[Callable[[], None]] = []

    # ------------------------------------------------------------ spans

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent, self.program_id])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, program_id: int):
        """Root span of one job; everything the job calls nests in it."""
        self.program_id = program_id
        idx = self._open("job")
        try:
            yield
        finally:
            # a deadline can fire between a span's open and its wrapper's
            # try block: end whatever the unwinding left open
            now = time.perf_counter()
            for rec in self.spans[idx:]:
                if rec[2] == 0.0:
                    rec[2] = now
            self._stack.clear()

    def size(self, name: str, value: int) -> None:
        s = self.sizes[name]
        s[0] += value
        s[1] += 1

    # ---------------------------------------------------------- wrapping

    def _wrap(self, name: str, fn: Callable, after: Callable | None = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                if tracer._stack and tracer._stack[-1] == idx:
                    tracer._close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _rebind(self, fn: Callable, wrapper: Callable) -> None:
        """Point every arrayabs module attribute bound to fn at wrapper."""
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "arrayabs" or mod_name.startswith("arrayabs.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, fn))

    def _method(self, cls: type, meth: str, name: str, after: Callable | None = None) -> None:
        fn = cls.__dict__[meth]
        setattr(cls, meth, self._wrap(name, fn, after))
        self._undo.append(lambda: setattr(cls, meth, fn))

    def install(self) -> None:
        sz = self.size

        def peak(name: str, value: int) -> None:
            if value > self.peaks[name]:
                self.peaks[name] = value

        def after_sat(args, model):
            if model is None:
                self.unsat += 1

        table = [
            (lang.parse_program, "lang.parse", lambda a, p: sz("lang.stmts", _count_stmts(p))),
            (lang.decompose_accesses, "lang.decompose", None),
            (
                transform.transform_program,
                "transform",
                lambda a, sp: (
                    sz("transform.scalar_vars", len(sp.program.params) + len(sp.program.locals)),
                    sz("transform.flags", len(sp.flags)),
                ),
            ),
            (backend.analyze_scalar, "backend.abstract", lambda a, r: sz("backend.abstract.exit_parts", len(r.exit.parts))),
            (backend.analyze_loopfree_exact, "backend.exact", lambda a, r: sz("backend.exact.paths", len(r.summaries))),
            (lift.quantify, "lift.quantify", lambda a, inv: sz("lift.invariant_atoms", len(inv.matrix.atoms()))),
            (lift.reduce_dual, "lift.reduce_dual", None),
            (lift.check_target, "lift.target", None),
            (lia.is_sat, "lia.is_sat", after_sat),
            (lia.project, "lia.qe", None),
            (lia.eliminate_quantifiers, "lia.qe", None),
        ]
        for fn, name, after in table:
            self._rebind(fn, self._wrap(name, fn, after))
        self._method(Octagon, "close", "backend.octagon.close", lambda a, r: peak("backend.octagon.max_vars", len(a[0].vars)))
        for meth in AFFINE_METHODS:
            self._method(AffineEqs, meth, "backend.affine")
        self._method(Product, "reduce", "backend.product.reduce")

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------ output

    def self_times(self) -> dict[str, list[float]]:
        """name -> [self seconds, calls]. Self time is a span's duration
        minus the durations of its direct children; spans of one thread
        nest, so the children never overlap."""
        child = [0.0] * len(self.spans)
        for _nid, t0, t1, parent, _prog in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, list[float]] = defaultdict(lambda: [0.0, 0])
        for (nid, t0, t1, _parent, _prog), c in zip(self.spans, child):
            acc = out[self.names[nid]]
            acc[0] += t1 - t0 - c
            acc[1] += 1
        return out

    def inclusive(self) -> dict[str, float]:
        """name -> total span duration, nested spans of the same name
        counted once."""
        out: dict[str, float] = defaultdict(float)
        for nid, t0, t1, parent, _prog in self.spans:
            if parent < 0 or not self._under(parent, nid):
                out[self.names[nid]] += t1 - t0
        return out

    def _under(self, idx: int, nid: int) -> bool:
        while idx >= 0:
            if self.spans[idx][0] == nid:
                return True
            idx = self.spans[idx][3]
        return False

    def write(self, path: Path) -> None:
        """One JSON header with the span names, then one line per span:
        name id, start, end, parent index, program id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write(json.dumps({"names": self.names}) + "\n")
            for nid, t0, t1, parent, prog in self.spans:
                f.write(f"{nid} {t0:.9f} {t1:.9f} {parent} {prog}\n")
