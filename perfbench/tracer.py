"""Span tracer that instruments the `gkm` package from outside.

Each traced function is replaced, in every `gkm` module namespace that
binds it by name, with a wrapper that records one span
``(name, start_ns, end_ns, parent, op)``; ``parent`` is the index of the
enclosing span in ``Tracer.spans`` (-1 at the root) and ``op`` the id of the
benchmark op the span belongs to.  Spans are recorded only inside
``Tracer.op``, so checks run between ops leave no trace.  ``uninstall``
puts every original object back.
"""

from __future__ import annotations

import contextlib
import gzip
import sys
from fractions import Fraction
from time import perf_counter_ns

# (span name, defining module, function name)
FUNCTIONS = [
    ("jsonio.loads", "gkm.jsonio", "loads"),
    ("graph.orient", "gkm.graph", "orient"),
    ("geometry.classify_type", "gkm.geometry", "classify_type"),
    ("geometry.cycle_shape", "gkm.geometry", "cycle_shape"),
    ("linalg.echelon", "gkm.linalg", "echelon"),
    ("linalg.solve", "gkm.linalg", "solve"),
    ("linalg.nullspace", "gkm.linalg", "nullspace"),
    ("cohomology.thom_class", "gkm.cohomology", "thom_class"),
    ("cohomology.basis", "gkm.cohomology", "basis"),
    # Defined in polynomial, but it is the edge-congruence re-check that
    # cohomology runs on every class it builds.
    ("cohomology.congruent_mod_linear", "gkm.polynomial", "congruent_mod_linear"),
    ("localization.euler_class", "gkm.localization", "euler_class"),
    ("localization.integrate", "gkm.localization", "integrate"),
    ("localization.check_low_degree_vanishing", "gkm.localization",
     "check_low_degree_vanishing"),
    ("lefschetz.hard_lefschetz_report", "gkm.lefschetz", "hard_lefschetz_report"),
    ("lefschetz.coefficient_pairs", "gkm.lefschetz", "coefficient_pairs"),
    ("lefschetz.thom_coefficient", "gkm.lefschetz", "thom_coefficient"),
    ("lefschetz.mixed_hr2_matrix", "gkm.lefschetz", "mixed_hr2_matrix"),
    ("lefschetz.check_pairing_identity", "gkm.lefschetz", "check_pairing_identity"),
    ("lefschetz.check_sign_conditions", "gkm.lefschetz", "check_sign_conditions"),
    ("lefschetz.hr_matrix", "gkm.lefschetz", "hr_matrix"),
]

# (span name, defining module, class, attribute names sharing one function)
METHODS = [
    ("graph.validate", "gkm.graph", "GkmGraph", ("validate",)),
    ("polynomial.mul", "gkm.polynomial", "Polynomial", ("__mul__", "__rmul__")),
    ("polynomial.divide_by_linear", "gkm.polynomial", "Polynomial",
     ("divide_by_linear",)),
    ("cohomology.element_mul", "gkm.cohomology", "CohomologyElement",
     ("__mul__", "__rmul__")),
]

OP_SPAN = "op"
FRACTIONS = "fractions.Fraction.calls"
ECHELON_CELLS = "linalg.echelon.cells"
ECHELON_BITS = "linalg.echelon.max_bits"


class Tracer:
    """In-memory spans plus per-op counters, gathered while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_counts: dict[int, dict[str, int]] = {}
        self._stack: list[int] = []
        self._op: int | None = None
        self._fraction_calls = [0]
        self._patches: list[tuple[object, str, object]] = []

    # -- instrumentation ---------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            op = self._op
            if op is None:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent, op)
            if after is not None:
                after(op, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_echelon(self, op: int, args, result) -> None:
        matrix = args[0]
        counts = self.op_counts[op]
        counts[ECHELON_CELLS] += len(matrix) * (len(matrix[0]) if matrix else 0)
        bits = max((abs(x).bit_length() for row in result.rows for x in row), default=0)
        counts[ECHELON_BITS] = max(counts[ECHELON_BITS], bits)

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if m is not None and (n == "gkm" or n.startswith("gkm."))]
        for name, module, attr in FUNCTIONS:
            original = vars(sys.modules[module])[attr]
            after = self._count_echelon if name == "linalg.echelon" else None
            wrapper = self._span(name, original, after)
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        self._patch(namespace, key, wrapper)
        for name, module, cls_name, attrs in METHODS:
            cls = vars(sys.modules[module])[cls_name]
            wrapper = self._span(name, vars(cls)[attrs[0]])
            for attr in attrs:
                self._patch(cls, attr, wrapper)

        new = vars(Fraction)["__new__"].__func__
        cell = self._fraction_calls

        def counted_new(cls, *args, **kwargs):
            cell[0] += 1
            return new(cls, *args, **kwargs)

        self._patch(Fraction, "__new__", staticmethod(counted_new))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextlib.contextmanager
    def op(self, op_id: int):
        """Record everything the body calls as the spans of op ``op_id``."""
        if op_id in self.op_counts:
            raise ValueError(f"op id {op_id} already traced")
        self.op_counts[op_id] = {FRACTIONS: 0, ECHELON_CELLS: 0, ECHELON_BITS: 0}
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        fractions_before = self._fraction_calls[0]
        self._op = op_id
        start = perf_counter_ns()
        try:
            yield
        finally:
            end = perf_counter_ns()
            self._op = None
            self._stack.pop()
            self.spans[index] = (OP_SPAN, start, end, -1, op_id)
            self.op_counts[op_id][FRACTIONS] = self._fraction_calls[0] - fractions_before

    # -- results -----------------------------------------------------------

    def totals(self, ops=None) -> dict[str, dict[str, int]]:
        """Per span name: ``calls`` and ``self_ns`` summed over ``ops``
        (all traced ops by default).  ``cohomology.thom_class`` also gets
        ``solves``: the `linalg.solve` spans beneath it."""
        spans = self.spans
        child_ns = [0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, dict[str, int]] = {}
        wanted = None if ops is None else set(ops)
        for i, (name, start, end, parent, op) in enumerate(spans):
            if wanted is not None and op not in wanted:
                continue
            entry = totals.setdefault(name, {"calls": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["self_ns"] += end - start - child_ns[i]
            if name == "linalg.solve" and self._has_ancestor(i, "cohomology.thom_class"):
                thom = totals.setdefault("cohomology.thom_class", {"calls": 0, "self_ns": 0})
                thom["solves"] = thom.get("solves", 0) + 1
        return totals

    def _has_ancestor(self, index: int, name: str) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def write_spans(self, path) -> None:
        """All spans as gzip-compressed CSV, one row per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("name,start_ns,end_ns,parent,op\n")
            for span in self.spans:
                out.write(",".join(map(str, span)) + "\n")
