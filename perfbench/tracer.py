"""Per-layer tracing for the benchmark: spans recorded from outside the library.

The library binds its functions with ``from .x import f``, so a wrapper on
``commdim.gf.rref_array`` alone would miss ``commdim.search.rref_array`` and
the other copies.  Each wrapper is therefore installed at the name the
*caller* looks up.  Spans are recorded only while a CLI call is open, so the
benchmark's own answer checks never show up in the layer numbers.

A span is (name, parent span, instance, start, end, input cells).  Spans live
in flat arrays while the run goes on and are aggregated (or written out) at
the end.  A layer's self time is its span's duration minus the durations of
its direct child spans; ``solve_affine`` calls ``rref_array`` and
``nullspace_array`` through ``gf``'s own globals, so those show up as its
children instead of being counted twice.
"""

from __future__ import annotations

import functools
import importlib
from array import array
from collections import Counter, defaultdict
from time import perf_counter

CLI = "cli"

# (module, attribute, span name): one wrapper per place a caller looks up a name
SITES = (
    ("commdim.gf", "rref_array", "gf.rref_array"),
    ("commdim.gf", "nullspace_array", "gf.nullspace_array"),
    ("commdim.algebra", "rref_array", "gf.rref_array"),
    ("commdim.algebra", "nullspace_array", "gf.nullspace_array"),
    ("commdim.search", "rref_array", "gf.rref_array"),
    ("commdim.search", "nullspace_array", "gf.nullspace_array"),
    ("commdim.search", "solve_affine", "gf.solve_affine"),
    ("commdim.forms", "find_common_isotropic", "forms.scan"),
    ("commdim.search", "find_common_isotropic", "forms.scan"),
    ("commdim.forms", "sample_form_tuple", "forms.sample"),
    ("commdim.cli", "certify_no_isotropic", "forms.certify"),
    ("commdim.cli", "reverify_certificate", "forms.reverify"),
    ("commdim.cli", "max_abelian_exact", "search.exact"),
    ("commdim.cli", "class2_exact_result", "search.class2"),
    ("commdim.cli", "greedy_abelian_class2", "search.greedy"),
    ("commdim.search", "center", "algebra.center"),
    ("commdim.search", "nilpotency_class", "algebra.nilpotency_class"),
    ("commdim.cli", "verify_axioms", "algebra.verify_axioms"),
    ("commdim.cli", "build_lie_from_forms", "construct.build"),
    ("commdim.cli", "build_assoc_from_forms", "construct.build"),
    ("commdim.cli", "unitalize", "construct.unitalize"),
    ("commdim.cli", "matrix_commutative_subalgebra", "construct.matrix_comm"),
    ("commdim.cli", "bound_table", "bounds"),
    ("commdim.cli", "simple_lie_data", "bounds"),
    ("commdim.cli", "exceptional_entries", "bounds"),
)
# spans whose first argument is a matrix; its rows x cols is the span's cell count
CELL_SPANS = frozenset({"gf.rref_array", "gf.nullspace_array"})
# the subspace generator behind the isotropy scan: counted per yielded basis
SCAN_GENERATOR = ("commdim.forms", "rref_arrays_for_pivots")
SUBSPACES = "forms.subspaces_scanned"
JSON_BYTES = "cli.json_bytes"

# (metric, unit) for every per-layer metric, in report order
LAYER_METRICS = (
    ("gf.rref_array.calls", "count"),
    ("gf.rref_array.self_s", "s"),
    ("gf.rref_array.cells", "count"),
    ("gf.nullspace_array.calls", "count"),
    ("gf.nullspace_array.self_s", "s"),
    ("gf.nullspace_array.cells", "count"),
    ("gf.solve_affine.calls", "count"),
    ("gf.solve_affine.self_s", "s"),
    ("gf.solve_affine.us_per_call", "us"),
    ("forms.subspaces_scanned", "count"),
    ("forms.scan.self_s", "s"),
    ("forms.us_per_subspace", "us"),
    ("forms.certify_attempts", "count"),
    ("forms.sample.self_s", "s"),
    ("forms.reverify_s", "s"),
    ("search.exact_s", "s"),
    ("search.exact.expanded", "count"),
    ("search.exact.solves", "count"),
    ("search.exact.expanded_per_s", "1/s"),
    ("search.class2_s", "s"),
    ("search.greedy_s", "s"),
    ("algebra.verify_axioms_s", "s"),
    ("algebra.center_s", "s"),
    ("algebra.nilpotency_class_s", "s"),
    ("algebra.from_json_s", "s"),
    ("construct.build_s", "s"),
    ("construct.unitalize_s", "s"),
    ("construct.matrix_comm_s", "s"),
    ("bounds.s", "s"),
    ("cli.self_s", "s"),
    ("cli.calls", "count"),
    ("cli.json_bytes", "count"),
    ("trace.overhead_frac", "ratio"),
)
# counters that do not depend on the machine: two runs on one seed must agree
REPEAT_COUNTERS = (
    "gf.rref_array.calls",
    "gf.rref_array.cells",
    "gf.nullspace_array.calls",
    "gf.nullspace_array.cells",
    "gf.solve_affine.calls",
    "forms.subspaces_scanned",
    "forms.certify_attempts",
    "search.exact.expanded",
    "search.exact.solves",
    "cli.calls",
    "cli.json_bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    """Installs the wrappers on entry, removes them on exit, keeps the spans."""

    def __init__(self):
        self._names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.start = array("d")
        self.end = array("d")
        self.cells = array("q")
        self.events: Counter = Counter()  # (instance, event) -> count
        self._stack: list[int] = []
        self._current = -1
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, cells: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.instance.append(self._current)
        self.cells.append(cells)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def call_cli(self, main, argv, instance: int) -> int:
        """Run one CLI call as the root span of its instance."""
        self._current = instance
        idx = self._open(self._name_id(CLI), 0)
        try:
            return main(argv)
        finally:
            self._close(idx)

    def count(self, instance: int, event: str, n: int) -> None:
        self.events[(instance, event)] += n

    def _wrap(self, fn, name: str):
        name_id = self._name_id(name)
        with_cells = name in CELL_SPANS
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a CLI call
                return fn(*args, **kwargs)
            cells = 0
            if with_cells:
                shape = getattr(args[0], "shape", (0, 0))
                cells = int(shape[0]) * int(shape[1])
            idx = self._open(name_id, cells)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    def _counting_generator(self, gen_fn):
        stack = self._stack

        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                if stack:
                    self.events[(self._current, SUBSPACES)] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr: str, new) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def __enter__(self) -> "Tracer":
        for mod_name, attr, span in SITES:
            mod = importlib.import_module(mod_name)
            self._patch(mod, attr, self._wrap(getattr(mod, attr), span))
        mod = importlib.import_module(SCAN_GENERATOR[0])
        self._patch(mod, SCAN_GENERATOR[1], self._counting_generator(getattr(mod, SCAN_GENERATOR[1])))
        cls = importlib.import_module("commdim.algebra").StructureConstantAlgebra
        from_json = cls.__dict__["from_json"].__func__
        self._patch(cls, "from_json", classmethod(self._wrap(from_json, "algebra.from_json")))
        return self

    def __exit__(self, *exc) -> None:
        while self._restore:
            owner, attr, old = self._restore.pop()
            setattr(owner, attr, old)

    # -- aggregation -------------------------------------------------------

    def _totals(self, instance: int | None = None):
        n = len(self.start)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * n
        for i, par in enumerate(self.parent):
            if par >= 0:
                child[par] += dur[i]
        names = self._names
        incl: defaultdict = defaultdict(float)
        own: defaultdict = defaultdict(float)
        calls: Counter = Counter()
        cells: Counter = Counter()
        under: Counter = Counter()  # (span name, parent span name) -> calls
        for i in range(n):
            if instance is not None and self.instance[i] != instance:
                continue
            name = names[self.name[i]]
            incl[name] += dur[i]
            own[name] += dur[i] - child[i]
            calls[name] += 1
            cells[name] += self.cells[i]
            par = self.parent[i]
            under[(name, names[self.name[par]] if par >= 0 else None)] += 1
        events: Counter = Counter()
        for (inst, event), k in self.events.items():
            if instance is None or inst == instance:
                events[event] += k
        return incl, own, calls, cells, under, events

    def metrics(self, instance: int | None = None) -> dict[str, float]:
        """Every per-layer metric except trace.overhead_frac, over all spans
        or over one instance's spans."""
        incl, own, calls, cells, under, events = self._totals(instance)
        scanned = events[SUBSPACES]
        expanded = under[("gf.nullspace_array", "search.exact")]
        m = {}
        for k in ("gf.rref_array", "gf.nullspace_array"):
            m[f"{k}.calls"] = calls[k]
            m[f"{k}.self_s"] = own[k]
            m[f"{k}.cells"] = cells[k]
        m["gf.solve_affine.calls"] = calls["gf.solve_affine"]
        m["gf.solve_affine.self_s"] = own["gf.solve_affine"]
        m["gf.solve_affine.us_per_call"] = 1e6 * _ratio(incl["gf.solve_affine"], calls["gf.solve_affine"])
        m["forms.subspaces_scanned"] = scanned
        m["forms.scan.self_s"] = own["forms.scan"]
        m["forms.us_per_subspace"] = 1e6 * _ratio(own["forms.scan"], scanned)
        m["forms.certify_attempts"] = under[("forms.sample", "forms.certify")]
        m["forms.sample.self_s"] = own["forms.sample"]
        m["forms.reverify_s"] = incl["forms.reverify"]
        m["search.exact_s"] = incl["search.exact"]
        m["search.exact.expanded"] = expanded
        m["search.exact.solves"] = under[("gf.solve_affine", "search.exact")]
        m["search.exact.expanded_per_s"] = _ratio(expanded, incl["search.exact"])
        m["search.class2_s"] = incl["search.class2"]
        m["search.greedy_s"] = incl["search.greedy"]
        m["algebra.verify_axioms_s"] = incl["algebra.verify_axioms"]
        m["algebra.center_s"] = incl["algebra.center"]
        m["algebra.nilpotency_class_s"] = incl["algebra.nilpotency_class"]
        m["algebra.from_json_s"] = incl["algebra.from_json"]
        m["construct.build_s"] = incl["construct.build"]
        m["construct.unitalize_s"] = incl["construct.unitalize"]
        m["construct.matrix_comm_s"] = incl["construct.matrix_comm"]
        m["bounds.s"] = incl["bounds"]
        m["cli.self_s"] = own[CLI]
        m["cli.calls"] = calls[CLI]
        m["cli.json_bytes"] = events[JSON_BYTES]
        return m

    def repeat_counters(self, instance: int) -> dict[str, int]:
        m = self.metrics(instance)
        return {k: m[k] for k in REPEAT_COUNTERS}

    def save(self, path) -> None:
        """Write every span as one tab-separated line."""
        names = self._names
        with open(path, "w") as fh:
            fh.write("instance\tname\tparent\tstart\tend\tcells\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{self.instance[i]}\t{names[self.name[i]]}\t{self.parent[i]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t{self.cells[i]}\n"
                )
