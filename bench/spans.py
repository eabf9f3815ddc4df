"""Spans around loewy's public functions, recorded from outside the package.

`Tracer.install()` replaces every binding of each traced function: the
attribute of its defining module, every copy another module made with
`from .x import f`, the `loewy` package namespace, class attributes for
methods, and values of module-level dicts such as `verify.ALL_CHECKS`.
Each call then records one span (name, start, end, parent, value) in
memory; `per_layer()` turns the spans of one round into the per-layer
metrics listed in BENCHMARK.json.  Nothing is written until `dump()`.
"""

from __future__ import annotations

import array
import importlib
import time

import numpy as np

MODULES = ("linalg", "algebra", "corpus", "modules", "series", "nakayama",
           "specfile", "verify", "cli")


def _cells(args, kwargs, result):
    shape = np.shape(args[0])
    return shape[0] * shape[1] if len(shape) == 2 else 0


def _unknowns(args, kwargs, result):
    return args[0].dim * args[1].dim


def _undecided(args, kwargs, result):
    return int(result.status == "unknown")


# (module, attribute path, span name, value of the span or None).  Two
# functions may share a span name: the adjunction pair and the two duality
# isomorphisms are reported as one metric each.
TARGETS = (
    ("linalg", "rref", "linalg.rref", _cells),
    ("linalg", "kernel", "linalg.kernel", None),
    ("linalg", "Subspace.from_rows", "linalg.from_rows", None),
    ("linalg", "Subspace.intersect", "linalg.intersect", None),
    ("linalg", "Subspace.reduce", "linalg.reduce", None),
    ("linalg", "complement_basis", "linalg.complement_basis", None),
    ("algebra", "build_path_algebra", "algebra.build_path_algebra", None),
    ("algebra", "Algebra.__init__", "algebra.init", None),
    ("algebra", "Algebra.opposite", "algebra.opposite", None),
    ("algebra", "is_symmetric", "algebra.is_symmetric", _undecided),
    ("corpus", "random_quiver_spec", "corpus.random_quiver_spec", None),
    ("modules", "hom_space", "modules.hom_space", _unknowns),
    ("modules", "subquotient", "modules.subquotient", None),
    ("modules", "a_dual", "modules.a_dual", None),
    ("modules", "find_isomorphism", "modules.find_isomorphism", _undecided),
    ("modules", "Module.__init__", "modules.module_init", None),
    ("modules", "projective", "modules.projective", None),
    ("modules", "injective", "modules.injective", None),
    ("series", "radical_n", "series.radical_n", None),
    ("series", "socle_n", "series.socle_n", None),
    ("series", "radical_layer", "series.radical_layer", None),
    ("series", "socle_layer", "series.socle_layer", None),
    ("series", "layer_table", "series.layer_table", None),
    ("series", "adjunction_forward", "series.adjunction", None),
    ("series", "adjunction_backward", "series.adjunction", None),
    ("series", "dual_socle_capital_iso", "series.duality_iso", None),
    ("series", "dual_layer_iso", "series.duality_iso", None),
    ("nakayama", "build_nakayama", "nakayama.build_nakayama", None),
    ("specfile", "load_spec", "specfile.load_spec", None),
    ("specfile", "spec_to_algebra", "specfile.spec_to_algebra", None),
    ("verify", "verify_main_theorem", "verify.main", None),
    ("verify", "verify_landrock", "verify.landrock", None),
    ("verify", "verify_nakayama_identity", "verify.nakayama_id", None),
    ("verify", "verify_adjunction", "verify.adjunction", None),
    ("verify", "verify_duality_lemmas", "verify.duality", None),
    ("verify", "run_corpus", "verify.run_corpus", None),
    ("cli", "main", "cli.main", None),
)

# Per-layer metrics: (metric name, span name, quantity).  The quantities
# are calls, self_s, total_s and value (the sum of the spans' values).
_SPAN_METRICS = (
    ("linalg.rref.calls", "linalg.rref", "calls"),
    ("linalg.rref.self_s", "linalg.rref", "self_s"),
    ("linalg.rref.cells", "linalg.rref", "value"),
    ("linalg.kernel.calls", "linalg.kernel", "calls"),
    ("linalg.kernel.self_s", "linalg.kernel", "self_s"),
    ("linalg.from_rows.calls", "linalg.from_rows", "calls"),
    ("linalg.from_rows.self_s", "linalg.from_rows", "self_s"),
    ("linalg.intersect.self_s", "linalg.intersect", "self_s"),
    ("linalg.reduce.self_s", "linalg.reduce", "self_s"),
    ("linalg.complement_basis.self_s", "linalg.complement_basis", "self_s"),
    ("algebra.build_path_algebra.calls", "algebra.build_path_algebra", "calls"),
    ("algebra.build_path_algebra.self_s", "algebra.build_path_algebra", "self_s"),
    ("algebra.init.calls", "algebra.init", "calls"),
    ("algebra.init.self_s", "algebra.init", "self_s"),
    ("algebra.opposite.self_s", "algebra.opposite", "self_s"),
    ("algebra.is_symmetric.calls", "algebra.is_symmetric", "calls"),
    ("algebra.is_symmetric.self_s", "algebra.is_symmetric", "self_s"),
    ("algebra.is_symmetric.undecided", "algebra.is_symmetric", "value"),
    ("modules.hom_space.calls", "modules.hom_space", "calls"),
    ("modules.hom_space.self_s", "modules.hom_space", "self_s"),
    ("modules.hom_space.total_s", "modules.hom_space", "total_s"),
    ("modules.hom_space.unknowns", "modules.hom_space", "value"),
    ("modules.subquotient.calls", "modules.subquotient", "calls"),
    ("modules.subquotient.self_s", "modules.subquotient", "self_s"),
    ("modules.a_dual.calls", "modules.a_dual", "calls"),
    ("modules.a_dual.self_s", "modules.a_dual", "self_s"),
    ("modules.find_isomorphism.calls", "modules.find_isomorphism", "calls"),
    ("modules.find_isomorphism.self_s", "modules.find_isomorphism", "self_s"),
    ("modules.find_isomorphism.undecided", "modules.find_isomorphism", "value"),
    ("modules.module_init.self_s", "modules.module_init", "self_s"),
    ("modules.projective.calls", "modules.projective", "calls"),
    ("modules.injective.calls", "modules.injective", "calls"),
    ("series.radical_n.calls", "series.radical_n", "calls"),
    ("series.radical_n.self_s", "series.radical_n", "self_s"),
    ("series.socle_n.calls", "series.socle_n", "calls"),
    ("series.socle_n.self_s", "series.socle_n", "self_s"),
    ("series.radical_layer.calls", "series.radical_layer", "calls"),
    ("series.socle_layer.calls", "series.socle_layer", "calls"),
    ("series.layer_table.total_s", "series.layer_table", "total_s"),
    ("series.adjunction.self_s", "series.adjunction", "self_s"),
    ("series.duality_iso.self_s", "series.duality_iso", "self_s"),
    ("nakayama.build_nakayama.total_s", "nakayama.build_nakayama", "total_s"),
    ("specfile.load_spec.self_s", "specfile.load_spec", "self_s"),
    ("specfile.spec_to_algebra.total_s", "specfile.spec_to_algebra", "total_s"),
    ("verify.main.total_s", "verify.main", "total_s"),
    ("verify.landrock.total_s", "verify.landrock", "total_s"),
    ("verify.nakayama_id.total_s", "verify.nakayama_id", "total_s"),
    ("verify.adjunction.total_s", "verify.adjunction", "total_s"),
    ("verify.duality.total_s", "verify.duality", "total_s"),
    ("verify.run_corpus.total_s", "verify.run_corpus", "total_s"),
    ("cli.main.calls", "cli.main", "calls"),
    ("cli.main.self_s", "cli.main", "self_s"),
)

CORPUS_METRICS = ("corpus.draws", "corpus.draws_rejected", "corpus.rejected_build_s",
                  "corpus.accept_ratio")


def metric_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name == "corpus.accept_ratio" else "count"


PER_LAYER = tuple(m for m, _, _ in _SPAN_METRICS) + CORPUS_METRICS


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        # Typed arrays: a traced corpus round records about 0.33 million spans.
        self.name_ids = array.array("i")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.parents = array.array("q")
        self.values = array.array("q")
        self.outermost = array.array("b")
        self._stack = [-1]
        self._depth: dict[str, list[int]] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self._depth[name] = [0]
        return self.names.index(name)

    def _wrap(self, fn, name: str, value):
        nid = self._name_id(name)
        depth = self._depth[name]
        ids, starts, ends, parents = self.name_ids, self.starts, self.ends, self.parents
        values, outermost, stack = self.values, self.outermost, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            values.append(0)
            outermost.append(depth[0] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[0] += 1
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                depth[0] -= 1
                stack.pop()
            if value is not None:
                values[idx] = value(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every binding of every target; undo with uninstall()."""
        package = importlib.import_module("loewy")
        modules = [package] + [importlib.import_module(f"loewy.{m}") for m in MODULES]
        wrappers = {}  # id(original function) -> wrapper
        for mod_name, path, name, value in TARGETS:
            owner = importlib.import_module(f"loewy.{mod_name}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            wrapper = self._wrap(fn, name, value)
            wrappers[id(fn)] = wrapper
            if cls_path:
                self._set(owner, attr, classmethod(wrapper) if isinstance(raw, classmethod)
                          else wrapper)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and callable(obj):
                    self._set(mod, attr, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, val in list(obj.items()):
                        if id(val) in wrappers and callable(val):
                            self._set(obj, key, wrappers[id(val)], item=True)

    def _set(self, owner, attr, new, item: bool = False) -> None:
        if item:
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._restore.clear()

    def mark(self) -> int:
        """Index of the next span, to delimit a round."""
        return len(self.starts)

    def per_layer(self, lo: int, hi: int) -> dict[str, float]:
        """The per-layer metrics of spans lo..hi-1 (one round)."""
        ids = np.frombuffer(self.name_ids, dtype=np.int32)[lo:hi].astype(np.int64)
        dur = np.frombuffer(self.ends)[lo:hi] - np.frombuffer(self.starts)[lo:hi]
        parents = np.frombuffer(self.parents, dtype=np.int64)[lo:hi] - lo
        values = np.frombuffer(self.values, dtype=np.int64)[lo:hi]
        outer = np.frombuffer(self.outermost, dtype=np.int8)[lo:hi].astype(bool)
        n = len(ids)
        inside = parents >= 0
        child = np.bincount(parents[inside], weights=dur[inside], minlength=n)
        self_s = dur - child
        k = len(self.names)
        sums = {
            "calls": np.bincount(ids, minlength=k),
            "self_s": np.bincount(ids, weights=self_s, minlength=k),
            "total_s": np.bincount(ids[outer], weights=dur[outer], minlength=k),
            "value": np.bincount(ids, weights=values, minlength=k),
        }
        out = {}
        for metric, span, quantity in _SPAN_METRICS:
            nid = self.names.index(span)
            out[metric] = int(sums[quantity][nid]) if quantity in ("calls", "value") \
                else float(sums[quantity][nid])
        out.update(self._draws(ids, parents, dur))
        return out

    def _draws(self, ids, parents, dur) -> dict[str, float]:
        """Corpus draws: every spec_to_algebra span directly inside
        random_quiver_spec is one draw, and all but the last draw of each
        call were rejected."""
        spec = self.names.index("specfile.spec_to_algebra")
        gen = self.names.index("corpus.random_quiver_spec")
        last: dict[int, int] = {}
        draws = rejected = 0
        rejected_s = 0.0
        for i in np.nonzero(ids == spec)[0]:
            par = parents[i]
            if par >= 0 and ids[par] == gen:
                draws += 1
                if par in last:
                    rejected += 1
                    rejected_s += float(dur[last[par]])
                last[par] = i
        return {
            "corpus.draws": draws,
            "corpus.draws_rejected": rejected,
            "corpus.rejected_build_s": rejected_s,
            "corpus.accept_ratio": (draws - rejected) / draws if draws else 0.0,
        }

    def dump(self, path) -> None:
        """Write every span: names, name index, start, end, parent, value."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_ids, dtype=np.int32),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            value=np.frombuffer(self.values, dtype=np.int64),
        )
