"""Per-layer tracing done from outside the package.

``Tracer.install`` replaces the public functions of each blogfluence
module with timing wrappers by reassigning the module attributes that
callers look up (``cli.build_vectors``, ``factor.fit_iolap``, ...);
``Tracer.uninstall`` puts the originals back.  No file of the package
changes.  A wrapped call records a span (name, start, end, parent) in
memory and, for some layers, counts taken from its arguments and result.
``Tracer.layer_metrics`` turns one traced pass into the per-layer
metrics listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
from collections import Counter, defaultdict
from time import perf_counter

# Stages of the full CLI run, in order.
STAGES = (
    "synth", "ingest", "links", "causality", "influence", "topics", "split",
    "tensor", "iolap", "pcldc", "pcl", "idr", "eval", "report",
)


def _count(metric, measure):
    def observe(tracer, bound, result):
        tracer.counts[metric] += measure(bound.arguments, result)
    return observe


def _distinct(name, key):
    """Record a key per call; distinct keys / calls is the useful-work ratio."""
    def observe(tracer, bound, result):
        tracer.keys[name].add(key(bound.arguments))
    return observe


def _fit(name, loop_values):
    """Record (iterations, converged, final objective finite) of an EM fit.

    ``loop_values`` picks, from the model's trace, the objective values the
    fit's loop compared with its ``tol`` test.
    """
    def observe(tracer, bound, result):
        trace = getattr(result, "loglik_trace", None) or result.objective_trace
        values = loop_values(trace)
        tol = bound.arguments["tol"]
        converged = len(values) >= 2 and abs(values[-1] - values[-2]) <= tol * abs(values[-2])
        tracer.fits[name].append((len(trace) - 1, converged, math.isfinite(trace[-1])))
    return observe


def _corpus_key(args):
    # Equal post texts with equal settings give the same vector space.
    rest = tuple(sorted((k, repr(v)) for k, v in args.items() if k != "corpus"))
    return hash((tuple((p.url, p.body) for p in args["corpus"].posts), rest))


# span name -> (module attributes that resolve to it, observers)
SPANNED = {
    "synth.generate": ([("synth", "generate")], ()),
    "corpus.parse": (
        [("cli", "parse_content_file"), ("cli", "parse_access_log")],
        (_distinct("corpus.parse", lambda a: getattr(a["stream"], "name", id(a["stream"]))),),
    ),
    "corpus.clean": (
        [("cli", "clean_accesses"), ("pipeline", "clean_accesses")],
        (
            _count("corpus.posts", lambda a, r: len(r[0].posts)),
            _count("corpus.accesses_kept", lambda a, r: len(r[0].accesses)),
        ),
    ),
    "textvec.build_vectors": (
        [("cli", "build_vectors"), ("pipeline", "build_vectors")],
        (_distinct("textvec.build_vectors", _corpus_key),),
    ),
    "implicit.links": (
        [("implicit", "build_implicit_links"), ("pipeline", "build_implicit_links")],
        (_count("implicit.links", lambda a, r: len(r.links)),),
    ),
    "causality.similarity": (
        [("causality", "annotate_similarity"), ("pipeline", "annotate_similarity")], (),
    ),
    "causality.coins_z": (
        [
            ("causality", "forward_z_test"), ("causality", "reversed_z_test"),
            ("pipeline", "forward_z_test"), ("pipeline", "reversed_z_test"),
        ],
        (),
    ),
    "causality.extract": (
        [("causality", "extract_influence"), ("pipeline", "extract_influence")],
        (_count("causality.influence_links", lambda a, r: len(r.links)),),
    ),
    "topics.plsa": (
        [("topics", "fit_plsa")],
        (
            _fit("topics.plsa", lambda t: t[:-1]),
            _count("topics.doc_term_nnz", lambda a, r: int(a["doc_term"].counts.size)),
        ),
    ),
    "factor.tensor": (
        [("factor", "build_influence_tensor")],
        (_count("factor.tensor_nnz", lambda a, r: int(r.counts.size)),),
    ),
    "factor.iolap": ([("factor", "fit_iolap")], (_fit("factor.iolap", lambda t: t[:-1]),)),
    "factor.pcldc": ([("factor", "fit_pcldc")], (_fit("factor.pcldc", lambda t: t),)),
    "factor.pcl": ([("factor", "fit_pcl")], (_fit("factor.pcl", lambda t: t),)),
    "analysis.split": ([("analysis", "split_train_test")], ()),
    "analysis.eval": ([("analysis", "recall_at_n")], ()),
    "pipeline.run_detection": ([("pipeline", "run_detection")], ()),
}

# Recommender calls: counted and keyed by query, not timed (thousands of
# short calls, all inside ``analysis.eval`` spans).
RECOMMENDERS = ("recommend_tg", "recommend_iolap", "recommend_pcldc", "recommend_pcl")

# Busy time of these layers plus ``cli.self_s`` adds up to the CLI stage
# spans; ``pipeline.run_detection`` is only called outside the CLI.
CLI_CHILD_LAYERS = tuple(f"{name}_s" for name in SPANNED if name != "pipeline.run_detection")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[int] = []
        self.calls: Counter = Counter()
        self.keys: dict[str, set] = defaultdict(set)
        self.counts: Counter = Counter()
        self.fits: dict[str, list[tuple[int, bool, bool]]] = defaultdict(list)
        self.missing: list[str] = []  # attributes absent from the package
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, self._stack[-1] if self._stack else None])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name, observers):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.calls[name] += 1
            if observers:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for observe in observers:
                    observe(self, bound, result)
            return result

        return wrapper

    def _recommender(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # recommend_tg(iolap, topics, keywords, ...) has no member;
            # the others take (model, member, keywords, n, exclude).
            member = None if name == "recommend_tg" else args[1]
            self.calls["analysis.recommend"] += 1
            self.keys["analysis.recommend"].add((name, member, tuple(args[2])))
            return fn(*args, **kwargs)

        return wrapper

    # -- install / uninstall ---------------------------------------------

    def install(self) -> None:
        plan = [
            (attrs, lambda fn, n=name, o=observers: self._spanned(fn, n, o))
            for name, (attrs, observers) in SPANNED.items()
        ]
        plan += [
            ([("analysis", name)], lambda fn, n=name: self._recommender(fn, n))
            for name in RECOMMENDERS
        ]
        for attrs, wrap in plan:
            for module_name, attr in attrs:
                module = importlib.import_module(f"blogfluence.{module_name}")
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.append(f"{module_name}.{attr}")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, wrap(original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    # -- metrics ----------------------------------------------------------

    def busy(self, name: str) -> float:
        return sum(end - start for span, start, end, _ in self.spans if span == name)

    def self_time(self, prefix: str) -> float:
        """Time of the spans named ``prefix*`` minus their direct children."""
        children = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent is not None:
                children[parent] += end - start
        return sum(
            end - start - children[i]
            for i, (name, start, end, _) in enumerate(self.spans)
            if name.startswith(prefix)
        )

    def layer_metrics(self) -> dict[str, float]:
        def ratio(num, den):
            return num / den if den else 0.0

        def distinct(name):
            return ratio(len(self.keys.get(name, ())), self.calls[name])

        m: dict[str, float] = {f"{name}_s": self.busy(name) for name in SPANNED}
        for stage in STAGES:
            m[f"cli.{stage}_s"] = self.busy(f"cli.{stage}")
        m["cli.self_s"] = self.self_time("cli.")
        m["pipeline.self_s"] = self.self_time("pipeline.run_detection")
        for name in ("corpus.parse", "textvec.build_vectors", "causality.similarity",
                     "analysis.recommend"):
            m[f"{name}_calls"] = self.calls[name]
        m["corpus.parse_useful_ratio"] = distinct("corpus.parse")
        m["textvec.useful_ratio"] = distinct("textvec.build_vectors")
        m["analysis.query_useful_ratio"] = distinct("analysis.recommend")
        for name in ("corpus.posts", "corpus.accesses_kept", "implicit.links",
                     "causality.influence_links", "topics.doc_term_nnz", "factor.tensor_nnz"):
            m[name] = self.counts[name]
        for name in ("topics.plsa", "factor.iolap", "factor.pcldc", "factor.pcl"):
            m[f"{name}_iters"] = sum(n for n, _, _ in self.fits.get(name, ()))
        for name in ("topics.plsa", "factor.iolap"):
            fits = self.fits.get(name, ())
            m[f"{name}_s_per_iter"] = ratio(m[f"{name}_s"], m[f"{name}_iters"])
            m[f"{name}_converged"] = ratio(sum(c for _, c, _ in fits), len(fits))
        return m

    def deterministic(self) -> dict[str, object]:
        """Counters that must repeat exactly between two passes."""
        return {
            "calls": dict(sorted(self.calls.items())),
            "distinct": {k: len(v) for k, v in sorted(self.keys.items())},
            "counts": dict(sorted(self.counts.items())),
            "fits": dict(sorted(self.fits.items())),
        }
