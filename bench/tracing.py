"""Span tracer that wraps stancegraph's public functions from the outside.

Each wrapped call records one span (name, start, end, parent) in memory; the
benchmark writes the spans out when the run ends. Functions are wrapped at
every module attribute that holds them, because each caller looks a function
up in its own module's namespace (``train.forward``, ``cli.load_checkpoint``).
Methods are wrapped on their class. Nothing here touches the program's
artifacts: a traced round must write the same library, checkpoint and
predictions as an untraced one, and the benchmark checks that it does.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
import tracemalloc
from collections import Counter, defaultdict

PACKAGE = "stancegraph"
MODULES = ("fol", "embed", "gateway", "induce", "kernel", "train",
           "pipeline", "cli", "synth")

# (home module, attribute, span name) for module-level functions.
FUNCTIONS = [
    ("kernel", "forward", "kernel.forward"),
    ("kernel", "backward", "kernel.backward"),
    ("kernel", "khop_subgraph", "kernel.khop_subgraph"),
    ("kernel", "clone_model", "kernel.clone_model"),
    ("kernel", "build_model", "kernel.build_model"),
    ("kernel", "augment_graph", "kernel.augment_graph"),
    ("kernel", "save_checkpoint", "kernel.save_checkpoint"),
    ("kernel", "load_checkpoint", "kernel.load_checkpoint"),
    ("train", "train", "train.train"),
    ("train", "dataset_loss", "train.dataset_loss"),
    ("train", "evaluate", "train.evaluate"),
    ("induce", "select_k", "induce.select_k"),
    ("induce", "kmeans", "induce.kmeans"),
    ("induce", "silhouette", "induce.silhouette"),
    ("induce", "abstract_clusters", "induce.abstract_clusters"),
    ("induce", "build_schema_graph", "induce.build_schema_graph"),
    ("induce", "load_library", "induce.load_library"),
    ("fol", "parse_fol_line", "fol.parse_fol_line"),
    ("fol", "build_fol_graph", "fol.build_fol_graph"),
    ("pipeline", "generate_fol", "pipeline.generate_fol"),
    ("pipeline", "rationale_to_graph", "pipeline.rationale_to_graph"),
]

# (home module, class, method, span name) for methods timed as plain spans;
# Gateway.complete and TokenAverageProvider.embed_batch also count.
METHODS = [
    ("train", "AdamW", "step", "train.AdamW.step"),
    ("gateway", "Gateway", "__init__", "gateway.load"),
]


def module(name: str):
    return sys.modules[f"{PACKAGE}.{name}"]


class Tracer:
    """In-memory spans plus counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent index]
        self._stack: list[int] = []
        self.counts: Counter = Counter()
        self.texts: set[str] = set()
        self.peak_traced_bytes = 0

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = [name, time.perf_counter(), 0.0,
                  self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield index
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return wrapper

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child_time):
            totals[name] += (end - start) - inner
        return dict(totals)

    def calls(self) -> Counter:
        return Counter(name for name, *_ in self.spans)

    def children_by_name(self, parent_name: str) -> list[dict[str, float]]:
        """For every span called parent_name, the summed duration of its
        direct children grouped by child name."""
        index = {i: {} for i, s in enumerate(self.spans) if s[0] == parent_name}
        for name, start, end, parent in self.spans:
            if parent in index:
                index[parent][name] = index[parent].get(name, 0.0) + end - start
        return [index[i] for i in sorted(index)]

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")


def _sites(home: str, attr: str) -> list:
    """Every stancegraph module whose attribute `attr` is the home function."""
    fn = getattr(module(home), attr)
    owners = [module(m) for m in MODULES]
    return [m for m in owners if m.__dict__.get(attr) is fn]


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the listed functions and methods for the duration of the block."""
    saved = []

    def patch(owner, attr, replacement):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    try:
        for home, attr, name in FUNCTIONS:
            wrapped = tracer.wrap(name, getattr(module(home), attr))
            for owner in _sites(home, attr):
                patch(owner, attr, wrapped)
        wrapped = _traced_induce(tracer, module("induce").induce_library)
        for owner in _sites("induce", "induce_library"):
            patch(owner, "induce_library", wrapped)
        for home, cls_name, attr, name in METHODS:
            cls = getattr(module(home), cls_name)
            patch(cls, attr, tracer.wrap(name, cls.__dict__[attr]))
        gateway_cls = module("gateway").Gateway
        patch(gateway_cls, "complete",
              _traced_complete(tracer, gateway_cls.__dict__["complete"]))
        provider_cls = module("embed").TokenAverageProvider
        patch(provider_cls, "embed_batch",
              _traced_embed(tracer, provider_cls.__dict__["embed_batch"]))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _traced_induce(tracer: Tracer, fn):
    """induce_library span plus the tracemalloc peak inside it."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracemalloc.start()
        try:
            with tracer.span("induce.induce_library"):
                return fn(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            tracer.peak_traced_bytes = max(tracer.peak_traced_bytes, peak)
    return wrapper


def _traced_complete(tracer: Tracer, fn):
    """Gateway.complete span; counts cache hits and record-mode writes."""
    @functools.wraps(fn)
    def wrapper(self, req):
        cached = self.cache.get(req.cache_key()) is not None
        with tracer.span("gateway.complete"):
            response = fn(self, req)
        if cached:
            tracer.counts["gateway.hits"] += 1
        elif self.mode == "record":
            tracer.counts["gateway.writes"] += 1
        return response
    return wrapper


def _traced_embed(tracer: Tracer, fn):
    """embed_batch span; counts texts embedded and remembers distinct ones."""
    @functools.wraps(fn)
    def wrapper(self, texts):
        tracer.counts["embed.texts"] += len(texts)
        tracer.texts.update(texts)
        with tracer.span("embed.embed_batch"):
            return fn(self, texts)
    return wrapper


@contextlib.contextmanager
def count_calls(owner, attr: str):
    """Count calls to owner.attr (no timing) in counter["calls"]; used by the
    output checks."""
    original = owner.__dict__[attr]
    counter: Counter = Counter()

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        counter["calls"] += 1
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield counter
    finally:
        setattr(owner, attr, original)
