"""In-memory span tracer that wraps augquant's public functions by layer.

A layer is a named group of functions.  Installing the tracer replaces each
function at every ``augquant`` module binding that holds it (``substream`` is
imported by name into several modules, so all of those names are rebound),
and methods on their class.  Every call then records a span: layer, start,
end, parent span and an optional work count.  Spans stay in memory; the
benchmark aggregates them per pass and writes the last traced pass to disk.

A layer whose functions no longer exist is reported as absent and the run
goes on, so the benchmark survives refactors of the program it measures.
"""

import functools
import importlib
import inspect
import sys
import threading
import time

# layer -> targets, each "module:qualname"; "module:*" means every public
# function defined in that module
LAYERS = {
    "cli.main": ["augquant.cli:main"],
    "config.parse": ["augquant.config:read_config", "augquant.config:experiment_from_config"],
    "config.atomic_write": ["augquant.config:atomic_write"],
    "montecarlo.run_experiment": ["augquant.montecarlo:run_experiment"],
    "rng.substream": ["augquant.rng:substream"],
    "core.sample": ["augquant.core:DataSource.sample"],
    "core.index_draw": ["augquant.core:TransformationFamily.sample_indices"],
    "core.augment": ["augquant.core:augment_iid", "augquant.core:augment_repeated",
                     "augquant.core:replicate_unaugmented"],
    "surrogate.sample": ["augquant.surrogate:sample_surrogate_rows",
                         "augquant.surrogate:sample_surrogate",
                         "augquant.surrogate:sample_repeated_surrogate"],
    "surrogate.setup": ["augquant.surrogate:estimate_moments",
                        "augquant.surrogate:build_surrogate"],
    "statistics.evaluate": ["augquant.statistics:evaluate"],
    "statistics.ridge_derivative": ["augquant.statistics:ridge_derivative"],
    "bounds.estimate_alpha": ["augquant.bounds:estimate_alpha"],
    "bounds.moment_constants": ["augquant.bounds:moment_constants"],
    # adapter objects are built per call, so their .norms is wrapped on the
    # instance that derivative_adapter returns (see Tracer._wrap_adapter_factory)
    "bounds.norms": ["augquant.bounds:derivative_adapter"],
    "closedform": ["augquant.closedform:*"],
    "quadrature.integrate": ["augquant.quadrature:integrate"],
}


def _augment_cells(args, kwargs, result):
    return int(result.n) * int(result.k)


def _written_bytes(args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    return len(text.encode("utf-8"))


def _replicates(args, kwargs, result):
    config = args[0] if args else kwargs["config"]
    return int(config.replicates)


# per-layer work counters, read from each call's arguments or result
COUNTERS = {
    "core.augment": _augment_cells,
    "config.atomic_write": _written_bytes,
    "montecarlo.run_experiment": _replicates,
}

# span record slots
LAYER, START, END, PARENT, COUNT, TAG = range(6)


def _resolve(target):
    """Return [(owner, attr, original)] for one target, or raise LookupError."""
    mod_name, _, qual = target.partition(":")
    try:
        module = importlib.import_module(mod_name)
    except ImportError as exc:
        raise LookupError(f"{mod_name} cannot be imported: {exc}") from exc
    if qual == "*":
        found = [(module, name, fn) for name, fn in vars(module).items()
                 if inspect.isfunction(fn) and fn.__module__ == mod_name
                 and not name.startswith("_")]
        if not found:
            raise LookupError(f"{mod_name} defines no public function")
        return found
    owner = module
    *path, attr = qual.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{mod_name}.{'.'.join(path)} does not exist")
    original = vars(owner).get(attr) if inspect.isclass(owner) else getattr(owner, attr, None)
    if not callable(original):
        raise LookupError(f"{target} does not exist")
    return [(owner, attr, original)]


class Tracer:
    """Collects spans from wrapped functions; install() and uninstall() patch."""

    def __init__(self, layers=LAYERS):
        self.layers = list(layers)
        self._targets = layers
        self.spans = []
        self.absent, self.missing = [], []
        self._patches = []
        self._local = threading.local()
        self._main_ident = threading.get_ident()
        self._main_stack = []

    # -- span recording ----------------------------------------------------
    def _stack(self):
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, layer, fn):
        layer_id = self.layers.index(layer)
        counter = COUNTERS.get(layer)
        spans = self.spans
        clock = time.perf_counter
        main_stack = self._main_stack
        stack_of = self._stack
        tags_protocol = layer == "montecarlo.run_experiment"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stack_of()
            # a worker thread's outermost span hangs under the span that
            # the main thread has open (the one that started the pool)
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            rec = [layer_id, 0.0, 0.0, parent, 0, None]
            spans.append(rec)
            stack.append(rec)
            rec[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
            if counter is not None:
                rec[COUNT] = counter(args, kwargs, result)
            if tags_protocol:
                rec[TAG] = getattr(args[0] if args else kwargs.get("config"), "protocol", None)
            return result
        return traced

    def _wrap_adapter_factory(self, factory):
        wrap = self.wrap

        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            adapter = factory(*args, **kwargs)
            norms = getattr(adapter, "norms", None)
            if callable(norms):
                adapter.norms = wrap("bounds.norms", norms)
            return adapter
        return traced_factory

    # -- patching ----------------------------------------------------------
    def install(self):
        """Wrap every target at every augquant binding.

        Targets that cannot be found are listed in ``missing``; a layer none
        of whose targets exists is listed in ``absent`` and reads zero.
        """
        self.absent, self.missing = [], []
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "augquant" or name.startswith("augquant."))]
        for layer, targets in self._targets.items():
            found = 0
            for target in targets:
                try:
                    resolved = _resolve(target)
                except LookupError as exc:
                    self.missing.append(f"{layer}: {exc}")
                    continue
                found += 1
                for owner, attr, original in resolved:
                    if layer == "bounds.norms":
                        wrapper = self._wrap_adapter_factory(original)
                    else:
                        wrapper = self.wrap(layer, original)
                    if inspect.isclass(owner):
                        self._patch(owner, attr, original, wrapper)
                        continue
                    for module in modules:
                        for name, value in list(vars(module).items()):
                            if value is original:
                                self._patch(module, name, original, wrapper)
            if not found:
                self.absent.append(layer)

    def _patch(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take_spans(self):
        """Return the spans recorded so far and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def _self_intervals(start, end, children):
    """Parts of [start, end] that no child interval covers."""
    gaps, cursor = [], start
    for lo, hi in sorted(children):
        if lo > cursor:
            gaps.append((cursor, min(lo, end)))
        cursor = max(cursor, hi)
        if cursor >= end:
            break
    if cursor < end:
        gaps.append((cursor, end))
    return gaps


def aggregate(spans, layers):
    """Per-layer calls, self seconds and work counts for one pass of spans.

    A span's self intervals are the parts of it that no child span covers.
    ``self_s`` shares wall time among the self intervals open at each instant,
    so with worker threads the layers still add up to wall time;
    ``thread_s`` is the plain sum of self intervals (thread-seconds).  Also
    returns replicates and substream calls by the protocol of the enclosing
    run_experiment span.
    """
    children = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(id(rec[PARENT]), []).append((rec[START], rec[END]))
    n = len(layers)
    calls, counts, thread_s, wall_s = [0] * n, [0] * n, [0.0] * n, [0.0] * n
    events = []
    for rec in spans:
        layer = rec[LAYER]
        calls[layer] += 1
        counts[layer] += rec[COUNT]
        for lo, hi in _self_intervals(rec[START], rec[END], children.get(id(rec), ())):
            thread_s[layer] += hi - lo
            events.append((lo, 1, layer))
            events.append((hi, -1, layer))
    events.sort()
    active, open_count, prev = {}, 0, 0.0
    for t, step, layer in events:
        if open_count:
            share = (t - prev) / open_count
            for open_layer, c in active.items():
                wall_s[open_layer] += share * c
        prev = t
        open_count += step
        active[layer] = active.get(layer, 0) + step
        if not active[layer]:
            del active[layer]
    per_layer = {name: {"calls": calls[i], "self_s": wall_s[i], "thread_s": thread_s[i],
                        "count": counts[i]} for i, name in enumerate(layers)}

    run_id = layers.index("montecarlo.run_experiment")
    sub_id = layers.index("rng.substream")
    reps_by_protocol, substream_by_protocol = {}, {}
    for rec in spans:
        if rec[LAYER] == run_id:
            reps_by_protocol[rec[TAG]] = reps_by_protocol.get(rec[TAG], 0) + rec[COUNT]
        elif rec[LAYER] == sub_id:
            node = rec[PARENT]
            while node is not None and node[LAYER] != run_id:
                node = node[PARENT]
            tag = node[TAG] if node is not None else None
            substream_by_protocol[tag] = substream_by_protocol.get(tag, 0) + 1
    return per_layer, reps_by_protocol, substream_by_protocol


def spans_as_rows(spans, layers):
    """Spans as [id, layer, start, end, parent id] rows, times from the first start."""
    origin = spans[0][START] if spans else 0.0
    index = {id(rec): i for i, rec in enumerate(spans)}
    return [[i, layers[rec[LAYER]], rec[START] - origin, rec[END] - origin,
             index.get(id(rec[PARENT]))] for i, rec in enumerate(spans)]
