"""Outside-in tracer for openrcd: spans and counts recorded from the benchmark.

``install(tracer)`` replaces public functions and methods of the
``openrcd`` modules with wrappers, at every name through which the
package looks them up (``cli`` and ``opensim`` import by name, so
``openrcd.cli.run_ensemble`` and ``openrcd.opensim.rcd_pair_step`` are
wrapped as well as the defining modules).  No file under ``src/`` is
edited.

A span wrapper records ``(name, start, end, parent)`` in memory; a
count wrapper only increments a counter keyed by its own name and the
name of the innermost open span.  ``Tracer.dump`` writes everything out
once, when the traced process ends; ``summarize`` turns a dump into per
layer call counts, total time and self time (duration minus the union
of child spans).
"""

import itertools
import json
import threading
import time
from collections import Counter, defaultdict

_NO_PARENT = -1


class _ThreadLog:
    """Spans and counts of one thread, written only by that thread."""

    __slots__ = ("stack", "spans", "counts")

    def __init__(self):
        self.stack = []             # (span id, name) of the open spans
        self.spans = []             # [span id, name, start, end, parent id]
        self.counts = Counter()     # (counter, enclosing span name) -> amount


class Tracer:
    """In-memory spans and counts; each thread writes only its own log."""

    def __init__(self):
        self._ids = itertools.count()
        self._lock = threading.Lock()
        self._logs = []
        self._local = threading.local()
        self._main = self._log()

    def _log(self):
        try:
            return self._local.log
        except AttributeError:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
            return log

    def _enclosing(self, log):
        # a worker thread with no open span of its own works on behalf of
        # whatever the main thread is blocked in (the batch thread pool)
        try:
            return (log.stack or self._main.stack)[-1]
        except IndexError:
            return (_NO_PARENT, "")

    def add(self, name, amount=1):
        """Add ``amount`` to counter ``name`` within the innermost open span."""
        log = self._log()
        log.counts[name, self._enclosing(log)[1]] += amount

    def span(self, name, fn, on_result=None):
        """Wrap ``fn`` so every call records a span; ``on_result(tracer, result, args)``
        may add counts derived from the call."""

        def wrapper(*args, **kwargs):
            log = self._log()
            idx = next(self._ids)
            record = [idx, name, 0.0, 0.0, self._enclosing(log)[0]]
            log.spans.append(record)
            log.stack.append((idx, name))
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                log.stack.pop()
            if on_result is not None:
                on_result(self, result, args)
            return result

        return wrapper

    def counter(self, name, fn, amount=None):
        """Wrap ``fn`` so every call adds ``amount(args)`` (default 1) to ``name``."""
        add = self.add

        def wrapper(*args, **kwargs):
            add(name, 1 if amount is None else amount(args))
            return fn(*args, **kwargs)

        return wrapper

    def dump(self, path):
        """Write every span (indexed by id) and every count as one JSON document."""
        spans = sorted(record for log in self._logs for record in log.spans)
        counts = Counter()
        for log in self._logs:
            counts.update(log.counts)
        doc = {
            "spans": [[name, start, end, parent] for _, name, start, end, parent in spans],
            "counts": [[name, within, n] for (name, within), n in sorted(counts.items())],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# what gets wrapped

def _replacement_draws(args):
    # the batch engine draws every replacement of one step with a single
    # vectorized quantile call on 1-D arrays; its initial roster draw is
    # 2-D (rows, n) and is not a replacement
    u_theta = args[1]
    ndim = getattr(u_theta, "ndim", 0)
    if ndim == 2:
        return 0
    return int(getattr(u_theta, "size", 1))


def _on_step(tracer, result, args):
    tracer.add("opensim.event_" + result[1][0])


def _on_ensemble(tracer, result, args):
    config = args[0]
    tracer.add("opensim.reported_replacements", int(result.replacement_count))
    tracer.add("opensim.row_steps", int(result.replications) * int(config.horizon))


def _on_cell(tracer, result, args):
    tracer.add("worstcase.starts", int(result.starts))


def install(tracer):
    """Wrap openrcd's layers in place."""
    from openrcd import allocation, cli, functions, opensim, worstcase

    span, counter = tracer.span, tracer.counter
    # (owner, attribute, wrapper factory); a name imported into several
    # modules is wrapped in each module that looks it up
    table = [
        (cli, "main", lambda f: span("cli.main", f)),
        (cli, "load_config", lambda f: span("config.parse", f)),
        (cli, "config_from_table", lambda f: span("config.parse", f)),
        (cli, "evaluate_bounds", lambda f: span("bounds.evaluate", f)),
        (cli, "recursion_envelope", lambda f: span("bounds.evaluate", f)),
        (worstcase, "displacement_bound_general", lambda f: span("bounds.evaluate", f)),
        (worstcase, "displacement_bound_quadratic", lambda f: span("bounds.evaluate", f)),
        (worstcase, "conjectured_displacement_cap", lambda f: span("bounds.evaluate", f)),
        (cli, "run_ensemble", lambda f: span("opensim.ensemble", f, _on_ensemble)),
        (cli, "run_trajectory", lambda f: span("opensim.trajectory", f)),
        (opensim, "run_trajectory", lambda f: span("opensim.trajectory", f)),
        (opensim, "step", lambda f: span("opensim.step", f, _on_step)),
        (opensim, "quadratic_quantiles",
         lambda f: counter("opensim.replacement_draws", f, _replacement_draws)),
        (opensim, "complete_graph_edges", lambda f: span("rcd.edges", f)),
        (opensim, "rcd_pair_step", lambda f: span("rcd.pair_step", f)),
        (opensim, "dual_bisection_minimizer", lambda f: span("allocation.dual_bisection", f)),
        (opensim, "closed_form_quadratic_minimizer",
         lambda f: counter("allocation.closed_form", f)),
        (worstcase, "closed_form_quadratic_minimizer",
         lambda f: counter("allocation.closed_form", f)),
        (allocation.Allocation, "__post_init__", lambda f: span("allocation.validate", f)),
        (functions.QuadraticFunction, "gradient", lambda f: counter("functions.gradient", f)),
        (functions.LogCoshQuadratic, "gradient", lambda f: counter("functions.gradient", f)),
        (cli, "sweep", lambda f: span("worstcase.sweep", f)),
        (worstcase, "maximize_displacement", lambda f: span("worstcase.cell", f, _on_cell)),
    ]
    for owner, attr, make in table:
        setattr(owner, attr, make(getattr(owner, attr)))


# ---------------------------------------------------------------------------
# analysis of a dump

def _covered(lo, hi, intervals):
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def summarize(doc):
    """Per span name: ``calls``, ``total_s`` and ``self_s``; plus flat counts.

    Returns ``(layers, counts, counts_within)`` where ``counts`` sums each
    counter over the spans it happened in and ``counts_within`` keeps
    the ``(counter, enclosing span)`` split.
    """
    spans = doc["spans"]
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent != _NO_PARENT:
            children[parent].append((start, end))
    layers = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for idx, (name, start, end, _) in enumerate(spans):
        duration = end - start
        row = layers[name]
        row["calls"] += 1
        row["total_s"] += duration
        row["self_s"] += duration - _covered(start, end, children.get(idx, ()))
    counts = Counter()
    counts_within = {}
    for name, within, n in doc["counts"]:
        counts[name] += n
        counts_within[(name, within)] = n
    return dict(layers), dict(counts), counts_within
