"""Per-layer spans recorded from outside the library.

:class:`Tracer` wraps every public function of each loaded ``qortho`` layer
module and rebinds the wrapper wherever the original is bound: in its own
module, in the ``qortho`` package namespace and in every other layer that
imported it with ``from .x import y``.  Calls between layers then nest as
child spans with no change to the library.  ``uninstall`` puts every original
back.

A span is ``(layer, name, start, end, parent, op_id, error, count, exact)``:
``parent`` is the index of the enclosing span (-1 at top level), ``error`` is
1 when an exception started in that call, and ``count`` is the work the call
reported at its boundary (see :func:`_counter`).
"""

import functools
import gzip
import inspect
import sys
import time

import numpy as np

LAYERS = ("qcore", "polyfam", "densities", "connect", "expand", "verify",
          "sampler", "cli")

# span tuple fields
LAYER, NAME, START, END, PARENT, OP, ERROR, COUNT, EXACT = range(9)

_FLOATS = (float, np.floating, np.ndarray)
_FAMILY_FIELDS = ("q", "beta", "y", "rho")


def _is_float_call(args):
    """True when any argument, or field of a FamilyId argument, is a float."""
    for a in args:
        if isinstance(a, _FLOATS):
            return True
        if type(a).__name__ == "FamilyId":
            for f in _FAMILY_FIELDS:
                if isinstance(getattr(a, f), _FLOATS):
                    return True
    return False


def _points(args):
    # density_eval(d, x) / density_ratio(num, den, x) / pm_ratio(x, y, ...)
    if not args:
        return 0
    if type(args[0]).__name__ == "DensityId":
        return int(np.size(args[-1])) if len(args) >= 2 else 0
    if len(args) >= 2:
        return int(np.broadcast(np.asarray(args[0]), np.asarray(args[1])).size)
    return int(np.size(args[0]))


def _counter(layer, name):
    """Work counter for one public function: f(args, kwargs, result) -> number."""
    if layer == "qcore" and name == "truncation_order":
        return lambda a, k, r: r
    if layer == "polyfam" and name == "eval_all":
        return lambda a, k, r: a[1] if len(a) > 1 else k.get("n_max", 0)
    if layer == "densities" and name in ("density_eval", "density_ratio", "pm_ratio"):
        return lambda a, k, r: _points(a)
    if layer == "connect" and name in ("connection", "oracle_connection"):
        return lambda a, k, r: sum(len(row) for row in r.rows.values())
    if layer == "expand" and name == "expansion_eval":
        return lambda a, k, r: r.n_terms
    if layer == "verify" and name == "integrate":
        return lambda a, k, r: r.nodes
    if layer == "sampler" and name == "sample":
        # (proposals, accepted); acceptance_rate is accepted / proposals
        return lambda a, k, r: (r.n_proposed, round(r.acceptance_rate * r.n_proposed))
    return None


class Tracer:
    """Records spans for calls into the qortho layers while installed."""

    def __init__(self):
        self.spans = []
        self.op_id = -1
        self._stack = []
        self._last_exc = None
        self._plan = None  # (namespace module, name, original, wrapper)
        self._installed = False

    # -- installation ---------------------------------------------------

    def _make_plan(self):
        modules = [sys.modules["qortho"]]
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules.get("qortho." + layer)
            if mod is None:
                continue
            modules.append(mod)
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(layer, name, fn))
        plan = []
        for mod in modules:
            for name, obj in vars(mod).items():
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    plan.append((mod, name, obj, wrappers[id(obj)][1]))
        return plan

    def install(self):
        """Bind the wrappers; the plan is made once, from the modules loaded then."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._make_plan()
        for mod, name, _, wrapper in self._plan:
            setattr(mod, name, wrapper)
        self._installed = True
        return self

    def uninstall(self):
        if self._installed:
            for mod, name, original, _ in self._plan:
                setattr(mod, name, original)
        self._installed = False
        self._stack.clear()
        self._last_exc = None

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, layer, name, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        count = _counter(layer, name)
        exact_of = (lambda a: not _is_float_call(a)) if layer == "polyfam" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = 0
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                if exc is not self._last_exc:
                    error = 1
                    self._last_exc = exc
                raise
            finally:
                end = clock()
                stack.pop()
                n = count(args, kwargs, result) if count and not error and result is not None else 0
                exact = exact_of(args) if exact_of else False
                spans[idx] = (layer, name, start, end, parent, self.op_id, error, n, exact)

        return wrapper

    # -- results --------------------------------------------------------

    def start_op(self, op_id):
        self.op_id = op_id
        self._last_exc = None

    def take(self):
        """Return the recorded spans and start a fresh list."""
        out = list(self.spans)
        self.spans.clear()
        return out


def self_times(spans):
    """Self time of each span: duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    return [s[END] - s[START] - c for s, c in zip(spans, child)]


#: Name of the boundary work count of each layer (see :func:`_counter`).
COUNT_NAMES = {"qcore": "trunc_factors", "polyfam": "steps", "densities": "points",
               "connect": "entries", "expand": "terms", "verify": "nodes",
               "sampler": "proposals"}


def empty_totals():
    tot = {}
    for layer in LAYERS:
        tot[layer + ".calls"] = 0
        tot[layer + ".self_s"] = 0.0
        tot[layer + ".errors"] = 0
        if layer in COUNT_NAMES:
            tot["%s.%s" % (layer, COUNT_NAMES[layer])] = 0
    tot.update({"polyfam.exact_s": 0.0, "polyfam.float_s": 0.0,
                "connect.oracle_s": 0.0, "sampler.accepted": 0,
                # filled from the traced CLI children by the worker
                "cli.import_s": 0.0, "cli.bytes_out": 0})
    return tot


def summarize(spans):
    """Per-layer totals from a list of spans (see bench/README.md for names)."""
    tot = empty_totals()
    selfs = self_times(spans)
    for s, st in zip(spans, selfs):
        layer = s[LAYER]
        tot[layer + ".calls"] += 1
        tot[layer + ".self_s"] += st
        tot[layer + ".errors"] += s[ERROR]
        count = s[COUNT]
        if layer == "sampler" and count:
            count, accepted = count
            tot["sampler.accepted"] += accepted
        if layer == "densities":
            # points are counted once, at the outermost densities call
            parent = s[PARENT]
            if parent >= 0 and spans[parent][LAYER] == "densities":
                count = 0
        if layer in COUNT_NAMES:
            tot["%s.%s" % (layer, COUNT_NAMES[layer])] += count
        if layer == "polyfam":
            tot["polyfam.exact_s" if s[EXACT] else "polyfam.float_s"] += st
        elif layer == "connect" and s[NAME] == "oracle_connection":
            tot["connect.oracle_s"] += s[END] - s[START]
    return tot


def add_totals(acc, tot):
    for k, v in tot.items():
        acc[k] += v


class SpanWriter:
    """Writes spans to a gzip CSV; ``id`` is the row number, ``parent`` a row id."""

    def __init__(self, path):
        self._fh = gzip.open(path, "wt", compresslevel=1)
        self._fh.write("id,op,layer,name,start,end,parent,error,count\n")
        self._rows = 0

    def write(self, spans):
        """Append one list of spans (parent indices local to the list)."""
        base = self._rows
        for i, s in enumerate(spans):
            count = s[COUNT]
            if isinstance(count, (tuple, list)):
                count = count[0]
            parent = base + s[PARENT] if s[PARENT] >= 0 else -1
            self._fh.write("%d,%d,%s,%s,%.9f,%.9f,%d,%d,%s\n" % (
                base + i, s[OP], s[LAYER], s[NAME], s[START], s[END], parent, s[ERROR], count))
        self._rows += len(spans)

    def close(self):
        self._fh.close()
