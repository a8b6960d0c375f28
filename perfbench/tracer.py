"""Outside-in layer tracer for the chainmail package.

The tracer changes no package source.  It wraps chosen module-level
functions and rebinds every module attribute that holds the original, so
a name imported elsewhere (``canonical_labeling`` lives in ``canonical``
and is imported into ``enumeration`` and ``poset``) is traced wherever it
is called from.  Each call is a span on a per-process stack; a span's
self time is its duration minus the time its child spans cover.
Generator functions are timed per ``next()``, and their yields counted.

Layer = module.  Code that no wrapped function covers counts as self
time of the innermost wrapped caller, or of the harness root span.
"""

import functools
import inspect
import json
import os
import sys
from time import perf_counter

# layer -> functions traced in it.  Only entry points and the functions a
# per-layer metric names: wrapping a tiny helper such as ``iter_bits``
# would cost more than it measures.
TRACED = {
    "canonical": ("canonical_labeling", "canonical_maximal_position"),
    "enumeration": ("enumerate_posets", "count_chainmails", "emit_catalog",
                    "_accepted", "_count_subtrees"),
    "mails": ("poset_is_chainmail", "as_chainmail", "d_lattice"),
    "lattice": ("as_complete_lattice", "check_condition",
                "is_locally_connected", "nu_classification"),
    "category": ("k_chainmail", "k_on_morphism", "d_on_morphism",
                 "validate_map", "unit_eta", "counit_epsilon",
                 "is_epsilon_iso", "check_triangle_identities",
                 "monotone_tables", "chainmail_morphism_tables",
                 "join_preserving_tables", "connectivity_hom_tables"),
    "verify": ("check_adjunction_bijection", "run_suite"),
    "poset": ("to_dot",),
}


def _colored(args, kwargs, result):
    return (args[2] if len(args) > 2 else kwargs.get("colors")) is not None


def _truthy(args, kwargs, result):
    return bool(result)


# function -> predicate on (args, kwargs, result) counted as ``hits``
HIT_PREDICATES = {
    ("canonical", "canonical_labeling"): _colored,
    ("enumeration", "_accepted"): _truthy,
}

# functions whose per-call durations are kept, for latency percentiles
KEEP_DURATIONS = {("verify", "check_adjunction_bijection")}

# calls into a pool worker: the worker ships its own trace back in a file
WORKER_ENTRIES = {("enumeration", "_count_subtrees")}


class Stat:
    __slots__ = ("calls", "yields", "hits", "incl", "self", "durations")

    def __init__(self):
        self.calls = self.yields = self.hits = 0
        self.incl = self.self = 0.0
        self.durations = []

    def as_list(self):
        return [self.calls, self.yields, self.hits, self.incl, self.self]

    def add_list(self, values):
        calls, yields, hits, incl, self_s = values
        self.calls += calls
        self.yields += yields
        self.hits += hits
        self.incl += incl
        self.self += self_s


class Tracer:
    """Spans and counts for one traced pass; install, run, uninstall."""

    def __init__(self, dump_dir):
        self.stats = {}
        self.stack = []
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self._bindings = []
        self._dumps = 0

    # -- spans ---------------------------------------------------------------

    def root(self):
        """Open the harness span that the pass runs under."""
        self.stack.append(0.0)
        return perf_counter()

    def close_root(self, t0):
        wall = perf_counter() - t0
        covered = self.stack.pop()
        return wall, wall - covered

    def _wrap_function(self, fn, st, hit, keep):
        stack = self.stack

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                child = stack.pop()
                st.calls += 1
                st.incl += d
                st.self += d - child
                if stack:
                    stack[-1] += d
                if keep:
                    st.durations.append(d)
            if hit is not None and hit(args, kwargs, result):
                st.hits += 1
            return result
        return wrapper

    def _wrap_generator(self, fn, st):
        stack = self.stack

        def wrapper(*args, **kwargs):
            st.calls += 1
            it = fn(*args, **kwargs)
            try:
                while True:
                    stack.append(0.0)
                    t0 = perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        d = perf_counter() - t0
                        child = stack.pop()
                        st.incl += d
                        st.self += d - child
                        if stack:
                            stack[-1] += d
                    st.yields += 1
                    yield item
            finally:
                it.close()
        return wrapper

    def _wrap_worker_entry(self, fn, key):
        traced = self._wrap_function(fn, self.stat(key), None, False)

        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:
                return traced(*args, **kwargs)
            before = self.snapshot()
            result = traced(*args, **kwargs)
            self._dump_delta(before)
            return result
        return wrapper

    # -- install / uninstall ---------------------------------------------------

    def stat(self, key):
        st = self.stats.get(key)
        if st is None:
            st = self.stats[key] = Stat()
        return st

    def install(self, package="chainmail"):
        """Wrap every TRACED function and rebind all references to it."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package
                                         or name.startswith(package + "."))]
        replace = {}
        for layer, names in TRACED.items():
            mod = sys.modules[f"{package}.{layer}"]
            for name in names:
                fn = getattr(mod, name)
                key = (layer, name)
                if key in WORKER_ENTRIES:
                    wrapper = self._wrap_worker_entry(fn, key)
                elif inspect.isgeneratorfunction(fn):
                    wrapper = self._wrap_generator(fn, self.stat(key))
                else:
                    wrapper = self._wrap_function(
                        fn, self.stat(key), HIT_PREDICATES.get(key),
                        key in KEEP_DURATIONS)
                # pickling sends a worker entry by module and name; the
                # rebound attribute must resolve to the wrapper itself
                functools.update_wrapper(wrapper, fn)
                replace[id(fn)] = (fn, wrapper)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._bindings.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._bindings):
            setattr(mod, attr, value)
        self._bindings.clear()

    # -- pool workers ------------------------------------------------------------

    def snapshot(self):
        return {key: st.as_list() for key, st in self.stats.items()}

    def _dump_delta(self, before):
        delta = []
        for key, st in self.stats.items():
            now = st.as_list()
            old = before.get(key, [0, 0, 0, 0.0, 0.0])
            diff = [a - b for a, b in zip(now, old)]
            if any(diff):
                delta.append([list(key), diff])
        self._dumps += 1
        path = os.path.join(self.dump_dir,
                            f"worker-{os.getpid()}-{self._dumps}.json")
        with open(path, "w") as fh:
            json.dump(delta, fh)

    def merge_worker_dumps(self):
        """Add the traces pool workers wrote; returns how many were read."""
        names = sorted(f for f in os.listdir(self.dump_dir)
                       if f.startswith("worker-"))
        for name in names:
            path = os.path.join(self.dump_dir, name)
            with open(path) as fh:
                for key, values in json.load(fh):
                    self.stat(tuple(key)).add_list(values)
            os.remove(path)
        return len(names)

    # -- queries -------------------------------------------------------------------

    def layer_self(self, layer):
        return sum(st.self for (lay, _), st in self.stats.items()
                   if lay == layer)

    def get(self, layer, name):
        return self.stats.get((layer, name)) or Stat()
