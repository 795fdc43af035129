"""Spans and counters around the public functions of arithjet's layers.

The traced run wraps functions from outside the program.  A function is
patched in its defining module and in every arithjet module that imported
it by name, so that a call through any binding is seen.  Spans (name,
start, end, parent, operation) stay in memory until the run ends.

`padic` gets counters only, never spans: its time shows in the self time
of whichever layer called it.
"""

import functools
import importlib
import pkgutil
import time

LAYERS = ("characters", "canonical", "formalgroup", "series", "jet", "linalg")

# (span name, module, attribute path); the layer is the name's first part
SPAN_TARGETS = (
    ("characters.analyze_group", "characters", "analyze_group"),
    ("characters.classify_CL", "characters", "classify_CL"),
    ("characters.solve_character_lattice", "characters", "solve_character_lattice"),
    ("characters.log_projections", "characters", "log_projections"),
    ("characters.verify_diff_relation", "characters", "verify_diff_relation"),
    ("characters.restrict_lateral", "characters", "restrict_lateral"),
    ("characters.deep_log_coefficients", "characters", "deep_log_coefficients"),
    ("canonical.canonical_lift_test", "canonical", "canonical_lift_test"),
    ("formalgroup.formal_group_from_curve", "formalgroup", "formal_group_from_curve"),
    ("formalgroup.elliptic_log_coefficients", "formalgroup",
     "elliptic_log_coefficients"),
    ("formalgroup.law", "formalgroup", "FormalGroupLaw.law"),
    ("series.mul", "series", "TruncatedSeries.__mul__"),
    ("series.mul", "series", "TruncatedSeries.__rmul__"),
    ("series.compose", "series", "TruncatedSeries.compose"),
    ("series.reversion", "series", "TruncatedSeries.reversion"),
    ("series.inverse", "series", "TruncatedSeries.inverse"),
    ("jet.verify_jet_identities", "jet", "verify_jet_identities"),
    ("jet.jet_group_law", "jet", "jet_group_law"),
    ("jet.jet_point_product", "jet", "jet_point_product"),
    ("jet.ghost_series", "jet", "ghost_series"),
    ("jet.psi1_series", "jet", "psi1_series"),
    ("jet.lateral_frobenius_map", "jet", "lateral_frobenius_map"),
    ("linalg.kernel_lattice", "linalg", "kernel_lattice"),
    ("linalg.lattice_exponents", "linalg", "lattice_exponents"),
    ("linalg.solve_padic", "linalg", "solve_padic"),
)

# (counter name, module, attribute path)
COUNT_TARGETS = (
    ("padic.new", "padic", "PadicRational.__init__"),
    ("padic.new", "padic", "PadicRational.zero"),
    ("padic.mul.calls", "padic", "PadicRational.__mul__"),
    ("padic.mul.calls", "padic", "PadicRational.__rmul__"),
    ("padic.add.calls", "padic", "PadicRational.__add__"),
    ("padic.add.calls", "padic", "PadicRational.__radd__"),
    ("padic.inverse.calls", "padic", "PadicRational.inverse"),
)

# counted by the hooks in _ON_CALL
HOOK_COUNTS = ("series.mul.pairs", "series.mul.out_terms",
               "linalg.kernel_lattice.rows")

_MARK = "__perfbench_wrapped__"


class Tracer:
    """Spans and counts of one traced pass.

    A span is (name, start, end, parent index or -1, operation index);
    `op` is the index of the operation running, -1 during set-up.  All
    spans of one operation share its index."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict = dict.fromkeys(HOOK_COUNTS, 0)
        self.solve_orders: set = set()
        self._stack: list[int] = []
        self.op = -1
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _count(self, key, k):
        self.counts[key] += k

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_call = _ON_CALL.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_call is not None:
                on_call(self, args, kwargs, out)
            return out

        setattr(wrapper, _MARK, fn)
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, fn)
        return wrapper

    # -- installing ----------------------------------------------------------

    def install(self):
        """Wrap every target at every binding site."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, module, path in SPAN_TARGETS:
            self._patch(module, path, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, module, path in COUNT_TARGETS:
            self._patch(module, path, lambda fn, n=name: self._count_wrapper(n, fn))

    def _patch(self, module, path, make):
        owner = importlib.import_module(f"arithjet.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        elif isinstance(raw, functools.cached_property):
            new = functools.cached_property(make(raw.func))
            new.__set_name__(owner, attr)
        else:
            new = make(raw)
        self._set(owner, attr, raw, new)
        if not outer:  # a module-level function: patch every binding of it
            for mod in arithjet_modules():
                if mod is not owner and mod.__dict__.get(attr) is raw:
                    self._set(mod, attr, raw, new)

    def _set(self, owner, attr, old, new):
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()
        assert_unwrapped()

    def reset(self):
        """Forget what was recorded so far (the set-up), keeping the
        wrappers installed."""
        del self.spans[:]
        for key in self.counts:
            self.counts[key] = 0
        self.solve_orders.clear()


def _on_mul(tracer, args, kwargs, out):
    a, b = args[0], args[1]
    terms_b = len(b.coeffs) if hasattr(b, "coeffs") else 1
    tracer._count("series.mul.pairs", len(a.coeffs) * terms_b)
    if hasattr(out, "coeffs"):
        tracer._count("series.mul.out_terms", len(out.coeffs))


def _on_kernel_lattice(tracer, args, kwargs, out):
    rows = args[0] if args else kwargs["rows"]
    tracer._count("linalg.kernel_lattice.rows", len(rows))


def _on_solve(tracer, args, kwargs, out):
    n = args[1] if len(args) > 1 else kwargs["n"]
    tracer.solve_orders.add((tracer.op, n))


_ON_CALL = {
    "series.mul": _on_mul,
    "linalg.kernel_lattice": _on_kernel_lattice,
    "characters.solve_character_lattice": _on_solve,
}


def arithjet_modules():
    import arithjet
    return [importlib.import_module(f"arithjet.{m.name}")
            for m in pkgutil.iter_modules(arithjet.__path__)]


def assert_unwrapped():
    """Raise if any wrapper is left on a module function or class method."""
    left = []
    for mod in arithjet_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, _MARK):
                left.append(f"{mod.__name__}.{name}")
            if isinstance(obj, type) and obj.__module__ == mod.__name__:
                for attr, raw in vars(obj).items():
                    inner = getattr(raw, "__func__", None) or getattr(raw, "func", None)
                    if hasattr(raw, _MARK) or hasattr(inner, _MARK):
                        left.append(f"{mod.__name__}.{name}.{attr}")
    if left:
        raise RuntimeError(f"tracing wrappers still installed: {left}")


# -- span arithmetic ----------------------------------------------------------


def self_times(spans) -> dict:
    """Self seconds per layer.  Each span's time, less the time of its
    child spans, goes to the span's layer, so the layer of the innermost
    open span is charged.  Spans are (name, start, end, parent, ...)."""
    exclusive = [s[2] - s[1] for s in spans]
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            exclusive[parent] -= end - start
    out = {layer: 0.0 for layer in LAYERS}
    for span, x in zip(spans, exclusive):
        layer = span[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + x
    return out


def check_nesting(spans):
    """Raise if a span ends before it starts, or a child span does not lie
    inside its parent's [start, end]."""
    for i, (name, start, end, parent, *_) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ({name}) ends before it starts")
        if parent >= 0:
            pname, pstart, pend = spans[parent][:3]
            if not (parent < i and pstart <= start and end <= pend):
                raise ValueError(f"span {i} ({name}) is not inside its "
                                 f"parent {parent} ({pname})")


def root_time(spans) -> float:
    """Time covered by spans without a parent."""
    return sum(s[2] - s[1] for s in spans if s[3] < 0)


def inclusive_times(spans) -> dict:
    """Seconds per span name, counting a span nested in a span of the same
    name (recursion) once."""
    out: dict = {}
    for name, start, end, parent, *_ in spans:
        j = parent
        while j >= 0 and spans[j][0] != name:
            j = spans[j][3]
        if j < 0:
            out[name] = out.get(name, 0.0) + (end - start)
    return out


def call_counts(spans) -> dict:
    out: dict = {}
    for s in spans:
        out[s[0]] = out.get(s[0], 0) + 1
    return out
