"""Per-layer tracing of the amalgam package, installed from outside.

The tracer replaces public entry points of the package's modules with
wrappers at run time; nothing under src/ knows about it. Each wrapped call
of engine, fmalg, boundary, matrix, dsl, config and cli code records a span
(name, parent, start, end) in flat arrays kept in memory. Scalars (QC) and
words (ReducedWord) get call counters only: a span per scalar operation
would mostly measure the tracer.

Self time of a span is its duration minus the durations of its direct
child spans, in the reference seconds of the run's RefClock (refclock.py);
the span file keeps wall-clock stamps. A layer's self time is the sum over
its spans, so time spent in unwrapped code (QC and ReducedWord arithmetic,
private helpers) lands in the nearest enclosing span. Probes of the RefClock
take no reference time, wherever they fall. Wrapper bookkeeping of a child span lands in
its parent's self time; the run reports `trace.overhead` for that reason.
"""

import inspect
import json
import statistics
import time
from array import array

# (module, owner, attribute names, span group). owner None means module
# level functions. The group names the layer metric the self time feeds.
SPANS = (
    ("boundary", None, ("act", "refine", "cylinder_measure", "rn_exponent",
                        "rn_ratio", "complement_decomposition",
                        "complement_series", "complement_series_tail",
                        "splice", "point_mass", "block_ball_mass"),
     "boundary"),
    ("boundary", "CylinderUnion", ("measure",), "boundary"),
    ("fmalg", "FMElement", ("__init__", "unit", "one", "zero", "diagonal",
                            "cast", "__add__", "__neg__", "__sub__",
                            "__mul__", "scale", "adjoint", "expectation",
                            "right_support", "left_support", "__eq__"),
     "fmalg"),
    ("fmalg", "FiniteBase", ("__post_init__", "uniform", "weighted",
                             "weight"), "fmalg"),
    ("fmalg", "FiniteRelation", ("__post_init__", "from_classes", "diagonal",
                                 "full", "classes", "class_of"), "fmalg"),
    ("fmalg", None, ("join", "is_ergodic", "normalizing_groupoid",
                     "modular_scale", "coefficient_gap"), "fmalg"),
    ("engine", "FreeProduct", ("multiply", "embed", "letters_product",
                               "d_one", "d_zero", "one", "zero", "from_d",
                               "weak_equal"), "engine.product"),
    ("engine", "MElement", ("__add__", "__neg__", "__sub__", "adjoint",
                            "__eq__"), "engine.product"),
    ("engine", "FreeProduct", ("expectation",), "engine.expectation"),
    ("engine", "FreeProduct", ("oracle_expectation",), "engine.oracle"),
    ("engine", "CrossedFace", ("element", "unitary", "one", "zero",
                               "embed_d", "expect", "mul", "add", "neg",
                               "sub", "adjoint", "right_support", "d_one"),
     "engine.face"),
    ("engine", "FMFace", ("element", "unit", "one", "zero", "embed_d",
                          "expect", "mul", "add", "neg", "sub", "adjoint",
                          "right_support", "d_one"), "engine.face"),
    ("engine", "CylFn", ("__init__", "zero", "one", "indicator", "__add__",
                         "__neg__", "__sub__", "__mul__", "scale", "adjoint",
                         "translate", "support_projection", "value_at",
                         "__eq__"), "engine.cylfn"),
    ("engine", None, ("freeness_check", "haar_check"), "engine.check"),
    ("matrix", "Permutation", ("__init__", "identity", "from_cycles",
                               "inverse", "power", "orbits", "order",
                               "orbit_relation"), "matrix"),
    ("matrix", "AmplifiedFace", ("__init__", "bracket", "matrix_unit",
                                 "corner_projection", "ambient", "core_unit",
                                 "shift_power", "zero_bracket"), "matrix"),
    ("matrix", "BracketElement", ("__init__", "entry", "__add__", "__neg__",
                                  "__sub__", "__mul__", "scale", "adjoint",
                                  "expectation", "to_fm", "__eq__"),
     "matrix"),
    ("matrix", "CornerModel", ("__init__", "embed", "corner_identity",
                               "base_diagonal", "shifted_diagonal",
                               "corner_unitary", "corner_letter_sequence",
                               "corner_power"), "matrix"),
    ("matrix", None, ("cyclic_model", "bracket_law_report",
                      "moment_vanishing_report", "family_freeness_report",
                      "covariance_report", "reduction_identities_report"),
     "matrix"),
    ("dsl", None, ("parse",), "dsl.parse"),
    ("dsl", None, ("evaluate", "domain", "render", "machine_text",
                   "word_value", "cylinder_value"), "dsl.evaluate"),
    ("dsl", "BoundaryContext", ("atom",), "dsl.evaluate"),
    ("dsl", "CrossedContext", ("atom",), "dsl.evaluate"),
    ("dsl", "CornerContext", ("atom",), "dsl.evaluate"),
    ("config", None, ("parse_config", "load_config", "default_config"),
     "config.load"),
    ("config", "RunConfig", ("plain_relation", "boundary_product",
                             "corner_model", "fm_faces"), "config"),
    ("cli", None, ("main", "emit", "build_parser") + tuple(
        "cmd_" + name for name in (
            "measure", "rn", "series", "moment", "oracle", "haar",
            "freeness", "join", "ergodic", "suite67")), "cli"),
)

# call counters without spans: (module, class, attribute, counter name)
COUNTERS = (
    ("scalars", "QC", "__init__", "scalars.qc_built"),
    ("words", "ReducedWord", "__init__", "words.reduced_built"),
    ("words", "ReducedWord", "__mul__", "words.mul_calls"),
)

# span counts reported as metrics
CALL_METRICS = {
    "boundary.act_calls": "boundary.act",
    "fmalg.mul_calls": "fmalg.FMElement.__mul__",
    "fmalg.elements_built": "fmalg.FMElement.__init__",
    "engine.multiply_calls": "engine.FreeProduct.multiply",
    "engine.d_zero_calls": "engine.FreeProduct.d_zero",
    "engine.face_mul_calls": ("engine.CrossedFace.mul", "engine.FMFace.mul"),
    "engine.expectation_calls": "engine.FreeProduct.expectation",
    "engine.oracle_calls": "engine.FreeProduct.oracle_expectation",
    "engine.cylfn_built": "engine.CylFn.__init__",
}

# summed self time of every span in a group
SELF_METRICS = {
    "boundary.self_s": "boundary",
    "fmalg.self_s": "fmalg",
    "engine.product.self_s": "engine.product",
    "engine.expectation.self_s": "engine.expectation",
    "engine.oracle.self_s": "engine.oracle",
    "engine.cylfn.self_s": "engine.cylfn",
    "engine.face.self_s": "engine.face",
    "engine.check.self_s": "engine.check",
    "matrix.self_s": "matrix",
    "dsl.evaluate_s": "dsl.evaluate",
    "cli.self_s": "cli",
}

# inclusive time of the outermost spans with these names
INCLUSIVE_METRICS = {
    "fmalg.relation_build_s": ("fmalg.FiniteRelation.__post_init__",),
    "matrix.model_build_s": ("matrix.CornerModel.__init__",),
    "config.load_s": ("config.parse_config", "config.load_config",
                      "config.default_config"),
    "dsl.parse_s": ("dsl.parse",),
}


def _as_tuple(value):
    return value if isinstance(value, tuple) else (value,)


class Tracer:
    """Installs wrappers on a loaded package and records spans and counts."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.name_ids = {}
        self.names = []
        self.groups = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack = [-1]
        self.counts = {}
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _name_id(self, name, group):
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
            self.groups.append(group)
        return self.name_ids[name]

    def spanned(self, name, group, fn, after=None):
        nid = self._name_id(name, group)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack, clock = \
            self.span_start, self.span_end, self.stack, self.clock

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def counted(self, key, fn):
        counts = self.counts
        counts.setdefault(key, 0)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------------

    def install(self, am):
        """Wrap the entry points of the loaded package namespace `am`."""
        modules = [getattr(am, name) for name in am.MODULES]
        hooks = self._hooks()
        for mod_name, owner_name, attrs, group in SPANS:
            module = getattr(am, mod_name)
            for attr in attrs:
                name = ".".join(filter(None, (mod_name, owner_name, attr)))
                hook = hooks.get(name)
                if owner_name is None:
                    fn = getattr(module, attr)
                    self._replace_function(
                        modules, fn, self.spanned(name, group, fn, hook))
                else:
                    self._replace_method(
                        getattr(module, owner_name), attr,
                        lambda fn, n=name, h=hook:
                            self.spanned(n, group, fn, h))
        for mod_name, owner_name, attr, key in COUNTERS:
            owner = getattr(getattr(am, mod_name), owner_name)
            self._replace_method(owner, attr,
                                 lambda fn, k=key: self.counted(k, fn))

    def _replace_function(self, modules, fn, wrapper):
        for module in modules:
            for key, value in list(vars(module).items()):
                if key.startswith("__"):
                    continue
                if value is fn:
                    self._set(module, key, wrapper)
                elif isinstance(value, dict) and fn in value.values():
                    # dispatch tables such as cli.COMMANDS
                    for k, v in list(value.items()):
                        if v is fn:
                            value[k] = wrapper
                            self._undo.append(
                                lambda d=value, k=k, v=v: d.__setitem__(k, v))

    def _replace_method(self, owner, attr, make):
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        elif isinstance(raw, classmethod):
            new = classmethod(make(raw.__func__))
        else:
            new = make(raw)
        self._set(owner, attr, new, raw)

    def _set(self, owner, attr, value, old=None):
        old = inspect.getattr_static(owner, attr) if old is None else old
        setattr(owner, attr, value)
        self._undo.append(lambda: setattr(owner, attr, old))

    def uninstall(self):
        while self._undo:
            self._undo.pop()()

    def _hooks(self):
        """Extra counts measured at the wrappers of a few entry points."""
        counts = self.counts
        for key in ("boundary.act_refined", "boundary.act_pieces_out",
                    "engine.cylfn_max_depth"):
            counts[key] = 0
        act_id = self._name_id("boundary.act", "boundary")
        stack, span_name = self.stack, self.span_name

        def after_refine(args, result):
            # only refinements made on behalf of act count as act work
            parent = stack[-1]
            if parent >= 0 and span_name[parent] == act_id:
                counts["boundary.act_refined"] += len(result)

        def after_act(args, result):
            counts["boundary.act_pieces_out"] += len(result)

        def after_cylfn(args, result):
            depth = max((len(w) for w in args[0].terms), default=0)
            if depth > counts["engine.cylfn_max_depth"]:
                counts["engine.cylfn_max_depth"] = depth

        return {"boundary.refine": after_refine, "boundary.act": after_act,
                "engine.CylFn.__init__": after_cylfn}

    # -- analysis -------------------------------------------------------------

    def span_count(self):
        return len(self.span_start)

    def summary(self, to_reference):
        """Per-layer metrics derived from the recorded spans and counts;
        `to_reference` turns a stamp into reference seconds."""
        n = len(self.span_start)
        starts = array("d", map(to_reference, self.span_start))
        ends = array("d", map(to_reference, self.span_end))
        parents, names = self.span_parent, self.span_name
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_time = [0.0] * len(self.names)
        for i in range(n):
            nid = names[i]
            calls[nid] += 1
            self_time[nid] += ends[i] - starts[i] - child[i]

        by_name = dict(zip(self.names, calls))
        out = {}
        for metric, span_names in CALL_METRICS.items():
            out[metric] = sum(by_name.get(s, 0) for s in _as_tuple(span_names))
        for metric, groups in SELF_METRICS.items():
            groups = _as_tuple(groups)
            out[metric] = sum(t for t, g in zip(self_time, self.groups)
                              if g in groups)
        for metric, span_names in INCLUSIVE_METRICS.items():
            out[metric] = self._outermost_time(span_names, starts, ends)
        for key in ("scalars.qc_built", "words.reduced_built",
                    "words.mul_calls", "boundary.act_refined",
                    "engine.cylfn_max_depth"):
            out[key] = self.counts.get(key, 0)
        refined = self.counts.get("boundary.act_refined", 0)
        # output cylinders per refined piece; 1 when act refined nothing
        out["boundary.act_merge_ratio"] = \
            self.counts.get("boundary.act_pieces_out", 0) / refined \
            if refined else 1.0
        return out

    def _outermost_time(self, span_names, starts, ends):
        ids = {self.name_ids[s] for s in span_names if s in self.name_ids}
        parents, names = self.span_parent, self.span_name
        total = 0.0
        for i in range(len(starts)):
            if names[i] not in ids:
                continue
            p = parents[i]
            while p >= 0 and names[p] not in ids:
                p = parents[p]
            if p < 0:
                total += ends[i] - starts[i]
        return total

    def write(self, path):
        """Write the spans: one JSON header line, then the four arrays in
        the header's order, each `spans` machine-order items of its array
        type code (array.fromfile reads them back). A parent of -1 marks a
        span with no traced caller."""
        header = {
            "names": self.names,
            "groups": self.groups,
            "spans": len(self.span_start),
            "arrays": [["name", "i"], ["parent", "i"], ["start", "d"],
                       ["end", "d"]],
            "counts": self.counts,
        }
        with open(path, "wb") as handle:
            handle.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(handle)


# -- leaf micro-timings -------------------------------------------------------

class OperandSampler:
    """Keeps every `stride`-th operand pair passed to one method."""

    def __init__(self, owner, attr, limit=512, stride=7):
        self.owner, self.attr = owner, attr
        self.original = inspect.getattr_static(owner, attr)
        self.pairs = []
        seen = [0]
        pairs, original = self.pairs, self.original

        def wrapper(a, b):
            seen[0] += 1
            if seen[0] % stride == 0 and len(pairs) < limit:
                pairs.append((a, b))
            return original(a, b)

        setattr(owner, attr, wrapper)

    def close(self):
        setattr(self.owner, self.attr, self.original)
        return self.pairs


def time_per_call(fn, pairs, ref, repeats=15, clock=time.perf_counter):
    """Median reference nanoseconds per fn(a, b) call over the sampled
    pairs; `ref` is a RefClock, probed around each repeat."""
    if not pairs:
        raise ValueError("no operands were sampled")
    rounds = max(1, 20000 // len(pairs))
    samples = []
    for _ in range(repeats):
        ref.probe()
        t0 = clock()
        for _ in range(rounds):
            for a, b in pairs:
                fn(a, b)
        t1 = clock()
        ref.probe()
        samples.append(ref.span(t0, t1) / (rounds * len(pairs)))
    return statistics.median(samples) * 1e9
