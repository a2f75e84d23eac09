"""Per-layer self time for the benchmark's traced run.

The wrappers live entirely in the benchmark: they replace the public
functions and methods of each weakhopf module (one module = one layer) by
timing shims, and put the originals back on uninstall.

Several modules bind names from others at import time (``linalg`` takes
``insert_row``/``reduce_row`` from ``_backend``, ``tower`` and ``algebra``
take ``sadd_into``/``tensor_sparse`` from ``linalg``).  A wrapper installed
only on the defining module would miss those calls, so ``install`` rebinds
every alias of a wrapped function in every loaded weakhopf module, which
has the same effect as wrapping before the dependent modules import the
names.  Methods are patched on their class, which every alias shares.

Accounting.  A call's self time is its duration minus the time of the
wrapped calls it makes.  Self time goes to an *owner*: a named function
(one of ``NAMED``) owns its own time; any other wrapped function called
from the same layer folds into its caller's owner, and one called from
another layer owns its time under its own key.  Hence ``<layer>.<fn>_s``
is the time spent in that function and its unnamed same-layer helpers,
excluding other layers and other named functions, and the self times of
all owners add up exactly to the traced jobs' total time.  Scalar
arithmetic (``Fraction``, ``linalg.Fp``) is not wrapped and counts toward
the layer that performs it.

Spans.  Every job and every named-function call is recorded as a span
(name, start, end, parent span, job id) in memory and written out by
``write_spans`` at the end.  The remaining wrapped calls are kernels
called up to millions of times per job (``Algebra.mul``, echelon inserts,
the row-reduction core); they are not kept one by one but their self
time and call counts enter the same totals.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

# layer -> weakhopf module; the row-reduction core is reached through
# _backend, whose names linalg imports
LAYERS = {
    "cli": "weakhopf.cli",
    "specfile": "weakhopf.specfile",
    "linalg": "weakhopf.linalg",
    "rowred": "weakhopf._backend",
    "algebra": "weakhopf.algebra",
    "wha": "weakhopf.wha",
    "groupoid": "weakhopf.groupoid",
    "action": "weakhopf.action",
    "tower": "weakhopf.tower",
    "composite": "weakhopf.composite",
}

# Tiny accessors called hundreds of thousands of times per job whose
# wrapping would cost more than they do; their time stays with the caller.
SKIP = {
    "linalg": {"Fp", "scalar_zero", "scalar_one", "as_scalar",
               "parse_scalar", "format_scalar", "sparse", "svec", "sfrom",
               "tindex", "tsplit"},
    "algebra": {"basis_vec", "unit_sparse"},
    "specfile": {"dump"},
}

# Constructors that do a stage's work (everything else: public names only).
INIT = {"tower": {"DerivedWeakHopf", "DepthTwoContext"}}

# per-layer metric name -> wrapped functions whose owned self time it sums
NAMED = {
    "cli.render_s": ["cli.Report.render"],
    "linalg.quotient_s": ["linalg.quotient", "linalg.quotient_from_projection"],
    "linalg.solve_s": ["linalg.solve", "linalg.solve_sparse",
                       "linalg.solution_space_dim"],
    "linalg.kernel_s": ["linalg.kernel"],
    "algebra.make_algebra_s": ["algebra.make_algebra"],
    "algebra.make_cond_expectation_s": ["algebra.make_cond_expectation"],
    "algebra.certify_markov_s": ["algebra.certify_markov"],
    "algebra.find_dual_bases_s": ["algebra.find_dual_bases"],
    "algebra.relative_tensor_square_s": ["algebra.relative_tensor_square"],
    "algebra.centralizer_s": ["algebra.centralizer"],
    "wha.verify_axioms_s": ["wha.verify_axioms"],
    "wha.dual_s": ["wha.dual"],
    "wha.counital_s": ["wha.counital"],
    "wha.integrals_s": ["wha.integrals"],
    "groupoid.dual_s": ["groupoid.groupoid_dual"],
    "groupoid.integrals_s": ["groupoid.groupoid_integrals"],
    "action.smash_s": ["action.smash"],
    "action.verify_module_algebra_s": ["action.verify_module_algebra"],
    "tower.basic_construction_s": ["tower.basic_construction"],
    "tower.depth2_check_s": ["tower.depth2_check"],
    "tower.conditional_expectations_s": ["tower.conditional_expectations"],
    "tower.derived_wha_s": ["tower.DerivedWeakHopf.__init__"],
    "tower.actions_s": ["tower.action_B_on_M1", "tower.action_A_on_M"],
    "tower.smash_isos_s": ["tower.psi_iso", "tower.phi_iso"],
    "composite.idempotent_s": ["composite.composite_idempotent"],
}
NAMED_KEYS = {k for keys in NAMED.values() for k in keys}

# echelon inserts: key -> "did the rank grow?" from the return value
INSERTS = {
    "linalg.Echelon.insert": lambda r: r,
    "linalg.Echelon.insert_reduced": lambda r: r[0] >= 0,
    "linalg.EchelonExpr.insert": lambda r: r[0] == "kept",
    "linalg.FieldEchelon.insert": lambda r: r,
}
PRIME_INSERTS = "linalg.FieldEchelon.insert"
ROWRED_ROWS = ("rowred.insert_row", "rowred.reduce_row")
PRODUCTS = "algebra.Algebra.mul"
JOB = "job"


class Tracer:
    """Stack-based self-time accounting plus an in-memory span list."""

    def __init__(self):
        self.self_time = {}   # owner key -> seconds
        self.calls = {}       # wrapped key -> call count
        self.useful = {}      # insert key -> inserts that grew the rank
        self.spans = []       # [name, start, end, parent index, job id]
        self.job_id = None
        # frame: [child seconds, owner key, layer, span index]
        self._stack = [[0.0, None, None, -1]]
        self._installed = []  # (holder, attribute, original)

    # -- accounting -------------------------------------------------------

    def _enter(self, key, layer, record):
        parent = self._stack[-1]
        if key in NAMED_KEYS or parent[2] != layer:
            owner = key
        else:
            owner = parent[1]
        span = -1
        if record:
            span = len(self.spans)
            self.spans.append([key, 0.0, 0.0, parent[3], self.job_id])
        frame = [0.0, owner, layer, span if record else parent[3]]
        self._stack.append(frame)
        return parent, frame, span

    def _exit(self, parent, frame, span, key, t0, t1):
        self._stack.pop()
        dur = t1 - t0
        owner = frame[1]
        self.self_time[owner] = self.self_time.get(owner, 0.0) + dur - frame[0]
        self.calls[key] = self.calls.get(key, 0) + 1
        parent[0] += dur
        if span >= 0:
            rec = self.spans[span]
            rec[1], rec[2] = t0, t1

    def wrap(self, fn, key, layer):
        record = key in NAMED_KEYS
        useful = INSERTS.get(key)
        tracer = self

        def traced(*args, **kwargs):
            parent, frame, span = tracer._enter(key, layer, record)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._exit(parent, frame, span, key, t0, perf_counter())
            if useful is not None and useful(out):
                tracer.useful[key] = tracer.useful.get(key, 0) + 1
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", key)
        traced.perfbench_traced = True
        return traced

    def job(self, job_id, fn, *args):
        """Run one job as a root span owned by the front end."""
        self.job_id = job_id
        parent, frame, span = self._enter(JOB, "cli", True)
        frame[1] = "cli.job"
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self._exit(parent, frame, span, JOB, t0, perf_counter())
            self.job_id = None

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap every target and rebind all of its aliases."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        # import everything first: a module imported while wrappers are in
        # place would bind a wrapper that uninstall cannot find
        mods = {layer: importlib.import_module(modname)
                for layer, modname in LAYERS.items()}
        originals = {}  # id(original) -> wrapper
        for layer, mod in mods.items():
            for key, holder, attr, orig, fn in _targets(layer, mod):
                wrapper = self.wrap(fn, key, layer)
                new = staticmethod(wrapper) if isinstance(
                    orig, staticmethod) else wrapper
                self._set(holder, attr, orig, new)
                if not isinstance(orig, staticmethod):
                    originals[id(orig)] = (orig, wrapper)
        for modname, mod in list(sys.modules.items()):
            if not modname.startswith("weakhopf") or mod is None:
                continue
            for attr, val in list(vars(mod).items()):
                hit = originals.get(id(val))
                if hit is not None and hit[0] is val:
                    self._set(mod, attr, val, hit[1])

    def _set(self, holder, attr, orig, new):
        self._installed.append((holder, attr, orig))
        setattr(holder, attr, new)

    def uninstall(self):
        """Restore every original binding, newest first."""
        while self._installed:
            holder, attr, orig = self._installed.pop()
            setattr(holder, attr, orig)

    # -- results ----------------------------------------------------------

    def layer_totals(self):
        """Owned self time per layer (owner keys are '<layer>.<name>')."""
        out = {}
        for owner, t in self.self_time.items():
            layer = owner.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "job": job}) + "\n")


def _targets(layer, mod):
    """(key, holder, attribute, stored object, function) to wrap."""
    skip = SKIP.get(layer, set())
    for name, obj in list(vars(mod).items()):
        if name in skip:
            continue
        if inspect.isfunction(obj):
            # the row-reduction core is defined in _rowred_py/_rowred_c
            if obj.__module__ != mod.__name__ and layer != "rowred":
                continue
            if name.startswith("_"):
                continue
            if inspect.isgeneratorfunction(obj):
                continue
            yield "%s.%s" % (layer, name), mod, name, obj, obj
        elif layer == "rowred" and callable(obj) and not isinstance(obj, type) \
                and name in ("insert_row", "reduce_row", "normalize_row"):
            # compiled core: builtin functions
            yield "%s.%s" % (layer, name), mod, name, obj, obj
        elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
            if issubclass(obj, BaseException):
                continue
            for mname, m in list(vars(obj).items()):
                if mname == "__init__":
                    if name not in INIT.get(layer, ()):
                        continue
                elif mname.startswith("_"):
                    continue
                key = "%s.%s.%s" % (layer, name, mname)
                if isinstance(m, staticmethod):
                    yield key, obj, mname, m, m.__func__
                elif inspect.isfunction(m) and \
                        not inspect.isgeneratorfunction(m):
                    yield key, obj, mname, m, m


def is_clean():
    """True when no weakhopf module or class holds a benchmark wrapper."""
    for modname, mod in list(sys.modules.items()):
        if not modname.startswith("weakhopf") or mod is None:
            continue
        for val in vars(mod).values():
            if getattr(val, "perfbench_traced", False):
                return False
            if inspect.isclass(val):
                for m in vars(val).values():
                    f = m.__func__ if isinstance(m, staticmethod) else m
                    if getattr(f, "perfbench_traced", False):
                        return False
    return True
