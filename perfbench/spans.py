"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the package's layer boundaries from outside: every
binding of a boundary function, in every ``ispflow`` module that holds
one, is replaced by a wrapper.  Binding matters because several modules
import their helpers by name (``bound`` and ``scatter`` each hold their
own reference to ``coupling.solve_coupling_table``); patching only the
defining module would miss those calls.

Two kinds of wrapper exist:

* a *span* records (span id, parent span id, op id, name, start, end);
  spans stay in memory until the run ends;
* a *counter* only counts calls (and, for ring products, the terms they
  return; for file writes, the bytes).  Ring products and flow residuals
  run thousands to tens of thousands of times per job; a span each would
  cost about as much as the call.

Self time of a span is its duration minus the durations of its direct
children, so a layer's self time excludes the layers it calls that are
themselves spanned.  Span times are read from the worker's work clock
(hostspeed.SpeedClock), and the per-layer seconds are at reference host
speed.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import json
import sys
from collections import defaultdict

# name -> list of (module, attribute) boundaries; "Class.method" patches a
# class attribute, anything else every module-level binding of the object.
SPAN_BOUNDARIES = {
    "cli.main": [("ispflow.cli", "main")],
    "emit.write": [("ispflow.emit", name) for name in (
        "emit_coeffs", "emit_contour", "emit_beta", "emit_phase",
        "emit_divergence", "emit_groundstate")],
    "coupling.table_solve": [("ispflow.coupling", "solve_coupling_table")],
    "coupling.fit": [("ispflow.coupling", "structure_fit")],
    "expansions.sector_solve": [("ispflow.expansions", "solve_sector_ansatz")],
    "bound.beta": [("ispflow.bound", "beta_transseries")],
    "scatter.beta": [("ispflow.scatter", "scatter_beta")],
    "scatter.cross_sector": [("ispflow.scatter", "cross_sector_expansion")],
    "series.mul": [("ispflow.series", "TruncSeries.__mul__")],
    "series.substitute": [("ispflow.series", "TruncSeries.substitute_var")],
    "series.inverse": [("ispflow.series", "TruncSeries.inverse")],
    "series.explog": [("ispflow.series", "TruncSeries.exp"),
                      ("ispflow.series", "TruncSeries.log")],
    "transseries.mul": [("ispflow.transseries", "Transseries.__mul__")],
    "transseries.div": [("ispflow.transseries", "Transseries.__truediv__"),
                        ("ispflow.transseries", "Transseries.truediv_graded")],
    "rgnumeric.solve": [("ispflow.rgnumeric", "solve_running_coupling"),
                        ("ispflow.rgnumeric", "solve_scattering_coupling")],
    "rgnumeric.beta": [("ispflow.rgnumeric", "numeric_beta"),
                       ("ispflow.rgnumeric", "numeric_beta_scattering")],
    "specfun.call": [("ispflow.specfun", name) for name in (
        "complex_gamma", "bessel_i_imag", "bessel_j_imag", "bessel_k_imag",
        "hankel1_imag", "hankel2_imag", "arg_i_tilde_principal",
        "arg_i_unwrapped", "arg_i_branch_residue")],
    "tmatrix.classify": [("ispflow.tmatrix", "classify_divergence")],
    "tmatrix.integral": [("ispflow.tmatrix", "second_order_integral")],
    "scipy.quad": [("ispflow.tmatrix", "quad")],
}

# counter name -> (boundaries, size counter, size of one call's work)
COUNT_BOUNDARIES = {
    "constexpr.mul_calls": ([("ispflow.constexpr", "ConstExpr.__mul__")],
                            "constexpr.terms_out",
                            lambda args, out: len(out.terms)),
    "rgnumeric.residual_evals": (
        [("ispflow.rgnumeric", "quantization_residual"),
         ("ispflow.rgnumeric", "scattering_residual")], None, None),
    "emit.write_calls": ([("ispflow.emit", "_write")], "emit.bytes",
                         lambda args, out: len(args[1].encode())),
}


def _resolve(module_name, attr):
    module = sys.modules[module_name]
    if "." in attr:
        cls_name, meth = attr.split(".")
        cls = getattr(module, cls_name)
        return cls, cls.__dict__[meth]
    return None, getattr(module, attr)


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "ispflow"
                                  or name.startswith("ispflow."))]


class Tracer:
    """Spans and counters for one traced job."""

    def __init__(self, clock):
        self._clock = clock       # reads span start and end times
        self.spans = []           # (id, parent, op, name, start, end)
        self.counts = defaultdict(int)
        self._stack = []
        self._next_id = 0
        self._op = 0
        self._patches = []        # (owner, attribute, original)

    # -- spans opened by the benchmark's own code ----------------------

    @contextlib.contextmanager
    def span(self, name, new_op=False):
        outer_op = self._op
        sid, parent = self._enter()
        if new_op:
            self._op = sid
        start = self._clock()
        try:
            yield
        finally:
            self._exit(sid, parent, name, start)
            self._op = outer_op

    # -- span bookkeeping, shared by ``span`` and the wrappers ----------

    def _enter(self):
        """Give a new span its id and parent, and make it current."""
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(self._next_id)
        return self._next_id, parent

    def _exit(self, sid, parent, name, start):
        end = self._clock()
        self._stack.pop()
        self.spans.append((sid, parent, self._op, name, start, end))

    # -- wrappers ------------------------------------------------------

    def _span_wrapper(self, name, fn):
        enter, exit_, clock = self._enter, self._exit, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent = enter()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                exit_(sid, parent, name, start)
        return traced

    def _count_wrapper(self, name, size_name, size, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            out = fn(*args, **kwargs)
            counts[name] += 1
            if size_name is not None:
                counts[size_name] += size(args, out)
            return out
        return counted

    def _patch(self, boundary, wrapper_for):
        cls, original = _resolve(*boundary)
        wrapper = wrapper_for(original)
        if cls is not None:
            owners = [cls]
        else:
            owners = _package_modules()
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    self._patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every binding of every boundary; ``uninstall`` undoes it."""
        for name, boundaries in SPAN_BOUNDARIES.items():
            for b in boundaries:
                self._patch(b, lambda fn, n=name: self._span_wrapper(n, fn))
        for name, (boundaries, size_name, size) in COUNT_BOUNDARIES.items():
            for b in boundaries:
                self._patch(b, lambda fn, n=name, sn=size_name, sz=size:
                            self._count_wrapper(n, sn, sz, fn))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results -------------------------------------------------------

    def summary(self, to_ref):
        """Per span name: calls, inclusive seconds (outermost spans only)
        and self seconds, with times mapped through ``to_ref``; plus how
        many solves ran inside a beta."""
        by_id = {s[0]: s for s in self.spans}
        dur = {sid: to_ref(end) - to_ref(start)
               for sid, _, _, _, start, end in self.spans}
        child_time = defaultdict(float)
        for sid, parent, *_ in self.spans:
            if parent:
                child_time[parent] += dur[sid]
        out = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        solves_in_beta = 0
        for sid, parent, _, name, start, end in self.spans:
            row = out[name]
            row["calls"] += 1
            row["self_s"] += dur[sid] - child_time[sid]
            ancestors = []
            anc = parent
            while anc:
                ancestors.append(by_id[anc][3])
                anc = by_id[anc][1]
            if name not in ancestors:
                row["incl_s"] += dur[sid]
            if name == "rgnumeric.solve" and "rgnumeric.beta" in ancestors:
                solves_in_beta += 1
        return dict(out), solves_in_beta

    def write(self, path):
        """Write spans and counters as gzipped JSON."""
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["id", "parent", "op", "name", "start",
                                  "end"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def layer_metrics(tracer: Tracer, to_ref, integration_warnings: int) -> dict:
    """The per-layer metrics of one traced job, by name; ``to_ref`` maps a
    span time to reference host speed (hostspeed.SpeedClock)."""
    rows, solves_in_beta = tracer.summary(to_ref)
    c = tracer.counts

    def calls(name):
        return rows.get(name, {}).get("calls", 0)

    def incl(name):
        return rows.get(name, {}).get("incl_s", 0.0)

    def self_s(name):
        return rows.get(name, {}).get("self_s", 0.0)

    solves = calls("rgnumeric.solve")
    betas = calls("rgnumeric.beta")
    return {
        "constexpr.mul_calls": c["constexpr.mul_calls"],
        "constexpr.terms_out": c["constexpr.terms_out"],
        "constexpr.random_ops_s": incl("constexpr.random_ops"),
        "series.mul_calls": calls("series.mul"),
        "series.substitute_calls": calls("series.substitute"),
        "series.inverse_calls": calls("series.inverse"),
        "series.mul_self_s": self_s("series.mul"),
        "series.substitute_self_s": self_s("series.substitute"),
        "series.explog_self_s": self_s("series.explog"),
        "transseries.mul_calls": calls("transseries.mul"),
        "transseries.div_self_s": self_s("transseries.div"),
        "coupling.table_solve_s": incl("coupling.table_solve"),
        "coupling.fit_s": incl("coupling.fit"),
        "expansions.sector_solve_s": incl("expansions.sector_solve"),
        "bound.beta_s": incl("bound.beta"),
        "scatter.beta_s": incl("scatter.beta"),
        "scatter.cross_sector_s": incl("scatter.cross_sector"),
        "golden.check_s": incl("golden.check"),
        "rgnumeric.residual_evals_per_solve":
            c["rgnumeric.residual_evals"] / solves if solves else 0,
        "rgnumeric.solve_self_s": self_s("rgnumeric.solve"),
        "rgnumeric.solves_per_beta": solves_in_beta / betas if betas else 0,
        "rgnumeric.beta_s": incl("rgnumeric.beta"),
        "specfun.calls": calls("specfun.call"),
        "specfun.self_s": self_s("specfun.call"),
        "tmatrix.classify_s": incl("tmatrix.classify"),
        "tmatrix.integral_self_s": self_s("tmatrix.integral"),
        "tmatrix.quad_calls": calls("scipy.quad"),
        "tmatrix.integration_warnings": integration_warnings,
        "cli.main_s": incl("cli.main"),
        "emit.write_s": incl("emit.write"),
        "emit.bytes": c["emit.bytes"],
    }


# per-layer metric units; every count repeats exactly on one seed
LAYER_UNITS = {
    "constexpr.mul_calls": "count",
    "constexpr.terms_out": "count",
    "constexpr.random_ops_s": "s",
    "series.mul_calls": "count",
    "series.substitute_calls": "count",
    "series.inverse_calls": "count",
    "series.mul_self_s": "s",
    "series.substitute_self_s": "s",
    "series.explog_self_s": "s",
    "transseries.mul_calls": "count",
    "transseries.div_self_s": "s",
    "coupling.table_solve_s": "s",
    "coupling.fit_s": "s",
    "expansions.sector_solve_s": "s",
    "bound.beta_s": "s",
    "scatter.beta_s": "s",
    "scatter.cross_sector_s": "s",
    "golden.check_s": "s",
    "rgnumeric.residual_evals_per_solve": "count",
    "rgnumeric.solve_self_s": "s",
    "rgnumeric.solves_per_beta": "count",
    "rgnumeric.beta_s": "s",
    "specfun.calls": "count",
    "specfun.self_s": "s",
    "tmatrix.classify_s": "s",
    "tmatrix.integral_self_s": "s",
    "tmatrix.quad_calls": "count",
    "tmatrix.integration_warnings": "count",
    "cli.main_s": "s",
    "emit.write_s": "s",
    "emit.bytes": "B",
    "trace.overhead_frac": "ratio",
}
