"""Spans around the package's layer boundaries, recorded from outside.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` replaces the
module and class attributes through which one layer calls into the next with
wrappers that open a span, call the original and close the span; leaving the
``with`` block puts every original back. Spans are kept in memory and
summarised once per sample by ``summarize``.

A span's self time is its duration minus the durations of its child spans.
The program is single-threaded at the pinned settings, so children never
overlap and the subtraction is exact.
"""

import contextlib
import functools
import time
from collections import defaultdict

from igenkrylov import bidiag, harness, linop, prior, regparam, solve, tomo

# (owner, attribute, span name). An attribute imported by name into a second
# module is a second binding site and is listed once per site.
SITES = (
    (tomo.RadonOperator, "_apply", "tomo.fwd"),
    (tomo.RadonOperator, "_apply_adjoint", "tomo.adj"),
    (tomo.RadonOperator, "perturbed_variant", "tomo.jitter"),
    (tomo, "system_matrix", "tomo.sysmat"),
    (tomo, "synthesize_observation", "harness.synth"),
    (linop, "perturbed_apply", "linop.pfwd"),
    (linop, "perturbed_apply_adjoint", "linop.padj"),
    (prior.CovarianceOperator, "apply", "prior.cov"),
    (bidiag, "igenGK_init", "bidiag.init"),
    (bidiag, "igenGK_step", "bidiag.step"),
    (solve, "projected_tikhonov", "solve.ptik"),
    (regparam, "projected_tikhonov", "solve.ptik"),
    (solve, "recover_solution", "solve.recover"),
    (regparam, "recover_solution", "solve.recover"),
    (solve, "run_iterative_solve", "solve.run"),
    (regparam, "select_lambda_optimal", "regparam.select"),
    (regparam, "select_lambda_dp", "regparam.select"),
    (regparam, "select_lambda_wgcv", "regparam.select"),
    (regparam, "suggest_omega", "regparam.select"),
    (regparam, "wgcv_value", "regparam.wgcv"),
    (harness, "build_problem", "harness.build_problem"),
)

ROOT = "solve.run"
LAYERS = ("tomo", "linop", "prior", "bidiag", "solve", "regparam")


class Span:
    __slots__ = ("name", "parent", "top", "start", "end", "child_s", "exc")

    def __init__(self, name, parent):
        self.name = name
        self.parent = parent
        # Layer of the ancestor that the solve driver called directly; None
        # outside a solve. Set at open time so no walk up the tree is needed.
        if parent is None:
            self.top = None
        elif parent.name == ROOT:
            self.top = name.split(".", 1)[0]
        else:
            self.top = parent.top
        self.child_s = 0.0
        self.exc = None

    @property
    def duration(self):
        return self.end - self.start

    @property
    def self_s(self):
        return self.duration - self.child_s


def _product_bytes(op):
    # CSR product: 8-byte value plus 4-byte column index per nonzero, plus the
    # input and output vectors. Computed from sizes, not measured.
    return op._mat.nnz * 12 + (op.nrows + op.ncols) * 8


def _normals(op, model):
    if model is not None and model.active and model.mode == "gaussian-entry":
        return op.nrows * op.ncols
    return 0


# Counters recorded at the same boundaries as the spans: name -> function of
# the wrapped call's arguments.
COUNTERS = {
    "tomo.fwd": ("tomo.bytes_computed", lambda op, x: _product_bytes(op)),
    "tomo.adj": ("tomo.bytes_computed", lambda op, y: _product_bytes(op)),
    "linop.pfwd": ("linop.normals_computed", lambda op, model, k, x: _normals(op, model)),
    "linop.padj": ("linop.normals_computed", lambda op, model, k, y: _normals(op, model)),
}


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def take(self):
        """Return the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], defaultdict(int)
        return spans, counts

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, parent)
            if counter is not None:
                self.counts[counter[0]] += counter[1](*args, **kwargs)
            self._stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span.exc = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                self.spans.append(span)

        return wrapper

    @contextlib.contextmanager
    def install(self):
        """Wrap every binding site in SITES for the duration of the block."""
        with contextlib.ExitStack() as stack:
            for owner, attr, name in SITES:
                stack.enter_context(patched(owner, attr, self._wrap(name, getattr(owner, attr))))
            yield


@contextlib.contextmanager
def patched(owner, attr, replacement):
    """Set ``owner.attr`` to ``replacement`` and restore the original on exit."""
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def summarize(spans, counts):
    """Per-layer metrics of one traced sample (one cold set-up plus one solve).

    Call counts and durations cover the whole sample; the ``*.share`` and
    ``*.per_iter`` figures cover only the spans inside the solve.
    """
    calls = defaultdict(int)
    total = defaultdict(float)
    self_total = defaultdict(float)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    cov_by_top = defaultdict(int)
    in_solve = defaultdict(int)
    rule_evals = 0
    breakdowns = 0
    for s in spans:
        calls[s.name] += 1
        total[s.name] += s.duration
        self_total[s.name] += s.self_s
        if s.name == ROOT:
            layer_self["solve"] += s.self_s
        if s.top is None:
            continue
        layer_self[s.name.split(".", 1)[0]] += s.self_s
        in_solve[s.name] += 1
        if s.name == "prior.cov":
            cov_by_top[s.top] += 1
        if s.top == "regparam" and s.name in ("solve.ptik", "regparam.wgcv"):
            rule_evals += 1
        if s.name == "bidiag.step" and s.exc == "BreakdownSignal":
            breakdowns += 1

    solve_s = total[ROOT]
    iters = max(in_solve["bidiag.step"], 1)
    products = calls["linop.pfwd"] + calls["linop.padj"]
    m = {
        "tomo.fwd.calls": calls["tomo.fwd"],
        "tomo.fwd.s": total["tomo.fwd"],
        "tomo.adj.calls": calls["tomo.adj"],
        "tomo.adj.s": total["tomo.adj"],
        "tomo.bytes_computed": counts["tomo.bytes_computed"],
        "tomo.sysmat.s": total["tomo.sysmat"],
        "tomo.sysmat.per_iter": in_solve["tomo.sysmat"] / iters,
        "tomo.jitter.calls": calls["tomo.jitter"],
        "tomo.jitter.s": total["tomo.jitter"],
        "linop.pfwd.calls": calls["linop.pfwd"],
        "linop.pfwd.s": total["linop.pfwd"],
        "linop.padj.calls": calls["linop.padj"],
        "linop.padj.s": total["linop.padj"],
        "linop.inject.self_s": self_total["linop.pfwd"] + self_total["linop.padj"],
        "linop.product_s": (total["linop.pfwd"] + total["linop.padj"]) / max(products, 1),
        "linop.normals_computed": counts["linop.normals_computed"],
        "prior.cov.calls": calls["prior.cov"],
        "prior.cov.s": total["prior.cov"],
        "prior.cov.bidiag.calls": cov_by_top["bidiag"],
        "prior.cov.regparam.calls": cov_by_top["regparam"],
        "prior.cov.solve.calls": cov_by_top["solve"],
        "prior.cov.per_iter": in_solve["prior.cov"] / iters,
        "bidiag.step.calls": calls["bidiag.step"],
        "bidiag.step.s": total["bidiag.step"],
        "bidiag.step.self_s": self_total["bidiag.step"],
        "bidiag.breakdowns": breakdowns,
        "solve.ptik.calls": calls["solve.ptik"],
        "solve.ptik.s": total["solve.ptik"],
        "solve.ptik.per_iter": in_solve["solve.ptik"] / iters,
        "solve.recover.calls": calls["solve.recover"],
        "solve.recover.s": total["solve.recover"],
        "solve.run.s": solve_s,
        "solve.run.self_s": self_total[ROOT],
        "regparam.select.s": total["regparam.select"],
        "regparam.select.self_s": self_total["regparam.select"],
        "regparam.evals_per_iter": rule_evals / iters,
        "harness.build_problem.s": total["harness.build_problem"],
        "harness.synth.s": total["harness.synth"],
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = 100.0 * layer_self[layer] / solve_s if solve_s > 0 else 0.0
    return m
