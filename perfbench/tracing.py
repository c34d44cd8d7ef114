"""Layer tracing for the benchmark's traced run.

A ``Tracer`` wraps functions at the layer boundaries of ``fastla`` from the
outside: each wrapper is installed under the function's name in every
``fastla`` module that binds that name (modules use ``from .matmul import
multiply``, so patching only the defining module would miss its callers),
and ``uninstall`` puts every original back.  Nothing inside ``src/`` changes.

Spans are aggregated in memory as they close, keyed by span name:

* ``calls``  -- number of spans;
* ``incl``   -- inclusive seconds, counting only the outermost span of a
  name (a recursion is not counted once per level);
* ``self``   -- inclusive seconds minus the seconds of wrapped child spans.

``edges`` counts (parent span, child span) pairs, so a count can be taken
where the work is caused (power iterations are the Sylvester solves whose
parent is ``sylvester.sep``).  Self times of all spans plus the time of a
job outside every span add up to the job's wall time by construction, so
that sum says nothing about missed calls: a call no wrapper catches only
moves its time into its caller's span.  ``call_coverage`` checks the
wrappers against an independent count, from a profiler, of the calls made
to each target function.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# (module, attribute, span name).  Methods of classes are given as
# "Class.method" and patched on the class.
TARGETS = (
    ("fastla.matmul", "multiply", "matmul"),
    ("fastla.baseline", "panel_qr_wy", "baseline.panel"),
    ("fastla.baseline", "_gepp_panel", "baseline.panel"),
    ("fastla.baseline", "solve_unit_lower", "trisolve"),
    ("fastla.qr", "solve_upper_triangular", "trisolve"),
    ("fastla.lu", "solve_triangular", "trisolve"),
    ("fastla.qr", "qrr", "qr"),
    ("fastla.qr", "_qrr_rec", "qr"),
    ("fastla.qr", "_qr_report", "qr"),
    ("fastla.qr", "solve_ls", "qr"),
    ("fastla.qr", "apply_qt", "qr"),
    ("fastla.lu", "lur", "lu"),
    ("fastla.lu", "_lur_rec", "lu"),
    ("fastla.lu", "solve_linear", "lu"),
    ("fastla.lu", "_unit_lower_cond1", "lu.cond_est"),
    ("fastla.inverse", "gen_inv", "inverse"),
    ("fastla.inverse", "tri_inv", "inverse"),
    ("fastla.inverse", "spd_inv", "inverse"),
    ("fastla.inverse", "solve_via_inverse", "inverse"),
    ("fastla.inverse", "_tri_inv_rec", "inverse"),
    ("fastla.inverse", "_spd_inv_rec", "inverse"),
    ("fastla.inverse", "_tri_inv_rec_dd", "inverse"),
    ("fastla.inverse", "_spd_inv_rec_dd", "inverse"),
    ("fastla.inverse", "_report", "inverse"),
    ("fastla.inverse", "engine_mu_constant", "inverse.mu_cache"),
    ("fastla.dd", "DD.__matmul__", "dd.matmul"),
    ("fastla.dd", "DD.__add__", "dd"),
    ("fastla.dd", "DD.__sub__", "dd"),
    ("fastla.dd", "DD.__mul__", "dd"),
    ("fastla.dd", "DD.__truediv__", "dd"),
    ("fastla.dd", "DD.__neg__", "dd"),
    ("fastla.dd", "DD.__getitem__", "dd"),
    ("fastla.dd", "DD.__setitem__", "dd"),
    ("fastla.dd", "DD.to_float64", "dd"),
    ("fastla.rurv", "rurv", "rurv"),
    ("fastla.rurv", "haar_orthogonal", "rurv"),
    ("fastla.sylvester", "sylr", "sylvester"),
    ("fastla.sylvester", "_sylr_rec", "sylvester.sylr"),
    ("fastla.sylvester", "_base_solve", "sylvester.base"),
    ("fastla.sylvester", "sep_estimate", "sylvester.sep"),
    ("fastla.eig", "schur_dandc", "eig"),
    ("fastla.eig", "symmetric_eig", "eig"),
    ("fastla.eig", "svd_via_gram", "eig"),
    ("fastla.eig", "evecr", "eig"),
    ("fastla.eig", "moebius_apply", "eig"),
    ("fastla.eig", "norm_a21_profile", "eig"),
    ("fastla.eig", "split_once", "eig.split"),
    ("fastla.eig", "sign_function", "eig.sign"),
    ("fastla.eig", "_inv_and_logdet", "eig.sign.iter"),
    ("fastla.core", "norm", "core.norm"),
)

ROOT = "job"


class Tracer:
    """Aggregated spans of the wrapped ``fastla`` functions."""

    def __init__(self):
        self.stats: dict = {}
        self.edges: Counter = Counter()
        self.matmul_ops = 0
        self.split_accepted = 0
        self._stack = [[ROOT, 0.0]]
        self._active: Counter = Counter()
        self._patches: list = []

    def reset(self) -> None:
        self.stats.clear()
        self.edges.clear()
        self.matmul_ops = 0
        self.split_accepted = 0
        self._stack[0][1] = 0.0

    # -- spans -----------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        stack = self._stack
        active = self._active
        stats = self.stats
        edges = self.edges

        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            active[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                active[name] -= 1
                parent[1] += dt
                rec = stats.get(name)
                if rec is None:
                    rec = stats[name] = [0, 0.0, 0.0]
                rec[0] += 1
                if not active[name]:
                    rec[1] += dt
                rec[2] += dt - frame[1]
                edges[(parent[0], name)] += 1
            if after is not None:
                after(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _traced_multiply(self, multiply):
        from fastla.matmul import CONVENTIONAL, OpCounter

        def counted(a, b, engine=CONVENTIONAL, counter=None):
            # The engine's own OpCounter, passed through ``counter=``, tallies
            # every product, including those whose caller passes no counter.
            local = OpCounter()
            out = multiply(a, b, engine, local)
            self.matmul_ops += local.scalar_mults + local.scalar_adds
            if counter is not None:
                counter.count(local.scalar_mults, local.scalar_adds)
            return out

        return counted

    def _count_accepted(self, outcome) -> None:
        self.split_accepted += bool(outcome.accepted)

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every target under every name that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "fastla" or key.startswith("fastla."))]
        for modname, attr, span in TARGETS:
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig))
                continue
            orig = getattr(owner, attr)
            fn = orig
            after = None
            if span == "matmul":
                fn = self._traced_multiply(orig)
            elif span == "eig.split":
                after = self._count_accepted
            wrapped = self._wrap(span, fn, after)
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    # -- queries ---------------------------------------------------------

    def calls(self, name: str) -> int:
        rec = self.stats.get(name)
        return rec[0] if rec else 0

    def incl(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[1] if rec else 0.0

    def self_time(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[2] if rec else 0.0

    def take_top_level(self) -> float:
        """Return and clear the seconds of top-level spans since the last take."""
        seconds = self._stack[0][1]
        self._stack[0][1] = 0.0
        return seconds


def target_codes() -> dict:
    """Code object of every target function -> its span name.

    Read from the functions as ``fastla`` defines them, so call it while no
    tracer is installed.
    """
    codes = {}
    for modname, attr, span in TARGETS:
        fn = sys.modules[modname]
        for part in attr.split("."):
            fn = getattr(fn, part)
        codes[fn.__code__] = span
    return codes


def call_coverage(run) -> float:
    """Share of the calls to target functions that the wrappers catch.

    Runs ``run()`` once under a fresh tracer and under ``sys.setprofile``,
    which sees every call of a target's code object however the caller
    reached it.  Per span, the wrappers' count is capped at the profiler's.
    """
    codes = target_codes()
    seen: Counter = Counter()

    def profile(frame, event, arg):
        if event == "call":
            span = codes.get(frame.f_code)
            if span is not None:
                seen[span] += 1

    tracer = Tracer()
    tracer.install()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(None)
        tracer.uninstall()
    if not seen:
        raise RuntimeError("the profiler saw no call to a traced function")
    caught = sum(min(tracer.calls(span), count) for span, count in seen.items())
    return caught / sum(seen.values())
