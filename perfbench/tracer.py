"""Outside-in tracing of the program's public functions, for traced runs.

:func:`install` replaces each traced function with a wrapper in every
``fanning`` module that binds it (``from .jets import jet_mul`` also binds
``jet_mul`` in ``curves`` and ``invariants``), and each traced method on
its class.  A wrapper records one span per call on an in-memory stack;
a span's self time is its duration minus the durations of the child spans
it covers.  Counters (``MatrixJet`` constructions, ``solve_ivp``
evaluations, nullspace rows, report bytes) are kept beside the spans.
Untraced runs never call :func:`install`, so they run the program as is.
"""

import importlib
import sys
import time
from collections import defaultdict

MODULES = ("jets", "curves", "invariants", "congruence", "linalg", "report", "cli")

# (metric stem, module, attribute path): one span per call, summed into
# ``<stem>_s`` (self time) and ``<stem>_calls``.
SPANS = (
    ("jets.mul", "jets", "jet_mul"),
    ("jets.inverse", "jets", "jet_inverse"),
    ("curves.poly_jet", "curves", "PolynomialFrameCurve.frame_jet"),
    ("curves.ode_jet", "curves", "OdeFrameCurve.frame_jet"),
    ("curves.load", "curves", "load_curve"),
    ("invariants.coeff", "invariants", "ode_coefficients"),
    ("invariants.h", "invariants", "invariants_from_coefficients"),
    ("invariants.normalize", "invariants", "normalized_frame_jet"),
    ("invariants.normalize", "invariants", "normalizing_jet"),
    ("invariants.bundle", "invariants", "endomorphism_bundle"),
    ("invariants.jacobi", "invariants", "jacobi_matrix"),
    ("invariants.mc", "invariants", "maurer_cartan_pullback"),
    ("invariants.normal_frame", "invariants", "normal_frame"),
    ("congruence.decide", "congruence", "are_congruent"),
    ("congruence.conjugator", "congruence", "simultaneous_conjugator"),
    ("congruence.canonicalize", "congruence", "canonicalize_jet"),
    ("congruence.canonicalize", "congruence", "orbit_coordinates"),
    ("linalg.nullspace", "linalg", "nullspace"),
    ("linalg.span", "linalg", "span_distance"),
    ("linalg.rank", "linalg", "numeric_rank"),
    ("report.render", "report", "dumps_json"),
    ("report.render", "report", "dumps_csv"),
    ("cli.self", "cli", "main"),
)


# Spans written out: those of the first round lasting at least this long.
# A parent lasts at least as long as its children, so the kept spans still
# form whole trees; the totals cover every span.
KEEP_SPAN_S = 1e-3


class Tracer:
    """Span stack, per-stem totals and counters of one traced run."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []  # (id, parent id, stem, start, end), see KEEP_SPAN_S
        self.keep = False
        self._stack = []  # [span id, start, child time]
        self._next_id = 0

    def span(self, stem, fn, counter=None):
        clock = time.perf_counter
        stack = self._stack

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                self.self_s[stem] += duration - frame[2]
                self.calls[stem] += 1
                if stack:
                    stack[-1][2] += duration
                if self.keep and duration >= KEEP_SPAN_S:
                    parent = stack[-1][0] if stack else 0
                    self.spans.append((frame[0], parent, stem, frame[1], end))
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counting(self, name, fn, amount):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += amount(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper


def _rows(args, result):
    import numpy as np

    return int(np.atleast_2d(np.asarray(args[0])).shape[0])


COUNTERS = {
    "linalg.nullspace": ("linalg.nullspace_rows", _rows),
    "report.render": ("report.bytes", lambda args, result: len(result)),
}


def _rebind(original, replacement):
    """Point every ``fanning`` module name bound to ``original`` at ``replacement``."""
    bound = 0
    for name, module in list(sys.modules.items()):
        if name != "fanning" and not name.startswith("fanning."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                bound += 1
    return bound


def install(tracer):
    """Wrap every traced function of the already imported ``fanning`` package."""
    modules = {m: importlib.import_module(f"fanning.{m}") for m in MODULES}
    for stem, module, path in SPANS:
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(modules[module], owner_name) if owner_name else modules[module]
        original = getattr(owner, attr)
        wrapped = tracer.span(stem, original, COUNTERS.get(stem))
        if owner_name:
            setattr(owner, attr, wrapped)
        elif not _rebind(original, wrapped):
            raise RuntimeError(f"fanning.{module}.{attr} is bound nowhere")

    jet_class = modules["jets"].MatrixJet
    post_init = jet_class.__post_init__
    jet_class.__post_init__ = tracer.counting(
        "jets.constructed", post_init, lambda args, result: 1)
    # One solve_ivp object is bound in both modules; each gets its own counter.
    for module in ("curves", "invariants"):
        modules[module].solve_ivp = tracer.counting(
            f"{module}.ivp_nfev", modules[module].solve_ivp,
            lambda args, result: int(result.nfev))
