"""Per-layer self times and counts for the traced benchmark run.

The tracer wraps ttkit's layer-boundary functions (the table ``LAYERS``) and
the LAPACK routines they call.  Each wrapped call is a span; a span's self
time is its duration minus the durations of the spans it encloses, so the
self times of all spans in a job add up to the job's wall time.

* ttkit modules import functions by name, so a wrapper is installed in every
  ttkit namespace that holds the function (``ttkit.solvers.tt_norm`` as well
  as ``ttkit.algebra.tt_norm``), and on ``EnvStack``'s methods.
* A call nested directly in a span of the same layer metric (``mpo_round``
  calling ``tt_round``) is part of that span, not a new one.
* Public helpers not in ``LAYERS`` (``qr_right``, ``orthogonalize``,
  ``tt_to_full``, ...) are not wrapped; their time is their caller's.
* A LAPACK call inside a solver span is a span of its own, of the layer
  ``LAPACK`` gives it: ``local_solve`` for the local eigen-, singular-value
  and linear solves (the scipy.linalg routines, and numpy.linalg's lstsq, the
  last fallback of the regularized solve), ``move_split`` for numpy.linalg's
  QR and SVD, which move the orthogonality centre and split two-site blocks.
  Elsewhere its time goes to the nearest enclosing ttkit span.

The tracer is installed only for the traced passes; ``installed`` restores
every original function on exit.
"""

from __future__ import annotations

import contextlib
import functools
import time

# layer -> the functions whose calls are its spans
LAYERS = {
    "solvers.sweep_self": (
        "eig_min",
        "eig_block",
        "svd_dominant",
        "svd_small_k",
        "gevd",
        "cca",
        "linsolve",
    ),
    "frames.assemble": ("effective_operator", "effective_operator_two"),
    "frames.rhs": ("effective_rhs", "effective_rhs_two"),
    "frames.env": ("env_update_left", "env_update_right"),
    "algebra.residual": ("tt_add", "tt_scale", "tt_norm"),
    "algebra.apply": ("mpo_apply",),
    "algebra.mul": ("mpo_mul",),
    "train.svd": ("tt_svd", "mpo_svd"),
    "train.round": ("tt_round", "mpo_round"),
    "quantize.fold": ("quantize_vector", "quantize_matrix"),
    "quantize.unfold": ("dequantize",),
    "container.save": ("save",),
    "container.load": ("load",),
    "cli.self": ("main",),
}
ENV_METHODS = ("update_left", "update_right")  # EnvStack -> frames.env
# (module, routine) -> the layer of its calls inside a solver span
LAPACK = {
    **{("scipy.linalg", name): "solvers.local_solve"
       for name in ("eigh", "svd", "cholesky", "solve", "solve_triangular")},
    ("numpy.linalg", "lstsq"): "solvers.local_solve",
    ("numpy.linalg", "qr"): "solvers.move_split",
    ("numpy.linalg", "svd"): "solvers.move_split",
}
ROOT = "bench.self"  # the benchmark's own time inside a job
TIMED = (*LAYERS, *dict.fromkeys(LAPACK.values()), ROOT)  # layers with a self time

MODULES = ("algebra", "cli", "container", "frames", "quantize", "solvers", "train")


def _cores_nbytes(obj) -> int:
    return int(sum(c.nbytes for c in obj.cores))


# per-call counts taken from arguments and results: metric -> fn(args, result)
OBSERVE = {
    "frames.assemble": {"frames.local_dim_max": lambda a, r: max(r.shape)},
    "train.svd": {"train.svd_bytes": lambda a, r: a[0].nbytes},
    "quantize.fold": {"quantize.params": lambda a, r: sum(c.size for c in r.cores)},
    "container.save": {"container.bytes": lambda a, r: _cores_nbytes(a[0])},
    "container.load": {"container.bytes": lambda a, r: _cores_nbytes(r)},
    "cli.self": {"cli.nonzero_exits": lambda a, r: int(r != 0)},
    "solvers.sweep_self": {
        # every solver returns its SolveReport last
        "solvers.half_sweeps": lambda a, r: len(r[-1].objective),
        "solvers.regularized": lambda a, r: r[-1].regularized,
    },
}
MAXIMA = {"frames.local_dim_max"}
BYTES = {"train.svd_bytes", "container.bytes"}  # observed counts in bytes
# layers whose calls are counted -> the name of the count
CALLS = {
    "solvers.local_solve": "solvers.local_solve_calls",
    "solvers.move_split": "solvers.move_split_calls",
    "frames.assemble": "frames.assemble_calls",
    "frames.env": "frames.env_calls",
    "algebra.apply": "algebra.apply_calls",
    "algebra.mul": "algebra.mul_calls",
    "train.round": "train.round_calls",
    "train.svd": "train.svd_calls",
    "cli.self": "cli.calls",
}


class Tracer:
    """Nested spans reduced, as they close, to self time and calls per layer."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [layer, start, time in child spans]
        self.reset()

    def reset(self):
        self.self_s = {}
        self.calls = {}
        self.counts = {}

    @property
    def current(self):
        return self.stack[-1][0] if self.stack else None

    def push(self, layer: str):
        self.stack.append([layer, self.clock(), 0.0])

    def pop(self) -> float:
        """Close the innermost span; returns its duration."""
        layer, start, child = self.stack.pop()
        duration = self.clock() - start
        self.self_s[layer] = self.self_s.get(layer, 0.0) + duration - child
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def count(self, name: str, value):
        if name in MAXIMA:
            self.counts[name] = max(self.counts.get(name, 0), value)
        else:
            self.counts[name] = self.counts.get(name, 0) + value

    def span(self, fn, layer: str):
        """Wrap ``fn`` so that each call is a span of ``layer``."""
        observers = OBSERVE.get(layer, {})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current == layer:
                return fn(*args, **kwargs)
            self.push(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.pop()
            for name, observe in observers.items():
                self.count(name, observe(args, result))
            return result

        return wrapper

    def lapack(self, fn, solver_layer: str):
        """Wrap a LAPACK routine: a span inside solver spans, else transparent."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current != "solvers.sweep_self":
                return fn(*args, **kwargs)
            self.push(solver_layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self.pop()

        return wrapper


@contextlib.contextmanager
def installed(tracer: Tracer, package):
    """Install ``tracer``'s wrappers into ``package`` (ttkit) and the LAPACK
    modules; restore every original on exit."""
    import importlib

    originals = []  # (owner, attribute, original)

    def patch(owner, attr, wrapper):
        originals.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    try:
        wrapped = {}  # original function -> its wrapper, shared by namespaces
        namespaces = [package] + [importlib.import_module(f"{package.__name__}.{m}") for m in MODULES]
        for layer, names in LAYERS.items():
            for ns in namespaces:
                for name in names:
                    fn = ns.__dict__.get(name)
                    if callable(fn):
                        if fn not in wrapped:
                            wrapped[fn] = tracer.span(fn, layer)
                        patch(ns, name, wrapped[fn])
        for name in ENV_METHODS:
            patch(package.EnvStack, name, tracer.span(getattr(package.EnvStack, name), "frames.env"))
        for (module_name, name), layer in LAPACK.items():
            module = importlib.import_module(module_name)
            patch(module, name, tracer.lapack(getattr(module, name), layer))
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)
