"""Per-layer tracing of fraclap from outside the package.

`Tracer.install` replaces the public entry points of every layer (module)
with wrappers that record a span per call: name, start, end, parent span
and command id.  A name is replaced in every fraclap module that holds it,
so calls through `from .quad import integrate_adaptive` and the like are
caught too.  Spans stay in memory; `write` saves them when the run ends.
A layer's self time is the summed duration of its spans minus the time
their child spans cover.  The wrappers also keep the work counts that the
per-layer metrics report.
"""

import math
import time
from array import array

import numpy as np

LAYERS = ("cli", "flcore", "fields", "quad", "constants", "oracle",
          "lattice", "potentials")

COUNTERS = (
    "fields.ray_calls", "fields.points", "fields.deriv_calls",
    "quad.adaptive_calls", "quad.panels", "quad.halfline_calls",
    "quad.moment_calls", "flcore.calls", "flcore.sphere_dirs",
    "constants.calls", "oracle.fft_calls", "oracle.fft_points",
    "lattice.calls",
)

_CONSTANTS = ("gamma", "sin_half_pi", "diff_weights", "central_diff_power",
              "unit_sphere_moment", "v_integral_quadrature", "v_integral",
              "c_standard", "c_standard_levy", "norm_constants", "a_delta")
_POTENTIALS = ("validate_stiffness", "scaling_factor", "admissible_order",
               "potential_eigenvalue", "induced_difference_matrix",
               "ring_potential")
_OPERATORS = ("fl_standard", "fl_order_m", "fl_regularized")


class Tracer:
    """Spans, layer self times and work counts of one traced run."""

    def __init__(self):
        self.names = []
        self.name = array("i")
        self.parent = array("i")
        self.cmd = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.results = []          # (field, point, alpha, value, error)
        self.cmd_id = -1
        self._stack = []           # [span index, child time, marker]
        self._patches = []         # (owner, attribute, original, wrapper)

    # ------------------------------------------------------------ wrapping

    def _wrap(self, fn, name, layer, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        stack, clock = self._stack, time.perf_counter
        spans_name, spans_parent, spans_cmd = self.name, self.parent, self.cmd
        starts, ends, self_s = self.start, self.end, self.self_s

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            marker = name
            if before is not None:
                args, marker = before(args, parent)
            idx = len(spans_name)
            spans_name.append(nid)
            spans_parent.append(parent[0] if parent else -1)
            spans_cmd.append(self.cmd_id)
            starts.append(0.0)
            ends.append(0.0)
            frame = [idx, 0.0, marker]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[idx] = t0
                ends[idx] = t1
                self_s[layer] += (t1 - t0) - frame[1]
                if stack:
                    stack[-1][1] += t1 - t0
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, size_arg=None):
        counts = self.counts

        def before(args, parent):
            counts[key] += 1
            if size_arg is not None:
                counts[size_arg[1]] += _size(args[size_arg[0]])
            return args, None
        return before

    def _adaptive(self, args, parent):
        # integrate_adaptive folds an infinite range by calling itself on
        # (0, 1); that inner call is the same integral, so it is neither
        # counted again nor given a second integrand counter
        marker = "adaptive-inf" if math.isinf(args[2]) else "adaptive"
        if parent is not None and parent[2] == "adaptive-inf":
            return args, marker
        self.counts["quad.adaptive_calls"] += 1
        f, counts = args[0], self.counts

        def counted(x):
            counts["quad.panels"] += 1
            return f(x)
        return (counted,) + tuple(args[1:]), marker

    def _record_result(self, args, result):
        u, x, alpha = args[0], args[1], args[2]
        if hasattr(u, "sigma") and hasattr(u, "center"):
            field = ("gaussian", u.sigma, tuple(float(c) for c in u.center))
        elif getattr(u, "k", None) is not None:
            field = ("planewave", tuple(float(c) for c in u.k))
        else:
            return
        point = tuple(float(c) for c in _flat(x))
        self.results.append((field, point, float(alpha),
                             complex(result.value), float(result.error)))

    def _sphere_dirs(self, args, result):
        self.counts["flcore.sphere_dirs"] += len(result[0])

    # ------------------------------------------------------------ install

    def install(self, fraclap):
        """Wrap every public entry point of the package's layers and
        attach the wrappers."""
        from fraclap import (cli, constants, fields, flcore, lattice, oracle,
                             potentials, quad)
        modules = [fraclap, cli, constants, fields, flcore, lattice, oracle,
                   potentials, quad]
        plan = [(cli, "main", "cli", None, None)]
        for op in _OPERATORS:
            plan.append((flcore, op, "flcore", self._count("flcore.calls"),
                         self._record_result))
        plan.append((flcore, "fl_eigenvalue", "flcore", None, None))
        plan.append((flcore, "sphere_rule", "flcore", None, self._sphere_dirs))
        plan.append((quad, "integrate_adaptive", "quad", self._adaptive, None))
        plan.append((quad, "reg_halfline", "quad",
                     self._count("quad.halfline_calls"), None))
        plan.append((quad, "kernel_moment", "quad",
                     self._count("quad.moment_calls"), None))
        for name in _CONSTANTS:
            plan.append((constants, name, "constants",
                         self._count("constants.calls"), None))
        plan.append((oracle, "fft", "oracle",
                     self._count("oracle.fft_calls", (0, "oracle.fft_points")),
                     None))
        plan.append((oracle, "dft_fl", "oracle", None, None))
        plan.append((oracle, "periodic_image_tail", "oracle", None, None))
        for name in ("wm_dispersion", "wm_limit_amplitude"):
            plan.append((lattice, name, "lattice",
                         self._count("lattice.calls"), None))
        for name in _POTENTIALS:
            plan.append((potentials, name, "potentials", None, None))

        for home, attr, layer, before, after in plan:
            original = getattr(home, attr)
            wrapper = self._wrap(original, attr, layer, before, after)
            for mod in modules:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        self._patch(mod, key, wrapper)

        # methods: Field.on_ray and every class's own line_deriv
        on_ray = self._wrap(fields.Field.on_ray, "Field.on_ray", "fields",
                            self._count("fields.ray_calls",
                                        (3, "fields.points")))
        self._patch(fields.Field, "on_ray", on_ray)
        for cls in (fields.Field, fields.Gaussian, fields.PlaneWave,
                    fields.UserField):
            if "line_deriv" in vars(cls):
                self._patch(cls, "line_deriv", self._wrap(
                    vars(cls)["line_deriv"], cls.__name__ + ".line_deriv",
                    "fields", self._count("fields.deriv_calls")))

        self.attach()

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, vars(owner)[attr], wrapper))

    def attach(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def detach(self):
        """Put the original functions back; `attach` wraps them again."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # ------------------------------------------------------------ results

    def bound_misses(self, exact):
        """Number of operator results whose reported error is below the
        actual error; `exact(field, point, alpha)` gives the closed form."""
        misses = 0
        for field, point, alpha, value, error in self.results:
            if abs(value - exact(field, point, alpha)) > error:
                misses += 1
        return misses

    def write(self, path):
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name),
            parent=np.asarray(self.parent), cmd=np.asarray(self.cmd),
            start=np.asarray(self.start), end=np.asarray(self.end))


def _size(obj):
    return int(np.size(obj))


def _flat(x):
    return np.atleast_1d(np.asarray(x, dtype=float))
