"""Spans and exact counters around hkgeo's public functions.

A span wraps a function by replacing the attribute that callers look up.
Functions imported by name into other modules (``solve_let`` into
``potentials``, ``gradient`` into ``bessel``, ``cost_matrix_sq`` into ``let``
and ``potentials``, ``mollify`` into ``potentials``) are replaced in every
hkgeo module that holds them, so each call passes through exactly one span.
A span's self time is its duration minus the durations of the spans opened
directly inside it.  Spans and counts stay in memory until the run ends.
"""

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

KERNELS = ("scaling_sweep", "stamp_kernel", "maxplus_transform", "euler_besq_paths", "euler_besq_exit")
RANDMEAS = ("mecke_check_df", "mecke_check_mlp", "invariance_checks", "gamma_batch", "estimate_intensity")
BESSEL = ("radial_form_mc", "dirichlet_form_mc", "simulate_besq_batch", "empirical_hitting")


class Tracer:
    """Span durations, child durations, call counts and counters by name."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.child_seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(float)
        self._open = []
        self._undo = []

    def span(self, fn, name, count=None):
        """fn wrapped in a span; count(counts, args, kwargs, result) runs after it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            self._open.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._open.pop()
                if self._open:
                    self._open[-1][0] += dt
                self.seconds[name] += dt
                self.child_seconds[name] += children[0]
                self.calls[name] += 1
            if count is not None:
                count(self.counts, args, kwargs, out)
            return out

        return traced

    def patch(self, owner, attr, value):
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_everywhere(self, fn, name, count=None):
        traced = self.span(fn, name, count)
        for mod in [m for k, m in sys.modules.items() if k == "hkgeo" or k.startswith("hkgeo.")]:
            for attr in [a for a, v in vars(mod).items() if v is fn]:
                self.patch(mod, attr, traced)

    def restore(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class _Forward:
    """Stand-in for a module: the given attributes, and the module's for the rest."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)


def _count_sweep(counts, args, kwargs, out):
    iterations = out[0]
    cost = args[4]
    counts["sweep.iterations"] += iterations
    # each iteration streams the float64 cost matrix once per half-sweep
    counts["sweep.bytes"] += iterations * 2 * cost.size * cost.itemsize


def _count_solve(counts, args, kwargs, sol):
    counts["let.solves"] += 1
    counts["let.sweeps"] += sol.iterations
    counts["let.eps_final_min"] = min(counts.get("let.eps_final_min", np.inf), sol.epsilon_final)


def _count_linsolve(counts, args, kwargs, out):
    counts["linsolve.max_m"] = max(counts["linsolve.max_m"], args[0].shape[0])


def _count_mollify(counts, args, kwargs, out):
    counts["mollify.atoms_out"] += len(out)


def _count_samples(name, fn):
    sig = inspect.signature(fn)

    def count(counts, args, kwargs, out):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        bound = bound.arguments
        if "batch" in bound:
            n = len(bound["batch"])
        else:
            n = bound.get("n", bound.get("n_paths"))
        counts[f"{name}.samples"] += n

    return count


def install(tracer):
    """Put every span and counter of the per-layer metrics in place."""
    from hkgeo import _kernels, bessel, cylinders, let, measures, potentials, randmeas

    mollify = importlib.import_module("hkgeo.mollify")  # hkgeo.mollify is the function

    for k in KERNELS:
        tracer.wrap_everywhere(getattr(_kernels, k), f"kernels.{k}",
                               _count_sweep if k == "scaling_sweep" else None)
    tracer.wrap_everywhere(let.solve_let, "let.solve_let", _count_solve)
    tracer.wrap_everywhere(let.verify_optimality, "let.verify_optimality")
    tracer.wrap_everywhere(let.lift_to_cone, "cone.lift_to_cone")
    solve = tracer.span(np.linalg.solve, "let.newton_linsolve", _count_linsolve)
    tracer.patch(let, "np", _Forward(np, linalg=_Forward(np.linalg, solve=solve)))
    tracer.wrap_everywhere(measures.cost_matrix_sq, "measures.cost_matrix_sq")
    init = measures.DiscreteMeasure.__init__

    @functools.wraps(init)
    def counted_init(*args, **kwargs):
        tracer.counts["measures.constructions"] += 1
        init(*args, **kwargs)

    tracer.patch(measures.DiscreteMeasure, "__init__", counted_init)
    tracer.wrap_everywhere(mollify.mollify, "mollify.mollify", _count_mollify)
    for k in ("legendre_pair", "legendre_conjugate", "gradient_duality_value"):
        tracer.wrap_everywhere(getattr(potentials, k), f"potentials.{k}")
    tracer.patch(potentials.PotentialPair, "psi_lipschitz",
                 tracer.span(potentials.PotentialPair.psi_lipschitz, "potentials.psi_lipschitz"))
    tracer.wrap_everywhere(cylinders.gradient, "cylinders.gradient")
    for mod, names in ((randmeas, RANDMEAS), (bessel, BESSEL)):
        for k in names:
            fn = getattr(mod, k)
            name = f"{mod.__name__.split('.')[-1]}.{k}"
            tracer.wrap_everywhere(fn, name, _count_samples(name, fn))


def per_layer(tracer, rounds, items, overhead_s):
    """Per-layer metrics per pass over the workload's fixed input set, as
    {name: (value, unit)}; ``items`` is the work the traced passes completed.
    Counts repeat exactly from pass to pass."""
    r = 1.0 / rounds
    sec = tracer.seconds
    out = {}

    def put(name, value, unit):
        out[name] = (float(value), unit)

    iterations = tracer.counts["sweep.iterations"]
    put("kernels.scaling_sweep.calls", tracer.calls["kernels.scaling_sweep"] * r, "count")
    put("kernels.scaling_sweep.iterations", iterations * r, "count")
    put("kernels.scaling_sweep.s", sec["kernels.scaling_sweep"] * r, "s")
    put("kernels.scaling_sweep.us_per_iteration",
        1e6 * sec["kernels.scaling_sweep"] / iterations if iterations else 0.0, "us")
    put("kernels.scaling_sweep.bytes_computed", tracer.counts["sweep.bytes"] * r, "B")
    for k in ("stamp_kernel", "maxplus_transform", "euler_besq_paths", "euler_besq_exit"):
        put(f"kernels.{k}.s", sec[f"kernels.{k}"] * r, "s")

    solves = tracer.counts["let.solves"]
    put("let.solve_let.calls", tracer.calls["let.solve_let"] * r, "count")
    put("let.solve_let.s", sec["let.solve_let"] * r, "s")
    put("let.solve_let.self_s", (sec["let.solve_let"] - tracer.child_seconds["let.solve_let"]) * r, "s")
    put("let.sweeps_per_solve", tracer.counts["let.sweeps"] / solves if solves else 0.0, "count")
    put("let.eps_final_min", tracer.counts["let.eps_final_min"] if solves else 0.0, "1")
    put("let.newton_linsolve.calls", tracer.calls["let.newton_linsolve"] * r, "count")
    put("let.newton_linsolve.s", sec["let.newton_linsolve"] * r, "s")
    put("let.newton_linsolve.max_m", tracer.counts["linsolve.max_m"], "count")
    put("let.verify_optimality.s", sec["let.verify_optimality"] * r, "s")
    put("cone.lift_to_cone.s", sec["cone.lift_to_cone"] * r, "s")

    constructions = tracer.counts["measures.constructions"]
    put("measures.cost_matrix_sq.s", sec["measures.cost_matrix_sq"] * r, "s")
    put("measures.DiscreteMeasure.constructions", constructions * r, "count")
    put("measures.DiscreteMeasure.constructions_per_item", constructions / items, "count")
    put("mollify.mollify.s", sec["mollify.mollify"] * r, "s")
    put("mollify.mollify.atoms_out", tracer.counts["mollify.atoms_out"] * r, "count")

    put("potentials.legendre_pair.s", sec["potentials.legendre_pair"] * r, "s")
    put("potentials.legendre_pair.self_s",
        (sec["potentials.legendre_pair"] - tracer.child_seconds["potentials.legendre_pair"]) * r, "s")
    for k in ("legendre_conjugate", "gradient_duality_value", "psi_lipschitz"):
        put(f"potentials.{k}.s", sec[f"potentials.{k}"] * r, "s")

    put("cylinders.gradient.calls", tracer.calls["cylinders.gradient"] * r, "count")
    put("cylinders.gradient.s", sec["cylinders.gradient"] * r, "s")
    for prefix, names in (("randmeas", RANDMEAS), ("bessel", BESSEL)):
        for k in names:
            name = f"{prefix}.{k}"
            samples = tracer.counts[f"{name}.samples"]
            put(f"{name}.s", sec[name] * r, "s")
            put(f"{name}.us_per_sample", 1e6 * sec[name] / samples if samples else 0.0, "us")
    put("trace.overhead_s", overhead_s, "s")
    return out
