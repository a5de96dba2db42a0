"""Spans around relaysim's public functions, recorded from the benchmark side.

``Tracer.installed()`` rebinds each traced name where its callers look it up
(a module attribute), so calls made inside the package are seen too: the
``CqiLaw`` lambdas, for example, resolve ``distributions.best_cqi_cdf`` at
call time. Spans nest on one stack. A span's self time is its duration minus
the time covered by its direct child spans, so nested quadratures are not
counted twice. Inclusive time is added only for the outermost span of a name.
Integrand helpers (``nearest_neighbor_pdf``, ``midpoint_displacement_exponent``)
are deliberately not wrapped: they run per quadrature node, and wrapping them
would make the traced run measure mostly the tracer.
"""
from __future__ import annotations

import contextlib
import functools
import time

import numpy as np

from relaysim import cli, distributions, experiments, metrics, montecarlo, policies
from relaysim import pointprocess

# The laws and metrics the figures experiments call.
LAWS = ("best_cqi_cdf", "best_cqi_pdf", "midpoint_cqi_cdf", "midpoint_cqi_pdf",
        "closest_to_destination_cqi_cdf", "closest_to_destination_cqi_pdf",
        "unequal_snr_cqi_cdf", "received_snr_cdf")
METRICS_SELF = ("average_rate", "average_rate_feedback", "outage_for_law",
                "outage_feedback")


class SpanStats:
    __slots__ = ("calls", "total_s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counts = {}

    def add(self, key, value):
        self.counts[key] = self.counts.get(key, 0) + value


def _first_arg_points(args, result):
    return {"points": int(np.size(args[0]))}


def _quad_evaluations(args, result):
    return {"evaluations": int(result.evaluations)}


def _run_trials_work(args, result):
    return {"trials": int(result.n_trials), "points": int(result.counts.sum())}


def _csv_rows(args, result):
    return {"rows": int(args[0].n_trials)}


def _field_points(args, result):
    return {"points": int(result.n)}


def _targets():
    """(module, attribute, span name or None for per-call naming, counter)."""
    out = [
        (montecarlo, "disc_batch_stats", "kernels.disc_batch_stats", _first_arg_points),
        (experiments, "run_trials", "montecarlo.run_trials", _run_trials_work),
        (cli, "run_trials", "montecarlo.run_trials", _run_trials_work),
        (cli, "batch_to_csv", "montecarlo.batch_to_csv", _csv_rows),
        (cli, "rows_to_csv", "experiments.rows_to_csv", None),
        (cli, "run_experiment", None, None),
        (cli, "main", "cli.main", None),
        (experiments, "sample", "pointprocess.sample", _field_points),
        (pointprocess, "sample", "pointprocess.sample", _field_points),
        (policies, "select", "policies.select", None),
        (distributions, "quad_adaptive", "numerics.quad_adaptive", _quad_evaluations),
        (metrics, "quad_adaptive", "numerics.quad_adaptive", _quad_evaluations),
        (distributions, "solve_monotone", "numerics.solve_monotone", None),
        (metrics, "solve_monotone", "numerics.solve_monotone", None),
        (metrics, "f_exp_e1", "numerics.f_exp_e1", None),
        (distributions, "prob_midpoint_optimal", "distributions.prob_midpoint_optimal", None),
        (metrics, "conditional_rate", "metrics.conditional_rate", None),
        (metrics, "s_star", "metrics.s_star", None),
    ]
    out += [(distributions, law, f"distributions.{law}", _first_arg_points) for law in LAWS]
    out += [(metrics, fn, f"metrics.{fn}", None) for fn in METRICS_SELF]
    return out


class Tracer:
    """Aggregates nested spans by name over every pass it is installed for."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._children: list[float] = []  # child time accumulated per open span
        self._depth: dict[str, int] = {}

    def _wrap(self, fn, name, counter):
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = name if name is not None else f"experiments.{args[0]}"
            depth = self._depth.get(span, 0)
            self._depth[span] = depth + 1
            self._children.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = self._children.pop()
                if self._children:
                    self._children[-1] += dt
                self._depth[span] = depth
                st = self.stats.get(span)
                if st is None:
                    st = self.stats[span] = SpanStats()
                st.calls += 1
                st.self_s += dt - child
                if depth == 0:
                    st.total_s += dt
            if counter is not None:
                for key, value in counter(args, result).items():
                    st.add(key, value)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target for the duration of the block, then restore."""
        saved = []
        try:
            for module, attr, name, counter in _targets():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name, counter))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def total_self_s(self) -> float:
        return sum(st.self_s for st in self.stats.values())

    def get(self, name: str) -> SpanStats:
        return self.stats.get(name) or SpanStats()
