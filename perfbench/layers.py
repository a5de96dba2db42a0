"""Per-module metrics of one traced pass, named ``<module>.<function>.<what>``.

Every workload reports every metric; a module the workload does not call
reads 0. Counts and times are per traced pass (totals over the passes divided
by their number); every pass of a traced run repeats the same inputs. ``s`` is inclusive time of the outermost spans of a name, ``self_s``
excludes child spans. Self times of all spans plus ``trace.unattributed_s``
add up to ``trace.wall_s``.
"""
from __future__ import annotations

from tracer import LAWS, METRICS_SELF
from workloads import Figures

BYTES_PER_POINT = 16  # two float64 uniforms per point enter the kernel


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(tracer, passes: int, wall_traced: float, wall_plain: float,
              xcheck_miss_rows: int) -> dict:
    """{metric name: (value, unit)} per pass, from ``passes`` traced passes
    that took ``wall_traced`` seconds in all (``wall_plain`` untraced)."""
    g = tracer.get
    m = {}

    k = g("kernels.disc_batch_stats")
    points = k.counts.get("points", 0)
    m["kernels.disc_batch_stats.calls"] = (k.calls, "count")
    m["kernels.disc_batch_stats.points"] = (points, "count")
    m["kernels.disc_batch_stats.s"] = (k.total_s, "s")
    m["kernels.disc_batch_stats.mpoints_per_s"] = (_ratio(points / 1e6, k.total_s), "Mpoints/s")
    m["kernels.disc_batch_stats.bytes_in"] = (BYTES_PER_POINT * points, "B")

    r = g("montecarlo.run_trials")
    m["montecarlo.run_trials.calls"] = (r.calls, "count")
    m["montecarlo.run_trials.trials"] = (r.counts.get("trials", 0), "count")
    m["montecarlo.run_trials.points"] = (r.counts.get("points", 0), "count")
    m["montecarlo.run_trials.self_s"] = (r.self_s, "s")
    c = g("montecarlo.batch_to_csv")
    m["montecarlo.batch_to_csv.rows"] = (c.counts.get("rows", 0), "count")
    m["montecarlo.batch_to_csv.s"] = (c.total_s, "s")

    rate = g("metrics.conditional_rate")
    m["metrics.conditional_rate.calls"] = (rate.calls, "count")
    m["metrics.conditional_rate.s"] = (rate.total_s, "s")
    for fn in METRICS_SELF:
        st = g(f"metrics.{fn}")
        m[f"metrics.{fn}.calls"] = (st.calls, "count")
        m[f"metrics.{fn}.self_s"] = (st.self_s, "s")
    m["metrics.s_star.calls"] = (g("metrics.s_star").calls, "count")

    q = g("numerics.quad_adaptive")
    m["numerics.quad_adaptive.calls"] = (q.calls, "count")
    m["numerics.quad_adaptive.evaluations"] = (q.counts.get("evaluations", 0), "count")
    m["numerics.quad_adaptive.self_s"] = (q.self_s, "s")
    sm = g("numerics.solve_monotone")
    m["numerics.solve_monotone.calls"] = (sm.calls, "count")
    m["numerics.solve_monotone.self_s"] = (sm.self_s, "s")
    fe = g("numerics.f_exp_e1")
    m["numerics.f_exp_e1.calls"] = (fe.calls, "count")
    m["numerics.f_exp_e1.s"] = (fe.total_s, "s")

    for law in LAWS:
        st = g(f"distributions.{law}")
        pts = st.counts.get("points", 0)
        m[f"distributions.{law}.points"] = (pts, "count")
        m[f"distributions.{law}.us_per_point"] = (_ratio(1e6 * st.total_s, pts), "us")
    pmo = g("distributions.prob_midpoint_optimal")
    m["distributions.prob_midpoint_optimal.calls"] = (pmo.calls, "count")
    m["distributions.prob_midpoint_optimal.self_s"] = (pmo.self_s, "s")

    sample = g("pointprocess.sample")
    m["pointprocess.sample.calls"] = (sample.calls, "count")
    m["pointprocess.sample.points"] = (sample.counts.get("points", 0), "count")
    m["pointprocess.sample.s"] = (sample.total_s, "s")
    sel = g("policies.select")
    m["policies.select.calls"] = (sel.calls, "count")
    m["policies.select.s"] = (sel.total_s, "s")
    m["policies.select.us_per_call"] = (_ratio(1e6 * sel.total_s, sel.calls), "us")

    for name in Figures.TOLERANCE:
        m[f"experiments.{name}.s"] = (g(f"experiments.{name}").total_s, "s")
    m["experiments.rows_to_csv.s"] = (g("experiments.rows_to_csv").total_s, "s")
    m["cli.self_s"] = (g("cli.main").self_s, "s")

    m["trace.wall_s"] = (wall_traced, "s")
    m["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    m["trace.unattributed_s"] = (wall_traced - tracer.total_self_s(), "s")
    per_pass = {name: (value / passes if unit in ("count", "s", "B") else value, unit)
                for name, (value, unit) in m.items()}
    per_pass["experiments.xcheck_miss_rows"] = (xcheck_miss_rows, "count")
    return per_pass
