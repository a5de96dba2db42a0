"""The three benchmark workloads: inputs from a seed, one pass of work, checks.

A workload builds its inputs in ``__init__`` from the benchmark seed, runs one
small ``warm_up`` operation, and returns the operations of one pass from
``ops()``. The first ``warm_passes`` passes of a timed run are checked but
not timed. Each operation is timed on its own; ``check`` then verifies the
pass's outputs outside the timed region and returns one verdict per
operation (``None`` when it passed, else a message). Latency percentiles are
taken over requests of ``ops_per_request`` consecutive operations, chosen so
that every request does the same work: a percentile over operations of very
different cost would sit in a gap between them and jump from run to run.

Every call into relaysim goes through a module attribute looked up at call
time (``cli.main``, ``pointprocess.sample``, ...), so the traced run sees
the same calls as the untraced one.

Workloads whose outputs are compared with recorded values map the benchmark
seed onto one of ``REF_SEEDS`` program seeds (``record_reference.py`` records
each of them).
"""
from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from relaysim import cli, field_stats, pointprocess, policies
from relaysim.experiments import ExperimentConfig
from relaysim.model import LinkBudget, NetworkGeometry, snr_from_db

REF_SEEDS = 16
REFERENCE_PATH = Path(__file__).with_name("reference.json")


class OpFailed(str):
    """Stands in for the output of an operation that raised; holds the message."""


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def run_cli(argv) -> None:
    """``relaysim ...`` in-process; its progress line is not part of our output."""
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"relaysim {' '.join(argv)} exited with {code}")


def close(value: float, ref: float, abs_tol: float, rel_tol: float = 1e-12) -> bool:
    return abs(value - ref) <= abs_tol + rel_tol * abs(ref)


def best_cqi_cdf_oracle(g: np.ndarray, lam: float, d: float) -> np.ndarray:
    """Closed-form best-CQI cdf, written out here so the check does not use
    the law it is checking."""
    x = np.maximum(np.asarray(g, dtype=float) / d, 1.0)
    lens = x * x * np.arccos(1.0 / x) - np.sqrt(x * x - 1.0)
    return -np.expm1(-2.0 * lam * d * d * lens)


# ---------------------------------------------------------------------------

class McBatch:
    """Acceptance criterion 1: one 100k-trial ``simulate`` call to CSV."""

    name = "mc-batch"
    item = "trials"
    TRIALS = 100_000
    LAMBDA, D, TAU = 1.0, 1.0, 10.0
    # The first full-size batch of a process runs up to 1.6x slower than the
    # later ones (fresh pages for its 3.5 GB); its time is printed, not timed.
    warm_passes = 1

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.program_seed = 1 + seed % REF_SEEDS
        self.csv_path = workdir / "trials.csv"
        self.argv = self._argv(self.TRIALS, self.csv_path)
        self.digest = (reference["mc-batch"]["sha256"][str(self.program_seed)]
                       if reference is not None else None)
        self.items_per_pass = self.TRIALS
        self.ops_per_request = 1
        self.workdir = workdir

    def _argv(self, trials: int, out: Path) -> list:
        return ["simulate", "--lambda", f"{self.LAMBDA:g}", "--d", f"{self.D:g}",
                "--tau", f"{self.TAU:g}", "--trials", str(trials),
                "--seed", str(self.program_seed), "--out", str(out)]

    def warm_up(self) -> None:
        run_cli(self._argv(1000, self.workdir / "warm-up.csv"))

    def ops(self):
        return [lambda: run_cli(self.argv)]

    def csv_digest(self) -> str:
        with open(self.csv_path, "rb") as fh:
            return hashlib.file_digest(fh, "sha256").hexdigest()

    def check(self, outputs):
        if isinstance(outputs[0], OpFailed):
            return [outputs[0]]
        digest = self.csv_digest()
        if digest != self.digest:
            return [f"trial CSV sha256 {digest} != recorded {self.digest}"]
        with open(self.csv_path, encoding="utf-8") as fh:
            gammas = np.sort(np.loadtxt(fh, delimiter=",", skiprows=1, usecols=2))
        n = gammas.size
        if n != self.TRIALS:
            return [f"trial CSV has {n} rows, expected {self.TRIALS}"]
        f = best_cqi_cdf_oracle(gammas, self.LAMBDA, self.D)
        ks = max(np.max(np.arange(1, n + 1) / n - f), np.max(f - np.arange(n) / n))
        if not ks < 0.01:
            return [f"KS distance of gamma_opt to the best-CQI law is {ks:.4g}"]
        return [None]


# ---------------------------------------------------------------------------

class Figures:
    """All ten named experiments through the CLI at a reduced trial count."""

    name = "figures"
    item = "trials"
    # 11 to 17 s a pass on 2 cores, so a 20 s run makes two passes.
    TRIALS = 1500
    warm_passes = 0
    # Abs tolerance on the analytic column per experiment: the tier-1 tolerance
    # of the least precise law or metric the experiment reports.
    TOLERANCE = {
        "midpoint-optimality": 2e-6, "finite-convergence": 1e-12,
        "nfb-distribution": 1e-12, "feedback-load": 1e-12,
        "outage-and-rate": 1e-7, "rate-feedback": 1e-7, "outage-feedback": 1e-9,
        "fixed-load": 1e-7, "annulus-ccdf": 1e-12, "diff-snr-cdf": 1e-12,
    }

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.program_seed = ExperimentConfig().seed + 1000 * (seed % REF_SEEDS)
        self.workdir = workdir
        self.names = tuple(self.TOLERANCE)
        self.ref = reference["figures"] if reference is not None else None
        self.items_per_pass = (self.TRIALS * sum(self.ref["batches"].values())
                               if self.ref is not None else 0)
        self.ops_per_request = len(self.names)  # the whole figure job
        self.xcheck_miss_rows = 0

    def _argv(self, name: str, trials: int) -> list:
        return ["experiment", name, "--trials", str(trials),
                "--seed", str(self.program_seed), "--out-dir", str(self.workdir)]

    def warm_up(self) -> None:
        run_cli(self._argv("nfb-distribution", 200))

    def ops(self):
        return [lambda n=name: run_cli(self._argv(n, self.TRIALS)) for name in self.names]

    def rows(self, name: str):
        """(x, series, analytic, simulated or None, stderr or None) per CSV row."""
        def num(text):
            return float(text) if text else None

        with open(self.workdir / f"{name}.csv", encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            next(reader)
            return [(float(x), s, float(a), num(m), num(e)) for x, s, a, m, e in reader]

    @staticmethod
    def simulated_sums(rows) -> list:
        sims = [m for _, _, _, m, _ in rows if m is not None]
        return [len(rows), math.fsum(sims), math.fsum(m * m for m in sims)]

    def check(self, outputs):
        verdicts = []
        self.xcheck_miss_rows = 0
        for name, err in zip(self.names, outputs):
            verdicts.append(err if isinstance(err, OpFailed) else self._check_one(name))
        return verdicts

    def _check_one(self, name: str):
        rows = self.rows(name)
        self.xcheck_miss_rows += sum(
            1 for _, _, a, m, e in rows if m is not None and abs(a - m) > 4.0 * e)
        analytic = self.ref["analytic"][name]
        tol = self.TOLERANCE[name]
        position = {}
        for x, series, a, _, _ in rows:
            i = position.get(series, 0)
            position[series] = i + 1
            known = analytic.get(series, [])
            if i >= len(known):
                return f"{name}: unexpected row {i} of series {series!r}"
            rx, ra = known[i]
            if not close(x, rx, 0.0, 1e-9) or not close(a, ra, tol):
                return (f"{name} {series!r} row {i}: ({x!r}, {a!r}) vs recorded "
                        f"({rx!r}, {ra!r}), tolerance {tol:g}")
        want = self.ref["simulated"][str(self.program_seed)][name]
        got = self.simulated_sums(rows)
        if got[0] != want[0] or not all(close(g, w, 0.0, 1e-9) for g, w in zip(got[1:], want[1:])):
            return f"{name}: simulated column (rows, sum, sum of squares) {got} vs recorded {want}"
        return None


# ---------------------------------------------------------------------------

class FieldPolicies:
    """Per-field path: sample one small field, run every policy on it."""

    name = "field-policies"
    item = "fields"
    # About 0.5 s a pass, so a run ends close to its measuring time.
    FIELDS_PER_PASS = 2000
    warm_passes = 0
    SPECS = (pointprocess.DiscHomogeneous(1.0, 4.0),
             pointprocess.DiscWithExclusion(1.0, 1.0, 4.0),
             pointprocess.CircleHomogeneous(1.0, 4.0),
             pointprocess.GaussianCluster(30.0, 1.5))
    THRESHOLD = 3.0
    ALPHA = 4.0

    def __init__(self, seed: int, workdir: Path, reference: dict | None):
        self.geometry = NetworkGeometry(1.0)
        self.budget = LinkBudget(snr=snr_from_db(5.0), snr_relay=snr_from_db(5.0),
                                 snr_destination=snr_from_db(10.0))
        self.next_seed = (seed % 2 ** 31) << 20
        self.items_per_pass = self.FIELDS_PER_PASS
        self.ops_per_request = len(self.SPECS)  # one field of each spec

    def _op(self, spec, field_seed):
        def op():
            field = pointprocess.sample(spec, field_seed)
            if field.n == 0:
                return field.points, None
            return field.points, [policies.select(
                field, kind, self.geometry, budget=self.budget, threshold=self.THRESHOLD,
                path_loss_exponent=self.ALPHA) for kind in policies.PolicyKind]
        return op

    def warm_up(self) -> None:
        for spec in self.SPECS:
            self._op(spec, 0)()

    def ops(self):
        first = self.next_seed
        self.next_seed += self.FIELDS_PER_PASS
        return [self._op(self.SPECS[i % len(self.SPECS)], first + i)
                for i in range(self.FIELDS_PER_PASS)]

    def check(self, outputs):
        fields = [out for out in outputs if not isinstance(out, OpFailed)]
        pts = np.concatenate([p for p, _ in fields]) if fields else np.zeros((0, 2))
        offsets = np.zeros(len(fields) + 1, dtype=np.int64)
        np.cumsum([p.shape[0] for p, _ in fields], out=offsets[1:])
        s1, s2 = self.budget.effective_scales(self.ALPHA)
        st = field_stats(pts[:, 0], pts[:, 1], offsets, self.geometry.half_distance,
                          self.THRESHOLD, s1, s2)
        verdicts, t = [], 0
        for out in outputs:
            if isinstance(out, OpFailed):
                verdicts.append(out)
                continue
            verdicts.append(self._check_field(out, st, t))
            t += 1
        return verdicts

    def _check_field(self, out, st, t):
        points, outcomes = out
        n = points.shape[0]
        if outcomes is None:
            return None if n == 0 else "non-empty field was not selected on"
        K = policies.PolicyKind
        want_gamma = {K.OPTIMUM: st.gamma_opt[t], K.MID_POINT: st.gamma_mid[t],
                      K.CLOSEST_TO_DESTINATION: st.gamma_c2d[t],
                      K.CLOSEST_TO_SOURCE: st.gamma_csrc[t],
                      K.THRESHOLD_FEEDBACK: st.gamma_opt[t] if st.n_feedback[t] else None,
                      K.OPTIMUM_DIFF_SNR: st.gamma_diff[t]}
        second = float(st.psi_second[t]) if n >= 2 else None
        # Points at equal distance from the mid-point (a circle field) tie up
        # to rounding, so the mid-point check accepts any relay at the
        # kernel's nearest norm and takes gamma at the relay chosen.
        mid = outcomes[list(K).index(K.MID_POINT)].selected
        if not close(mid.norm(), float(st.psi_mid[t]), 0.0):
            return f"mid-point: selected norm {mid.norm()} vs kernel {st.psi_mid[t]}"
        d = self.geometry.half_distance
        want_gamma[K.MID_POINT] = max(math.hypot(mid.x + d, mid.y), math.hypot(mid.x - d, mid.y))
        for kind, got in zip(K, outcomes):
            want_fb = int(st.n_feedback[t]) if kind is K.THRESHOLD_FEEDBACK else n
            want = want_gamma[kind]
            if got.n_feedback != want_fb:
                return f"{kind.value}: n_feedback {got.n_feedback} vs kernel {want_fb}"
            if (got.gamma is None) != (want is None) or (
                    want is not None and not close(got.gamma, float(want), 0.0)):
                return f"{kind.value}: gamma {got.gamma} vs kernel {want}"
            if want is not None and ((got.second_nearest_norm is None) != (second is None) or (
                    second is not None and not close(got.second_nearest_norm, second, 0.0))):
                return f"{kind.value}: second-nearest norm {got.second_nearest_norm} vs {second}"
        return None


WORKLOADS = {w.name: w for w in (McBatch, Figures, FieldPolicies)}
