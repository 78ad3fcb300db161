"""The four workloads: their inputs, their ops, and each op's oracle check.

A workload is built from the imported tqft modules and the seed. Its
``ops()`` is one pass, a list of ``(key, thunk)``; every thunk looks the
program's functions up on the module at call time, so the tracer's
patches apply. ``check(key, output)`` runs outside the timed region and
returns ``None`` for a correct output, or a ``Failure``.

Why these four: ``scan`` and ``shots`` run the same circuits/qpe code at
opposite batch sizes (4596 phases in 64 MiB chunks against one phase in
4 KiB), so a gate-kernel change shows on one and per-call overhead on the
other. ``ising`` is bound by the Jacobi eigensolve and barely touches
circuits. ``suite`` is the user-facing command and the only one that
reaches cli rendering and calibration.

BENCHMARK.json lists only ``scan`` and ``suite``. On the 2-vCPU host the
benchmark was tuned on, the speed of Python-bound code drifts by up to 1.7x
over minutes, and ten seeds gave an op_p50_ms spread (IQR over median) of
0.34 for ``ising`` (one 20 s pass per run) and 0.26 for ``shots`` at 25 s
runs. Keeping ``shots`` would cap runs at about 25 s, too short for
``suite`` to be steady as well. ``ising`` and ``shots`` stay runnable by
name and in ``--workload all``, which is where the Ising wrap defect is
reported.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import oracles


@dataclass(frozen=True)
class Failure:
    reason: str
    known_defect: bool = False


class Scan:
    """max_tvd(10, d, phases) for d = 1..10: the ``tqft tvd`` / test_01 path."""

    m = 10

    def __init__(self, mods, seed: int, _workdir: Path):
        self.mods = mods
        rng = np.random.default_rng(seed)
        self.phases = np.concatenate([rng.random(500), np.arange(4096) / 4096])

    def warm_up(self) -> None:
        self.mods.qpe.max_tvd(self.m, 1, self.phases[:64])

    def ops(self):
        return [(d, lambda d=d: self.mods.qpe.max_tvd(self.m, d, self.phases))
                for d in range(1, self.m + 1)]

    def check(self, d, out):
        max_tv, phi = out
        bound = oracles.tvd_bound_tight(self.m, d)
        if not max_tv <= bound:
            return Failure(f"d={d}: max TVD {max_tv:.6g} exceeds tight bound {bound:.6g}")
        if phi not in self.phases:
            return Failure(f"d={d}: argmax phase {phi!r} is not in the sample")
        full = self.mods.qpe.closed_form_full_distribution(phi, self.m).probs
        expected = 0.5 * np.abs(full - oracles.truncated_distribution(phi, self.m, d)).sum()
        if abs(max_tv - expected) > 1e-10:
            return Failure(f"d={d}: TVD at phi={phi!r} is {max_tv!r}, oracle {expected!r}")
        return None


class Shots:
    """``tqft cliff --mode sampled`` at m=8: one phase, one depth, 1000 shots."""

    m = 8
    shots = 1000

    def __init__(self, mods, seed: int, _workdir: Path):
        self.mods = mods
        self.seed = seed
        self.phases = np.random.default_rng(seed).random(256)
        self._rngs = {}

    def _op(self, phi: float, d: int):
        dist = self.mods.qpe.phase_distribution(phi, self.m, d)
        outcomes = self.mods.qpe.sample_outcomes(dist, self.shots, self._rngs[d])
        deviation = self.mods.numerics.circular_distance_array(outcomes / dist.dim, phi)
        return dist, outcomes, int(np.count_nonzero(deviation <= 2.0**-self.m))

    def warm_up(self) -> None:
        self._rngs = {d: self.mods.numerics.SplitMix64(~self.seed) for d in (1, self.m)}
        for d in (1, self.m):
            self._op(float(self.phases[0]), d)

    def ops(self):
        # One generator per depth, shared by its phases, as the cliff command does.
        spawn = self.mods.numerics.SplitMix64(self.seed).spawn
        self._rngs = {d: spawn(self.m * 64 + d) for d in range(1, self.m + 1)}
        return [((d, float(phi)), lambda d=d, phi=float(phi): self._op(phi, d))
                for d in range(1, self.m + 1) for phi in self.phases]

    def check(self, key, out):
        d, phi = key
        dist, outcomes, hits = out
        if d == self.m:
            expected = self.mods.qpe.closed_form_full_distribution(phi, self.m).probs
        else:
            expected = oracles.truncated_distribution(phi, self.m, d)
        err = float(np.abs(dist.probs - expected).max())
        if err > 1e-10:
            return Failure(f"d={d} phi={phi!r}: distribution off by {err:.3g}")
        if outcomes.shape != (self.shots,) or outcomes.min() < 0 or outcomes.max() >= dist.dim:
            return Failure(f"d={d} phi={phi!r}: outcomes outside 0..{dist.dim - 1}")
        if d < self.m:
            full = self.mods.qpe.closed_form_full_distribution(phi, self.m).probs
            tv = 0.5 * float(np.abs(full - dist.probs).sum())
            if not tv <= oracles.tvd_bound_tight(self.m, d):
                return Failure(f"d={d} phi={phi!r}: TVD {tv:.6g} exceeds the tight bound")
        # The success count is binomial around the exact window probability.
        y = np.arange(dist.dim) / dist.dim
        window = np.minimum(np.abs(y - phi), 1.0 - np.abs(y - phi)) <= 2.0**-self.m
        p = float(expected[window].sum())
        sigma = math.sqrt(self.shots * p * (1.0 - p))
        if abs(hits - self.shots * p) > 6.0 * sigma + 1.0:
            return Failure(f"d={d} phi={phi!r}: {hits} hits, expected {self.shots * p:.1f}")
        return None


class Ising:
    """Full-depth energy estimation of every eigenstate of a 6-site chain."""

    n, j, h = 6, 1.0, 0.5
    m = 10
    eps_2q = 1e-3
    shots = 1000

    def __init__(self, mods, seed: int, _workdir: Path):
        self.mods = mods
        self.seed = seed
        self.spec = mods.tfim.TfimSpec(self.n, self.j, self.h)
        self._eigenvalues = None

    def warm_up(self) -> None:
        self.mods.tfim.qpe_energy_experiment(self.mods.tfim.TfimSpec(3), m=4,
                                             eigenstate_index=1, shots=10)

    def ops(self):
        return [(k, lambda k=k: self.mods.tfim.qpe_energy_experiment(
                    self.spec, m=self.m, d=None, eigenstate_index=k, eps_2q=self.eps_2q,
                    shots=self.shots, seed=self.seed * 64 + k))
                for k in range(1 << self.n)]

    def check(self, k, out):
        if self._eigenvalues is None:
            self._eigenvalues = oracles.tfim_eigenvalues(self.n, self.j, self.h)
        eig = self._eigenvalues
        e_scale = float(np.abs(eig).max())
        if abs(out.true_energy - eig[k]) > 1e-10 or abs(out.e_scale - e_scale) > 1e-10:
            return Failure(f"k={k}: energy {out.true_energy!r} / scale {out.e_scale!r}, "
                           f"LAPACK gives {eig[k]!r} / {e_scale!r}")
        c = self.mods.calibration.DEFAULT_NOISE_CONSTANT
        if abs(out.budget.rmse - oracles.full_depth_rmse(self.m, self.eps_2q, c)) > 1e-15:
            return Failure(f"k={k}: model RMSE {out.budget.rmse!r} disagrees with its formula")
        cell = 2.0 * e_scale * 2.0**-self.m
        if abs(out.estimated_energy - out.true_energy) <= cell + 1e-12:
            return None
        reason = (f"k={k}: estimate {out.estimated_energy:.6g} is not within one phase cell "
                  f"({cell:.3g}) of the true energy {out.true_energy:.6g}")
        # The top of a symmetric band encodes to phase 1 = 0 and decodes to the
        # bottom: the wrap defect of ROADMAP item 4. It is counted as failed.
        wrapped = (abs(out.true_energy - e_scale) < 1e-10
                   and abs(out.estimated_energy + e_scale) < 1e-10)
        return Failure(reason + (" (known wrap defect)" if wrapped else ""), wrapped)


class Suite:
    """Every entry of ``cli.SUITE``, written under the run's scratch directory."""

    def __init__(self, mods, seed: int, workdir: Path):
        self.mods = mods
        self.workdir = workdir
        self._reference: dict[str, bytes] = {}

    def _run(self, argv):
        with contextlib.redirect_stderr(io.StringIO()):
            return self.mods.cli.run(argv)

    def warm_up(self) -> None:
        name, argv = self.mods.cli.SUITE[1]  # gates.csv, one of the cheapest entries
        self._run(argv + ["--out", str(self.workdir / f"warm-{name}")])

    def ops(self):
        return [(name, lambda argv=argv, name=name: self._run(
                    argv + ["--out", str(self.workdir / name)]))
                for name, argv in self.mods.cli.SUITE]

    def check(self, name, code):
        if code != 0:
            return Failure(f"{name}: exit {code}")
        data = (self.workdir / name).read_bytes()
        reference = self._reference.setdefault(name, data)
        if data != reference:
            return Failure(f"{name}: artifact bytes differ from the first pass")
        return None


WORKLOADS = {"scan": Scan, "shots": Shots, "ising": Ising, "suite": Suite}
