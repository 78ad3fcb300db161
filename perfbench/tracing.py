"""Per-layer spans and work counters, recorded from outside the program.

The six tqft modules are the layers. Each module reaches another through
names it imported at load time (``qpe.apply_plan_to_array``,
``tfim.jacobi_eigh``, ``cli.max_tvd``, ...), so the benchmark replaces
those names in the *calling* module's namespace with a timing wrapper.
The wrapped calls are layer boundaries, so nothing under ``src/`` changes.

A span's self time is its duration minus the time covered by the spans it
caused. Every call is synchronous in one thread, so a stack of open spans
is enough to attribute child time, and no layer ever waits on another.
Spans are aggregated per (layer, kind) as they close instead of being
stored one by one: a ``shots`` pass closes about 14 000 of them.

Counters run after the wrapped call returns, outside its own span, so their
cost is charged to the calling span (or to the benchmark for a top-level
call); either way it shows in the tracing overhead.
Work counts (gates, amplitude updates, bytes) are computed from the public
plan gate lists and array shapes, not measured from hardware.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict

import numpy as np

LAYERS = ("numerics", "circuits", "qpe", "calibration", "tfim", "cli")

# Bytes one gate reads plus writes per amplitude of a complex128 state:
# H rewrites every amplitude, CP only the |11> quarter, BITREV gathers
# into a temporary and copies back.
_GATE_BYTES_PER_AMP = {"H": 32, "CP": 8, "BITREV": 64}


class Tracer:
    """Aggregates span self times and counters while ``active`` is set."""

    def __init__(self):
        self.active = False
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self._open: list[list[float]] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, kind: str, fn, count=None):
        def span(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            children = [0.0]
            self._open.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._open.pop()
                self.self_s[layer, kind] += elapsed - children[0]
                if self._open:
                    self._open[-1][0] += elapsed
            if count is not None:
                count(self, result, *args, **kwargs)
            return result
        return span

    def install(self, patches) -> None:
        for owner, attr, layer, kind, count in patches:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(layer, kind, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_self_s(self, layer: str) -> float:
        return sum(t for (name, _), t in self.self_s.items() if name == layer)


# -- counters: (tracer, result, *call args) -------------------------------

def _count_apply(t, _result, amps, plan, inverse=False):
    gates = plan.gates
    t.counts["circuits.apply_calls"] += 1
    t.counts["circuits.gates_applied"] += len(gates)
    t.counts["circuits.amp_updates"] += amps.size * len(gates)
    t.counts["circuits.bytes_computed"] += amps.size * sum(
        _GATE_BYTES_PER_AMP[g.kind] for g in gates)


def _count_plan(t, _result, m, d):
    t.counts["circuits.plan_builds"] += 1
    t.distinct["plan"].add((m, d))


def _count_distributions(t, _result, phis, m, d, plan=None):
    phis = np.asarray(phis, dtype=np.float64)
    t.counts["qpe.distribution_calls"] += 1
    t.counts["qpe.phases"] += phis.size
    if d == m:
        t.counts["qpe.full_ref_builds"] += 1
        t.distinct["full_ref"].add((m, phis.tobytes()))


def _count_sample(t, _result, dist, shots, rng):
    t.counts["qpe.shots"] += shots


def _count_rng(t, _result, _rng, n):
    t.counts["numerics.rng_draws"] += n


def _count_eigh(t, _result, matrix, max_sweeps=50):
    t.counts["numerics.eigh_calls"] += 1
    t.counts["numerics.eigh_dim"] = max(t.counts["numerics.eigh_dim"], matrix.dim)


def _count_spectrum(t, _result, spec):
    t.counts["tfim.spectrum_builds"] += 1
    t.distinct["spectrum"].add(spec)


def _count_calibration(t, _result, *args, **kwargs):
    t.counts["calibration.calls"] += 1


def _count_artifact(t, _result, argv):
    out = argv[argv.index("--out") + 1]
    t.counts["cli.artifact_bytes"] += os.path.getsize(out)


def layer_patches(mods) -> list[tuple]:
    """(owner, attribute, layer, span kind, counter) for every boundary.

    The owner is the module that makes the call (or the class whose method
    is called from outside its module), so a patch catches exactly the
    calls that cross into ``layer``.
    """
    numerics, qpe = mods.numerics, mods.qpe
    calibration, tfim, cli = mods.calibration, mods.tfim, mods.cli
    patches = [
        (numerics.SplitMix64, "random_array", "numerics", "rng", _count_rng),
        (tfim, "jacobi_eigh", "numerics", "eigh", _count_eigh),
        (numerics, "circular_distance_array", "numerics", "distance", None),
        (qpe, "circular_distance_array", "numerics", "distance", None),
        (tfim, "circular_distance_array", "numerics", "distance", None),
        (tfim, "circular_distance", "numerics", "distance", None),
        (cli, "circular_distance_array", "numerics", "distance", None),
        (qpe, "apply_plan_to_array", "circuits", "apply", _count_apply),
        (qpe, "plan_truncated_qft", "circuits", "plan", _count_plan),
        (cli, "plan_truncated_qft", "circuits", "plan", _count_plan),
        (cli, "serialize_plan", "circuits", "serialize", None),
        (cli, "gate_count", "circuits", "gate_count", None),
        (calibration, "gate_count", "circuits", "gate_count", None),
        (qpe, "max_tvd", "qpe", "scan", None),
        (qpe, "phase_distributions", "qpe", "distributions", _count_distributions),
        (qpe, "phase_distribution", "qpe", "distribution", None),
        (qpe, "sample_outcomes", "qpe", "sample", _count_sample),
        (tfim, "phase_distribution", "qpe", "distribution", None),
        (tfim, "sample_outcomes", "qpe", "sample", _count_sample),
        (cli, "max_tvd", "qpe", "scan", None),
        (cli, "mean_success_probability", "qpe", "success", None),
        (cli, "phase_distribution", "qpe", "distribution", None),
        (cli, "sample_outcomes", "qpe", "sample", _count_sample),
        (cli, "random_phases", "qpe", "phases", None),
        (cli, "grid_phases", "qpe", "phases", None),
        (tfim, "qpe_energy_experiment", "tfim", "experiment", None),
        (tfim, "spectrum", "tfim", "spectrum", _count_spectrum),
        (tfim, "build_hamiltonian", "tfim", "hamiltonian", None),
        (cli, "qpe_energy_experiment", "tfim", "experiment", None),
        (cli, "spectrum", "tfim", "spectrum", _count_spectrum),
        (cli, "encode_phase", "tfim", "encode", None),
        (cli, "run", "cli", "run", _count_artifact),
    ]
    for owner in (tfim, cli):
        patches.append((owner, "error_budget", "calibration", "budget", _count_calibration))
    for name in ("tvd_bound", "cliff_depth", "crossover_error_rate", "load_platforms",
                 "platform_report"):
        patches.append((cli, name, "calibration", name, _count_calibration))
    return patches


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(t: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer metrics: self times in seconds, counts per pass."""
    per = {f"{layer}.self_s": t.layer_self_s(layer) / passes for layer in LAYERS}
    per.update({
        "numerics.rng_s": t.self_s["numerics", "rng"] / passes,
        "numerics.eigh_s": t.self_s["numerics", "eigh"] / passes,
        "circuits.apply_s": t.self_s["circuits", "apply"] / passes,
        "circuits.plan_s": t.self_s["circuits", "plan"] / passes,
        "qpe.sample_s": t.self_s["qpe", "sample"] / passes,
        "tfim.hamiltonian_s": t.self_s["tfim", "hamiltonian"] / passes,
    })
    for name in ("numerics.rng_draws", "numerics.eigh_calls", "circuits.apply_calls",
                 "circuits.gates_applied", "circuits.amp_updates", "circuits.bytes_computed",
                 "circuits.plan_builds", "qpe.phases", "qpe.distribution_calls",
                 "qpe.full_ref_builds", "qpe.shots", "tfim.spectrum_builds",
                 "calibration.calls", "cli.artifact_bytes"):
        per[name] = t.counts[name] / passes
    per["numerics.eigh_dim"] = t.counts["numerics.eigh_dim"]
    per["circuits.amp_updates_per_s"] = _ratio(per["circuits.amp_updates"],
                                               per["circuits.apply_s"])
    # Reuse ratios: distinct inputs over builds, for one pass.
    per["circuits.plan_reuse"] = _ratio(len(t.distinct["plan"]), per["circuits.plan_builds"])
    per["qpe.full_ref_reuse"] = _ratio(len(t.distinct["full_ref"]), per["qpe.full_ref_builds"])
    per["tfim.spectrum_reuse"] = _ratio(len(t.distinct["spectrum"]),
                                        per["tfim.spectrum_builds"])
    return per
