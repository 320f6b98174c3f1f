"""The benchmark's workloads: set-up, one timed pass, and the checks.

Every workload runs t = 7 cycles under ``NoiseModel.device_rates()``
(idle policy "frames") in both memory bases. A circuit is built per
basis, because a ``Circuit`` does not record the basis it was built for.
Each timed pass does the same work, so passes can be compared; the
checks run after the timed phase on the last pass's outputs.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from bbqec import circuit, codes, noise
from bbqec.noise import NoiseModel

CYCLES = 7
BASES = ("Z", "X")
NOISE = NoiseModel.device_rates()
# Shots of the noiseless run and of the batch-size comparison (wide-mc).
PREFIX_SHOTS = 300
PREFIX_BATCH = 128


@dataclass
class Target:
    """One code with its logicals and a compiled circuit per basis."""

    code_id: str
    code: codes.CssCode
    logicals: codes.LogicalOperatorSet
    circuits: dict[str, circuit.Circuit]


class Check(NamedTuple):
    name: str
    ok: bool
    detail: str


@dataclass(frozen=True)
class Workload:
    name: str
    code_ids: tuple[str, ...]
    run_pass: Callable  # (workload, targets, seed, rec) -> {(code id, basis): {...}}
    check: Callable  # (workload, targets, seed, outputs) -> list[Check]
    shots: int = 0  # Monte Carlo shots per circuit per pass
    expect_k: int = 0
    expect_d: int = 0


def setup(w: Workload, rec) -> list[Target]:
    targets = []
    for cid in w.code_ids:
        code = rec.call(
            "codes.build_named_code", codes.build_named_code, cid,
            trust_table_distance=True,
        )
        logicals = rec.call(
            "codes.logical_operator_set_for", codes.logical_operator_set_for, code
        )
        circuits = {
            b: rec.call(
                "circuit.build_syndrome_circuit", circuit.build_syndrome_circuit,
                code, CYCLES, basis=b,
            )
            for b in BASES
        }
        targets.append(Target(cid, code, logicals, circuits))
    return targets


# ---------------------------------------------------------------------------
# timed passes


def mc_pass(w: Workload, targets, seed: int, rec) -> dict:
    out = {}
    for t in targets:
        for b, circ in t.circuits.items():
            batch = rec.call(
                "noise.run_monte_carlo", noise.run_monte_carlo, circ, NOISE,
                w.shots, b, code=t.code, logicals=t.logicals, master_seed=seed,
            )
            with rec.span("noise.shotbatch_post"):
                detectors = batch.detector_matrix()
                series = batch.cycle_series(b)
            out[t.code_id, b] = {"batch": batch, "detectors": detectors, "series": series}
    return out


def fault_pass(w: Workload, targets, seed: int, rec) -> dict:
    out = {}
    for t in targets:
        for b, circ in t.circuits.items():
            variants = rec.call(
                "noise.enumerate_fault_variants", noise.enumerate_fault_variants,
                circ, NOISE, code=t.code,
            )
            dem = rec.call(
                "noise.build_dem", noise.build_dem, circ, NOISE, b,
                code=t.code, logicals=t.logicals,
            )
            text = rec.call("noise.dem_to_text", noise.dem_to_text, dem)
            parsed = rec.call("noise.parse_dem", noise.parse_dem, text)
            series = rec.call(
                "noise.expected_detection_series", noise.expected_detection_series,
                circ, NOISE, code=t.code, basis=b, logicals=t.logicals,
            )
            out[t.code_id, b] = {
                "variants": variants, "dem": dem, "parsed": parsed, "series": series,
            }
    return out


def design_pass(w: Workload, targets, seed: int, rec) -> dict:
    out = {}
    for t in targets:
        k = rec.call("codes.compute_k", codes.compute_k, t.code)
        distance = rec.call("codes.compute_distance", codes.compute_distance, t.code)
        schedule = rec.call("circuit.schedule_cz_layers", circuit.schedule_cz_layers, t.code)
        for b in BASES:
            circ = rec.call(
                "circuit.build_syndrome_circuit", circuit.build_syndrome_circuit,
                t.code, CYCLES, basis=b, schedule=schedule,
            )
            report = rec.call(
                "circuit.verify_circuit", circuit.verify_circuit, circ, t.code,
                basis=b, seed=seed,
            )
            out[t.code_id, b] = {"k": k, "distance": distance, "report": report}
    return out


# ---------------------------------------------------------------------------
# checks, run after the timed phase


def mc_agrees_with_exact(w: Workload, targets, seed: int, outputs) -> list[Check]:
    """Sampled series within 4 sigma of the exact series, point by point,
    and a detector matrix as wide as the DEM."""
    checks = []
    for t in targets:
        for b, circ in t.circuits.items():
            out = outputs[t.code_id, b]
            exact = noise.expected_detection_series(
                circ, NOISE, code=t.code, basis=b, logicals=t.logicals
            )
            sampled = out["series"]
            # A point averages the aligned checks of each shot, and one
            # fault flips several of them, so the checks are not
            # independent trials; the shots are. A per-shot average lies
            # in [0, 1], so p(1 - p) bounds its variance.
            sigma = np.sqrt(exact * (1 - exact) / w.shots)
            if sampled.shape == exact.shape:
                z = np.abs(sampled - exact) / sigma
                ok, detail = bool(np.all(z <= 4)), f"max |z| {z.max():.2f} over {len(z)} points"
            else:
                ok, detail = False, f"{sampled.shape} points, expected {exact.shape}"
            checks.append(Check(f"{t.code_id}/{b} series within 4 sigma", ok, detail))
            dem = noise.build_dem(circ, NOISE, b, code=t.code, logicals=t.logicals)
            width = out["detectors"].shape[1]
            checks.append(Check(
                f"{t.code_id}/{b} detector width",
                width == dem.detector_count,
                f"{width} columns, DEM has {dem.detector_count} detectors",
            ))
    return checks


def mc_is_deterministic(w: Workload, targets, seed: int, outputs) -> list[Check]:
    """Noiseless shots detect nothing, and a shot prefix does not depend
    on the batch size."""
    checks = []
    for t in targets:
        for b, circ in t.circuits.items():
            quiet = noise.run_monte_carlo(
                circ, NoiseModel(), PREFIX_SHOTS, b, code=t.code,
                logicals=t.logicals, master_seed=seed,
            )
            fired = int(quiet.detections.sum() + quiet.final_syndrome.sum()
                        + quiet.logical_flips.sum())
            checks.append(Check(
                f"{t.code_id}/{b} noiseless run is silent", fired == 0,
                f"{fired} detections and logical flips",
            ))
            prefix = min(PREFIX_SHOTS, w.shots)
            small = noise.run_monte_carlo(
                circ, NOISE, prefix, b, code=t.code, logicals=t.logicals,
                master_seed=seed, batch_size=PREFIX_BATCH,
            )
            full = outputs[t.code_id, b]["batch"]
            same = all(
                np.array_equal(getattr(small, f), getattr(full, f)[:prefix])
                for f in ("detections", "final_syndrome", "logical_flips")
            )
            checks.append(Check(
                f"{t.code_id}/{b} batch-size invariance", same,
                f"first {prefix} shots at batch {PREFIX_BATCH} vs {w.shots}",
            ))
    return checks


def dem_round_trips(w: Workload, targets, seed: int, outputs) -> list[Check]:
    checks = []
    for (cid, b), out in outputs.items():
        checks.append(Check(
            f"{cid}/{b} DEM text round trip", out["parsed"] == out["dem"],
            f"{len(out['dem'].columns)} columns",
        ))
        s = out["series"]
        checks.append(Check(
            f"{cid}/{b} series in [0, 0.5]",
            bool(np.all((s >= 0) & (s <= 0.5))),
            f"min {s.min():.4g}, max {s.max():.4g}",
        ))
    return checks


def design_is_valid(w: Workload, targets, seed: int, outputs) -> list[Check]:
    checks = []
    for t in targets:
        first = outputs[t.code_id, BASES[0]]
        checks.append(Check(f"{t.code_id} k", first["k"] == w.expect_k,
                            f"k = {first['k']}, expected {w.expect_k}"))
        d = first["distance"].value
        checks.append(Check(f"{t.code_id} d", d == w.expect_d,
                            f"d = {d}, expected {w.expect_d}"))
        for b in BASES:
            report = outputs[t.code_id, b]["report"]
            checks.append(Check(f"{t.code_id}/{b} verify_circuit", report.ok, str(report)))
    return checks


# ---------------------------------------------------------------------------
# exact counts for the traced run


def count_metrics(w: Workload, targets, outputs) -> dict[str, int]:
    """Structural counts of the workload's inputs and outputs, summed
    over codes and bases. They repeat exactly from run to run."""
    c: Counter = Counter()
    noisy = w.run_pass is not design_pass  # code-design samples no noise
    for t in targets:
        c["codes.n"] += t.code.n
        c["codes.k"] += t.code.k
        d = t.code.d if t.code.d is not None else codes.compute_distance(t.code).value
        c["codes.d"] += d
        for b, circ in t.circuits.items():
            c["circuit.layers"] += len(circ.layers)
            for layer in circ.layers:
                if layer.kind == circuit.CZ:
                    c["circuit.cz_gates"] += len(layer.gates)
                elif layer.kind == circuit.SINGLE_QUBIT:
                    c["circuit.single_qubit_gates"] += len(layer.gates)
            if noisy:
                out = outputs[t.code_id, b]
                variants = out.get("variants") or noise.enumerate_fault_variants(
                    circ, NOISE, code=t.code
                )
                c["noise.variants"] += len(variants)
                c["noise.fault_slots"] += len({v.slot for v in variants})
                if "dem" in out:
                    c["noise.detectors"] += out["dem"].detector_count
                    c["noise.dem_columns"] += len(out["dem"].columns)
                    c["noise.dem_collisions"] += len(out["dem"].collisions())
                else:
                    c["noise.detectors"] += out["detectors"].shape[1]
    return dict(c)


# ---------------------------------------------------------------------------
# registry

# Why each workload is there: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "paper-mc", ("18-4-4-pruned", "18-6-3"), mc_pass, mc_agrees_with_exact,
            shots=4096,
        ),
        Workload("wide-mc", ("144-12-12",), mc_pass, mc_is_deterministic, shots=2048),
        Workload("fault-table", ("36-4-6",), fault_pass, dem_round_trips),
        Workload(
            "code-design", ("36-4-6",), design_pass, design_is_valid,
            expect_k=4, expect_d=6,
        ),
    )
}
