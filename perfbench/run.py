"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload paper-mc --seed 1 --seconds 25 --trace 0

Run from the repository root; the package is imported from ``src/``.
Until ``--seconds`` have elapsed the workload is set up again, several
times, and then one timed pass runs; then the outputs of the last pass
are checked. While set-ups and passes run, a timer samples how fast the
host runs, and their times are scaled to a fixed host speed; see
``hostspeed`` and README.md. Every metric is printed as
``<name> <value> <unit>``; the last line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``. The
full result, with provenance, is written to ``perfbench/out/``, and with
``--trace 1`` the spans beside it.

With ``--trace 1`` the first half of ``--seconds`` runs untraced, the
second half with every public function of ``bbqec.gf2`` and every
public method of its ``BinaryMatrix`` and of
``bbqec.tableau.StabilizerTableau`` wrapped in a span.
"""

from __future__ import annotations

import os

# Single-threaded runs: pin the BLAS/OpenMP pools before numpy loads.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import asdict, dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SRC = ROOT / "src"

# Import the package from this checkout's src/ and from nowhere else.
if not (SRC / "bbqec" / "__init__.py").is_file():
    raise SystemExit(f"run.py: no bbqec package under {SRC}; run from a full checkout")
sys.path[:0] = [str(SRC), str(HERE)]

import bbqec  # noqa: E402
import bbqec.gf2  # noqa: E402
import bbqec.tableau  # noqa: E402
import numpy as np  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from spans import SpanRecorder, public_functions, wrapped  # noqa: E402
from workloads import BASES, CYCLES, NOISE, WORKLOADS, count_metrics, setup  # noqa: E402

if Path(bbqec.__file__).resolve().parent != (SRC / "bbqec").resolve():
    raise SystemExit(f"run.py: imported bbqec from {bbqec.__file__}, not {SRC}")

# Before each timed pass the workload is set up again, repeatedly, for at
# least this many seconds; setup_s is the median over the whole run, so
# it samples the same stretch of time as wall_s.
SETUP_SLICE = 0.1

STAGES = {  # workload metric -> span name summed per pass
    "shots_per_s": "noise.run_monte_carlo",
    "dem_s": "noise.build_dem",
    "series_s": "noise.expected_detection_series",
    "distance_s": "codes.compute_distance",
    "verify_s": "circuit.verify_circuit",
}
# Calls the benchmark makes into each layer; "<span>_s" is its per-layer
# time, inclusive of everything the call does, scaled like wall_s.
LAYER_CALLS = (
    "noise.run_monte_carlo",
    "noise.shotbatch_post",
    "noise.enumerate_fault_variants",
    "noise.build_dem",
    "noise.expected_detection_series",
    "noise.dem_to_text",
    "noise.parse_dem",
    "codes.build_named_code",
    "codes.compute_distance",
    "codes.compute_k",
    "circuit.build_syndrome_circuit",
    "circuit.schedule_cz_layers",
    "circuit.verify_circuit",
)
WRAPPED_LAYERS = ("gf2", "tableau")
COUNTS = (
    "noise.fault_slots",
    "noise.variants",
    "noise.detectors",
    "noise.dem_columns",
    "noise.dem_collisions",
    "circuit.layers",
    "circuit.cz_gates",
    "circuit.single_qubit_gates",
    "codes.n",
    "codes.k",
    "codes.d",
)
UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "raw_setup_s": "s",
    "raw_wall_s": "s",
    "host_factor": "ratio",
    "shots_per_s": "1/s",
    **{name: "s" for name in ("dem_s", "series_s", "distance_s", "verify_s")},
    "failed_frac": "ratio",
    **{f"{name}_s": "s" for name in LAYER_CALLS},
    "noise.ns_per_shot_slot": "ns",
    **{f"{layer}.calls": "count" for layer in WRAPPED_LAYERS},
    **{f"{layer}.self_s": "s" for layer in WRAPPED_LAYERS},
    **{name: "count" for name in COUNTS},
    "bench.trace_overhead_s": "s",
}
# Every metric is printed and written to the result file. The JSON line
# carries only those that every workload has, as a time that reads 0 on
# every run of a workload measures nothing, and no counts, which must
# not change at all.
END_TO_END = ("setup_s", "wall_s", "peak_rss_mb")
PER_LAYER = (
    "codes.build_named_code_s",
    "circuit.build_syndrome_circuit_s",
    "gf2.calls",
    "gf2.self_s",
)


@dataclass
class Phase:
    """Spans of the repeated set-ups and the timed passes of one phase."""

    setups: list  # Summary per set-up
    passes: list  # Summary per pass
    targets: list
    outputs: dict  # of the last pass
    peak_rss_mb: float


def measure(w, seed: int, seconds: float, rec) -> Phase:
    speed = HostSpeed()
    start = time.perf_counter()
    with speed.sampling():
        while True:
            slice_start = time.perf_counter()
            while True:
                with rec.span("bench.setup"):
                    targets = setup(w, rec)
                if time.perf_counter() - slice_start >= SETUP_SLICE:
                    break
            outputs = None  # so the peak holds one pass's outputs, not two
            with rec.span("bench.pass"):
                outputs = w.run_pass(w, targets, seed, rec)
            if time.perf_counter() - start >= seconds:
                break
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return Phase(
        rec.summarize("bench.setup", speed), rec.summarize("bench.pass", speed),
        targets, outputs, rss_kb / 1024,
    )


def median_of(roots, value) -> float:
    return statistics.median(value(r) for r in roots)


def end_to_end(w, phase: Phase) -> dict[str, float]:
    """Medians of the scaled times, and of the raw ones for comparison."""
    m = {
        "setup_s": median_of(phase.setups, lambda r: r.scaled["bench.setup"]),
        "wall_s": median_of(phase.passes, lambda r: r.scaled["bench.pass"]),
        "peak_rss_mb": phase.peak_rss_mb,
        "raw_setup_s": median_of(phase.setups, lambda r: r.duration),
        "raw_wall_s": median_of(phase.passes, lambda r: r.duration),
        "host_factor": median_of(
            phase.passes, lambda r: r.duration / r.scaled["bench.pass"]
        ),
    }
    circuits = sum(len(t.circuits) for t in phase.targets)
    for name, span in STAGES.items():
        if not any(r.scaled[span] for r in phase.passes):
            continue
        if name == "shots_per_s":
            m[name] = median_of(
                phase.passes, lambda r: w.shots * circuits / r.scaled[span]
            )
        else:
            m[name] = median_of(phase.passes, lambda r: r.scaled[span])
    return m


def per_layer(w, traced: Phase, untraced: Phase, counts: dict) -> dict[str, float]:
    """Median per set-up plus median per pass of each layer's figures."""

    def per_round(value, median=statistics.median) -> float:
        return sum(median(value(r) for r in rs) for rs in (traced.setups, traced.passes))

    m = {f"{n}_s": per_round(lambda r, n=n: r.scaled[n]) for n in LAYER_CALLS}
    for layer in WRAPPED_LAYERS:
        # median_low keeps a count whole: it is always one of the values
        m[f"{layer}.calls"] = per_round(lambda r: r.calls[layer], statistics.median_low)
        m[f"{layer}.self_s"] = per_round(lambda r: r.self_s[layer])
    slot_shots = w.shots * counts.get("noise.fault_slots", 0)
    m["noise.ns_per_shot_slot"] = (
        m["noise.run_monte_carlo_s"] / slot_shots * 1e9 if slot_shots else 0.0
    )
    m.update({name: counts.get(name, 0) for name in COUNTS})
    m["bench.trace_overhead_s"] = median_of(
        traced.passes, lambda r: r.scaled["bench.pass"]
    ) - median_of(untraced.passes, lambda r: r.scaled["bench.pass"])
    return m


def git_sha(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(w, seed: int, seconds: float, trace: bool) -> dict:
    return {
        "workload": {
            "name": w.name,
            "codes": list(w.code_ids),
            "t": CYCLES,
            "bases": list(BASES),
            "noise": asdict(NOISE),
            "seed": seed,
            "shots_per_circuit_per_pass": w.shots,
            "seconds": seconds,
            "trace": trace,
        },
        "software": {
            "bbqec": bbqec.__version__,
            "git_sha": git_sha(ROOT),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "machine": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model(),
            "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
    }


def run(w, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload; returns the result record."""
    rec = SpanRecorder()
    phase = measure(w, seed, seconds / 2 if trace else seconds, rec)
    metrics = end_to_end(w, phase)
    result = {"provenance": provenance(w, seed, seconds, trace)}
    if trace:
        gf2, tab = bbqec.gf2, bbqec.tableau.StabilizerTableau
        targets = [(gf2, a, f"gf2.{a}") for a in public_functions(gf2)]
        targets += [
            (gf2.BinaryMatrix, a, f"gf2.BinaryMatrix.{a}")
            for a in public_functions(gf2.BinaryMatrix)
        ]
        targets += [(tab, a, f"tableau.StabilizerTableau.{a}") for a in public_functions(tab)]
        traced_rec = SpanRecorder()
        with wrapped(traced_rec, targets):
            traced = measure(w, seed, seconds / 2, traced_rec)
        counts = count_metrics(w, traced.targets, traced.outputs)
        result["per_layer"] = per_layer(w, traced, phase, counts)
        result["spans"] = traced_rec
        checked = traced
    else:
        checked = phase
    checks = w.check(w, checked.targets, seed, checked.outputs)
    failed = sum(not c.ok for c in checks)
    metrics["failed_frac"] = failed / len(checks)
    result.update(
        end_to_end=metrics,
        untraced_setup_s=[r.scaled["bench.setup"] for r in phase.setups],
        untraced_pass_s=[r.scaled["bench.pass"] for r in phase.passes],
        untraced_raw_setup_s=[r.duration for r in phase.setups],
        untraced_raw_pass_s=[r.duration for r in phase.passes],
        checks=[c._asdict() for c in checks],
        attempted=len(checks),
        failed=failed,
    )
    return result


def report(result: dict, trace: bool) -> str:
    """Print every metric by name with its unit; return the JSON line."""
    metrics = {**result["end_to_end"], **result.get("per_layer", {})}
    for name, value in metrics.items():
        print(f"{name} {value!r} {UNITS[name]}")
    for c in result["checks"]:
        print(f"check {'ok' if c['ok'] else 'FAILED'}: {c['name']} ({c['detail']})")
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            n: {"value": metrics[n], "unit": UNITS[n]}
            for n in (PER_LAYER if trace else END_TO_END)
        },
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        p.error("--seed and --seconds must be >= 0")
    trace = bool(args.trace)
    result = run(WORKLOADS[args.workload], args.seed, args.seconds, trace)
    line = report(result, trace)
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    if spans is not None:
        spans.write(OUT / f"{stem}.spans.json.gz")
    (OUT / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
