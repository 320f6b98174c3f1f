"""Sweep CZ round assignments for the 18-qubit production pin.

The seven-layer CZ schedule leaves real freedom: which rounds each of
the twelve polynomial terms occupies. The choice changes three things
that matter to the shipped configuration:

1. Commutation. Within a cycle every retained X/Z check pair must
   cross an even number of times or the extracted values are garbage;
   this is the hard feasibility filter (checked for the full 18-qubit
   code, which implies it for the distance-4 pruning).

2. Boundary shape. Ancilla faults between CZ rounds deposit errors on
   the data partners of the rounds still to come. Deposits landing
   after the last same-side catching round surface only in the final
   readout comparison, inflating it above the steady plateau, and the
   published detection series dips at both ends instead. Placing the
   final Z-side round at 7 while the X-side runs close earlier steers
   every Z-basis deposit into a mid-run cycle, and the X basis absorbs
   the remaining round-7 load inside its taller plateau. The exact
   per-detector series (expected_detection_series, no sampling error)
   scores each candidate: means inside the published windows and both
   boundary points below the plateau, in both memory bases, ranked by
   the worst clause margin in units of the 40,000-shot standard error.

3. Fault-signature collisions. For a poor term order two single faults
   can trip the same lone detector while flipping different logical
   observables, so no decoder can tell them apart. Candidates whose
   detector error models are collision free across cycle counts and
   bases are preferred over raw margin.

The published operation inventory (78 single-qubit gates per steady
cycle) is not reachable from this family: every shape-passing
assignment compiles to 84 or more because the basis-change runs
overlap less, and the few orders that do compile to 78 fail
commutation. The inventory arrangement, ((6, 2, 7), (3, 4, 5),
(3, 4, 5), (1, 6, 2)), can still be built by passing
`schedule_cz_layers(code, arrangement=...)` as the `schedule` of
`build_syndrome_circuit`, and the sweep reports each candidate's
compiled count for reference.

Takes a few minutes; logs progress, the ranked survivors and the adopted
pin at level INFO to standard output.
Run from the repository root: PYTHONPATH=src python3 scripts/scan_arrangements.py
"""

import logging
import sys
import time

import numpy as np

from bbqec import noise
from bbqec.circuit import (
    arrangement_commutes,
    arrangements,
    build_syndrome_circuit,
    schedule_cz_layers,
)
from bbqec.codes import build_named_code

log = logging.getLogger(__name__)

FEASIBILITY_CODE = build_named_code("18-4-4")
# Every arrangement scanned commutes on the full code, so it also commutes
# on the pruned subset that the scores are computed for.
PROBE = build_named_code("18-4-4-pruned")
NM = noise.NoiseModel.device_rates()

SERIES_T = 7
MEAN_TARGET = {"Z": 0.259, "X": 0.270}
MEAN_WINDOW = 0.02
# 40k-shot standard errors: one series point, and the 8-point mean
EDGE_SE = 0.0025
MEAN_SE = 0.0012
CENSUS_T = (1, 2, 3, 7)
KEEP = 40


def shape_ok(ra, rb, rbt, rat):
    # depends on the round sets only, so filtering the scheduler's walk
    # keeps its order
    left_covered = max(rbt) == 7 and max(rb) < max(rat)
    right_covered = max(rat) == 7 and max(ra) < max(rbt)
    return left_covered or right_covered


def margins(rounds):
    """(worst, detail): min clause slack in MC standard-error units."""
    sched = schedule_cz_layers(PROBE, arrangement=rounds)
    worst = np.inf
    detail = []
    for basis in ("Z", "X"):
        c = build_syndrome_circuit(PROBE, SERIES_T, basis=basis, schedule=sched)
        s = noise.expected_detection_series(c, NM, code=PROBE, basis=basis)
        mid = s[1:-1].mean()
        mean_slack = (MEAN_WINDOW - abs(s.mean() - MEAN_TARGET[basis])) / MEAN_SE
        first_slack = (mid - s[0]) / EDGE_SE
        last_slack = (mid - s[-1]) / EDGE_SE
        worst = min(worst, mean_slack, first_slack, last_slack)
        detail.append(
            f"{basis}: mean={s.mean():.4f} first-mid={s[0]-mid:+.4f} "
            f"last-mid={s[-1]-mid:+.4f}"
        )
    return worst, "  ".join(detail)


def collision_groups(rounds):
    sched = schedule_cz_layers(PROBE, arrangement=rounds)
    total = 0
    for t in CENSUS_T:
        for basis in ("Z", "X"):
            c = build_syndrome_circuit(PROBE, t, basis=basis, schedule=sched)
            dem = noise.build_dem(c, NM, basis=basis, code=PROBE)
            total += len(dem.collisions())
    return total


def hadamards_per_cycle(rounds):
    sched = schedule_cz_layers(PROBE, arrangement=rounds)
    return build_syndrome_circuit(PROBE, 3, schedule=sched).count_gates("H", cycle=1)


def main():
    logging.basicConfig(level=logging.INFO, format="%(message)s", stream=sys.stdout)
    commutes = arrangement_commutes(FEASIBILITY_CODE)
    t0 = time.time()
    seen = 0
    ranked = []
    for rounds in arrangements():
        if not shape_ok(*rounds) or not commutes(*rounds):
            continue
        seen += 1
        w, rep = margins(rounds)
        ranked.append((w, rounds, rep))
        if seen % 250 == 0:
            ranked.sort(key=lambda x: -x[0])
            del ranked[KEEP:]
            log.info("... %d commuting scored, %.0fs", seen, time.time() - t0)
    ranked.sort(key=lambda x: -x[0])
    del ranked[KEEP:]
    log.info("\n%d commuting candidates (%.0fs); top %d censused:",
             seen, time.time() - t0, KEEP)
    winner = None
    for w, rounds, rep in ranked:
        g = collision_groups(rounds)
        h = hadamards_per_cycle(rounds)
        mark = ""
        if g == 0 and winner is None:
            winner = rounds
            mark = "  <= pin"
        log.info("  %+.2fse collisions=%-3d H/cycle=%s  %s%s", w, g, h, rounds, mark)
    log.info("\npin: %s  (%.0fs)", winner, time.time() - t0)


if __name__ == "__main__":
    main()
