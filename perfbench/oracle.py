"""Seeded inputs and the verdict oracle derived from them.

The seed shapes the ``pox-async`` plan only: which asynchronous event
each exchange carries and at which step.  ``fleet-mixed`` and
``reproduce`` take no seeded input.  Every oracle returns the misses it
found, one short string each, and the caller counts them all.
"""

from __future__ import annotations

import random
import struct

from repro.firmware.syringe_pump import STATUS_ABORTED, STATUS_COMPLETED

#: Dose programmed into the pump firmware (timer ticks).
DOSAGE = 200

BENIGN = "benign"        # the trusted timer ISR ends the dose
ABORT = "abort"          # abort press on PORT1 (trusted ISR inside ER)
UNTRUSTED = "untrusted"  # PORT5 interrupt, vectored outside ER (Fig. 5(b))

#: Seeded event steps, counted from the start of the exchange.  A benign
#: dose leaves ER after ~210 steps, so every event lands inside ER.
EVENT_FIRST_STEP = 2
EVENT_LAST_STEP = 180


def pox_plan(seed, exchanges):
    """``[(case, step), ...]``: ~70% benign, ~20% abort, ~10% untrusted."""
    rng = random.Random(seed)
    plan = []
    for _ in range(exchanges):
        draw = rng.random()
        if draw < 0.7:
            plan.append((BENIGN, 0))
            continue
        case = ABORT if draw < 0.9 else UNTRUSTED
        plan.append((case, rng.randint(EVENT_FIRST_STEP, EVENT_LAST_STEP)))
    return plan


def pox_miss(case, accepted, output):
    """Why one pox-async exchange missed its expectation, or ``None``.

    benign -> accepted, OR status COMPLETED, delivered == DOSAGE;
    abort -> accepted, OR status ABORTED, delivered < DOSAGE;
    untrusted -> rejected.
    """
    if case == UNTRUSTED:
        return "untrusted IRQ accepted" if accepted else None
    if not accepted:
        return "%s rejected" % case
    delivered, status = struct.unpack_from("<HH", output)
    if case == BENIGN and (status, delivered) == (STATUS_COMPLETED, DOSAGE):
        return None
    if case == ABORT and status == STATUS_ABORTED and delivered < DOSAGE:
        return None
    return "%s accepted with status=%d delivered=%d" % (case, status, delivered)


def fleet_misses(report, expected_exchanges):
    """Every exchange ran and was accepted in time; no challenge left."""
    misses = ["exchange never ran"
              for _ in range(expected_exchanges - report.exchanges)]
    for result in report.results:
        if result.timed_out:
            misses.append("%s timed out" % result.kind)
        elif not result.accepted:
            misses.append("%s rejected: %s" % (result.kind, result.reason))
    if report.pending_challenges_after != 0:
        misses.append("%d challenges pending after the run"
                      % report.pending_challenges_after)
    issued = report.service_counters.get("challenges")
    if issued != report.exchanges:
        misses.append("service issued %s challenges for %d exchanges"
                      % (issued, report.exchanges))
    return misses


#: Checks per reproduction: one per experiment, one per LTL property,
#: one for the Fig. 6 deltas.
PROPERTY_COUNT = 21
REPRODUCE_CHECKS = 7 + PROPERTY_COUNT + 1
FIG6_DELTAS = (-24, -3)


def reproduce_misses(results):
    """Every experiment succeeds, 21/21 properties hold, Fig. 6 deltas."""
    misses = ["%s did not succeed" % result.experiment_id
              for result in results if not result.succeeded]
    misses.extend("missing experiment"
                  for _ in range(7 - len(results)))
    by_id = {result.experiment_id: result for result in results}
    e6_rows = by_id["E6"].rows if "E6" in by_id else []
    held = sum(1 for row in e6_rows if row.get("holds") is True)
    misses.extend("LTL property does not hold"
                  for _ in range(PROPERTY_COUNT - held))
    fig6 = by_id["E4-E5"].rows if "E4-E5" in by_id else []
    deltas = [(row["luts"], row["registers"]) for row in fig6
              if row.get("module") == "asap_hwmod - apex_hwmod"]
    if deltas != [FIG6_DELTAS]:
        misses.append("Fig. 6 deltas %r, expected %r" % (deltas, FIG6_DELTAS))
    return misses
