"""``campaign``: ``run_debug_campaign`` over all five campaign designs
(``counters, cohort, serv, beehive, manycore``; ``manycore`` spans two
SLRs), twelve seeded mutants per design. One operation is one mutant; one
block is one whole campaign.

The seed is the campaign seed: it picks the mutant corpus and the
detection stimulus. Every block repeats the same campaign on cold plan
caches, so each block is the same work and its report must hash the
same.

Checks, made after the timed phase and outside the fast path:

- each detected mutant's detection cycle, and each bisected
  localization cycle, agrees with golden at ``cycle - 1`` and diverges
  at ``cycle``, with golden and mutant replayed on the ``interp``
  engine under the campaign's stimulus;
- every ``equivalent`` verdict survives ``verify_equivalents``;
- detection is at least 90% and localization at least 80% within 2
  signals / 16 cycles (the floors ``bench_campaign.py`` gates on).
"""

from __future__ import annotations

import hashlib

from harness import Block, CheckError

MUTANTS_PER_DESIGN = 12
DETECTION_FLOOR = 0.90
ACCURACY_FLOOR = 0.80


class CampaignWorkload:
    name = "campaign"
    unit = "mutant"
    trace_blocks = 1
    #: Blocks every run completes; modeled_s averages over them.
    min_blocks = 1

    def __init__(self, seed: int, iso):
        from repro.campaign import CampaignConfig
        from repro.campaign.designs import DESIGN_NAMES

        self.iso = iso
        self.config = CampaignConfig(designs=DESIGN_NAMES,
                                     mutants=MUTANTS_PER_DESIGN, seed=seed)
        self.reports = []

    def setup(self) -> None:
        """Golden netlists and mutant corpora of every design."""
        from repro.campaign.designs import campaign_design, golden_netlist
        from repro.rtl.mutate import generate_mutants

        self.corpora = {}
        for name in self.config.designs:
            design = campaign_design(name)
            golden = golden_netlist(design)
            mutants = generate_mutants(golden, name, self.config.mutants,
                                       self.config.seed,
                                       self.config.operators)
            self.corpora[name] = (design, golden,
                                  {m.mutant_id: m for m in mutants})

    def reset(self, index: int) -> None:
        self.iso.fresh_plan_cache()

    def block(self, index: int, clock) -> Block:
        from repro.campaign import run_debug_campaign

        workdir = self.iso.path(f"journals/{index}")
        with clock:
            report = run_debug_campaign(self.config, workdir)
        self.reports.append(report)
        localized = report.modeled_debug_seconds
        return Block(attempted=len(report.outcomes), failed=0,
                     modeled_s=sum(localized) / len(localized))

    # ------------------------------------------------------------------
    # output checks
    # ------------------------------------------------------------------

    def final_checks(self) -> None:
        from repro.campaign import verify_equivalents

        digests = {hashlib.sha256(r.to_json().encode()).hexdigest()
                   for r in self.reports}
        if len(digests) != 1:
            raise CheckError(
                f"{len(self.reports)} identical campaigns produced "
                f"{len(digests)} different reports")
        report = self.reports[0]
        print(f"# campaign report sha256 {digests.pop()}")
        print(f"# {report.describe().splitlines()[1].strip()}; "
              f"localization {report.localization_accuracy:.0%}")
        if report.detection_rate < DETECTION_FLOOR:
            raise CheckError(
                f"detection {report.detection_rate:.0%} below "
                f"{DETECTION_FLOOR:.0%}")
        if report.localization_accuracy < ACCURACY_FLOOR:
            raise CheckError(
                f"localization {report.localization_accuracy:.0%} below "
                f"{ACCURACY_FLOOR:.0%}")
        misclassified = verify_equivalents(self.config, report)
        if misclassified:
            raise CheckError(f"equivalent verdicts overturned: "
                             f"{misclassified}")
        for outcome in report.outcomes:
            if outcome.status == "detected":
                self._check_divergence(outcome)

    def _check_divergence(self, outcome) -> None:
        design, golden, mutants = self.corpora[outcome.design]
        mutant = mutants[outcome.mutant_id]
        state = sorted(set(golden.registers)
                       | set(golden.sync_read_outputs()))
        checks = [(outcome.detect["cycle"],
                   sorted(set(state) | set(golden.outputs)), "detection")]
        if outcome.localize["method"] == "bisect":
            checks.append((outcome.localize["cycle"], state, "bisection"))
        for cycle, names, what in checks:
            # The batched probe first compares after one edge, so a
            # detection at cycle 1 has no earlier agreement to check.
            before = [] if what == "detection" and cycle == 1 else \
                _replay_diff(golden, mutant.netlist, names, design,
                             self.config, outcome.detect["lane"], cycle - 1)
            at = _replay_diff(golden, mutant.netlist, names, design,
                              self.config, outcome.detect["lane"], cycle)
            if before or not at:
                raise CheckError(
                    f"{outcome.mutant_id}: {what} cycle {cycle} but the "
                    f"interp replay differs at cycle-1 in {before[:3]} "
                    f"and at cycle in {at[:3]}")


def _replay_diff(golden, mutant, names, design, config, lane: int,
                 cycles: int) -> list:
    """Names (and memories) on which golden and mutant differ after
    ``cycles`` cycles of the campaign stimulus on the interp engine."""
    from repro.rtl import Simulator
    from repro.rtl.mutate import default_stimulus

    widths = {name: golden.signals[name] for name in golden.inputs}
    sims = [Simulator(golden, engine="interp"),
            Simulator(mutant, engine="interp")]
    elapsed = 0
    while elapsed < cycles:
        vector = default_stimulus(widths, config.seed, lane,
                                  elapsed // config.chunk, design.bias)
        span = min(config.chunk - elapsed % config.chunk, cycles - elapsed)
        for sim in sims:
            for name, value in vector.items():
                sim.poke(name, value)
            sim.step(span)
        elapsed += span
    golden_sim, mutant_sim = sims
    out = [name for name in names
           if golden_sim.peek(name) != mutant_sim.peek(name)]
    out += [name for name in sorted(set(golden.memories)
                                    & set(mutant.memories))
            if golden_sim.memories[name] != mutant_sim.memories[name]]
    return out
