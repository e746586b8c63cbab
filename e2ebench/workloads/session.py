"""``session``: interactive debugging of the Cohort SoC (case study 1,
fixed RTL) on TEST2, driven through the ``Zoomie`` facade.

One operation is one debug round:

1. resume, arm a cycle breakpoint a seeded 1000-4000 cycles ahead and
   run to the pause;
2. read a seeded 3-5 registers and ``write_state`` one, with a seeded
   value;
3. ``step`` a seeded 2-9 cycles;
4. in rounds 0 and 3 of each six-round block, ``snapshot``; in rounds 2
   and 5, ``restore`` that snapshot.

Checks, made on a golden model outside the fast path: every pause lands
exactly on the breakpoint cycle; every value read equals an
uninstrumented ``engine="interp"`` simulator driven with the same input
and the same forced writes; every ``restore`` reads back equal to its
snapshot.
"""

from __future__ import annotations

import random

from harness import Block, CheckError

#: MUT registers the rounds read and write (data and counters; forcing
#: them never wedges the SoC's handshakes).
REGISTERS = (
    "datapath.acc",
    "datapath.results_count",
    "lsu.issued_count",
    "lsu.completed_count",
    "lsu.result",
    "lsu.next_vpn",
    "bus.reqs_count",
    "mmu.vpn_r",
)

ROUNDS_PER_BLOCK = 6


class SessionWorkload:
    name = "session"
    unit = "debug round"
    trace_blocks = 2
    #: Blocks every run completes; modeled_s averages over them.
    min_blocks = 4

    def __init__(self, seed: int, iso):
        self.iso = iso
        self.rng = random.Random(f"e2e-session:{seed}")

    def setup(self) -> None:
        """Compile and program the card, attach, and pause at cycle 0
        (the cold kernel compile happens in the first executed cycle)."""
        from repro import Zoomie, ZoomieProject
        from repro.designs import make_cohort_soc

        project = ZoomieProject(
            design=make_cohort_soc(with_bug=False), device="TEST2",
            clocks={"clk": 100.0}, watch=["issued"])
        self.session = Zoomie(project).launch()
        self.dbg = self.session.debugger
        self.session.poke_input("en", 1)
        self.dbg.pause()
        self.dbg.step(1)

    def reset(self, index: int) -> None:
        """Before the first block, build the golden model at the state
        set-up left the card in (one cycle run with ``en`` high)."""
        if index:
            return
        from repro.designs import make_cohort_soc
        from repro.rtl import Simulator, elaborate

        netlist = elaborate(make_cohort_soc(with_bug=False))
        self.widths = {name: netlist.registers[name].width
                       for name in REGISTERS}
        self.golden = Simulator(netlist, engine="interp")
        self.golden.poke("en", 1)
        self.golden.step(1)
        self.golden_names = sorted(netlist.registers)

    def _plan_block(self) -> list[dict]:
        rng = self.rng
        rounds = []
        for _ in range(ROUNDS_PER_BLOCK):
            target = rng.choice(REGISTERS)
            rounds.append({
                "cycles": rng.randint(1000, 4000),
                "reads": rng.sample(REGISTERS, rng.randint(3, 5)),
                "write": target,
                "value": rng.getrandbits(self.widths[target]),
                "step": rng.randint(2, 9),
            })
        return rounds

    def block(self, index: int, clock) -> Block:
        dbg, golden = self.dbg, self.golden
        modeled_before = dbg.session_seconds
        check_seconds = 0.0
        snapshot = golden_snapshot = None
        for number, plan in enumerate(self._plan_block()):
            before = dbg.cycles()
            with clock:
                dbg.resume()
                dbg.set_cycle_breakpoint(plan["cycles"])
                dbg.run(max_cycles=plan["cycles"] * 4 + 64)
            if not dbg.is_paused() or dbg.cycles() - before != plan["cycles"]:
                raise CheckError(
                    f"breakpoint {plan['cycles']} cycles ahead paused "
                    f"after {dbg.cycles() - before} (paused="
                    f"{dbg.is_paused()})")
            golden.step(plan["cycles"])

            with clock:
                values = {name: dbg.read(name) for name in plan["reads"]}
                dbg.write_state({plan["write"]: plan["value"]})
            for name, value in values.items():
                if value != golden.peek(name):
                    raise CheckError(
                        f"read {name} = {value}, golden "
                        f"{golden.peek(name)} at cycle {dbg.cycles()}")
            golden.force(plan["write"], plan["value"])

            before = dbg.cycles()
            with clock:
                dbg.step(plan["step"])
            if dbg.cycles() - before != plan["step"]:
                raise CheckError(
                    f"step({plan['step']}) ran {dbg.cycles() - before}")
            golden.step(plan["step"])

            if number % 3 == 0:
                with clock:
                    snapshot = dbg.snapshot(f"round{number}")
                golden_snapshot = golden.snapshot()
                self._check_state(snapshot.values, "snapshot")
            elif number % 3 == 2:
                with clock:
                    dbg.restore(snapshot)
                golden.restore(golden_snapshot)
                # The check's own readback is no part of the round.
                charged = dbg.session_seconds
                readback = dbg.read_state()
                check_seconds += dbg.session_seconds - charged
                for name, value in snapshot.values.items():
                    if readback[name] != value:
                        raise CheckError(
                            f"restore: {name} reads {readback[name]}, "
                            f"snapshot holds {value}")
                self._check_state(readback.values, "restore")
        return Block(
            attempted=ROUNDS_PER_BLOCK, failed=0,
            modeled_s=(dbg.session_seconds - modeled_before
                       - check_seconds) / ROUNDS_PER_BLOCK)

    def _check_state(self, values: dict, what: str) -> None:
        for name in self.golden_names:
            if values[name] != self.golden.peek(name):
                raise CheckError(
                    f"{what}: {name} = {values[name]}, golden "
                    f"{self.golden.peek(name)}")

    def final_checks(self) -> None:
        pass
