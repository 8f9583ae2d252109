//! The cycle-stepped cluster: cores + TCDM arbitration + L2 port + DMA +
//! barriers.
//!
//! Every simulated cycle proceeds in three phases, each doing only the
//! work that exists in that cycle:
//!
//! 1. **Execute** — always: each `Running` core whose `ready_at` has
//!    arrived executes one pre-decoded instruction (possibly parking
//!    itself in a wait state). A parked core's `ready_at` never arrives,
//!    so it costs one comparison.
//! 2. **Arbitrate** — only while some core has a memory request pending:
//!    requests are matched to TCDM banks (one grant per bank per cycle,
//!    rotating core priority) and the single L2 port. Then, only while a
//!    transfer is queued, the DMA engine moves words through whatever
//!    bank slots the cores left free; the cycle a transfer completes
//!    wakes the cores waiting on it.
//! 3. **Synchronize** — only while some core waits at a barrier: when
//!    every core has arrived, all are released after the configured
//!    rendezvous cost.
//!
//! The counts of halted, barrier-, memory- and DMA-waiting cores are
//! updated on each status transition, so no phase scans the cores to
//! learn whether it has work, and barrier and DMA stall cycles are
//! added when the wait ends rather than counted cycle by cycle.
//!
//! This is where the paper's three performance mechanisms live: TCDM
//! banking conflicts, DMA/compute overlap (double buffering), and
//! synchronization overhead limiting the AM kernel's scaling.

use crate::asm::Program;
use crate::config::ClusterConfig;
use crate::core::{decode_program, Core, Decoded, ExecCtx, Status};
use crate::dma::DmaEngine;
use crate::mem::{MemSpace, Memory};
use crate::stats::{CoreStats, RunSummary};
use crate::SimError;

/// A simulated PULP cluster executing one SPMD program.
///
/// Memory contents persist across [`run`](Self::run) calls (so a host can
/// load matrices once and run many classification windows); core
/// architectural state, DMA state, and statistics reset at the start of
/// every run.
///
/// # Examples
///
/// Parallel sum over four cores with a barrier:
///
/// ```
/// use pulp_sim::{Cluster, ClusterConfig};
/// use pulp_sim::asm::Assembler;
/// use pulp_sim::isa::regs::*;
/// use pulp_sim::mem::L1_BASE;
///
/// let mut a = Assembler::new();
/// a.coreid(T0);
/// a.slli(T1, T0, 2);             // each core writes 10*(id+1)
/// a.li(T2, L1_BASE);
/// a.add(T1, T1, T2);
/// a.addi(T3, T0, 1);
/// a.li(T4, 10);
/// a.mul(T3, T3, T4);
/// a.sw(T3, T1, 0);
/// a.barrier();
/// a.bnez(T0, "done");            // core 0 reduces
/// a.li(T5, 0);
/// a.li(T6, 4);
/// a.label("acc");
/// a.lw(T3, T2, 0);
/// a.addi(T2, T2, 4);
/// a.add(T5, T5, T3);
/// a.addi(T6, T6, -1);
/// a.bnez(T6, "acc");
/// a.sw(T5, T1, 0);               // store total at core0 slot... (example)
/// a.label("done");
/// a.halt();
///
/// let mut cluster = Cluster::new(ClusterConfig::pulpv3(4), a.finish()?);
/// let summary = cluster.run(100_000)?;
/// assert!(summary.cycles > 0);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct Cluster {
    cfg: ClusterConfig,
    program: Program,
    /// `program` decoded for `cfg`'s cores.
    ops: Vec<Decoded>,
    cores: Vec<Core>,
    mem: Memory,
    dma: DmaEngine,
    l2_busy_until: u64,
}

impl Cluster {
    /// Creates a cluster with zeroed memories.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` is inconsistent (see
    /// [`ClusterConfig::assert_valid`]).
    #[must_use]
    pub fn new(cfg: ClusterConfig, program: Program) -> Self {
        cfg.assert_valid();
        let cores = (0..cfg.n_cores).map(Core::new).collect();
        let mem = Memory::new(cfg.l1_size, cfg.l2_size);
        let dma = DmaEngine::new(cfg.dma_words_per_cycle, cfg.dma_startup_cycles);
        Self {
            ops: decode_program(&program, &cfg),
            cfg,
            program,
            cores,
            mem,
            dma,
            l2_busy_until: 0,
        }
    }

    /// The cluster configuration.
    #[must_use]
    pub fn cfg(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The loaded program.
    #[must_use]
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Replaces the program (e.g. to run a different kernel against the
    /// same memory image).
    pub fn set_program(&mut self, program: Program) {
        self.ops = decode_program(&program, &self.cfg);
        self.program = program;
    }

    /// Read access to the memories (host-side data exchange).
    #[must_use]
    pub fn mem(&self) -> &Memory {
        &self.mem
    }

    /// Write access to the memories (host-side data exchange).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.mem
    }

    /// Architectural state of core `id` (for tests and debugging).
    ///
    /// # Panics
    ///
    /// Panics if `id >= n_cores`.
    #[must_use]
    pub fn core(&self, id: usize) -> &Core {
        &self.cores[id]
    }

    /// Runs the program from a fresh core/DMA state until every core
    /// halts.
    ///
    /// # Errors
    ///
    /// Returns [`SimError`] on illegal instructions, memory faults, DMA
    /// descriptor errors, barrier deadlock, or when `max_cycles` elapses.
    pub fn run(&mut self, max_cycles: u64) -> Result<RunSummary, SimError> {
        for core in &mut self.cores {
            core.reset();
        }
        self.dma.reset();
        self.l2_busy_until = 0;
        let mut markers: Vec<(u32, u64)> = Vec::new();
        let mut bank_busy = vec![false; self.cfg.tcdm_banks];
        let n = self.cores.len();
        let barrier_cost = u64::from(self.cfg.sync.barrier_cycles(n)) + 1;
        let taken_cycles = self.cfg.core.branch_taken_cycles.max(1);
        let mut waits = Waits::default();
        // Core with the highest arbitration priority: `cycle % n`.
        let mut first = 0;
        let mut cycle: u64 = 0;

        loop {
            if waits.halted == n {
                break;
            }
            if cycle >= max_cycles {
                return Err(SimError::Timeout { cycles: cycle });
            }

            // Phase 1: execute.
            let mut ctx = ExecCtx {
                cfg: &self.cfg,
                ops: &self.ops,
                program: &self.program,
                taken_cycles,
                cycle,
                dma: &mut self.dma,
                mem: &self.mem,
                markers: &mut markers,
            };
            for core in &mut self.cores {
                if core.ready_at <= cycle {
                    core.execute(&mut ctx)?;
                    if core.status != Status::Running {
                        waits.enter(core.status);
                    }
                }
            }

            // Phase 2: memory arbitration, then the DMA.
            let dma_busy = !self.dma.is_idle();
            if waits.mem > 0 || dma_busy {
                bank_busy.fill(false);
            }
            if waits.mem > 0 {
                self.arbitrate(cycle, first, &mut bank_busy, &mut waits)?;
            }
            if dma_busy {
                if let Some(id) = self.dma.step(&mut self.mem, &mut bank_busy) {
                    if waits.dma > 0 {
                        self.wake_dma_waiters(id, cycle, &mut waits);
                    }
                }
            }

            // Phase 3: barrier rendezvous.
            if waits.barrier > 0 {
                if waits.halted > 0 {
                    return Err(SimError::BarrierDeadlock { cycle });
                }
                if waits.barrier == n {
                    for core in &mut self.cores {
                        core.stats.stall_barrier += cycle - core.wait_since;
                        core.status = Status::Running;
                        core.ready_at = cycle + barrier_cost;
                    }
                    waits.barrier = 0;
                }
            }

            cycle += 1;
            first += 1;
            if first == n {
                first = 0;
            }
        }

        Ok(RunSummary {
            cycles: cycle,
            cores: self.cores.iter().map(|c| c.stats).collect(),
            markers,
            dma: self.dma.stats(),
        })
    }

    /// Grants pending memory requests, visiting cores in rotating
    /// priority order from `first` (which removes systematic starvation
    /// of high-numbered cores).
    fn arbitrate(
        &mut self,
        cycle: u64,
        first: usize,
        bank_busy: &mut [bool],
        waits: &mut Waits,
    ) -> Result<(), SimError> {
        let n = self.cores.len();
        for i in (first..n).chain(0..first) {
            let core = &mut self.cores[i];
            if core.status != Status::MemWait {
                continue;
            }
            let pending = core.pending;
            let (space, off) = pending
                .target
                .map_err(|fault| SimError::MemAccess { core: i, fault })?;
            let cc = &self.cfg.core;
            let latency = match space {
                MemSpace::L1 => {
                    if bank_busy[pending.bank] {
                        core.stats.stall_mem_conflict += 1;
                        continue;
                    }
                    bank_busy[pending.bank] = true;
                    if pending.store_value.is_some() {
                        cc.store_l1_cycles
                    } else {
                        cc.load_l1_cycles
                    }
                }
                MemSpace::L2 => {
                    if cycle < self.l2_busy_until {
                        core.stats.stall_l2 += 1;
                        continue;
                    }
                    self.l2_busy_until = cycle + u64::from(self.cfg.l2_port_cycles);
                    cc.load_l2_cycles
                }
            };
            match pending.store_value {
                Some(value) => self.mem.write_at(space, off, pending.width, value),
                None => core.set_reg(pending.rd, self.mem.read_at(space, off, pending.width)),
            }
            let latency = latency.max(1);
            core.status = Status::Running;
            core.ready_at = cycle + u64::from(latency);
            core.stats.busy += u64::from(latency);
            waits.mem -= 1;
        }
        Ok(())
    }

    /// Releases the cores waiting on transfer `id`, which completed in
    /// `cycle`: each sees the completion next cycle and issues the one
    /// after.
    fn wake_dma_waiters(&mut self, id: u32, cycle: u64, waits: &mut Waits) {
        for core in &mut self.cores {
            if core.status == Status::DmaWait(id) {
                core.stats.stall_dma += cycle + 1 - core.wait_since;
                core.status = Status::Running;
                core.ready_at = cycle + 2;
                waits.dma -= 1;
            }
        }
    }
}

/// How many cores are in each non-running status.
#[derive(Debug, Default)]
struct Waits {
    halted: usize,
    barrier: usize,
    mem: usize,
    dma: usize,
}

impl Waits {
    /// Counts a core that just executed and is now in `status`.
    fn enter(&mut self, status: Status) {
        match status {
            Status::Running => {}
            Status::MemWait => self.mem += 1,
            Status::BarrierWait => self.barrier += 1,
            Status::DmaWait(_) => self.dma += 1,
            Status::Halted => self.halted += 1,
        }
    }
}

/// Convenience: collects the per-core stats of a summary into totals.
#[must_use]
pub fn total_stats(summary: &RunSummary) -> CoreStats {
    let mut total = CoreStats::default();
    for c in &summary.cores {
        total.retired += c.retired;
        total.busy += c.busy;
        total.stall_mem_conflict += c.stall_mem_conflict;
        total.stall_l2 += c.stall_l2;
        total.stall_dma += c.stall_dma;
        total.stall_barrier += c.stall_barrier;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::dma::DmaDescError;
    use crate::isa::regs::*;
    use crate::mem::{L1_BASE, L2_BASE};

    fn run(cfg: ClusterConfig, build: impl FnOnce(&mut Assembler)) -> (Cluster, RunSummary) {
        let mut a = Assembler::new();
        build(&mut a);
        let mut cluster = Cluster::new(cfg, a.finish().unwrap());
        let summary = cluster.run(1_000_000).unwrap();
        (cluster, summary)
    }

    #[test]
    fn straight_line_arithmetic_and_halt() {
        let (cluster, summary) = run(ClusterConfig::wolf(1), |a| {
            a.li(T0, 6);
            a.li(T1, 7);
            a.mul(T2, T0, T1);
            a.halt();
        });
        assert_eq!(cluster.core(0).reg(T2), 42);
        assert_eq!(summary.cores[0].retired, 4);
    }

    #[test]
    fn store_then_load_roundtrip() {
        let (cluster, _) = run(ClusterConfig::wolf(1), |a| {
            a.li(T0, L1_BASE + 64);
            a.li(T1, 0xabcd_0123);
            a.sw(T1, T0, 0);
            a.lw(T2, T0, 0);
            a.halt();
        });
        assert_eq!(cluster.core(0).reg(T2), 0xabcd_0123);
    }

    #[test]
    fn software_loop_timing_differs_between_cores() {
        // The same counted loop must be slower on PULPv3 (3-cycle taken
        // branches, 2-cycle loads) than on Wolf.
        let body = |a: &mut Assembler| {
            a.li(T0, 100);
            a.li(T1, L1_BASE);
            a.label("loop");
            a.lw(T2, T1, 0);
            a.add(T3, T3, T2);
            a.addi(T0, T0, -1);
            a.bnez(T0, "loop");
            a.halt();
        };
        let (_, p3) = run(ClusterConfig::pulpv3(1), body);
        let (_, wolf) = run(ClusterConfig::wolf_no_ext(1), body);
        assert!(
            p3.cycles > wolf.cycles,
            "pulpv3 {} should exceed wolf {}",
            p3.cycles,
            wolf.cycles
        );
        // Shape check: PULPv3 ≈ 8 cycles/iter (2+1+1+4), Wolf ≈ 5.
        let p3_per_iter = p3.cycles as f64 / 100.0;
        let wolf_per_iter = wolf.cycles as f64 / 100.0;
        assert!(
            (7.5..8.8).contains(&p3_per_iter),
            "pulpv3 {p3_per_iter}/iter"
        );
        assert!(
            (4.5..5.8).contains(&wolf_per_iter),
            "wolf {wolf_per_iter}/iter"
        );
    }

    /// 100 iterations of two increments, counted by a taken branch.
    fn sw_counted_loop(a: &mut Assembler) {
        a.li(T0, 100);
        a.label("loop");
        a.addi(T3, T3, 1);
        a.addi(T4, T4, 2);
        a.addi(T0, T0, -1);
        a.bnez(T0, "loop");
        a.halt();
    }

    /// The same loop as a hardware loop.
    fn hw_counted_loop(a: &mut Assembler) {
        a.li(T0, 100);
        a.lp_setup(T0, "body", "body_end");
        a.label("body");
        a.addi(T3, T3, 1);
        a.addi(T4, T4, 2);
        a.label("body_end");
        a.halt();
    }

    #[test]
    fn hardware_loop_removes_branch_overhead() {
        let (c_sw, s_sw) = run(ClusterConfig::wolf(1), sw_counted_loop);
        let (c_hw, s_hw) = run(ClusterConfig::wolf(1), hw_counted_loop);
        assert_eq!(c_sw.core(0).reg(T3), 100);
        assert_eq!(c_hw.core(0).reg(T3), 100);
        assert_eq!(c_hw.core(0).reg(T4), 200);
        // SW: 4 insts + taken branch ≈ 6/iter; HW: 2/iter.
        assert!(
            s_hw.cycles * 2 < s_sw.cycles,
            "hw {} vs sw {}",
            s_hw.cycles,
            s_sw.cycles
        );
    }

    #[test]
    fn hw_loop_with_zero_count_skips_body() {
        let (cluster, _) = run(ClusterConfig::wolf(1), |a| {
            a.li(T0, 0);
            a.lp_setup(T0, "body", "body_end");
            a.label("body");
            a.li(T3, 99);
            a.label("body_end");
            a.addi(T4, T4, 5);
            a.halt();
        });
        assert_eq!(cluster.core(0).reg(T3), 0, "body must be skipped");
        assert_eq!(cluster.core(0).reg(T4), 5);
    }

    /// A 7-iteration hardware loop nested in a 5-iteration one.
    fn nested_hw_loops(a: &mut Assembler) {
        a.li(T0, 5);
        a.lp_setup(T0, "outer", "outer_end");
        a.label("outer");
        a.li(T1, 7);
        a.lp_setup(T1, "inner", "inner_end");
        a.label("inner");
        a.addi(T3, T3, 1);
        a.label("inner_end");
        a.addi(T4, T4, 1);
        a.label("outer_end");
        a.halt();
    }

    #[test]
    fn nested_hw_loops_multiply_iterations() {
        let (cluster, _) = run(ClusterConfig::wolf(1), nested_hw_loops);
        assert_eq!(cluster.core(0).reg(T3), 35);
        assert_eq!(cluster.core(0).reg(T4), 5);
    }

    #[test]
    fn illegal_extension_on_pulpv3_faults() {
        let mut a = Assembler::new();
        a.p_cnt(T0, T1);
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::pulpv3(1), a.finish().unwrap());
        match cluster.run(1000) {
            Err(SimError::IllegalInstruction {
                core: 0,
                pc: 0,
                inst,
            }) => {
                assert!(inst.contains("p.cnt"));
            }
            other => panic!("expected illegal instruction, got {other:?}"),
        }
    }

    #[test]
    fn popcount_and_bitfield_ops_work_on_wolf() {
        let (cluster, _) = run(ClusterConfig::wolf(1), |a| {
            a.li(T0, 0xf0f0_1234);
            a.p_cnt(T1, T0);
            a.p_extractu(T2, T0, 8, 4); // bits 11:4 = 0x23
            a.li(T3, 0);
            a.li(T4, 0b101);
            a.p_insert(T3, T4, 3, 8); // T3[10:8] = 0b101
            a.halt();
        });
        assert_eq!(cluster.core(0).reg(T1), 0xf0f0_1234u32.count_ones());
        assert_eq!(cluster.core(0).reg(T2), 0x23);
        assert_eq!(cluster.core(0).reg(T3), 0b101 << 8);
    }

    #[test]
    fn coreid_numcores_and_spmd_partitioning() {
        let (cluster, _) = run(ClusterConfig::wolf(4), |a| {
            a.coreid(T0);
            a.numcores(T1);
            a.slli(T2, T0, 2);
            a.li(T3, L1_BASE + 256);
            a.add(T2, T2, T3);
            a.addi(T4, T0, 100);
            a.sw(T4, T2, 0);
            a.barrier();
            a.halt();
        });
        for id in 0..4 {
            assert_eq!(
                cluster.mem().read_words(L1_BASE + 256 + 4 * id, 1).unwrap()[0],
                100 + id
            );
        }
        assert_eq!(cluster.core(3).reg(T1), 4);
    }

    /// 50 bursts of 8 back-to-back loads of one word: the same word on
    /// every core, or a word in the core's own bank.
    fn load_burst(a: &mut Assembler, bank_spread: bool) {
        a.li(T1, L1_BASE);
        if bank_spread {
            a.coreid(T3);
            a.slli(T3, T3, 2);
            a.add(T1, T1, T3); // core i hits bank i
        }
        a.li(T0, 50);
        a.label("loop");
        for _ in 0..8 {
            a.lw(T2, T1, 0);
        }
        a.addi(T0, T0, -1);
        a.bnez(T0, "loop");
        a.halt();
    }

    #[test]
    fn bank_conflicts_slow_down_same_bank_hammering() {
        // Back-to-back loads: 4 cores demanding the same bank every cycle
        // versus each core owning its own bank. (A loop with enough
        // non-memory work per iteration self-staggers into a
        // conflict-free schedule — that pipelining is modelled too, which
        // is why this test needs a pure load burst.)
        let (_, s_conf) = run(ClusterConfig::wolf(4), |a| load_burst(a, false));
        let (_, s_spread) = run(ClusterConfig::wolf(4), |a| load_burst(a, true));
        assert!(
            s_conf.cycles > s_spread.cycles * 2,
            "conflicts {} vs spread {}",
            s_conf.cycles,
            s_spread.cycles
        );
        let conf_total = total_stats(&s_conf).stall_mem_conflict;
        let spread_total = total_stats(&s_spread).stall_mem_conflict;
        assert!(conf_total > 2000, "conflict stalls {conf_total}");
        assert!(spread_total < 100, "spread stalls {spread_total}");
    }

    #[test]
    fn l2_access_is_slower_than_l1() {
        let l1 = |a: &mut Assembler| {
            a.li(T1, L1_BASE);
            a.li(T0, 100);
            a.label("loop");
            a.lw(T2, T1, 0);
            a.addi(T0, T0, -1);
            a.bnez(T0, "loop");
            a.halt();
        };
        let l2 = |a: &mut Assembler| {
            a.li(T1, L2_BASE);
            a.li(T0, 100);
            a.label("loop");
            a.lw(T2, T1, 0);
            a.addi(T0, T0, -1);
            a.bnez(T0, "loop");
            a.halt();
        };
        let (_, s_l1) = run(ClusterConfig::wolf(1), l1);
        let (_, s_l2) = run(ClusterConfig::wolf(1), l2);
        assert!(
            s_l2.cycles > s_l1.cycles * 2,
            "l2 {} vs l1 {}",
            s_l2.cycles,
            s_l1.cycles
        );
    }

    /// Core 0 spins 1000 iterations; the others go straight to the
    /// barrier.
    fn unequal_work_barrier(a: &mut Assembler) {
        a.coreid(T0);
        a.bnez(T0, "wait");
        a.li(T1, 1000);
        a.label("spin");
        a.addi(T1, T1, -1);
        a.bnez(T1, "spin");
        a.label("wait");
        a.barrier();
        a.halt();
    }

    #[test]
    fn barrier_synchronizes_unequal_work() {
        // Core 0 spins 1000 iterations; others arrive early and wait.
        let (_, summary) = run(ClusterConfig::wolf(4), unequal_work_barrier);
        assert!(summary.cycles > 2000, "core 0 work dominates");
        assert!(
            summary.cores[1].stall_barrier > 1500,
            "idle cores accumulate barrier stalls: {}",
            summary.cores[1].stall_barrier
        );
    }

    #[test]
    fn halted_core_at_barrier_is_deadlock() {
        let mut a = Assembler::new();
        a.coreid(T0);
        a.bnez(T0, "skip");
        a.halt(); // core 0 never reaches the barrier
        a.label("skip");
        a.barrier();
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::wolf(2), a.finish().unwrap());
        assert!(matches!(
            cluster.run(100_000),
            Err(SimError::BarrierDeadlock { .. })
        ));
    }

    #[test]
    fn runaway_program_times_out() {
        let mut a = Assembler::new();
        a.label("forever");
        a.j("forever");
        let mut cluster = Cluster::new(ClusterConfig::wolf(1), a.finish().unwrap());
        assert!(matches!(
            cluster.run(5_000),
            Err(SimError::Timeout { cycles: 5_000 })
        ));
    }

    /// Copies 64 bytes from L2+128 to L1+512 and waits for them at once.
    fn dma_then_wait(a: &mut Assembler) {
        // Descriptor at L1+0.
        a.li(T0, L1_BASE);
        a.li(T1, L2_BASE + 128);
        a.sw(T1, T0, 0);
        a.li(T1, L1_BASE + 512);
        a.sw(T1, T0, 4);
        a.li(T1, 64);
        a.sw(T1, T0, 8);
        a.sw(ZERO, T0, 12);
        a.sw(ZERO, T0, 16);
        a.li(T1, 1);
        a.sw(T1, T0, 20);
        a.dma_start(T2, T0);
        a.dma_wait(T2);
        a.li(T3, L1_BASE + 512);
        a.lw(T4, T3, 60);
        a.halt();
    }

    #[test]
    fn dma_transfer_from_core_and_wait() {
        let mut a = Assembler::new();
        dma_then_wait(&mut a);
        let mut cluster = Cluster::new(ClusterConfig::wolf(1), a.finish().unwrap());
        cluster
            .mem_mut()
            .write_words(
                L2_BASE + 128,
                &(0..16).map(|i| i + 1000).collect::<Vec<_>>(),
            )
            .unwrap();
        let summary = cluster.run(100_000).unwrap();
        assert_eq!(cluster.core(0).reg(T4), 1015);
        assert_eq!(summary.dma.words_moved, 16);
        assert!(summary.cores[0].stall_dma > 0, "core must actually wait");
    }

    /// Starts a 256-word L2→L1 transfer, spins 2000 iterations, then
    /// waits for it.
    fn dma_behind_spin(a: &mut Assembler) {
        a.li(T0, L1_BASE);
        a.li(T1, L2_BASE);
        a.sw(T1, T0, 0);
        a.li(T1, L1_BASE + 1024);
        a.sw(T1, T0, 4);
        a.li(T1, 1024);
        a.sw(T1, T0, 8);
        a.sw(ZERO, T0, 12);
        a.sw(ZERO, T0, 16);
        a.li(T1, 1);
        a.sw(T1, T0, 20);
        a.dma_start(T2, T0);
        a.li(T3, 2000);
        a.label("spin");
        a.addi(T3, T3, -1);
        a.bnez(T3, "spin");
        a.dma_wait(T2);
        a.halt();
    }

    #[test]
    fn dma_overlaps_with_compute() {
        // Busy-spin 2000 cycles while a 256-word transfer is in flight;
        // the wait at the end should be nearly free.
        let (_, summary) = run(ClusterConfig::wolf(1), dma_behind_spin);
        // 256 words / 2 per cycle = 128 cycles ≪ 2000-cycle spin: the
        // final wait must observe completion almost immediately.
        assert!(
            summary.cores[0].stall_dma <= 2,
            "dma fully hidden, stall {}",
            summary.cores[0].stall_dma
        );
    }

    #[test]
    fn unknown_dma_id_faults() {
        let mut a = Assembler::new();
        a.li(T0, 3);
        a.dma_wait(T0);
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::wolf(1), a.finish().unwrap());
        assert!(matches!(
            cluster.run(1000),
            Err(SimError::UnknownDmaId { id: 3, .. })
        ));
    }

    #[test]
    fn memory_fault_reports_core_and_address() {
        let mut a = Assembler::new();
        a.li(T0, 0x2000);
        a.lw(T1, T0, 0);
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::wolf(1), a.finish().unwrap());
        match cluster.run(1000) {
            Err(SimError::MemAccess { core: 0, fault }) => {
                assert_eq!(fault.addr, 0x2000);
            }
            other => panic!("expected fault, got {other:?}"),
        }
    }

    #[test]
    fn markers_record_regions_on_core0_only() {
        let (_, summary) = run(ClusterConfig::wolf(2), |a| {
            a.marker(10);
            a.li(T0, 50);
            a.label("spin");
            a.addi(T0, T0, -1);
            a.bnez(T0, "spin");
            a.marker(11);
            a.halt();
        });
        let region = summary.region(10, 11).unwrap();
        assert!(region >= 100, "50 iterations × ≥2 cycles, got {region}");
        // Two cores execute the marker but only core 0 records it.
        assert_eq!(summary.marker_cycles(10).len(), 1);
    }

    #[test]
    fn memory_persists_across_runs_but_state_resets() {
        let mut a = Assembler::new();
        a.li(T0, L1_BASE + 128);
        a.lw(T1, T0, 0);
        a.addi(T1, T1, 1);
        a.sw(T1, T0, 0);
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::wolf(1), a.finish().unwrap());
        cluster.run(1000).unwrap();
        cluster.run(1000).unwrap();
        let summary = cluster.run(1000).unwrap();
        assert_eq!(cluster.mem().read_words(L1_BASE + 128, 1).unwrap()[0], 3);
        assert_eq!(summary.cores[0].retired, 5, "stats reset each run");
    }

    #[test]
    fn fork_costs_more_on_software_runtime() {
        let body = |a: &mut Assembler| {
            a.fork();
            a.halt();
        };
        let (_, sw) = run(ClusterConfig::pulpv3(4), body);
        let (_, hw) = run(ClusterConfig::wolf(4), body);
        assert!(
            sw.cycles > hw.cycles + 100,
            "sw {} hw {}",
            sw.cycles,
            hw.cycles
        );
    }

    /// `cycles=N c<i>=[retired busy mem_conflict l2 dma barrier] ...
    /// markers=[(id,cycle) ...] dma=[words bank_conflicts transfers]`.
    fn fingerprint(s: &RunSummary) -> String {
        let mut out = format!("cycles={}", s.cycles);
        for (i, c) in s.cores.iter().enumerate() {
            out += &format!(
                " c{i}=[{} {} {} {} {} {}]",
                c.retired, c.busy, c.stall_mem_conflict, c.stall_l2, c.stall_dma, c.stall_barrier
            );
        }
        let markers: Vec<String> = s
            .markers
            .iter()
            .map(|(m, c)| format!("({m},{c})"))
            .collect();
        out += &format!(" markers=[{}]", markers.join(" "));
        out += &format!(
            " dma=[{} {} {}]",
            s.dma.words_moved, s.dma.bank_conflict_stalls, s.dma.transfers
        );
        out
    }

    /// The exact run summaries of the programs above whose tests assert
    /// only ranges. Golden values: update them only for a deliberate
    /// change to the timing model.
    #[test]
    fn unit_program_run_summaries_are_pinned() {
        type Case = (
            &'static str,
            ClusterConfig,
            fn(&mut Assembler),
            &'static str,
        );
        let cases: [Case; 12] = [
            (
                "conflicting burst",
                ClusterConfig::wolf(4),
                |a| load_burst(a, false),
                "cycles=1606 c0=[503 552 1051 0 0 0] c1=[503 552 1052 0 0 0] c2=[503 552 1053 0 0 0] c3=[503 552 1050 0 0 0] markers=[] dma=[0 0 0]",
            ),
            (
                "spread burst",
                ClusterConfig::wolf(4),
                |a| load_burst(a, true),
                "cycles=556 c0=[506 555 0 0 0 0] c1=[506 555 0 0 0 0] c2=[506 555 0 0 0 0] c3=[506 555 0 0 0 0] markers=[] dma=[0 0 0]",
            ),
            (
                "conflicting burst, PULPv3",
                ClusterConfig::pulpv3(4),
                |a| load_burst(a, false),
                "cycles=1614 c0=[503 1050 557 0 0 0] c1=[503 1050 562 0 0 0] c2=[503 1050 563 0 0 0] c3=[503 1050 556 0 0 0] markers=[] dma=[0 0 0]",
            ),
            (
                "barrier",
                ClusterConfig::wolf(4),
                unequal_work_barrier,
                "cycles=3020 c0=[2005 3002 0 0 0 0] c1=[4 3 0 0 0 2999] c2=[4 3 0 0 0 2999] c3=[4 3 0 0 0 2999] markers=[] dma=[0 0 0]",
            ),
            (
                "barrier, PULPv3",
                ClusterConfig::pulpv3(4),
                unequal_work_barrier,
                "cycles=5119 c0=[2005 5000 0 0 0 0] c1=[4 5 0 0 0 4995] c2=[4 5 0 0 0 4995] c3=[4 5 0 0 0 4995] markers=[] dma=[0 0 0]",
            ),
            (
                "dma overlap",
                ClusterConfig::wolf(1),
                dma_behind_spin,
                "cycles=6017 c0=[4015 6016 0 0 0 0] markers=[] dma=[256 0 1]",
            ),
            (
                "dma overlap, four transfers",
                ClusterConfig::pulpv3(4),
                dma_behind_spin,
                "cycles=10018 c0=[4015 10014 0 0 0 0] c1=[4015 10014 1 0 0 0] c2=[4015 10014 2 0 0 0] c3=[4015 10014 3 0 0 0] markers=[] dma=[1024 0 4]",
            ),
            (
                "dma wait",
                ClusterConfig::wolf(1),
                dma_then_wait,
                "cycles=37 c0=[16 18 0 0 17 0] markers=[] dma=[16 0 1]",
            ),
            (
                "dma wait, four transfers",
                ClusterConfig::pulpv3(4),
                dma_then_wait,
                "cycles=100 c0=[16 19 0 0 19 0] c1=[16 19 1 0 38 0] c2=[16 19 2 0 57 0] c3=[16 19 3 0 76 0] markers=[] dma=[64 0 4]",
            ),
            (
                "software loop",
                ClusterConfig::wolf(1),
                sw_counted_loop,
                "cycles=501 c0=[402 500 0 0 0 0] markers=[] dma=[0 0 0]",
            ),
            (
                "hardware loop",
                ClusterConfig::wolf(1),
                hw_counted_loop,
                "cycles=203 c0=[203 202 0 0 0 0] markers=[] dma=[0 0 0]",
            ),
            (
                "nested hardware loops",
                ClusterConfig::wolf(2),
                nested_hw_loops,
                "cycles=53 c0=[53 52 0 0 0 0] c1=[53 52 0 0 0 0] markers=[] dma=[0 0 0]",
            ),
        ];
        for (name, cfg, build, expected) in cases {
            let (_, summary) = run(cfg, build);
            assert_eq!(fingerprint(&summary), expected, "{name}");
        }
    }

    #[test]
    fn unreached_extension_instruction_runs_clean() {
        // The `p.cnt` sits behind a branch that is never taken.
        let mut a = Assembler::new();
        a.li(T0, 0);
        a.bnez(T0, "ext");
        a.halt();
        a.label("ext");
        a.p_cnt(T1, T0);
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::pulpv3(1), a.finish().unwrap());
        let summary = cluster.run(1000).unwrap();
        assert_eq!(
            fingerprint(&summary),
            "cycles=3 c0=[3 2 0 0 0 0] markers=[] dma=[0 0 0]"
        );
    }

    #[test]
    fn reached_extension_instruction_faults_on_the_reaching_core() {
        // Only core 1 falls through to the `p.cnt`, at pc 3.
        let mut a = Assembler::new();
        a.coreid(T0);
        a.li(T2, 1);
        a.bne(T0, T2, "skip");
        a.p_cnt(T1, T0);
        a.label("skip");
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::pulpv3(4), a.finish().unwrap());
        assert_eq!(
            cluster.run(1000).unwrap_err(),
            SimError::IllegalInstruction {
                core: 1,
                pc: 3,
                inst: "p.cnt x6, x5".into(),
            }
        );
    }

    #[test]
    fn jump_past_the_end_faults_when_reached() {
        let mut a = Assembler::new();
        a.li(T0, 7);
        a.jalr(ZERO, T0);
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::wolf(2), a.finish().unwrap());
        assert_eq!(
            cluster.run(1000).unwrap_err(),
            SimError::PcOutOfRange { core: 0, pc: 7 }
        );
    }

    #[test]
    fn dma_descriptor_through_the_memory_hole_is_rejected() {
        // The middle repetition of the source falls between L1 and L2.
        let hole_stride = (L2_BASE - L1_BASE - 1024) / 2;
        let mut a = Assembler::new();
        a.li(T0, L1_BASE);
        let desc = [L1_BASE + 1024, L1_BASE + 2048, 4, hole_stride, 4, 3];
        for (i, field) in desc.into_iter().enumerate() {
            a.li(T1, field);
            a.sw(T1, T0, 4 * i as i32);
        }
        a.dma_start(T2, T0);
        a.dma_wait(T2);
        a.halt();
        let mut cluster = Cluster::new(ClusterConfig::wolf(1), a.finish().unwrap());
        assert_eq!(
            cluster.run(100_000).unwrap_err(),
            SimError::BadDmaDescriptor {
                core: 0,
                pc: 13,
                reason: DmaDescError::OutOfRange,
            }
        );
    }
}
