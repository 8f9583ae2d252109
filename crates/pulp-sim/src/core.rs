//! Single-core architectural state, the pre-decoded instruction table,
//! and instruction execution.
//!
//! A [`Core`] is an in-order, single-issue machine. Instruction *effects*
//! (register/memory updates) are applied immediately at execute time;
//! instruction *timing* is modelled by `ready_at` (the cycle at which the
//! next instruction may issue) plus explicit wait states for memory
//! arbitration, barriers, and DMA. Memory requests do not complete inside
//! [`Core::execute`] — they park the core in [`Status::MemWait`] with its
//! request decoded once into [`PendingMem`], and are granted by the
//! cluster's bank/port arbiter, which is where TCDM contention arises.
//!
//! Programs are decoded once per cluster into a flat [`Decoded`] table
//! ([`decode_program`]): one [`Op`] variant per ALU operation and
//! immediate form, the static issue cost and the ISA legality resolved
//! for the cluster's core configuration. An instruction the core cannot
//! execute becomes [`Op::Illegal`] and faults only when it is reached.

use crate::asm::Program;
use crate::config::ClusterConfig;
use crate::dma::DmaEngine;
use crate::isa::{AluOp, BranchCond, Inst, MemWidth, Reg};
use crate::mem::{bank_at, MemFault, MemSpace, Memory};
use crate::stats::CoreStats;
use crate::SimError;

/// `ready_at` of a core that is not `Running`: it never reaches issue.
pub(crate) const PARKED: u64 = u64::MAX;

/// A memory access awaiting a bank/port grant, decoded once at issue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PendingMem {
    /// The space and byte offset the access lands on, or the fault the
    /// arbiter reports when it reaches the request.
    pub target: Result<(MemSpace, usize), MemFault>,
    /// TCDM bank of an L1 target.
    pub bank: usize,
    pub width: MemWidth,
    /// `Some(value)` for stores, `None` for loads.
    pub store_value: Option<u32>,
    /// Destination register for loads.
    pub rd: Reg,
}

impl PendingMem {
    const NONE: Self = Self {
        target: Ok((MemSpace::L1, 0)),
        bank: 0,
        width: MemWidth::Word,
        store_value: None,
        rd: Reg::new(0),
    };
}

/// Execution status of a core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Status {
    /// Fetching/executing when `cycle >= ready_at`.
    Running,
    /// Waiting for a memory grant of [`Core::pending`].
    MemWait,
    /// Arrived at a barrier.
    BarrierWait,
    /// Waiting for a DMA transfer to complete.
    DmaWait(u32),
    /// Stopped.
    Halted,
}

#[derive(Debug, Clone, Copy, Default)]
struct HwLoop {
    start: u32,
    end: u32,
    remaining: u32,
}

/// Maximum hardware-loop nesting depth (RI5CY has two loop register sets).
const MAX_HW_LOOPS: usize = 2;

/// One simulated core.
#[derive(Debug, Clone)]
pub struct Core {
    id: usize,
    regs: [u32; 32],
    pc: u32,
    hw_loops: [HwLoop; MAX_HW_LOOPS],
    /// Active entries of `hw_loops` (innermost last).
    hw_depth: usize,
    pub(crate) status: Status,
    /// Next issue cycle while `Running`; [`PARKED`] otherwise.
    pub(crate) ready_at: u64,
    /// The request of a `MemWait` core.
    pub(crate) pending: PendingMem,
    /// Cycle at which a barrier or DMA wait began.
    pub(crate) wait_since: u64,
    pub(crate) stats: CoreStats,
}

impl Core {
    pub(crate) fn new(id: usize) -> Self {
        Self {
            id,
            regs: [0; 32],
            pc: 0,
            hw_loops: [HwLoop::default(); MAX_HW_LOOPS],
            hw_depth: 0,
            status: Status::Running,
            ready_at: 0,
            pending: PendingMem::NONE,
            wait_since: 0,
            stats: CoreStats::default(),
        }
    }

    /// Core id within the cluster.
    #[must_use]
    pub fn id(&self) -> usize {
        self.id
    }

    /// Current program counter (instruction index).
    #[must_use]
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Reads an architectural register.
    #[must_use]
    pub fn reg(&self, r: Reg) -> u32 {
        // `Reg` is always below 32; the mask lets the compiler drop the
        // bounds check.
        self.regs[r.index() as usize & 31]
    }

    pub(crate) fn set_reg(&mut self, r: Reg, value: u32) {
        // Branch-free: a write to `x0` is undone at once.
        self.regs[r.index() as usize & 31] = value;
        self.regs[0] = 0;
    }

    pub(crate) fn reset(&mut self) {
        *self = Self::new(self.id);
    }

    /// Applies hardware-loop back-edges after executing the instruction at
    /// `executed`, given the sequentially computed `next_pc`.
    fn apply_hw_loop(&mut self, executed: u32, next_pc: u32) -> u32 {
        if self.hw_depth > 0 {
            let top = &mut self.hw_loops[self.hw_depth - 1];
            if executed == top.end {
                if top.remaining > 1 {
                    top.remaining -= 1;
                    return top.start;
                }
                self.hw_depth -= 1;
            }
        }
        next_pc
    }

    /// Parks the core on access `m` to `addr`.
    fn request(&mut self, ctx: &ExecCtx<'_>, m: MemOp, addr: u32) {
        let target = ctx.mem.decode(addr, m.width);
        let bank = match target {
            Ok((MemSpace::L1, off)) => bank_at(off, ctx.cfg.tcdm_banks),
            _ => 0,
        };
        self.pending = PendingMem {
            target,
            bank,
            width: m.width,
            store_value: m.store.then(|| self.reg(m.data)),
            rd: m.data,
        };
        self.park(Status::MemWait);
    }

    /// `rd = f(rs1, rs2)`.
    #[inline(always)]
    fn rr(&mut self, r: Rrr, f: impl Fn(u32, u32) -> u32) {
        self.set_reg(r.rd, f(self.reg(r.rs1), self.reg(r.rs2)));
    }

    /// `rd = f(rs1, imm)`.
    #[inline(always)]
    fn ri(&mut self, i: Rri, f: impl Fn(u32, u32) -> u32) {
        self.set_reg(i.rd, f(self.reg(i.rs1), i.imm));
    }

    /// The target of branch `b` if `cond` holds of its operands.
    #[inline(always)]
    fn branch(&self, b: Br, cond: impl Fn(u32, u32) -> bool) -> Option<u32> {
        cond(self.reg(b.rs1), self.reg(b.rs2)).then_some(b.target)
    }

    fn park(&mut self, status: Status) {
        self.status = status;
        self.ready_at = PARKED;
    }

    /// Executes the instruction at `pc`. Timing is encoded by advancing
    /// `ready_at` and/or parking the core in a wait status.
    #[inline(always)]
    pub(crate) fn execute(&mut self, ctx: &mut ExecCtx<'_>) -> Result<(), SimError> {
        let pc = self.pc;
        let Some(&Decoded { op, cost }) = ctx.ops.get(pc as usize) else {
            return Err(SimError::PcOutOfRange { core: self.id, pc });
        };

        self.stats.retired += 1;
        let mut next_pc = pc + 1;
        let mut taken = None;

        match op {
            Op::Add(r) => self.rr(r, u32::wrapping_add),
            Op::Sub(r) => self.rr(r, u32::wrapping_sub),
            Op::And(r) => self.rr(r, |a, b| a & b),
            Op::Or(r) => self.rr(r, |a, b| a | b),
            Op::Xor(r) => self.rr(r, |a, b| a ^ b),
            Op::Sll(r) => self.rr(r, sll),
            Op::Srl(r) => self.rr(r, srl),
            Op::Sra(r) => self.rr(r, sra),
            Op::Slt(r) => self.rr(r, slt),
            Op::Sltu(r) => self.rr(r, sltu),
            Op::Mul(r) => self.rr(r, u32::wrapping_mul),
            Op::Mulhu(r) => self.rr(r, mulhu),
            Op::Addi(i) => self.ri(i, u32::wrapping_add),
            Op::Andi(i) => self.ri(i, |a, b| a & b),
            Op::Ori(i) => self.ri(i, |a, b| a | b),
            Op::Xori(i) => self.ri(i, |a, b| a ^ b),
            Op::Slli(i) => self.ri(i, sll),
            Op::Srli(i) => self.ri(i, srl),
            Op::Srai(i) => self.ri(i, sra),
            Op::Slti(i) => self.ri(i, slt),
            Op::Sltiu(i) => self.ri(i, sltu),
            Op::Muli(i) => self.ri(i, u32::wrapping_mul),
            Op::Mulhui(i) => self.ri(i, mulhu),
            Op::Li { rd, imm } => self.set_reg(rd, imm),
            Op::CoreId { rd } => self.set_reg(rd, self.id as u32),
            Op::Access(m) => {
                self.request(ctx, m, self.reg(m.base).wrapping_add(m.imm));
                // A plain access takes no hardware-loop back-edge.
                self.pc = next_pc;
                return Ok(());
            }
            Op::AccessPost(m) => {
                let addr = self.reg(m.base);
                self.request(ctx, m, addr);
                self.set_reg(m.base, addr.wrapping_add(m.imm));
                self.pc = self.apply_hw_loop(pc, next_pc);
                return Ok(());
            }
            Op::Beq(b) => taken = self.branch(b, |x, y| x == y),
            Op::Bne(b) => taken = self.branch(b, |x, y| x != y),
            Op::Blt(b) => taken = self.branch(b, |x, y| (x as i32) < (y as i32)),
            Op::Bge(b) => taken = self.branch(b, |x, y| (x as i32) >= (y as i32)),
            Op::Bltu(b) => taken = self.branch(b, |x, y| x < y),
            Op::Bgeu(b) => taken = self.branch(b, |x, y| x >= y),
            Op::Jal { rd, target } => {
                self.set_reg(rd, pc + 1);
                next_pc = target;
            }
            Op::Jalr { rd, rs1 } => {
                next_pc = self.reg(rs1);
                self.set_reg(rd, pc + 1);
            }
            Op::PCnt { rd, rs1 } => self.set_reg(rd, self.reg(rs1).count_ones()),
            Op::PExtractU(f) => self.set_reg(f.rd, (self.reg(f.rs1) >> f.pos) & f.mask),
            Op::PInsert(f) => {
                let field = (self.reg(f.rs1) & f.mask) << f.pos;
                let kept = self.reg(f.rd) & !(f.mask << f.pos);
                self.set_reg(f.rd, kept | field);
            }
            Op::LpSetup(count, start, end) => {
                let remaining = self.reg(count);
                if remaining == 0 {
                    next_pc = end + 1;
                } else {
                    if self.hw_depth >= MAX_HW_LOOPS {
                        return Err(SimError::HwLoopOverflow { core: self.id, pc });
                    }
                    self.hw_loops[self.hw_depth] = HwLoop {
                        start,
                        end,
                        remaining,
                    };
                    self.hw_depth += 1;
                }
            }
            Op::Barrier => {
                self.park(Status::BarrierWait);
                self.wait_since = ctx.cycle;
                self.pc = next_pc;
                return Ok(());
            }
            Op::Nop => {}
            Op::DmaStart { rd, desc } => {
                let id = ctx
                    .dma
                    .start_from_descriptor(ctx.mem, self.reg(desc))
                    .map_err(|reason| SimError::BadDmaDescriptor {
                        core: self.id,
                        pc,
                        reason,
                    })?;
                self.set_reg(rd, id);
            }
            Op::DmaWait { rs1 } => {
                let id = self.reg(rs1);
                if !ctx.dma.id_exists(id) {
                    return Err(SimError::UnknownDmaId {
                        core: self.id,
                        pc,
                        id,
                    });
                }
                if !ctx.dma.is_complete(id) {
                    self.park(Status::DmaWait(id));
                    self.wait_since = ctx.cycle;
                    self.pc = next_pc;
                    return Ok(());
                }
            }
            Op::Marker { id } => {
                if self.id == 0 {
                    ctx.markers.push((id, ctx.cycle));
                }
            }
            Op::Halt => {
                self.park(Status::Halted);
                return Ok(());
            }
            Op::Illegal => {
                return Err(SimError::IllegalInstruction {
                    core: self.id,
                    pc,
                    inst: ctx.program.insts()[pc as usize].to_string(),
                });
            }
        }

        let cost = match taken {
            Some(target) => {
                next_pc = target;
                ctx.taken_cycles
            }
            None => cost,
        };
        self.stats.busy += u64::from(cost);
        self.ready_at = ctx.cycle + u64::from(cost);
        self.pc = self.apply_hw_loop(pc, next_pc);
        Ok(())
    }
}

fn sll(a: u32, b: u32) -> u32 {
    a << (b & 31)
}

fn srl(a: u32, b: u32) -> u32 {
    a >> (b & 31)
}

fn sra(a: u32, b: u32) -> u32 {
    ((a as i32) >> (b & 31)) as u32
}

fn slt(a: u32, b: u32) -> u32 {
    u32::from((a as i32) < (b as i32))
}

fn sltu(a: u32, b: u32) -> u32 {
    u32::from(a < b)
}

fn mulhu(a: u32, b: u32) -> u32 {
    ((u64::from(a) * u64::from(b)) >> 32) as u32
}

/// Everything [`Core::execute`] needs from the cluster.
pub(crate) struct ExecCtx<'a> {
    pub cfg: &'a ClusterConfig,
    pub ops: &'a [Decoded],
    /// The source of `ops`, for the disassembly of a faulting instruction.
    pub program: &'a Program,
    /// Issue cost of a taken branch.
    pub taken_cycles: u32,
    pub cycle: u64,
    pub dma: &'a mut DmaEngine,
    pub mem: &'a Memory,
    pub markers: &'a mut Vec<(u32, u64)>,
}

/// Operands of a register–register operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rrr {
    rd: Reg,
    rs1: Reg,
    rs2: Reg,
}

/// Operands of a register–immediate operation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rri {
    rd: Reg,
    rs1: Reg,
    imm: u32,
}

/// Operands of a conditional branch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Br {
    rs1: Reg,
    rs2: Reg,
    target: u32,
}

/// A load or store.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MemOp {
    width: MemWidth,
    store: bool,
    /// Destination of a load, source of a store.
    data: Reg,
    base: Reg,
    /// Offset, or post-increment.
    imm: u32,
}

/// Operands of `p.extractu` / `p.insert`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Field {
    rd: Reg,
    rs1: Reg,
    pos: u8,
    /// The low `len` bits.
    mask: u32,
}

/// One instruction resolved for a core configuration.
///
/// Immediates are pre-cast, `numcores` and `li` are constant loads,
/// `fork` is a costed no-op, and an instruction needing an absent ISA
/// extension is [`Op::Illegal`].
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    Add(Rrr),
    Sub(Rrr),
    And(Rrr),
    Or(Rrr),
    Xor(Rrr),
    Sll(Rrr),
    Srl(Rrr),
    Sra(Rrr),
    Slt(Rrr),
    Sltu(Rrr),
    Mul(Rrr),
    Mulhu(Rrr),
    Addi(Rri),
    Andi(Rri),
    Ori(Rri),
    Xori(Rri),
    Slli(Rri),
    Srli(Rri),
    Srai(Rri),
    Slti(Rri),
    Sltiu(Rri),
    Muli(Rri),
    Mulhui(Rri),
    Li {
        rd: Reg,
        imm: u32,
    },
    CoreId {
        rd: Reg,
    },
    /// Access at `base + offset`.
    Access(MemOp),
    /// Access at `base`, then `base += inc`.
    AccessPost(MemOp),
    Beq(Br),
    Bne(Br),
    Blt(Br),
    Bge(Br),
    Bltu(Br),
    Bgeu(Br),
    Jal {
        rd: Reg,
        target: u32,
    },
    Jalr {
        rd: Reg,
        rs1: Reg,
    },
    PCnt {
        rd: Reg,
        rs1: Reg,
    },
    PExtractU(Field),
    PInsert(Field),
    /// Count register, first and last body instruction.
    LpSetup(Reg, u32, u32),
    Barrier,
    Nop,
    DmaStart {
        rd: Reg,
        desc: Reg,
    },
    DmaWait {
        rs1: Reg,
    },
    Marker {
        id: u32,
    },
    Halt,
    Illegal,
}

/// A pre-decoded instruction and its issue cost (not-taken cost for
/// branches).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Decoded {
    pub op: Op,
    pub cost: u32,
}

/// Decodes `program` for the cores of `cfg`.
pub(crate) fn decode_program(program: &Program, cfg: &ClusterConfig) -> Vec<Decoded> {
    program
        .insts()
        .iter()
        .map(|inst| decode(inst, cfg))
        .collect()
}

fn decode(inst: &Inst, cfg: &ClusterConfig) -> Decoded {
    let cc = &cfg.core;
    if (inst.needs_bitmanip() && !cc.has_bitmanip)
        || (inst.needs_post_increment() && !cc.has_post_increment)
        || (inst.needs_hw_loops() && !cc.has_hw_loops)
    {
        return Decoded {
            op: Op::Illegal,
            cost: 0,
        };
    }
    let mem = |width, store, data, base, imm: i32| MemOp {
        width,
        store,
        data,
        base,
        imm: imm as u32,
    };
    let (op, cost) = match *inst {
        Inst::Alu { op, rd, rs1, rs2 } => {
            let r = Rrr { rd, rs1, rs2 };
            let cost = match op {
                AluOp::Mul | AluOp::Mulhu => cc.mul_cycles,
                _ => cc.alu_cycles,
            };
            let op = match op {
                AluOp::Add => Op::Add(r),
                AluOp::Sub => Op::Sub(r),
                AluOp::And => Op::And(r),
                AluOp::Or => Op::Or(r),
                AluOp::Xor => Op::Xor(r),
                AluOp::Sll => Op::Sll(r),
                AluOp::Srl => Op::Srl(r),
                AluOp::Sra => Op::Sra(r),
                AluOp::Slt => Op::Slt(r),
                AluOp::Sltu => Op::Sltu(r),
                AluOp::Mul => Op::Mul(r),
                AluOp::Mulhu => Op::Mulhu(r),
            };
            (op, cost)
        }
        Inst::AluImm { op, rd, rs1, imm } => {
            let i = Rri {
                rd,
                rs1,
                imm: imm as u32,
            };
            let op = match op {
                AluOp::Add => Op::Addi(i),
                // `a - imm` is `a + (-imm)` in wrapping arithmetic.
                AluOp::Sub => Op::Addi(Rri {
                    imm: i.imm.wrapping_neg(),
                    ..i
                }),
                AluOp::And => Op::Andi(i),
                AluOp::Or => Op::Ori(i),
                AluOp::Xor => Op::Xori(i),
                AluOp::Sll => Op::Slli(i),
                AluOp::Srl => Op::Srli(i),
                AluOp::Sra => Op::Srai(i),
                AluOp::Slt => Op::Slti(i),
                AluOp::Sltu => Op::Sltiu(i),
                AluOp::Mul => Op::Muli(i),
                AluOp::Mulhu => Op::Mulhui(i),
            };
            (op, cc.alu_cycles)
        }
        Inst::Li { rd, imm } => {
            let short = (-2048..2048).contains(&(imm as i32));
            let cost = if short {
                cc.alu_cycles
            } else {
                cc.li_long_cycles
            };
            (Op::Li { rd, imm }, cost)
        }
        Inst::Load {
            width,
            rd,
            base,
            offset,
        } => (Op::Access(mem(width, false, rd, base, offset)), 0),
        Inst::Store {
            width,
            src,
            base,
            offset,
        } => (Op::Access(mem(width, true, src, base, offset)), 0),
        Inst::LoadPost {
            width,
            rd,
            base,
            inc,
        } => (Op::AccessPost(mem(width, false, rd, base, inc)), 0),
        Inst::StorePost {
            width,
            src,
            base,
            inc,
        } => (Op::AccessPost(mem(width, true, src, base, inc)), 0),
        Inst::Branch {
            cond,
            rs1,
            rs2,
            target,
        } => {
            let b = Br { rs1, rs2, target };
            let op = match cond {
                BranchCond::Eq => Op::Beq(b),
                BranchCond::Ne => Op::Bne(b),
                BranchCond::Lt => Op::Blt(b),
                BranchCond::Ge => Op::Bge(b),
                BranchCond::Ltu => Op::Bltu(b),
                BranchCond::Geu => Op::Bgeu(b),
            };
            (op, cc.branch_not_taken_cycles)
        }
        Inst::Jal { rd, target } => (Op::Jal { rd, target }, cc.jump_cycles),
        Inst::Jalr { rd, rs1 } => (Op::Jalr { rd, rs1 }, cc.jump_cycles),
        Inst::PCnt { rd, rs1 } => (Op::PCnt { rd, rs1 }, cc.bitmanip_cycles),
        Inst::PExtractU { rd, rs1, len, pos } => {
            let mask = field_mask(len);
            (
                Op::PExtractU(Field { rd, rs1, pos, mask }),
                cc.bitmanip_cycles,
            )
        }
        Inst::PInsert { rd, rs1, len, pos } => {
            let mask = field_mask(len);
            (
                Op::PInsert(Field { rd, rs1, pos, mask }),
                cc.bitmanip_cycles,
            )
        }
        Inst::LpSetup {
            count,
            body_start,
            body_end,
        } => (Op::LpSetup(count, body_start, body_end), cc.alu_cycles),
        Inst::CoreId { rd } => (Op::CoreId { rd }, cc.alu_cycles),
        Inst::NumCores { rd } => {
            let imm = cfg.n_cores as u32;
            (Op::Li { rd, imm }, cc.alu_cycles)
        }
        Inst::Barrier => (Op::Barrier, 0),
        Inst::Fork => (Op::Nop, cfg.sync.fork_cycles(cfg.n_cores)),
        // Queue push is cheap; descriptor processing cost is modelled
        // inside the engine (startup cycles before data moves).
        Inst::DmaStart { rd, desc } => (Op::DmaStart { rd, desc }, cc.alu_cycles),
        Inst::DmaWait { rs1 } => (Op::DmaWait { rs1 }, cc.alu_cycles),
        Inst::Marker { id } => (Op::Marker { id }, cc.alu_cycles),
        Inst::Halt => (Op::Halt, 0),
    };
    Decoded {
        op,
        cost: cost.max(1),
    }
}

/// Mask of the low `len` bits (all bits from 32 up).
fn field_mask(len: u8) -> u32 {
    if len >= 32 {
        u32::MAX
    } else {
        (1u32 << len) - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Assembler;
    use crate::isa::regs::*;

    /// Runs `ops` (decoded from `program`, possibly patched) on one
    /// core of `cfg` until it parks, and returns the core.
    fn run_ops(cfg: &ClusterConfig, program: &Program, ops: &[Decoded]) -> Core {
        let mut dma = DmaEngine::new(cfg.dma_words_per_cycle, cfg.dma_startup_cycles);
        let mem = Memory::new(cfg.l1_size, cfg.l2_size);
        let mut markers = Vec::new();
        let mut core = Core::new(0);
        while core.status == Status::Running {
            let mut ctx = ExecCtx {
                cfg,
                ops,
                program,
                taken_cycles: cfg.core.branch_taken_cycles,
                cycle: core.ready_at,
                dma: &mut dma,
                mem: &mem,
                markers: &mut markers,
            };
            core.execute(&mut ctx).unwrap();
        }
        core
    }

    /// Runs `build`'s straight-line program, then `halt`, on one core.
    fn exec(cfg: ClusterConfig, build: impl FnOnce(&mut Assembler)) -> Core {
        let mut a = Assembler::new();
        build(&mut a);
        a.halt();
        let program = a.finish().unwrap();
        run_ops(&cfg, &program, &decode_program(&program, &cfg))
    }

    #[test]
    fn alu_semantics() {
        let core = exec(ClusterConfig::wolf(1), |a| {
            a.li(T0, 3);
            a.li(T1, u32::MAX);
            a.add(S0, T0, T1);
            a.sub(S1, T0, T1);
            a.li(T2, 35);
            a.li(T3, 1);
            a.sll(S2, T3, T2);
            a.li(T4, 0x8000_0000);
            a.li(T5, 31);
            a.sra(S3, T4, T5);
            a.srl(S4, T4, T5);
            a.slt(S5, T1, ZERO);
            a.sltu(S6, T1, ZERO);
            a.li(T6, 0x1_0001);
            a.mul(S7, T6, T6);
            a.li(A0, 4);
            a.mulhu(S8, T4, A0);
            a.li(A1, 0b1100);
            a.xori(S9, A1, 0b1010);
            a.slli(S10, T3, 35);
            a.srai(S11, T4, 31);
        });
        assert_eq!(core.reg(S0), 2);
        assert_eq!(core.reg(S1), 4, "3 - u32::MAX wraps");
        assert_eq!(core.reg(S2), 8, "shift amount is masked to 5 bits");
        assert_eq!(core.reg(S3), u32::MAX);
        assert_eq!(core.reg(S4), 1);
        assert_eq!(core.reg(S5), 1, "-1 < 0 signed");
        assert_eq!(core.reg(S6), 0, "max > 0 unsigned");
        assert_eq!(
            core.reg(S7),
            0x0002_0001,
            "low 32 bits of the 33-bit product"
        );
        assert_eq!(core.reg(S8), 2);
        assert_eq!(core.reg(S9), 0b0110);
        assert_eq!(core.reg(S10), 8, "immediate shift is masked to 5 bits");
        assert_eq!(core.reg(S11), u32::MAX);
    }

    #[test]
    fn immediate_forms_of_register_only_ops_execute_faithfully() {
        // The assembler emits no `subi`/`muli`/`mulhui`; patch them in.
        let cfg = ClusterConfig::wolf(1);
        let mut a = Assembler::new();
        a.li(T1, 10);
        for _ in 0..4 {
            a.nop();
        }
        a.halt();
        let program = a.finish().unwrap();
        let mut ops = decode_program(&program, &cfg);
        let cases = [
            (AluOp::Sub, 3, S0),
            (AluOp::Sub, -3, S1),
            (AluOp::Mul, 3, S2),
            (AluOp::Mulhu, -1, S3),
        ];
        for (slot, (op, imm, rd)) in cases.into_iter().enumerate() {
            let inst = Inst::AluImm {
                op,
                rd,
                rs1: T1,
                imm,
            };
            ops[1 + slot] = decode(&inst, &cfg);
        }
        let core = run_ops(&cfg, &program, &ops);
        assert_eq!(core.reg(S0), 7);
        assert_eq!(core.reg(S1), 13);
        assert_eq!(core.reg(S2), 30);
        assert_eq!(core.reg(S3), 9, "high word of 10 * (2^32 - 1)");
    }

    #[test]
    fn costs_resolve_for_the_core_configuration() {
        let li = |imm| Inst::Li { rd: T0, imm };
        let p3 = ClusterConfig::pulpv3(4);
        assert_eq!(decode(&li(2047), &p3).cost, p3.core.alu_cycles);
        assert_eq!(decode(&li(2048), &p3).cost, p3.core.li_long_cycles);
        assert_eq!(decode(&li(-2048i32 as u32), &p3).cost, p3.core.alu_cycles);
        assert_eq!(
            decode(&Inst::Fork, &p3).cost,
            p3.sync.fork_cycles(p3.n_cores)
        );
        assert_eq!(decode(&Inst::Fork, &ClusterConfig::pulpv3(1)).cost, 1);
        assert!(matches!(
            decode(&Inst::PCnt { rd: T0, rs1: T1 }, &p3).op,
            Op::Illegal
        ));
        assert!(matches!(
            decode(&Inst::PCnt { rd: T0, rs1: T1 }, &ClusterConfig::wolf(1)).op,
            Op::PCnt { .. }
        ));
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let mut core = Core::new(0);
        core.set_reg(crate::isa::regs::ZERO, 42);
        assert_eq!(core.reg(crate::isa::regs::ZERO), 0);
    }

    #[test]
    fn reset_clears_state() {
        let mut core = Core::new(1);
        core.set_reg(crate::isa::regs::T0, 42);
        core.pc = 17;
        core.status = Status::Halted;
        core.reset();
        assert_eq!(core.reg(crate::isa::regs::T0), 0);
        assert_eq!(core.pc(), 0);
        assert_eq!(core.status, Status::Running);
        assert_eq!(core.id(), 1);
    }
}
