//! The cluster DMA engine.
//!
//! Models PULP's lightweight `mchan`-style DMA: cores enqueue transfers by
//! pointing the engine at a six-word descriptor in L1, transfers are
//! processed in order at a configurable word throughput (two words per
//! cycle ≙ the 64-bit AXI port of the paper), and the L1 side of every
//! word contends for TCDM banks *with lower priority than the cores*, so
//! double-buffered streaming steals only otherwise-idle bank slots.
//!
//! Descriptor layout (word offsets):
//!
//! | # | field        | meaning                                   |
//! |---|--------------|-------------------------------------------|
//! | 0 | `src`        | source byte address (word aligned)        |
//! | 1 | `dst`        | destination byte address (word aligned)   |
//! | 2 | `bytes`      | bytes per repetition (multiple of 4, > 0) |
//! | 3 | `src_stride` | source stride between repetitions         |
//! | 4 | `dst_stride` | destination stride between repetitions    |
//! | 5 | `reps`       | repetition count (1 ⇒ plain 1-D copy)     |
//!
//! A 2-D transfer (`reps > 1`) is how the kernels stream *rows* of the
//! CIM/IM/AM matrices that are not contiguous in L2.

use core::fmt;

use crate::isa::MemWidth;
use crate::mem::{bank_at, MemSpace, Memory};

/// Why a DMA descriptor was rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DmaDescError {
    /// Descriptor address was not word-aligned or not readable.
    DescriptorUnreadable,
    /// `bytes` is zero or not a multiple of 4.
    BadLength,
    /// `src`/`dst` not word-aligned.
    Misaligned,
    /// `reps` is zero.
    ZeroReps,
    /// Some part of the transfer falls outside mapped memory, or one
    /// side spans both memories.
    OutOfRange,
}

impl fmt::Display for DmaDescError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let text = match self {
            Self::DescriptorUnreadable => "descriptor not readable",
            Self::BadLength => "length must be a positive multiple of 4",
            Self::Misaligned => "source/destination must be word aligned",
            Self::ZeroReps => "repetition count must be positive",
            Self::OutOfRange => "transfer exceeds mapped memory",
        };
        f.write_str(text)
    }
}

impl std::error::Error for DmaDescError {}

#[derive(Debug, Clone, Copy)]
struct Transfer {
    id: u32,
    /// Space and byte offset of the first source / destination word.
    src: (MemSpace, usize),
    dst: (MemSpace, usize),
    bytes: u32,
    src_stride: u32,
    dst_stride: u32,
    reps: u32,
    /// Progress: current repetition and byte offset within it.
    rep: u32,
    offset: u32,
    /// Descriptor-processing cycles remaining before data moves.
    startup_left: u32,
}

/// Aggregate DMA statistics for a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DmaStats {
    /// Total 32-bit words moved.
    pub words_moved: u64,
    /// Word-move opportunities lost to TCDM bank conflicts with cores.
    pub bank_conflict_stalls: u64,
    /// Transfers completed.
    pub transfers: u64,
}

/// The DMA engine.
#[derive(Debug, Clone, Default)]
pub struct DmaEngine {
    queue: std::collections::VecDeque<Transfer>,
    completed: Vec<bool>,
    words_per_cycle: u32,
    startup_cycles: u32,
    /// Statistics for the current run.
    pub(crate) stats: DmaStats,
}

impl DmaEngine {
    pub(crate) fn new(words_per_cycle: u32, startup_cycles: u32) -> Self {
        Self {
            queue: std::collections::VecDeque::new(),
            completed: Vec::new(),
            words_per_cycle,
            startup_cycles,
            stats: DmaStats::default(),
        }
    }

    pub(crate) fn reset(&mut self) {
        self.queue.clear();
        self.completed.clear();
        self.stats = DmaStats::default();
    }

    /// Whether `id` was ever issued.
    #[must_use]
    pub fn id_exists(&self, id: u32) -> bool {
        (id as usize) < self.completed.len()
    }

    /// Whether transfer `id` has completed.
    #[must_use]
    pub fn is_complete(&self, id: u32) -> bool {
        self.completed.get(id as usize).copied().unwrap_or(false)
    }

    /// Whether no transfer is in flight.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Statistics of the current run.
    #[must_use]
    pub fn stats(&self) -> DmaStats {
        self.stats
    }

    /// Enqueues the transfer described at `desc_addr`; returns its id.
    pub(crate) fn start_from_descriptor(
        &mut self,
        mem: &Memory,
        desc_addr: u32,
    ) -> Result<u32, DmaDescError> {
        let mut fields = [0u32; 6];
        for (i, f) in fields.iter_mut().enumerate() {
            *f = mem
                .read(desc_addr + 4 * i as u32, MemWidth::Word)
                .map_err(|_| DmaDescError::DescriptorUnreadable)?;
        }
        let [src, dst, bytes, src_stride, dst_stride, reps] = fields;
        if bytes == 0 || bytes % 4 != 0 {
            return Err(DmaDescError::BadLength);
        }
        if src % 4 != 0 || dst % 4 != 0 || src_stride % 4 != 0 || dst_stride % 4 != 0 {
            return Err(DmaDescError::Misaligned);
        }
        if reps == 0 {
            return Err(DmaDescError::ZeroReps);
        }
        // Validate every word up front so the engine cannot fault
        // mid-flight: unsigned strides only move forward, so a side whose
        // first and last bytes lie in one mapped memory has every word
        // there.
        let side = |start: u32, stride: u32| {
            let first = u64::from(start);
            let last = first + u64::from(reps - 1) * u64::from(stride) + u64::from(bytes) - 1;
            mem.span(first, last).ok_or(DmaDescError::OutOfRange)
        };
        let (src, dst) = (side(src, src_stride)?, side(dst, dst_stride)?);

        let id = self.completed.len() as u32;
        self.completed.push(false);
        self.queue.push_back(Transfer {
            id,
            src,
            dst,
            bytes,
            src_stride,
            dst_stride,
            reps,
            rep: 0,
            offset: 0,
            startup_left: self.startup_cycles,
        });
        Ok(id)
    }

    /// Advances the engine by one cycle and returns the id of the
    /// transfer that completed in it, if any. `bank_busy[b]` marks TCDM
    /// banks already claimed by cores this cycle; the engine claims
    /// further banks for the words it moves (cores have priority — the
    /// engine only takes free banks).
    pub(crate) fn step(&mut self, mem: &mut Memory, bank_busy: &mut [bool]) -> Option<u32> {
        let head = self.queue.front_mut()?;
        if head.startup_left > 0 {
            head.startup_left -= 1;
            return None;
        }
        let n_banks = bank_busy.len();
        let bank = |(space, off)| (space == MemSpace::L1).then(|| bank_at(off, n_banks));
        for _ in 0..self.words_per_cycle {
            let (rep, offset) = (head.rep as usize, head.offset as usize);
            let src = (
                head.src.0,
                head.src.1 + rep * head.src_stride as usize + offset,
            );
            let dst = (
                head.dst.0,
                head.dst.1 + rep * head.dst_stride as usize + offset,
            );

            // The L1 side(s) of this word must win a free bank.
            let needed = [bank(src), bank(dst)];
            if needed.iter().flatten().any(|&b| bank_busy[b]) {
                self.stats.bank_conflict_stalls += 1;
                break; // in-order within the transfer
            }
            for &b in needed.iter().flatten() {
                bank_busy[b] = true;
            }

            let word = mem.read_at(src.0, src.1, MemWidth::Word);
            mem.write_at(dst.0, dst.1, MemWidth::Word, word);
            self.stats.words_moved += 1;

            head.offset += 4;
            if head.offset >= head.bytes {
                head.offset = 0;
                head.rep += 1;
                if head.rep >= head.reps {
                    let id = head.id;
                    self.completed[id as usize] = true;
                    self.stats.transfers += 1;
                    self.queue.pop_front();
                    return Some(id); // next transfer starts next cycle
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mem::{L1_BASE, L2_BASE};

    fn engine_and_mem() -> (DmaEngine, Memory) {
        (DmaEngine::new(2, 0), Memory::new(4096, 4096))
    }

    fn write_desc(mem: &mut Memory, at: u32, fields: [u32; 6]) {
        mem.write_words(at, &fields).unwrap();
    }

    fn run_to_idle(dma: &mut DmaEngine, mem: &mut Memory, banks: usize) -> u32 {
        let mut cycles = 0;
        while !dma.is_idle() {
            let mut busy = vec![false; banks];
            dma.step(mem, &mut busy);
            cycles += 1;
            assert!(cycles < 100_000, "dma did not finish");
        }
        cycles
    }

    #[test]
    fn one_dimensional_copy_l2_to_l1() {
        let (mut dma, mut mem) = engine_and_mem();
        let data: Vec<u32> = (0..32).map(|i| i * 7 + 1).collect();
        mem.write_words(L2_BASE + 256, &data).unwrap();
        write_desc(
            &mut mem,
            L1_BASE,
            [L2_BASE + 256, L1_BASE + 512, 128, 0, 0, 1],
        );
        let id = dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        assert!(!dma.is_complete(id));
        run_to_idle(&mut dma, &mut mem, 8);
        assert!(dma.is_complete(id));
        assert_eq!(mem.read_words(L1_BASE + 512, 32).unwrap(), data);
    }

    #[test]
    fn throughput_is_words_per_cycle() {
        let (mut dma, mut mem) = engine_and_mem();
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 512, 128, 0, 0, 1]);
        dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        // 32 words at 2 words/cycle = 16 cycles (startup 0).
        let cycles = run_to_idle(&mut dma, &mut mem, 8);
        assert_eq!(cycles, 16);
    }

    #[test]
    fn startup_cycles_delay_data_movement() {
        let mut dma = DmaEngine::new(2, 10);
        let mut mem = Memory::new(4096, 4096);
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 512, 8, 0, 0, 1]);
        dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        let cycles = run_to_idle(&mut dma, &mut mem, 8);
        assert_eq!(cycles, 10 + 1, "10 startup + 1 data cycle");
    }

    #[test]
    fn two_dimensional_strided_gather() {
        // Copy column words: 4 reps of 8 bytes, source stride 64.
        let (mut dma, mut mem) = engine_and_mem();
        for rep in 0..4u32 {
            mem.write_words(L2_BASE + rep * 64, &[rep * 10, rep * 10 + 1])
                .unwrap();
        }
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 256, 8, 64, 8, 4]);
        let id = dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        run_to_idle(&mut dma, &mut mem, 8);
        assert!(dma.is_complete(id));
        assert_eq!(
            mem.read_words(L1_BASE + 256, 8).unwrap(),
            vec![0, 1, 10, 11, 20, 21, 30, 31]
        );
    }

    #[test]
    fn cores_have_bank_priority() {
        let (mut dma, mut mem) = engine_and_mem();
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 512, 16, 0, 0, 1]);
        dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        // Claim every bank each cycle: DMA can never move a word.
        for _ in 0..20 {
            let mut busy = vec![true; 8];
            dma.step(&mut mem, &mut busy);
        }
        assert!(!dma.is_idle());
        assert!(dma.stats().bank_conflict_stalls > 0);
        // Release the banks: transfer finishes.
        run_to_idle(&mut dma, &mut mem, 8);
    }

    #[test]
    fn transfers_process_in_order() {
        let (mut dma, mut mem) = engine_and_mem();
        mem.write_words(L2_BASE, &[111]).unwrap();
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 512, 4, 0, 0, 1]);
        write_desc(
            &mut mem,
            L1_BASE + 64,
            [L1_BASE + 512, L1_BASE + 600, 4, 0, 0, 1],
        );
        let a = dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        let b = dma.start_from_descriptor(&mem, L1_BASE + 64).unwrap();
        run_to_idle(&mut dma, &mut mem, 8);
        assert!(dma.is_complete(a) && dma.is_complete(b));
        // Second transfer must have observed the first one's result.
        assert_eq!(mem.read(L1_BASE + 600, MemWidth::Word).unwrap(), 111);
    }

    #[test]
    fn descriptor_validation() {
        let (mut dma, mut mem) = engine_and_mem();
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE, 6, 0, 0, 1]);
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::BadLength
        );
        write_desc(&mut mem, L1_BASE, [L2_BASE + 2, L1_BASE, 8, 0, 0, 1]);
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::Misaligned
        );
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE, 8, 0, 0, 0]);
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::ZeroReps
        );
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 4090, 8, 0, 0, 1]);
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::Misaligned
        );
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 4096, 8, 0, 0, 1]);
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::OutOfRange
        );
    }

    #[test]
    fn every_repetition_is_validated_not_only_the_last() {
        // Wolf-sized memories: the middle repetition of the source lands
        // in the unmapped hole between L1 and L2, the last one in L2.
        let mut dma = DmaEngine::new(2, 0);
        let mut mem = Memory::new(64 * 1024, 512 * 1024);
        let hole_stride = (L2_BASE - L1_BASE - 1024) / 2;
        write_desc(
            &mut mem,
            L1_BASE,
            [L1_BASE + 1024, L1_BASE + 2048, 4, hole_stride, 4, 3],
        );
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::OutOfRange
        );
        // The same on the destination side.
        write_desc(
            &mut mem,
            L1_BASE,
            [L1_BASE + 2048, L1_BASE + 1024, 4, 4, hole_stride, 3],
        );
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::OutOfRange
        );
        // A stride whose 32-bit sum would wrap back into L1.
        write_desc(
            &mut mem,
            L1_BASE,
            [L1_BASE + 1024, L1_BASE + 2048, 4, 0x8000_0000, 4, 3],
        );
        assert_eq!(
            dma.start_from_descriptor(&mem, L1_BASE).unwrap_err(),
            DmaDescError::OutOfRange
        );
        assert!(dma.is_idle(), "rejected descriptors enqueue nothing");
        assert!(!dma.id_exists(0));
    }

    #[test]
    fn step_reports_the_completed_transfer() {
        let (mut dma, mut mem) = engine_and_mem();
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 512, 8, 0, 0, 1]);
        let id = dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        assert_eq!(dma.step(&mut mem, &mut [false; 8]), Some(id));
        assert_eq!(dma.step(&mut mem, &mut [false; 8]), None, "idle");
    }

    #[test]
    fn ids_are_sequential_and_tracked() {
        let (mut dma, mut mem) = engine_and_mem();
        write_desc(&mut mem, L1_BASE, [L2_BASE, L1_BASE + 512, 4, 0, 0, 1]);
        let a = dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        let b = dma.start_from_descriptor(&mem, L1_BASE).unwrap();
        assert_eq!((a, b), (0, 1));
        assert!(dma.id_exists(0) && dma.id_exists(1));
        assert!(!dma.id_exists(2));
    }
}
