//! Pins the simulator's exact output for the accelerated chain on the
//! paper's three Table 3 platforms: total cycles, every core's
//! statistics, the region markers and the DMA statistics of each run.
//!
//! The expected strings are golden values: any change to the timing
//! model, to a stall counter or to the DMA engine shows up here as a
//! changed value, not as a shifted range. Update them only for a
//! deliberate change to the model.

use pulp_hd_core::backend::HdModel;
use pulp_hd_core::layout::AccelParams;
use pulp_hd_core::platform::Platform;
use pulp_hd_core::AccelChain;
use pulp_sim::RunSummary;

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
    out += " markers=[";
    out += &s
        .markers
        .iter()
        .map(|(id, cycle)| format!("({id},{cycle})"))
        .collect::<Vec<_>>()
        .join(" ");
    out += &format!(
        "] dma=[{} {} {}]",
        s.dma.words_moved, s.dma.bank_conflict_stalls, s.dma.transfers
    );
    out
}

/// Three one-sample windows of ADC codes spread over the code range.
fn windows(params: &AccelParams) -> Vec<Vec<Vec<u16>>> {
    (0..3u16)
        .map(|w| {
            vec![(0..params.channels as u16)
                .map(|c| w.wrapping_mul(21_011).wrapping_add(c.wrapping_mul(9_973)))
                .collect()]
        })
        .collect()
}

fn chain_fingerprints(platform: &Platform) -> Vec<String> {
    let params = AccelParams::emg_default();
    let model = HdModel::random(&params, 0x5EED_0012);
    let mut chain = AccelChain::new(platform, params).unwrap();
    chain
        .load_model(model.cim(), model.im(), model.prototypes())
        .unwrap();
    windows(&params)
        .iter()
        .map(|w| fingerprint(&chain.classify(w).unwrap().summary))
        .collect()
}

fn check(platform: Platform, expected: [&str; 3]) {
    let got = chain_fingerprints(&platform);
    for (w, (got, want)) in got.iter().zip(expected).enumerate() {
        assert_eq!(got, want, "{} window {w}", platform.name);
    }
}

#[test]
fn pulpv3_single_core_run_summaries_are_pinned() {
    check(
        Platform::pulpv3(1),
        [
            "cycles=405839 c0=[312639 404811 0 0 1010 0] markers=[(0,3) (1,364503) (2,405835)] dma=[9703 461 15]",
            "cycles=405840 c0=[312637 404812 0 0 1010 0] markers=[(0,3) (1,364503) (2,405836)] dma=[9703 461 15]",
            "cycles=405839 c0=[312639 404811 0 0 1010 0] markers=[(0,3) (1,364503) (2,405835)] dma=[9703 461 15]",
        ],
    );
}

#[test]
fn pulpv3_four_core_run_summaries_are_pinned() {
    check(
        Platform::pulpv3(4),
        [
            "cycles=106085 c0=[79569 103190 110 0 1010 2] c1=[79283 102890 136 0 0 1288] c2=[79283 102890 166 0 0 1258] c3=[76297 99016 151 0 0 5147] markers=[(0,242) (1,94305) (2,106081)] dma=[9703 690 15]",
            "cycles=106086 c0=[79567 103191 110 0 1010 2] c1=[79283 102890 136 0 0 1289] c2=[79283 102890 166 0 0 1259] c3=[76297 99016 151 0 0 5148] markers=[(0,242) (1,94305) (2,106082)] dma=[9703 690 15]",
            "cycles=106085 c0=[79569 103190 110 0 1010 2] c1=[79283 102890 136 0 0 1288] c2=[79283 102890 166 0 0 1258] c3=[76297 99016 151 0 0 5147] markers=[(0,242) (1,94305) (2,106081)] dma=[9703 690 15]",
        ],
    );
}

#[test]
fn wolf_eight_core_run_summaries_are_pinned() {
    check(
        Platform::wolf_builtin(8),
        [
            "cycles=22161 c0=[20416 20571 112 0 1028 68] c1=[20090 20221 240 0 0 1324] c2=[20090 20221 107 0 0 1457] c3=[20090 20221 185 0 0 1379] c4=[20078 20208 122 0 0 1455] c5=[20078 20208 215 0 0 1362] c6=[20078 20208 192 0 0 1385] c7=[16671 16799 163 0 0 4823] markers=[(0,59) (1,20213) (2,22157)] dma=[9703 829 15]",
            "cycles=22160 c0=[20414 20570 112 0 1028 68] c1=[20090 20221 240 0 0 1323] c2=[20090 20221 107 0 0 1456] c3=[20090 20221 185 0 0 1378] c4=[20078 20208 122 0 0 1454] c5=[20078 20208 215 0 0 1361] c6=[20078 20208 192 0 0 1384] c7=[16671 16799 163 0 0 4822] markers=[(0,59) (1,20213) (2,22156)] dma=[9703 829 15]",
            "cycles=22161 c0=[20416 20571 112 0 1028 68] c1=[20090 20221 240 0 0 1324] c2=[20090 20221 107 0 0 1457] c3=[20090 20221 185 0 0 1379] c4=[20078 20208 122 0 0 1455] c5=[20078 20208 215 0 0 1362] c6=[20078 20208 192 0 0 1385] c7=[16671 16799 163 0 0 4823] markers=[(0,59) (1,20213) (2,22157)] dma=[9703 829 15]",
        ],
    );
}
