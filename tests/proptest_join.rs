//! Property-based oracle for the distributed text join: for *any* rank
//! count, decomposition policy, exchange chunk cap and window count —
//! self-join included — `spatial_join` reports exactly the serial
//! brute-force pair set, pair for pair. Half the draws pile both layers
//! onto one hotspot, so the hot cell's owner holds far more refine work
//! than `BALANCE_MIN_SURPLUS_NS` above the balanced share and the balance
//! step really ships candidate pairs between ranks; the other half stay
//! spread out and take the empty-plan path.

mod common;

use common::{brute_force_join, lcg, mk_chunk};
use mpi_vector_io::core::reader::parse_buffer_serial;
use mpi_vector_io::prelude::*;
use proptest::prelude::*;
use std::sync::Arc;

/// Deterministic pseudo-random WKT layer of lines and rectangles. `hot`
/// squeezes every record's origin into [0, 2]² — nearly all pairs then
/// overlap, with their reference points in one cell — and adds one far
/// anchor record so the global MBR (hence the grid) stays wide.
fn layer_text(records: usize, salt: u64, hot: bool, tag: char) -> String {
    let mut next = lcg(salt);
    let extent = if hot { 2.0 } else { 60.0 };
    let mut text = String::new();
    for i in 0..records {
        let (x, y) = (next() * extent, next() * extent);
        let (w, h) = (next() * 5.0 + 0.1, next() * 5.0 + 0.1);
        if i % 3 == 0 {
            text.push_str(&format!(
                "LINESTRING ({x} {y}, {} {})\t{tag}{i}\n",
                x + w,
                y + h
            ));
        } else {
            text.push_str(&format!(
                "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\t{tag}{i}\n",
                x + w,
                x + w,
                y + h,
                y + h
            ));
        }
    }
    if hot {
        text.push_str(&format!(
            "POLYGON ((190 190, 200 190, 200 200, 190 200, 190 190))\t{tag}far\n"
        ));
    }
    text
}

proptest! {
    // Each case spawns one world; the hot draws refine a few thousand
    // cheap pairs. Seed pinned so CI failures are reproducible
    // (PROPTEST_SEED overrides).
    #![proptest_config(ProptestConfig::with_cases(32).with_seed(0x6d76_696f_6a6f_696e))]

    #[test]
    fn text_join_matches_brute_force(
        lrecords in 1usize..70,
        rrecords in 1usize..70,
        salt in 0u64..1_000,
        ranks in 1usize..7,
        policy in 0usize..4,
        chunk_bytes in 0u64..4096,
        windows in 1u32..4,
        // Bit 0: self-join; bit 1: hotspot layers (the strategy tuple
        // is capped at eight dimensions).
        mode in 0usize..4,
    ) {
        let (self_join, hot) = (mode & 1 != 0, mode & 2 != 0);
        let decomp = [
            DecompPolicy::Uniform(CellMap::RoundRobin),
            DecompPolicy::Uniform(CellMap::Block),
            DecompPolicy::Hilbert,
            DecompPolicy::adaptive(),
        ][policy];
        let chunk = mk_chunk(chunk_bytes);
        let left = layer_text(lrecords, salt, hot, 'l');
        let right = if self_join {
            left.clone()
        } else {
            layer_text(rrecords, salt ^ 0xBEEF, hot, 'r')
        };
        let expect = brute_force_join(
            &parse_buffer_serial(&left, &WktLineParser).unwrap(),
            &parse_buffer_serial(&right, &WktLineParser).unwrap(),
        );

        let fs = SimFs::new(FsConfig::lustre_comet());
        fs.create("l.wkt", None).unwrap().append(left.as_bytes());
        fs.create("r.wkt", None).unwrap().append(right.as_bytes());
        let right_path = if self_join { "l.wkt" } else { "r.wkt" };
        let reports = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(ranks)), move |comm| {
                let opts = JoinOptions {
                    grid: GridSpec::square(5),
                    decomp,
                    read: ReadOptions::default().with_block_size(4 << 10),
                    windows,
                    chunk,
                    ..Default::default()
                };
                spatial_join(comm, &fs, "l.wkt", right_path, &opts).unwrap()
            })
        };
        let mut got: Vec<(String, String)> =
            reports.iter().flat_map(|r| r.pairs.clone()).collect();
        got.sort();
        prop_assert_eq!(
            &got, &expect,
            "join diverged from brute force ({} ranks, {:?}, {:?}, {} windows, self {}, hot {})",
            ranks, decomp, chunk, windows, self_join, hot
        );
        let owned: u64 = reports.iter().map(|r| r.owned_refine_tests).sum();
        let executed: u64 = reports.iter().map(|r| r.refine_tests).sum();
        prop_assert_eq!(owned, executed, "balancing added or dropped a refine test");
    }
}
