//! Property-based oracle for the binary snapshot subsystem: for *any*
//! input, writer world size, decomposition policy, exchange chunk
//! setting and aggregator hint, `write_partitioned` →
//! `read_partitioned` under the same world and decomposition gives back
//! **byte-identical** frames to the ones the ingest held — and re-reading
//! under a *different* rank count preserves the record multiset while
//! routing every record to its cell's owner.

mod common;

use common::{
    brute_force_join, dataset_text, fs_with, materialize, mk_chunk, owned_replicas, wire,
};
use mpi_vector_io::core::decomp::{DecompConfig, DecompPolicy, UniformDecomposition};
use mpi_vector_io::core::exchange::{record_frames, RecordFrame};
use mpi_vector_io::core::grid::CellMap;
use mpi_vector_io::core::pipeline::{self, PipelineOptions};
use mpi_vector_io::core::snapshot::{self, SnapshotReadOptions, SnapshotWriteOptions};
use mpi_vector_io::geom::wkt;
use mpi_vector_io::prelude::*;
use mpi_vector_io::sjoin::{spatial_join_snapshots, SnapshotJoinOptions};
use proptest::prelude::*;
use std::sync::Arc;

/// The world and shape sizes of this suite's [`dataset_text`] layers.
const TEXT_WORLD: (f64, f64) = (40.0, 25.0);
const TEXT_SIZES: (f64, f64) = (5.0, 4.0);

/// Parses the deterministic WKT dataset into features, for fabricating
/// join layers without a file read.
fn join_layer(records: usize, salt: u64, spread: f64) -> Vec<Feature> {
    dataset_text(records, salt, TEXT_WORLD, TEXT_SIZES, spread)
        .lines()
        .map(|l| {
            let (g, u) = l.split_once('\t').unwrap();
            Feature::with_userdata(wkt::parse(g).unwrap(), u)
        })
        .collect()
}

/// Canonical string form of a routed pair, for multiset comparison.
fn key(cell: u32, f: &Feature) -> String {
    format!("{cell}|{}|{}", wkt::write(&f.geometry), f.userdata)
}

/// The round-trip oracle body, shared by the proptest sweep and the
/// deterministic edge-case tests below. Panics on any violation.
fn round_trip_case(
    records: usize,
    salt: u64,
    write_ranks: usize,
    read_ranks: usize,
    policy: usize,
    chunk_bytes: u64,
    cb_nodes: Option<usize>,
) {
    let cfg = [
        DecompConfig::uniform(GridSpec::square(5)),
        DecompConfig::hilbert(GridSpec::square(5)),
        DecompConfig::adaptive(GridSpec::square(5), 2),
    ][policy];
    let chunk = mk_chunk(chunk_bytes);
    // The aggregator count is capped by the node count and, on Lustre, by
    // the stripe count. A `cb_nodes` draw therefore runs one rank per
    // node over a 4-wide stripe, where the heuristic picks up to four
    // aggregators and the hint lowers that (1) or leaves it (4); `None`
    // keeps the single-node, default-stripe world with its one
    // aggregator.
    let hints = Hints {
        cb_nodes,
        ..Hints::default()
    };
    let wide = cb_nodes.is_some();
    let topology = move |ranks| match wide {
        true => Topology::new(ranks, 1),
        false => Topology::single_node(ranks),
    };
    let wopts = SnapshotWriteOptions {
        stripe: wide.then(|| StripeSpec::new(4, 4 << 10)),
        hints,
    };
    let ropts = SnapshotReadOptions { hints, chunk };
    let text = dataset_text(records, salt, TEXT_WORLD, TEXT_SIZES, 1.0);
    let fs = fs_with(FsConfig::lustre_comet(), "d.wkt", &text);
    let read = ReadOptions::default().with_block_size(4 << 10);

    // Ingest at the writer world size, persist, and re-read under the
    // same world + decomposition: must be bit-identical (same pairs,
    // same order), for every chunk policy.
    let written = {
        let fs = Arc::clone(&fs);
        World::run(WorldConfig::new(topology(write_ranks)), move |comm| {
            let rep = pipeline::ingest(
                comm,
                &fs,
                "d.wkt",
                &read,
                &WktLineParser,
                &cfg,
                &PipelineOptions::default().with_workers(2),
            )
            .unwrap();
            let w = rep.write_partitioned(comm, &fs, "s.bin", &wopts).unwrap();
            assert_eq!(w.section.records, rep.owned.len() as u64);
            let meta = snapshot::read_meta_timed(comm, &fs, "s.bin").unwrap();
            let (back, rrep) =
                snapshot::read_partitioned(comm, &fs, "s.bin", &meta, &*rep.decomp, &ropts)
                    .unwrap();
            let (got, held): (Vec<RecordFrame>, Vec<RecordFrame>) =
                (back.frames().collect(), rep.owned.frames().collect());
            assert_eq!(got, held, "same-world reload must be byte-identical");
            assert_eq!(rrep.records_scanned, rep.owned.len() as u64);
            // The same records decoded and encoded again, persisted
            // beside the frames: the two files must not differ by a byte.
            let pairs = materialize(rep.owned.frames());
            let decoded = wire(&pairs);
            let frames = record_frames(&decoded);
            snapshot::write_partitioned(comm, &fs, "r.bin", frames, &*rep.decomp, &wopts).unwrap();
            pairs
        })
    };
    let file = |path: &str| fs.open(path).unwrap().snapshot();
    assert_eq!(
        file("s.bin"),
        file("r.bin"),
        "frames persist as re-encoding would"
    );
    let mut expect: Vec<String> = written.iter().flatten().map(|(c, f)| key(*c, f)).collect();
    expect.sort();

    // Re-read under a different rank count with a decomposition
    // rebuilt from the header: the multiset survives and every record
    // lands on its cell's owner.
    let reread = {
        let fs = Arc::clone(&fs);
        World::run(WorldConfig::new(topology(read_ranks)), move |comm| {
            let meta = snapshot::read_meta_timed(comm, &fs, "s.bin").unwrap();
            let grid = UniformGrid::new(meta.bounds, meta.spec);
            let d = UniformDecomposition::new(grid, CellMap::RoundRobin, comm.size());
            let (back, _) =
                snapshot::read_partitioned(comm, &fs, "s.bin", &meta, &d, &ropts).unwrap();
            for frame in back.frames() {
                assert_eq!(d.cell_to_rank(frame.cell), comm.rank(), "misrouted record");
            }
            // The hint moves bytes between aggregators, never records
            // between ranks: the heuristic's read is the same answer.
            if cb_nodes.is_some() {
                let heuristic = SnapshotReadOptions::default().with_chunk(chunk);
                let (plain, _) =
                    snapshot::read_partitioned(comm, &fs, "s.bin", &meta, &d, &heuristic).unwrap();
                assert!(
                    plain.frames().eq(back.frames()),
                    "cb_nodes changed the reload"
                );
            }
            materialize(back.frames())
        })
    };
    let mut got: Vec<String> = reread.iter().flatten().map(|(c, f)| key(*c, f)).collect();
    got.sort();
    assert_eq!(got, expect);
}

proptest! {
    // Every case spawns 2-3 worlds of threads; keep the count moderate
    // (but high enough that skewed draws with empty ranks are hit).
    // Seed pinned so CI failures are reproducible (PROPTEST_SEED overrides).
    #![proptest_config(ProptestConfig::with_cases(24).with_seed(0x6d76_696f_736e_6170))]

    #[test]
    fn snapshot_round_trip_oracle(
        records in 0usize..120,
        salt in 0u64..1_000,
        write_ranks in 1usize..5,
        read_ranks in 1usize..5,
        policy in 0usize..3,
        chunk_bytes in 0u64..4096,
        cb_idx in 0usize..3,
    ) {
        let cb_nodes = [None, Some(1), Some(4)][cb_idx];
        round_trip_case(records, salt, write_ranks, read_ranks, policy, chunk_bytes, cb_nodes);
    }

    /// The snapshot-backed join reports exactly the serial brute-force
    /// pair set — every intersecting (left, right) pair once, nothing
    /// else — for every writer/reader world size, rebuild policy and
    /// exchange chunk cap. The `hot` draws put both layers on one
    /// hotspot inside the first cell, so its owner's refine surplus
    /// exceeds `BALANCE_MIN_SURPLUS_NS` and the join's balance step ships
    /// candidate pairs; the others take the empty-plan path.
    #[test]
    fn snapshot_join_matches_brute_force(
        lrecords in 1usize..70,
        rrecords in 1usize..70,
        salt in 0u64..1_000,
        write_ranks in 1usize..4,
        join_ranks in 1usize..5,
        hilbert in any::<bool>(),
        chunk_bytes in 0u64..2048,
        hot in any::<bool>(),
    ) {
        let spread = if hot { 0.05 } else { 1.0 };
        let chunk = mk_chunk(chunk_bytes);
        let fs = SimFs::new(FsConfig::lustre_comet());
        {
            let fs = Arc::clone(&fs);
            World::run(
                WorldConfig::new(Topology::single_node(write_ranks)),
                move |comm| {
                    let grid =
                        UniformGrid::new(Rect::new(0.0, 0.0, 50.0, 35.0), GridSpec::square(5));
                    let d = UniformDecomposition::new(grid, CellMap::RoundRobin, comm.size());
                    for (path, n, s) in
                        [("l.bin", lrecords, salt), ("r.bin", rrecords, salt ^ 0xDEAD)]
                    {
                        let pairs = owned_replicas(&d, &join_layer(n, s, spread), comm.rank());
                        let buf = wire(&pairs);
                        let opts = SnapshotWriteOptions::default();
                        snapshot::write_partitioned(comm, &fs, path, record_frames(&buf), &d, &opts)
                            .unwrap();
                    }
                },
            );
        }
        let joined = {
            let fs = Arc::clone(&fs);
            World::run(
                WorldConfig::new(Topology::single_node(join_ranks)),
                move |comm| {
                    let opts = SnapshotJoinOptions {
                        decomp: if hilbert {
                            DecompPolicy::Hilbert
                        } else {
                            DecompPolicy::Uniform(CellMap::RoundRobin)
                        },
                        read: SnapshotReadOptions::default().with_chunk(chunk),
                    };
                    spatial_join_snapshots(comm, &fs, "l.bin", "r.bin", &opts).unwrap()
                },
            )
        };
        let owned: u64 = joined.iter().map(|r| r.owned_refine_tests).sum();
        let executed: u64 = joined.iter().map(|r| r.refine_tests).sum();
        prop_assert_eq!(owned, executed, "balancing added or dropped a refine test");
        let mut got: Vec<(String, String)> = joined.into_iter().flat_map(|r| r.pairs).collect();
        got.sort();
        let expect = brute_force_join(
            &join_layer(lrecords, salt, spread),
            &join_layer(rrecords, salt ^ 0xDEAD, spread),
        );
        prop_assert_eq!(
            got, expect,
            "join diverged from brute force ({} ranks, hilbert {}, chunk {:?}, hot {})",
            join_ranks, hilbert, chunk, hot
        );
    }
}

/// Zero records anywhere: every section is empty and the snapshot is just
/// a header + table. Regression for the empty-section layout bug, pinned
/// deterministically rather than left to the proptest draw.
#[test]
fn snapshot_round_trip_zero_records() {
    for policy in 0..3 {
        round_trip_case(0, 7, 3, 2, policy, 0, None);
    }
}

/// More ranks than records: at least two writer ranks own nothing, so the
/// section table carries empty (possibly trailing) sections. Regression:
/// such a file used to fail re-read as "section ends beyond file length".
#[test]
fn snapshot_round_trip_more_ranks_than_records() {
    for records in [1usize, 2] {
        round_trip_case(records, 3, 4, 3, 0, 64, None);
    }
}

/// One populated rank at the *front* of a four-rank world (clustered
/// input in the first cell), exercising a run of trailing empty sections
/// under every decomposition policy.
#[test]
fn snapshot_round_trip_single_record_all_policies() {
    for policy in 0..3 {
        round_trip_case(1, 11, 4, 1, policy, 0, None);
    }
}
