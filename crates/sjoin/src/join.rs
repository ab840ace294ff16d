//! The end-to-end distributed spatial join (paper §5.2, Figures 17–19).

use crate::breakdown::{PhaseBreakdown, PhaseTimer};
use mvio_core::decomp::{
    self, DecompConfig, DecompPolicy, HilbertDecomposition, SpatialDecomposition,
    UniformDecomposition,
};
use mvio_core::exchange::{
    exchange_features_frames_windows, ExchangeChunk, ExchangeOptions, FrameStore,
};
use mvio_core::framework::claims_reference;
use mvio_core::grid::{GridSpec, UniformGrid};
use mvio_core::partition::{read_partition_text, ReadOptions};
use mvio_core::pipeline::{parse_chunked, PipelineOptions};
use mvio_core::reader::WktLineParser;
use mvio_core::snapshot::{self, SnapshotReadOptions};
use mvio_core::{CoreError, Feature, Result};
use mvio_geom::index::RTree;
use mvio_geom::refkernel::{envelope_batch, filter_pairs_batch, RefineArena};
use mvio_geom::wkb::GeomRef;
use mvio_geom::{algo, Rect};
use mvio_msim::{Comm, Work};
use mvio_pfs::SimFs;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Options for one distributed join.
#[derive(Debug, Clone, Copy)]
pub struct JoinOptions {
    /// Grid resolution (the Figure 17 sweep axis).
    pub grid: GridSpec,
    /// Spatial decomposition policy (cell tiling + cell→rank assignment).
    /// Defaults to [`DecompPolicy::from_env`]: the paper's uniform
    /// round-robin grid unless `MVIO_DECOMP` selects `hilbert` or
    /// `adaptive`. The join *answer* is identical under every policy —
    /// only the load distribution and phase times move.
    pub decomp: DecompPolicy,
    /// File read configuration for both layers.
    pub read: ReadOptions,
    /// Sliding-window phases for the exchange.
    pub windows: u32,
    /// Per-destination byte cap for each pipelined exchange round.
    /// Defaults to [`ExchangeChunk::Auto`] (the `MVIO_EXCHANGE_CHUNK`
    /// knob); the join *answer* is identical for every chunk policy —
    /// finite chunks only overlap the transfer with serialization and
    /// stream the received rounds into the refine phase incrementally.
    pub chunk: ExchangeChunk,
    /// Intra-rank streaming pipeline configuration for the parse stage.
    /// The parsed features are bit-identical for any worker count, so
    /// this only affects the virtual-time breakdown, never the join
    /// result. Defaults to **1 worker** (not the `MVIO_PIPELINE_WORKERS`
    /// auto knob) so the repro harness's paper figures stay identical
    /// across hosts and environments; opt into multi-worker parsing with
    /// `pipeline: PipelineOptions::default().with_workers(n)` (or `0`
    /// for env/host resolution).
    pub pipeline: PipelineOptions,
}

impl Default for JoinOptions {
    fn default() -> Self {
        JoinOptions {
            grid: GridSpec::square(16),
            decomp: DecompPolicy::from_env(),
            read: ReadOptions::default(),
            windows: 1,
            chunk: ExchangeChunk::Auto,
            pipeline: PipelineOptions::default().with_workers(1),
        }
    }
}

/// Per-rank result of a distributed join.
#[derive(Debug, Clone)]
pub struct JoinReport {
    /// Intersecting pairs found by this rank, as `(left userdata, right
    /// userdata)` — duplicate-free across all ranks thanks to the
    /// reference-point rule.
    pub pairs: Vec<(String, String)>,
    /// Candidate pairs surviving the MBR filter on this rank.
    pub filter_candidates: u64,
    /// Exact-geometry tests performed (post-dedup).
    pub refine_tests: u64,
    /// Peak geometry-payload heap allocations resident on this rank
    /// during the join phase: received records stay borrowed wire frames,
    /// so this is the refine arena's peak of live scratch buffers — a
    /// handful, independent of the record count.
    pub max_resident_allocs: u64,
    /// Global max-over-ranks phase breakdown (identical on every rank).
    pub breakdown: PhaseBreakdown,
}

/// Runs the full distributed spatial join of two WKT files. Every rank
/// must call this; each returns its share of the result pairs plus the
/// global breakdown.
/// Collective: every rank must call it with the same options.
pub fn spatial_join(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    left_path: &str,
    right_path: &str,
    opts: &JoinOptions,
) -> Result<JoinReport> {
    let mut timer = PhaseTimer::start(comm);

    // --- Partitioning phase: read, parse, project to grid cells. ---------
    // Parsing streams through the multi-worker ingest pipeline; the
    // worker count only compresses the virtual parse time (max-lane
    // accounting), the features are bit-identical to a sequential parse.
    let mut read_and_parse = |path: &str| -> Result<Vec<Feature>> {
        let text = read_partition_text(comm, fs, path, &opts.read)?;
        let (features, _) = parse_chunked(comm, &text, &WktLineParser, &opts.pipeline)?;
        Ok(features)
    };
    let left = read_and_parse(left_path)?;
    let right = read_and_parse(right_path)?;

    let local_mbr = left
        .iter()
        .chain(&right)
        .fold(Rect::EMPTY, |acc, f| acc.union(&f.geometry.envelope()));
    let cfg = DecompConfig {
        grid: opts.grid,
        policy: opts.decomp,
    };
    let sd = decomp::build_global_from_mbr(comm, local_mbr, &[&left, &right], &cfg);
    let rtree = decomp::build_cell_rtree(comm, &*sd);

    let left_pairs = project_owned(comm, &rtree, left);
    let right_pairs = project_owned(comm, &rtree, right);
    timer.end_partition(comm);

    // --- Communication phase: global spatial partitioning. ---------------
    // The received rounds stay as validated wire frames, one
    // source-ordered store per sliding window — bit-identical for every
    // chunk policy, so the join result never depends on the
    // MVIO_EXCHANGE_CHUNK knob.
    let ex_opts = ExchangeOptions {
        windows: opts.windows,
        chunk: opts.chunk,
    };
    let (left_stores, _) = exchange_features_frames_windows(comm, left_pairs, &*sd, &ex_opts)?;
    let (right_stores, _) = exchange_features_frames_windows(comm, right_pairs, &*sd, &ex_opts)?;
    timer.end_communication(comm);

    // --- Join phase: batched filter + arena refine over frames. ----------
    let mut filter_candidates = 0u64;
    let mut refine_tests = 0u64;
    let (pairs, max_resident_allocs) = run_refine_frames(
        comm,
        &*sd,
        &left_stores,
        &right_stores,
        &mut filter_candidates,
        &mut refine_tests,
    );
    timer.end_compute(comm);

    let local = timer.finish(comm);
    let breakdown = PhaseBreakdown::reduce_max(comm, local);
    Ok(JoinReport {
        pairs,
        filter_candidates,
        refine_tests,
        max_resident_allocs,
        breakdown,
    })
}

/// Options for a join over two binary snapshots.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotJoinOptions {
    /// Cell→rank assignment rebuilt for the reader world over the
    /// snapshots' shared grid. Must be [`DecompPolicy::Uniform`] or
    /// [`DecompPolicy::Hilbert`]: adaptive bisection needs the feature
    /// histogram, which a snapshot does not carry.
    pub decomp: DecompPolicy,
    /// Collective-read + routing-exchange configuration.
    pub read: SnapshotReadOptions,
}

impl Default for SnapshotJoinOptions {
    fn default() -> Self {
        SnapshotJoinOptions {
            decomp: DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
            read: SnapshotReadOptions::default(),
        }
    }
}

/// Runs the distributed spatial join directly off two **binary
/// snapshots** written by [`mvio_core::snapshot::write_partitioned`] —
/// no WKT parsing, no cell projection: the persisted records already
/// carry their cells, so the partitioning phase collapses to a header
/// read plus the decomposition rebuild, and the communication phase is
/// the two collective reads (each with its routing exchange). Both
/// snapshots must tile the same grid over the same bounds (they were
/// partitioned together, or with the same decomposition). The join
/// answer is identical to [`spatial_join`] over the original text
/// layers. Collective: every rank must call it.
pub fn spatial_join_snapshots(
    comm: &mut Comm,
    fs: &Arc<SimFs>,
    left_path: &str,
    right_path: &str,
    opts: &SnapshotJoinOptions,
) -> Result<JoinReport> {
    let mut timer = PhaseTimer::start(comm);

    // --- Partitioning phase: headers + decomposition rebuild. ------------
    // Both metas decode from identical bytes on every rank, so every
    // rejection below is symmetric — nobody enters the collective reads
    // unless everybody does. The timed reads charge the header I/O to
    // this phase (the docs promise partitioning "collapses to a header
    // read" — it must not cost zero virtual seconds).
    let left_meta = snapshot::read_meta_timed(comm, fs, left_path)?;
    let right_meta = snapshot::read_meta_timed(comm, fs, right_path)?;
    if left_meta.spec != right_meta.spec || left_meta.bounds != right_meta.bounds {
        return Err(CoreError::Snapshot(format!(
            "snapshot layers disagree: left tiles {}x{} over {:?}, right {}x{} over {:?}",
            left_meta.spec.cells_x,
            left_meta.spec.cells_y,
            left_meta.bounds,
            right_meta.spec.cells_x,
            right_meta.spec.cells_y,
            right_meta.bounds,
        )));
    }
    let grid = UniformGrid::try_new(left_meta.bounds, left_meta.spec)?;
    let sd: Box<dyn SpatialDecomposition> = match opts.decomp {
        DecompPolicy::Uniform(map) => Box::new(UniformDecomposition::new(grid, map, comm.size())),
        DecompPolicy::Hilbert => Box::new(HilbertDecomposition::new(grid, comm.size())),
        DecompPolicy::Adaptive { .. } => {
            return Err(CoreError::InvalidOptions(
                "adaptive bisection needs the feature histogram, which a snapshot \
                 does not carry; join snapshots with the uniform or hilbert policy"
                    .into(),
            ))
        }
    };
    timer.end_partition(comm);

    // --- Communication phase: collective reads + routing exchanges. ------
    // The routed records stay as validated wire frames.
    let (left, _) = snapshot::read_partitioned_frames(comm, fs, left_path, &*sd, &opts.read)?;
    let (right, _) = snapshot::read_partitioned_frames(comm, fs, right_path, &*sd, &opts.read)?;
    timer.end_communication(comm);

    // --- Join phase: identical to the text path. --------------------------
    let mut filter_candidates = 0u64;
    let mut refine_tests = 0u64;
    let (pairs, max_resident_allocs) = run_refine_frames(
        comm,
        &*sd,
        std::slice::from_ref(&left),
        std::slice::from_ref(&right),
        &mut filter_candidates,
        &mut refine_tests,
    );
    timer.end_compute(comm);

    let local = timer.finish(comm);
    let breakdown = PhaseBreakdown::reduce_max(comm, local);
    Ok(JoinReport {
        pairs,
        filter_candidates,
        refine_tests,
        max_resident_allocs,
        breakdown,
    })
}

/// Projects features to cells and pairs each replica with its owned
/// feature (cloning only for spanning cells).
fn project_owned(
    comm: &mut Comm,
    rtree: &RTree<u32>,
    features: Vec<Feature>,
) -> Vec<(u32, Feature)> {
    let pairs = decomp::project_to_cells(comm, rtree, &features);
    pairs
        .into_iter()
        .map(|(cell, idx)| (cell, features[idx].clone()))
        .collect()
}

/// The join phase: groups two sides of received wire frames by cell,
/// builds a bulk R-tree over the left MBRs of each cell (the paper uses
/// GEOS's STRtree the same way), filters candidate pairs in batch over
/// precomputed MBRs ([`envelope_batch`] + [`filter_pairs_batch`] with the
/// reference-cell claim), and only then materializes the surviving pairs
/// into a reusable [`RefineArena`] for the exact intersection tests.
/// Per-record heap allocation on the receive side is zero by
/// construction. Returns the pairs plus the arena's peak of live scratch
/// buffers (the `max_resident_allocs` metric).
/// Not collective — refinement is cell-local; the communicator only
/// charges compute.
fn run_refine_frames(
    comm: &mut Comm,
    sd: &dyn SpatialDecomposition,
    left_stores: &[FrameStore],
    right_stores: &[FrameStore],
    filter_candidates: &mut u64,
    refine_tests: &mut u64,
) -> (Vec<(String, String)>, u64) {
    let rank = comm.rank();
    // Flatten in window-then-source order — the exchange's record order —
    // and decode each frame's borrowed view once.
    let left: Vec<_> = left_stores.iter().flat_map(FrameStore::frames).collect();
    let right: Vec<_> = right_stores.iter().flat_map(FrameStore::frames).collect();
    fn view(wkb: &[u8]) -> GeomRef<'_> {
        // audit: FrameStore only holds buffers the exchange validated.
        mvio_geom::wkb::decode_ref(wkb).expect("validated frame").0
    }
    let left_refs: Vec<GeomRef<'_>> = left.iter().map(|fr| view(fr.wkb)).collect();
    let right_refs: Vec<GeomRef<'_>> = right.iter().map(|fr| view(fr.wkb)).collect();
    let (mut left_mbrs, mut right_mbrs) = (Vec::new(), Vec::new());
    envelope_batch(&left_refs, &mut left_mbrs);
    envelope_batch(&right_refs, &mut right_mbrs);

    // Group by cell (ascending); within a cell, indices keep flattened
    // record order.
    let mut by_cell: BTreeMap<u32, (Vec<usize>, Vec<usize>)> = BTreeMap::new();
    for (i, fr) in left.iter().enumerate() {
        debug_assert_eq!(sd.cell_to_rank(fr.cell), rank, "left frame misrouted");
        by_cell.entry(fr.cell).or_default().0.push(i);
    }
    for (i, fr) in right.iter().enumerate() {
        debug_assert_eq!(sd.cell_to_rank(fr.cell), rank, "right frame misrouted");
        by_cell.entry(fr.cell).or_default().1.push(i);
    }

    let mut arena = RefineArena::new();
    let mut results = Vec::new();
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut surviving: Vec<(usize, usize)> = Vec::new();
    for (cell, (ls, rs)) in by_cell {
        if ls.is_empty() || rs.is_empty() {
            continue;
        }
        let items: Vec<(Rect, usize)> = ls.iter().map(|&i| (left_mbrs[i], i)).collect();
        comm.charge(Work::RtreeInserts { n: ls.len() as u64 });
        let index = RTree::bulk_load(items);

        // Candidate enumeration in (right outer, hit inner) order, so the
        // per-rank output order is deterministic.
        candidates.clear();
        let mut total_hits = 0u64;
        for &ri in &rs {
            let hits = index.query(&right_mbrs[ri]);
            total_hits += hits.len() as u64;
            candidates.extend(hits.iter().map(|&&li| (li, ri)));
        }
        *filter_candidates += candidates.len() as u64;
        filter_pairs_batch(
            &candidates,
            &left_mbrs,
            &right_mbrs,
            |a, b| claims_reference(sd, cell, a, b),
            &mut surviving,
        );

        // Exact refine only for the survivors, through the reusable
        // arena: materialize, test, recycle — per window/cell reset keeps
        // the pool of live buffers tiny regardless of record counts.
        arena.reset();
        for &(li, ri) in &surviving {
            *refine_tests += 1;
            comm.charge(Work::RefinePair {
                verts_a: left_refs[li].num_points() as u64,
                verts_b: right_refs[ri].num_points() as u64,
            });
            let lg = arena.materialize(&left_refs[li]);
            let rg = arena.materialize(&right_refs[ri]);
            if algo::intersects(&lg, &rg) {
                results.push((
                    left[li].userdata.to_string(),
                    right[ri].userdata.to_string(),
                ));
            }
            arena.recycle(lg);
            arena.recycle(rg);
        }
        comm.charge(Work::RtreeQueries {
            n: rs.len() as u64,
            results: total_hits,
        });
    }
    (results, arena.peak_resident() as u64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvio_geom::wkt;
    use mvio_msim::{Topology, World, WorldConfig};
    use mvio_pfs::FsConfig;

    /// Builds two tiny layers with a known exact join answer.
    fn build_layers(fs: &Arc<SimFs>) {
        // Left: 4 unit squares labelled L0..L3 at x = 0, 10, 20, 30.
        let left = fs.create("left.wkt", None).unwrap();
        let mut text = String::new();
        for i in 0..4 {
            let x = i as f64 * 10.0;
            text.push_str(&format!(
                "POLYGON (({x} 0, {} 0, {} 1, {x} 1, {x} 0))\tL{i}\n",
                x + 1.0,
                x + 1.0
            ));
        }
        left.append(text.as_bytes());
        // Right: squares overlapping L1 and L3 only, plus one far away.
        let right = fs.create("right.wkt", None).unwrap();
        let mut text = String::new();
        text.push_str("POLYGON ((10.5 0.5, 11.5 0.5, 11.5 1.5, 10.5 1.5, 10.5 0.5))\tR_a\n");
        text.push_str("POLYGON ((30.2 0.2, 30.8 0.2, 30.8 0.8, 30.2 0.8, 30.2 0.2))\tR_b\n");
        text.push_str("POLYGON ((90 90, 91 90, 91 91, 90 91, 90 90))\tR_far\n");
        right.append(text.as_bytes());
    }

    fn expected() -> Vec<(String, String)> {
        vec![
            ("L1".to_string(), "R_a".to_string()),
            ("L3".to_string(), "R_b".to_string()),
        ]
    }

    fn run_join(topo: Topology, opts: JoinOptions) -> (Vec<(String, String)>, PhaseBreakdown) {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_layers(&fs);
        // Tiny test files: keep the block comfortably above one record so
        // the equal split never lands inside a record with many ranks.
        let mut opts = opts;
        opts.read.block_size = Some(512);
        let out = World::run(WorldConfig::new(topo), move |comm| {
            spatial_join(comm, &fs, "left.wkt", "right.wkt", &opts).unwrap()
        });
        let mut pairs: Vec<(String, String)> = out.iter().flat_map(|r| r.pairs.clone()).collect();
        pairs.sort();
        (pairs, out[0].breakdown)
    }

    #[test]
    fn join_finds_exact_pairs_single_rank() {
        let (pairs, b) = run_join(Topology::single_node(1), JoinOptions::default());
        assert_eq!(pairs, expected());
        assert!(b.total > 0.0);
    }

    #[test]
    fn join_is_identical_across_rank_counts() {
        let (p1, _) = run_join(Topology::single_node(1), JoinOptions::default());
        let (p4, _) = run_join(Topology::new(2, 2), JoinOptions::default());
        let (p6, _) = run_join(Topology::new(3, 2), JoinOptions::default());
        assert_eq!(p1, p4);
        assert_eq!(p1, p6);
    }

    #[test]
    fn join_is_identical_across_grid_sizes_no_duplicates() {
        // Finer grids replicate more; dedup must keep results exact.
        for cells in [1u32, 2, 8, 32] {
            let opts = JoinOptions {
                grid: GridSpec::square(cells),
                ..Default::default()
            };
            let (pairs, _) = run_join(Topology::new(2, 2), opts);
            assert_eq!(pairs, expected(), "grid {cells}x{cells}");
        }
    }

    #[test]
    fn join_with_block_map_and_windows() {
        let opts = JoinOptions {
            decomp: DecompPolicy::Uniform(mvio_core::grid::CellMap::Block),
            windows: 4,
            grid: GridSpec::square(8),
            ..Default::default()
        };
        let (pairs, _) = run_join(Topology::new(2, 2), opts);
        assert_eq!(pairs, expected());
    }

    #[test]
    fn join_answer_is_identical_for_every_chunk_policy() {
        // Finite chunks pipeline the exchange in rounds, but each
        // window's batch is reassembled in source order before refine —
        // so the per-rank output must be identical *unsorted*, not just
        // as a set, to the blocking configuration.
        let run_raw = |chunk: ExchangeChunk| {
            let fs = SimFs::new(FsConfig::gpfs_roger());
            build_layers(&fs);
            let mut opts = JoinOptions {
                chunk,
                grid: GridSpec::square(8),
                ..Default::default()
            };
            opts.read.block_size = Some(512);
            World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let r = spatial_join(comm, &fs, "left.wkt", "right.wkt", &opts).unwrap();
                // Received records stay borrowed frames: the only resident
                // geometry allocations are the arena's scratch pool.
                assert!(r.max_resident_allocs <= 8, "{}", r.max_resident_allocs);
                (r.pairs, r.filter_candidates, r.refine_tests)
            })
        };
        let blocking = run_raw(ExchangeChunk::Unlimited);
        for chunk in [ExchangeChunk::Bytes(64), ExchangeChunk::Bytes(4096)] {
            assert_eq!(run_raw(chunk), blocking, "{chunk:?}");
        }
        let mut all: Vec<(String, String)> = blocking.into_iter().flat_map(|r| r.0).collect();
        all.sort();
        assert_eq!(all, expected());
    }

    #[test]
    fn join_answer_is_identical_under_every_decomposition_policy() {
        for policy in [
            DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
            DecompPolicy::Hilbert,
            DecompPolicy::adaptive(),
        ] {
            let opts = JoinOptions {
                decomp: policy,
                grid: GridSpec::square(8),
                ..Default::default()
            };
            let (pairs, _) = run_join(Topology::new(2, 2), opts);
            assert_eq!(pairs, expected(), "{policy:?}");
        }
    }

    #[test]
    fn snapshot_join_matches_the_text_join() {
        use mvio_core::snapshot::SnapshotWriteOptions;
        // Reference answer from the text path.
        let (expect_pairs, _) = run_join(Topology::new(2, 2), JoinOptions::default());
        assert_eq!(expect_pairs, expected());

        // Persist both layers as snapshots from a single-rank world
        // (every pair is owned by rank 0 there), sharing one
        // decomposition so the layers tile the same grid.
        let fs = SimFs::new(FsConfig::gpfs_roger());
        build_layers(&fs);
        {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
                let read = ReadOptions::default().with_block_size(512);
                let parse = |comm: &mut mvio_msim::Comm, path: &str| -> Vec<Feature> {
                    let text = read_partition_text(comm, &fs, path, &read).unwrap();
                    parse_chunked(comm, &text, &WktLineParser, &PipelineOptions::default())
                        .unwrap()
                        .0
                };
                let left = parse(comm, "left.wkt");
                let right = parse(comm, "right.wkt");
                let mbr = left
                    .iter()
                    .chain(&right)
                    .fold(mvio_geom::Rect::EMPTY, |a, f| {
                        a.union(&f.geometry.envelope())
                    });
                let cfg = DecompConfig::uniform(GridSpec::square(8));
                let sd = decomp::build_global_from_mbr(comm, mbr, &[&left, &right], &cfg);
                let pairs_of = |feats: &[Feature]| -> Vec<(u32, Feature)> {
                    feats
                        .iter()
                        .flat_map(|f| {
                            sd.cells_for_rect_vec(&f.geometry.envelope())
                                .into_iter()
                                .map(|c| (c, f.clone()))
                                .collect::<Vec<_>>()
                        })
                        .collect()
                };
                snapshot::write_partitioned(
                    comm,
                    &fs,
                    "left.snap",
                    &pairs_of(&left),
                    &*sd,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
                snapshot::write_partitioned(
                    comm,
                    &fs,
                    "right.snap",
                    &pairs_of(&right),
                    &*sd,
                    &SnapshotWriteOptions::default(),
                )
                .unwrap();
            });
        }

        // Join straight off the snapshots, at several world sizes and
        // rebuild policies: the answer must match the text join exactly.
        for policy in [
            DecompPolicy::Uniform(mvio_core::grid::CellMap::RoundRobin),
            DecompPolicy::Hilbert,
        ] {
            for topo in [Topology::single_node(1), Topology::new(2, 2)] {
                let fs = Arc::clone(&fs);
                let out = World::run(WorldConfig::new(topo), move |comm| {
                    let opts = SnapshotJoinOptions {
                        decomp: policy,
                        ..Default::default()
                    };
                    spatial_join_snapshots(comm, &fs, "left.snap", "right.snap", &opts).unwrap()
                });
                let mut pairs: Vec<(String, String)> =
                    out.iter().flat_map(|r| r.pairs.clone()).collect();
                pairs.sort();
                assert_eq!(pairs, expected(), "{policy:?} {topo:?}");
                assert!(out[0].breakdown.total > 0.0);
            }
        }

        // Adaptive cannot be rebuilt from a snapshot: typed rejection.
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let opts = SnapshotJoinOptions {
                decomp: DecompPolicy::adaptive(),
                ..Default::default()
            };
            matches!(
                spatial_join_snapshots(comm, &fs, "left.snap", "right.snap", &opts),
                Err(mvio_core::CoreError::InvalidOptions(_))
            )
        });
        assert!(out.iter().all(|&ok| ok));
    }

    #[test]
    fn breakdown_phases_are_populated() {
        let (_, b) = run_join(Topology::new(2, 2), JoinOptions::default());
        assert!(b.partition > 0.0, "partition {:?}", b);
        assert!(b.communication > 0.0);
        assert!(b.compute >= 0.0);
        assert!(b.total > 0.0);
        // Max-over-ranks phases can exceed the max total, but each phase
        // alone cannot.
        assert!(b.partition <= b.total + 1e-9);
    }

    #[test]
    fn self_join_reports_every_overlap_once() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        // A layer of two overlapping squares, self-joined.
        let layer = fs.create("layer.wkt", None).unwrap();
        layer.append(
            "POLYGON ((0 0, 2 0, 2 2, 0 2, 0 0))\tA\n\
             POLYGON ((1 1, 3 1, 3 3, 1 3, 1 1))\tB\n"
                .as_bytes(),
        );
        let out = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            let opts = JoinOptions {
                grid: GridSpec::square(4),
                ..Default::default()
            };
            spatial_join(comm, &fs, "layer.wkt", "layer.wkt", &opts).unwrap()
        });
        let mut pairs: Vec<(String, String)> = out.iter().flat_map(|r| r.pairs.clone()).collect();
        pairs.sort();
        // A∩A, A∩B, B∩A, B∩B — each exactly once.
        assert_eq!(
            pairs,
            vec![
                ("A".into(), "A".into()),
                ("A".into(), "B".into()),
                ("B".into(), "A".into()),
                ("B".into(), "B".into()),
            ]
        );
    }

    #[test]
    fn join_against_brute_force_on_random_data() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let mut left_wkt = String::new();
        let mut right_wkt = String::new();
        let mut left_rects = Vec::new();
        let mut right_rects = Vec::new();
        for i in 0..40 {
            let x = rng.gen_range(0.0..50.0);
            let y = rng.gen_range(0.0..50.0);
            let w = rng.gen_range(0.5..4.0);
            let h = rng.gen_range(0.5..4.0);
            let r = Rect::new(x, y, x + w, y + h);
            let poly = format!(
                "POLYGON (({} {}, {} {}, {} {}, {} {}, {} {}))",
                r.min_x,
                r.min_y,
                r.max_x,
                r.min_y,
                r.max_x,
                r.max_y,
                r.min_x,
                r.max_y,
                r.min_x,
                r.min_y
            );
            if i % 2 == 0 {
                left_wkt.push_str(&format!("{poly}\tL{i}\n"));
                left_rects.push((format!("L{i}"), r));
            } else {
                right_wkt.push_str(&format!("{poly}\tR{i}\n"));
                right_rects.push((format!("R{i}"), r));
            }
        }
        // Brute-force ground truth (axis-aligned rects: MBR test is exact).
        let mut expect: Vec<(String, String)> = Vec::new();
        for (ln, lr) in &left_rects {
            for (rn, rr) in &right_rects {
                if lr.intersects(rr) {
                    expect.push((ln.clone(), rn.clone()));
                }
            }
        }
        expect.sort();

        let fs = SimFs::new(FsConfig::gpfs_roger());
        fs.create("l.wkt", None)
            .unwrap()
            .append(left_wkt.as_bytes());
        fs.create("r.wkt", None)
            .unwrap()
            .append(right_wkt.as_bytes());
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let opts = JoinOptions {
                grid: GridSpec::square(6),
                ..Default::default()
            };
            spatial_join(comm, &fs, "l.wkt", "r.wkt", &opts).unwrap()
        });
        let mut pairs: Vec<(String, String)> = out.iter().flat_map(|r| r.pairs.clone()).collect();
        pairs.sort();
        assert_eq!(pairs, expect);
        let _ = wkt::parse("POINT (0 0)").unwrap(); // keep wkt import used
    }
}
