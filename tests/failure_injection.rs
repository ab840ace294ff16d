//! Failure injection: corrupted inputs and failing ranks must produce
//! clean errors (or a clean job abort) — never hangs, never silent
//! corruption.

mod common;

use common::{fs_with, mk_decomp, mk_features, owned_replicas, read_share, wire, WORLD};
use mpi_vector_io::core::decomp::SpatialDecomposition;
use mpi_vector_io::core::exchange::{
    record_frames, serialize_record, validate_round, ExchangeRound, SerializedBatch,
};
use mpi_vector_io::core::resident::ResidentStore;
use mpi_vector_io::core::CoreError;
use mpi_vector_io::msim::CheckMode;
use mpi_vector_io::prelude::*;
use mpi_vector_io::sjoin::engine::answer_entries;
use mpi_vector_io::sjoin::Update;

#[test]
fn corrupted_wkt_record_fails_cleanly_on_every_rank() {
    // A malformed record in the middle of an otherwise fine file: the
    // rank that owns it reports a Parse error naming the record; other
    // ranks parse their shares fine. No rank hangs.
    let mut text = String::new();
    for i in 0..40 {
        if i == 17 {
            text.push_str("POLYGON ((botched\n");
        } else {
            text.push_str(&format!("POINT ({i} {i})\tp{i}\n"));
        }
    }
    let fs = fs_with(FsConfig::gpfs_roger(), "bad.wkt", &text);
    let results = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        read_share(
            comm,
            &fs,
            "bad.wkt",
            &ReadOptions::default().with_block_size(128),
        )
        .map(|v| v.len())
        .map_err(|e| e.to_string())
    });
    let errs: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert_eq!(
        errs.len(),
        1,
        "exactly one rank owns the bad record: {results:?}"
    );
    assert!(errs[0].contains("parse error"), "{}", errs[0]);
    assert!(
        errs[0].contains("botched"),
        "error names the record: {}",
        errs[0]
    );
    // Other ranks deliver their clean shares; the failing rank's share
    // (including its good records) is reported through its error.
    let parsed: usize = results
        .iter()
        .filter_map(|r| r.as_ref().ok().copied())
        .sum();
    assert!(
        (1..=39).contains(&parsed),
        "clean shares delivered: {parsed}"
    );
}

#[test]
fn rank_death_mid_pipeline_aborts_whole_job() {
    // A rank panics between the exchange rounds; the rest are blocked in
    // collectives. MPI_Abort semantics must bring the job down rather
    // than deadlock.
    let fs = fs_with(
        FsConfig::gpfs_roger(),
        "ok.wkt",
        &(0..32)
            .map(|i| format!("POINT ({i} 0)\tp{i}\n"))
            .collect::<String>(),
    );
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let read = ReadOptions::default().with_block_size(1024);
            let feats = read_share(comm, &fs, "ok.wkt", &read).unwrap();
            if comm.rank() == 2 {
                panic!("injected rank death");
            }
            // Survivors head into a collective that can never complete.
            comm.allreduce_u64(feats.len() as u64, |a, b| a + b)
        })
    }));
    let payload = result.expect_err("job must abort");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default();
    assert!(
        msg.contains("injected rank death"),
        "originating panic surfaces: {msg}"
    );
}

#[test]
fn truncated_file_yields_short_final_record_not_a_crash() {
    // A file cut mid-record (e.g. interrupted transfer): the partial tail
    // is delivered as a record and fails at *parse* time with a clear
    // error, rather than corrupting neighbours.
    let full = "POINT (1 1)\tp1\nPOINT (2 2)\tp2\nPOLYGON ((3 3, 4 3, 4";
    let fs = fs_with(FsConfig::gpfs_roger(), "cut.wkt", full);
    let results = World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
        read_share(comm, &fs, "cut.wkt", &ReadOptions::default())
            .map(|v| v.len())
            .map_err(|e| matches!(e, CoreError::Parse { .. }))
    });
    // The rank owning the tail sees a parse error (flagged true); the
    // other delivers its complete points.
    assert!(results.contains(&Err(true)), "{results:?}");
    assert!(
        results.iter().any(|r| matches!(r, Ok(n) if *n >= 1)),
        "{results:?}"
    );
}

#[test]
fn oversized_geometry_is_reported_not_mangled() {
    // One record bigger than both the block and the configured maximum:
    // Algorithm 1 reports a Partition error telling the user which knob
    // to raise.
    let mut text = String::new();
    text.push_str("POINT (0 0)\tsmall\n");
    text.push_str(&format!("LINESTRING ({})\thuge\n", {
        let coords: Vec<String> = (0..4000).map(|i| format!("{i} {i}")).collect();
        coords.join(", ")
    }));
    let fs = fs_with(FsConfig::gpfs_roger(), "huge.wkt", &text);
    let results = World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
        let read = ReadOptions::default()
            .with_block_size(512)
            .with_max_geometry_bytes(1024);
        read_share(comm, &fs, "huge.wkt", &read)
            .map(|_| ())
            .map_err(|e| e.to_string())
    });
    let errs: Vec<&String> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!errs.is_empty());
    assert!(
        errs.iter()
            .any(|e| e.contains("block_size") || e.contains("max_geometry_bytes")),
        "error guides the user: {errs:?}"
    );
}

#[test]
fn empty_and_whitespace_files_are_harmless() {
    for content in ["", "\n\n\n", "   \n  \n"] {
        let fs = fs_with(FsConfig::gpfs_roger(), "empty.wkt", content);
        let results = World::run(WorldConfig::new(Topology::single_node(3)), move |comm| {
            // Block above the longest (whitespace) record, as always.
            let opts = ReadOptions::default().with_block_size(8);
            read_share(comm, &fs, "empty.wkt", &opts).unwrap().len()
        });
        assert!(results.iter().all(|&n| n == 0), "content {content:?}");
    }
}

#[test]
fn malformed_queries_are_rejected_symmetrically_and_engine_survives() {
    // NaN rects, inverted rects and k = 0 kNN probes must be rejected
    // with a typed `InvalidOptions` on EVERY rank — the validation
    // allreduce runs before any exchange, so no rank is stranded in a
    // collective — and the engine must keep answering afterwards.
    use mpi_vector_io::core::decomp::{SpatialDecomposition, UniformDecomposition};
    use mpi_vector_io::sjoin::{EngineOptions, Query, QueryAnswer, QueryEngine};

    let bad_batches: Vec<Vec<Query>> = vec![
        vec![Query::Range(Rect::new(f64::NAN, 0.0, 1.0, 1.0))],
        vec![
            Query::Range(Rect::new(0.0, 0.0, 4.0, 4.0)), // fine
            Query::Range(Rect::new(3.0, 3.0, 1.0, 4.0)), // inverted x
        ],
        vec![Query::Point(Point::new(0.0, f64::INFINITY))],
        vec![Query::Knn {
            at: Point::new(2.0, 2.0),
            k: 0,
        }],
    ];
    let n_bad = bad_batches.len();

    let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
        // A 6×6 lattice of labelled points, resident under a uniform
        // round-robin decomposition.
        let grid = UniformGrid::new(Rect::new(0.0, 0.0, 6.0, 6.0), GridSpec::square(3));
        let sd: Box<dyn SpatialDecomposition> = Box::new(UniformDecomposition::new(
            grid,
            CellMap::RoundRobin,
            comm.size(),
        ));
        let mut owned = Vec::new();
        for y in 0..6 {
            for x in 0..6 {
                let p = Point::new(x as f64, y as f64);
                for cell in sd.cells_for_rect_vec(&p.envelope()) {
                    if sd.cell_to_rank(cell) == comm.rank() {
                        owned.push((
                            cell,
                            Feature::with_userdata(Geometry::Point(p), format!("p{x}_{y}")),
                        ));
                    }
                }
            }
        }
        let mut eng = QueryEngine::from_parts(comm, sd, owned, &EngineOptions::default());

        let mut rejections = Vec::new();
        for batch in &bad_batches {
            match eng.serve(comm, batch) {
                Ok(_) => rejections.push(None),
                Err(e) => rejections.push(Some(matches!(e, CoreError::InvalidOptions(_)))),
            }
        }
        // A malformed query between in-batch duplicates, on rank 0 only:
        // the peers hold nothing but valid repeats of one window, and
        // grouping them must not let anyone past the rejection.
        let window = Query::Range(Rect::new(0.5, 0.5, 2.5, 2.5));
        let mut batch = vec![window; 3];
        if comm.rank() == 0 {
            batch.insert(
                1,
                Query::Knn {
                    at: Point::new(2.0, 2.0),
                    k: 0,
                },
            );
        }
        rejections.push(
            eng.serve(comm, &batch)
                .err()
                .map(|e| matches!(e, CoreError::InvalidOptions(_))),
        );
        // The engine is not poisoned: the next (valid) batch answers,
        // every instance of the repeated window alike.
        let rep = eng.serve(comm, &[window, window]).unwrap();
        assert_eq!(rep.stats.routed, 1);
        assert_eq!(rep.answers[0], rep.answers[1]);
        let survived = match &rep.answers[1] {
            QueryAnswer::Matches(m) => m.clone(),
            _ => unreachable!("range answers with matches"),
        };
        (rejections, survived)
    });

    for (rank, (rejections, survived)) in out.iter().enumerate() {
        assert_eq!(rejections.len(), n_bad + 1);
        for (i, r) in rejections.iter().enumerate() {
            assert_eq!(
                *r,
                Some(true),
                "rank {rank}: bad batch {i} must be InvalidOptions, got {r:?}"
            );
        }
        assert_eq!(
            survived,
            &vec!["p1_1", "p1_2", "p2_1", "p2_2"],
            "rank {rank}: engine unusable after rejected batches"
        );
    }
}

/// A sink error raised while validating round 1 on rank 0 (rank 1 ships
/// it a torn payload there) comes back on rank 0 only: the peers keep
/// every record of both rounds, and the strict verifier sees matched
/// collectives throughout.
#[test]
fn sink_decode_error_stays_on_its_rank() {
    let cfg = WorldConfig::new(Topology::single_node(3)).with_check(CheckMode::Strict);
    let out = World::run(cfg, move |comm| {
        let (rank, p) = (comm.rank(), comm.size());
        let mut round = 0u32;
        let mut feed = |_: &mut Comm| {
            let mut batch = SerializedBatch::empty(p);
            for dst in 0..p {
                if (rank, round, dst) == (1, 1, 0) {
                    batch.bufs[dst] = vec![0xFF; 7];
                } else {
                    let f = Feature::with_userdata(
                        Geometry::Point(Point::new(rank as f64, round as f64)),
                        "payload",
                    );
                    serialize_record(round, &f, &mut Vec::new(), &mut batch.bufs[dst]).unwrap();
                }
                batch.records[dst] = 1;
            }
            round += 1;
            Ok(Some(ExchangeRound {
                batch,
                lanes: Vec::new(),
                more: round < 2,
            }))
        };
        let mut received = 0u64;
        let plan = ExchangePlan::new(comm, &ExchangeOptions::with_chunk(ExchangeChunk::Unlimited));
        let result = plan.run(comm, &mut feed, &mut |c, bufs| {
            let n = validate_round(c, &bufs)?;
            received += n;
            Ok(n)
        });
        (result.map(|s| (s.rounds, s.records_received)), received)
    });
    match &out[0] {
        (Err(CoreError::Frame(_)), 3) => {} // round 0 arrived, round 1 failed
        other => panic!("rank 0: {other:?}"),
    }
    for (rank, peer) in out.iter().enumerate().skip(1) {
        match peer {
            (Ok((2, 6)), 6) => {}
            other => panic!("rank {rank}: {other:?}"),
        }
    }
}

/// One serve answer block assembled by hand from docs/FORMAT.md §4.
fn answer_block(qid: u64, distances: &[f64], matches: &[&str]) -> Vec<u8> {
    let mut block = qid.to_le_bytes().to_vec();
    block.extend((8 * distances.len() as u32).to_le_bytes());
    for d in distances {
        block.extend(d.to_le_bytes());
    }
    let b_len: usize = matches.iter().map(|m| 4 + m.len()).sum();
    block.extend((b_len as u32).to_le_bytes());
    for m in matches {
        block.extend((m.len() as u32).to_le_bytes());
        block.extend(m.as_bytes());
    }
    block
}

/// The serve result trip's failure contract, same shape as
/// `sink_decode_error_stays_on_its_rank`: every rank returns answer
/// blocks to every peer over the staged exchange, and rank 1 tears the
/// kNN block it sends rank 0 in the second round. The engine's block
/// decoder turns that into a typed error on rank 0 only; the peers
/// complete, the strict verifier sees matched collectives, and the
/// resident engine on every rank — rank 0 included — answers the next
/// batch exactly as it answered the one before.
#[test]
fn corrupted_answer_block_stays_on_its_rank() {
    let coords: Vec<(f64, f64)> = (0..12).map(|i| (1.0 + i as f64, 15.0 - i as f64)).collect();
    let cfg = WorldConfig::new(Topology::single_node(3)).with_check(CheckMode::Strict);
    let out = World::run(cfg, move |comm| {
        let (rank, p) = (comm.rank(), comm.size());
        let sd = mk_decomp(WORLD, 0, 3, p);
        let owned = owned_replicas(&*sd, &mk_features(&coords), rank);
        let mut eng = QueryEngine::from_parts(comm, sd, owned, &EngineOptions::default());
        let batch = [
            Query::Range(Rect::new(2.0, 2.0, 14.0, 14.0)),
            Query::Knn {
                at: Point::new(8.0, 8.0),
                k: 3,
            },
        ];
        let before = eng.serve(comm, &batch).unwrap().answers;

        let mut round = 0u32;
        let mut feed = |_: &mut Comm| {
            let mut batch = SerializedBatch::empty(p);
            for dst in 0..p {
                batch.bufs[dst] = if round == 0 {
                    answer_block(0, &[], &["f001", "f002"])
                } else {
                    answer_block(1, &[0.5, 1.5], &["f003", "f004"])
                };
                if (rank, round, dst) == (1, 1, 0) {
                    batch.bufs[dst].truncate(30); // mid-way through the matches
                }
                batch.records[dst] = 1;
            }
            round += 1;
            Ok(Some(ExchangeRound {
                batch,
                lanes: Vec::new(),
                more: round < 2,
            }))
        };
        let mut matches = 0u64;
        let plan = ExchangePlan::new(comm, &ExchangeOptions::with_chunk(ExchangeChunk::Unlimited));
        let result = plan.run(comm, &mut feed, &mut |_, bufs| {
            let mut blocks = 0;
            for buf in &bufs {
                let mut entries = answer_entries(buf);
                for entry in entries.by_ref() {
                    entry?;
                    matches += 1;
                }
                blocks += entries.blocks();
            }
            Ok(blocks)
        });

        let after = eng.serve(comm, &batch).unwrap().answers;
        assert!(!before[0].is_empty() && before[1].len() == 3);
        assert_eq!(before, after, "rank {rank} must keep answering");
        (result.map(|s| (s.rounds, s.records_received)), matches)
    });
    match &out[0] {
        // Round 0 arrived whole; round 1 failed on rank 1's torn block
        // after rank 0's own two matches were walked.
        (Err(CoreError::Frame(msg)), 8) if msg.contains("serve protocol") => {}
        other => panic!("rank 0: {other:?}"),
    }
    for (rank, peer) in out.iter().enumerate().skip(1) {
        match peer {
            (Ok((2, 6)), 12) => {}
            other => panic!("rank {rank}: {other:?}"),
        }
    }
}

/// Three labelled points inside every cell of `sd` — single-replica
/// features, so what one rank loses or keeps is what the world serves.
fn points_per_cell(sd: &dyn SpatialDecomposition) -> Vec<Feature> {
    (0..sd.num_cells())
        .flat_map(|cell| {
            let r = sd.cell_rect(cell);
            (1..=3).map(move |k| {
                let t = k as f64 / 4.0;
                let p = Point::new(
                    r.min_x + t * (r.max_x - r.min_x),
                    r.min_y + t * (r.max_y - r.min_y),
                );
                Feature::with_userdata(Geometry::Point(p), format!("c{cell}k{k}"))
            })
        })
        .collect()
}

/// Every rank's answer to "everything in the world", which must be the
/// same sorted list everywhere.
fn world_answer(comm: &mut Comm, eng: &mut QueryEngine) -> Vec<String> {
    let world = Query::Range(Rect::new(0.0, 0.0, WORLD, WORLD));
    match eng.serve(comm, &[world]).unwrap().answers.pop() {
        Some(QueryAnswer::Matches(m)) => m,
        other => panic!("range answers with matches: {other:?}"),
    }
}

/// The update trips' failure contract, for inserts and for deletes: the
/// resident store's own sinks (`ResidentStore::append_round` /
/// `delete_round`, what `apply_updates` runs) land two rounds from every
/// peer, and rank 1 tears what it sends rank 0 in the second. Rank 0
/// alone returns the typed error, after every collective; its store holds
/// the first round and **nothing** of the second — not even the intact
/// buffers that arrived beside the torn one; the peers hold both. An
/// engine over those very stores then applies the next batch and serves
/// it, identically on every rank.
#[test]
fn corrupted_update_round_stays_on_its_rank() {
    for deletes in [false, true] {
        let cfg = WorldConfig::new(Topology::single_node(3)).with_check(CheckMode::Strict);
        let out = World::run(cfg, move |comm| {
            let (rank, p) = (comm.rank(), comm.size());
            let sd = mk_decomp(WORLD, 0, 3, p);
            let base = points_per_cell(&*sd);
            let mut store =
                ResidentStore::from_owned(comm, owned_replicas(&*sd, &base, rank)).unwrap();
            // What `src` sends `dst` in `round`: a fresh point in one of
            // `dst`'s cells, or the delete of one of `dst`'s base points.
            let record = |round: usize, src: usize, dst: usize| -> (u32, Feature) {
                let theirs = owned_replicas(&*sd, &base, dst);
                let (cell, target) = &theirs[round * p + src];
                if deletes {
                    return (*cell, target.clone());
                }
                let c = sd.cell_rect(*cell).center();
                let label = format!("new-r{round}s{src}d{dst}");
                (*cell, Feature::with_userdata(Geometry::Point(c), label))
            };
            let mut round = 0usize;
            let mut feed = |_: &mut Comm| {
                let mut batch = SerializedBatch::empty(p);
                for dst in 0..p {
                    let (cell, f) = record(round, rank, dst);
                    serialize_record(cell, &f, &mut Vec::new(), &mut batch.bufs[dst]).unwrap();
                    if (rank, round, dst) == (1, 1, 0) {
                        let torn = batch.bufs[dst].len() - 3;
                        batch.bufs[dst].truncate(torn);
                    }
                    batch.records[dst] = 1;
                }
                round += 1;
                Ok(Some(ExchangeRound {
                    batch,
                    lanes: Vec::new(),
                    more: round < 2,
                }))
            };
            let plan =
                ExchangePlan::new(comm, &ExchangeOptions::with_chunk(ExchangeChunk::Unlimited));
            let result = plan.run(comm, &mut feed, &mut |c, bufs| {
                if deletes {
                    let out = store.delete_round(c, &bufs, &mut |_, _| {})?;
                    assert_eq!(out.missing, 0);
                    Ok(out.records)
                } else {
                    Ok(store.append_round(c, &bufs)?.len() as u64)
                }
            });
            let held: Vec<String> = store.frames().map(|fr| fr.userdata.to_string()).collect();

            // The next batch, through an engine over the same store.
            let mut eng = QueryEngine::from_store(comm, sd, store, &EngineOptions::default());
            let at = Point::new(1.0 + rank as f64, 15.0);
            let next = Feature::with_userdata(Geometry::Point(at), format!("next-{rank}"));
            let stats = eng.apply_updates(comm, &[Update::Insert(next)]).unwrap();
            assert_eq!(stats.submitted, 1);
            let served = world_answer(comm, &mut eng);
            (result.map(|s| (s.rounds, s.records_received)), held, served)
        });

        // The dataset the world now holds: round 1 never reached rank 0.
        let sd = mk_decomp(WORLD, 0, 3, 3);
        let base = points_per_cell(&*sd);
        let landed = |round: usize, dst: usize| round == 0 || dst != 0;
        let mut expected: Vec<String> = base.iter().map(|f| f.userdata.clone()).collect();
        for (round, src, dst) in (0..2).flat_map(|r| (0..9).map(move |i| (r, i / 3, i % 3))) {
            let (_, target) = &owned_replicas(&*sd, &base, dst)[round * 3 + src];
            match (deletes, landed(round, dst)) {
                (true, true) => expected.retain(|ud| *ud != target.userdata),
                (false, true) => expected.push(format!("new-r{round}s{src}d{dst}")),
                (_, false) => {}
            }
        }
        expected.extend((0..3).map(|r| format!("next-{r}")));
        expected.sort();

        let per_rank = base.len() / 3;
        for (rank, (result, held, served)) in out.iter().enumerate() {
            assert_eq!(served, &expected, "rank {rank} (deletes={deletes})");
            let (rounds_landed, ok) = if rank == 0 { (1, false) } else { (2, true) };
            match result {
                Err(CoreError::Frame(_)) if !ok => {}
                Ok((2, 6)) if ok => {}
                other => panic!("rank {rank} (deletes={deletes}): {other:?}"),
            }
            let moved = 3 * rounds_landed;
            let want = if deletes {
                per_rank - moved
            } else {
                per_rank + moved
            };
            assert_eq!(
                held.len(),
                want,
                "rank {rank} (deletes={deletes}): {held:?}"
            );
            assert!(
                rank != 0 || !held.iter().any(|ud| ud.starts_with("new-r1")),
                "rank 0 kept part of the corrupt round: {held:?}"
            );
        }
    }
}

/// The migration trip's failure contract: every rank drains the replicas
/// of its moved cells into per-owner buffers exactly as `migrate_cells`
/// does (`ResidentStore::drain_to`), rank 1 tears the buffer it ships to
/// rank 0, and the receivers land the round through the migration's sink
/// (`ResidentStore::append_round`). Rank 0 alone returns the typed error
/// and is left with the replicas that never moved — nothing of the round,
/// the intact buffer from rank 2 included; the peers hold their whole new
/// partition, and engines over the stores serve the next batch —
/// everything but what was on its way to rank 0 — identically everywhere.
#[test]
fn corrupted_migration_round_stays_on_its_rank() {
    let cfg = WorldConfig::new(Topology::single_node(3)).with_check(CheckMode::Strict);
    let out = World::run(cfg, move |comm| {
        let (rank, p) = (comm.rank(), comm.size());
        let (from, to) = (mk_decomp(WORLD, 0, 3, p), mk_decomp(WORLD, 1, 3, p));
        let base = points_per_cell(&*from);
        let mut store =
            ResidentStore::from_owned(comm, owned_replicas(&*from, &base, rank)).unwrap();
        let mut batch = SerializedBatch::empty(p);
        let new_owner = |cell| {
            let owner = to.cell_to_rank(cell);
            (owner != from.cell_to_rank(cell)).then_some(owner)
        };
        store.drain_to(new_owner, &mut batch);
        let stayed = store.len();
        if rank == 1 {
            assert!(batch.records[0] > 0, "rank 1 must ship something to rank 0");
            let torn = batch.bufs[0].len() - 3;
            batch.bufs[0].truncate(torn);
        }
        let plan = ExchangePlan::new(comm, &ExchangeOptions::with_chunk(ExchangeChunk::Unlimited));
        let result = plan.run(comm, &mut batch.into_feed(&plan), &mut |c, bufs| {
            Ok(store.append_round(c, &bufs)?.len() as u64)
        });
        let held = store.len();
        let mut eng = QueryEngine::from_store(comm, to, store, &EngineOptions::default());
        let served = world_answer(comm, &mut eng);
        (result.map(|s| s.rounds), stayed, held, served)
    });

    let (from, to) = (mk_decomp(WORLD, 0, 3, 3), mk_decomp(WORLD, 1, 3, 3));
    let base = points_per_cell(&*from);
    let cell_of = |f: &Feature| from.cells_for_rect_vec(&f.geometry.envelope())[0];
    let mut expected: Vec<String> = base
        .iter()
        .filter(|f| {
            let cell = cell_of(f);
            to.cell_to_rank(cell) != 0 || from.cell_to_rank(cell) == 0
        })
        .map(|f| f.userdata.clone())
        .collect();
    expected.sort();
    assert!(expected.len() < base.len(), "something must have been lost");
    for (rank, (result, stayed, held, served)) in out.iter().enumerate() {
        assert_eq!(served, &expected, "rank {rank}");
        if rank == 0 {
            assert!(matches!(result, Err(CoreError::Frame(_))), "{result:?}");
            assert_eq!(held, stayed, "rank 0 landed part of the corrupt round");
        } else {
            assert_eq!(result.as_ref().ok(), Some(&1), "rank {rank}");
            assert_eq!(
                *held,
                owned_replicas(&*to, &base, rank).len(),
                "rank {rank}"
            );
        }
    }
}

/// Whether a corrupt-metadata run reloads through the snapshot join (with
/// the left or the right layer corrupt) or builds a serving engine.
#[derive(Debug, Clone, Copy)]
enum Reload {
    Join { corrupt_left: bool },
    Engine,
}

/// The reload's single point of failure: rank 0 alone reads a snapshot's
/// header and section table and broadcasts them (docs/FORMAT.md §3). A
/// snapshot cut short in its header (10 bytes) or its table (70 bytes),
/// with a wrong magic, or whose table counts one record more than its
/// header must make every rank of a 4-rank world return a
/// `CoreError::Snapshot` — through `spatial_join_snapshots` and through
/// `QueryEngine::from_snapshot` — with the verifier reporting nothing,
/// collecting or strict. A rejection by the validator reads the same on
/// every rank; a fetch that fails on rank 0 (the table bound check, or a
/// missing file) reaches the peers by name.
#[test]
fn corrupt_snapshot_metadata_fails_every_rank_alike() {
    use mpi_vector_io::core::snapshot::{self, HEADER_LEN};
    use mpi_vector_io::sjoin::{spatial_join_snapshots, SnapshotJoinOptions};
    use std::sync::Arc;

    let fs = SimFs::new(FsConfig::lustre_comet());
    {
        let fs = Arc::clone(&fs);
        World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
            let sd = mk_decomp(WORLD, 0, 3, comm.size());
            for (path, shift) in [("l.bin", 0.0), ("r.bin", 0.7)] {
                let coords: Vec<(f64, f64)> = (0..24)
                    .map(|i| {
                        (
                            0.5 + shift + (i % 6) as f64 * 2.5,
                            0.5 + (i / 6) as f64 * 3.5,
                        )
                    })
                    .collect();
                let owned = wire(&owned_replicas(&*sd, &mk_features(&coords), comm.rank()));
                let opts = SnapshotWriteOptions::default();
                let frames = record_frames(&owned);
                snapshot::write_partitioned(comm, &fs, path, frames, &*sd, &opts).unwrap();
            }
        });
    }
    let good = |path: &str| fs.open(path).unwrap().snapshot();
    let records_at = HEADER_LEN as usize + 16; // section 0's record count
    let bump = |b: &mut Vec<u8>| {
        let v = u64::from_le_bytes(b[records_at..records_at + 8].try_into().unwrap());
        b[records_at..records_at + 8].copy_from_slice(&(v + 1).to_le_bytes());
    };
    // Each corruption, and the validator message every rank returns —
    // `None` where rank 0's fetch itself fails (the table bound check).
    let cases: [(&str, &dyn Fn(&mut Vec<u8>), Option<&str>); 4] = [
        (
            "short header",
            &|b| b.truncate(10),
            Some("truncated header"),
        ),
        ("short table", &|b| b.truncate(70), None),
        ("bad magic", &|b| b[0] = b'X', Some("bad magic")),
        ("records bumped", &bump, Some("claims")),
    ];
    let reloads = [
        Reload::Join { corrupt_left: true },
        Reload::Join {
            corrupt_left: false,
        },
        Reload::Engine,
    ];
    for (what, corrupt, validator) in cases {
        for reload in reloads {
            for mode in [CheckMode::On, CheckMode::Strict] {
                let fs = SimFs::new(FsConfig::lustre_comet());
                for (path, bad) in [
                    (
                        "l.bin",
                        !matches!(
                            reload,
                            Reload::Join {
                                corrupt_left: false
                            }
                        ),
                    ),
                    (
                        "r.bin",
                        matches!(
                            reload,
                            Reload::Join {
                                corrupt_left: false
                            }
                        ),
                    ),
                ] {
                    let mut bytes = good(path);
                    if bad {
                        corrupt(&mut bytes);
                    }
                    fs.create(path, None).unwrap().set_contents(bytes);
                }
                let cfg = WorldConfig::new(Topology::single_node(4)).with_check(mode);
                let (out, violations) = World::run_reporting(cfg, move |comm| {
                    let res = match reload {
                        Reload::Join { .. } => {
                            let opts = SnapshotJoinOptions::default();
                            spatial_join_snapshots(comm, &fs, "l.bin", "r.bin", &opts).map(|_| ())
                        }
                        Reload::Engine => QueryEngine::from_snapshot(
                            comm,
                            &fs,
                            "l.bin",
                            DecompPolicy::Uniform(CellMap::RoundRobin),
                            &SnapshotReadOptions::default(),
                            &EngineOptions::default(),
                        )
                        .map(|_| ()),
                    };
                    match res {
                        Err(CoreError::Snapshot(m)) => m,
                        other => panic!("rank {}: {other:?}", comm.rank()),
                    }
                });
                let ctx = format!("{what}, {reload:?}, {mode:?}");
                assert!(violations.is_empty(), "{ctx}: {violations:?}");
                match validator {
                    Some(needle) => {
                        assert!(out[0].contains(needle), "{ctx}: {}", out[0]);
                        assert!(out.iter().all(|m| *m == out[0]), "{ctx}: {out:?}");
                    }
                    None => {
                        assert!(out[0].contains("section table"), "{ctx}: {}", out[0]);
                        let named = format!("metadata read on rank 0 failed: snapshot: {}", out[0]);
                        assert!(out[1..].iter().all(|m| *m == named), "{ctx}: {out:?}");
                    }
                }
            }
        }
    }

    // No file at all: rank 0's open fails, it keeps the filesystem error,
    // and its peers return a snapshot error naming it.
    let cfg = WorldConfig::new(Topology::single_node(4)).with_check(CheckMode::Strict);
    let out = World::run(cfg, move |comm| {
        let (read, eng) = (SnapshotReadOptions::default(), EngineOptions::default());
        let policy = DecompPolicy::Uniform(CellMap::RoundRobin);
        match QueryEngine::from_snapshot(comm, &fs, "absent.bin", policy, &read, &eng).err() {
            Some(e @ CoreError::Msim(_)) if comm.rank() == 0 => e.to_string(),
            Some(CoreError::Snapshot(m)) if comm.rank() > 0 => m,
            other => panic!("rank {}: {other:?}", comm.rank()),
        }
    });
    assert!(out[0].contains("absent.bin"), "{out:?}");
    let named = format!("metadata read on rank 0 failed: {}", out[0]);
    assert!(out[1..].iter().all(|m| *m == named), "{out:?}");
}
