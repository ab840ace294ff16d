//! Determinism guarantees: identical seeds and configurations produce
//! bit-identical results — data always, and virtual time on every path:
//! collectives, the snapshot write and reload, and Level 0 reads whose
//! ranks reach the file servers in any host order.

mod common;

use common::{catalog_fs, mk_decomp, mk_features, owned_replicas, wire, WORLD};
use mpi_vector_io::core::exchange::record_frames;
use mpi_vector_io::core::grid::GridSpec;
use mpi_vector_io::msim::io::FileView;
use mpi_vector_io::prelude::*;

#[test]
fn dataset_generation_is_bit_identical() {
    let a = catalog_fs(200_000, 11);
    let b = catalog_fs(200_000, 11);
    assert_eq!(
        a.open("lakes.wkt").unwrap().snapshot(),
        b.open("lakes.wkt").unwrap().snapshot()
    );
    assert_eq!(
        a.open("cemetery.wkt").unwrap().snapshot(),
        b.open("cemetery.wkt").unwrap().snapshot()
    );
}

#[test]
fn join_results_are_identical_across_runs() {
    let run = || {
        let fs = catalog_fs(100_000, 11);

        World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let opts = JoinOptions {
                grid: GridSpec::square(8),
                read: ReadOptions::default().with_block_size(128 << 10),
                ..Default::default()
            };
            let rep = spatial_join(comm, &fs, "lakes.wkt", "cemetery.wkt", &opts).unwrap();
            (rep.pairs, rep.filter_candidates, rep.refine_tests)
        })
    };
    let a = run();
    let b = run();
    for (ra, rb) in a.iter().zip(&b) {
        assert_eq!(ra.0, rb.0, "pairs per rank identical");
        assert_eq!(ra.1, rb.1, "filter candidates identical");
        assert_eq!(ra.2, rb.2, "refine tests identical");
    }
}

#[test]
fn collective_virtual_times_are_identical_across_runs() {
    let run = || {
        World::run(WorldConfig::new(Topology::new(2, 4)), |comm| {
            comm.charge(Work::Seconds(0.01 * (comm.rank() as f64 + 1.0)));
            comm.barrier();
            let v = comm.allreduce_u64(comm.rank() as u64 * 3 + 1, |a, b| a + b);
            let bufs: Vec<Vec<u8>> = (0..comm.size())
                .map(|d| vec![comm.rank() as u8; d + 1])
                .collect();
            comm.alltoallv(bufs);
            comm.scan(comm.rank() as u64, 8, &|a: &u64, b: &u64| (*a).max(*b));
            (v, comm.now())
        })
    };
    assert_eq!(run(), run());
}

#[test]
fn collective_io_virtual_times_are_identical_across_runs() {
    let run = || {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let f = fs
            .create("d.bin", Some(StripeSpec::new(8, 64 << 10)))
            .unwrap();
        f.append(vec![9u8; 1 << 20]);
        World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let mut file = MpiFile::open(&fs, "d.bin", Hints::default()).unwrap();
            let chunk = (1usize << 20) / 4;
            let mut buf = vec![0u8; chunk];
            file.read_at_all(comm, (comm.rank() * chunk) as u64, &mut buf)
                .unwrap();
            let level1 = comm.now();
            // Level 3: 4 KiB records round-robin through a file view,
            // written back and read again.
            let filetype = Datatype::contiguous(4096, Datatype::Byte);
            file.set_view(FileView::new(0, filetype).unwrap());
            let (rank, p) = (comm.rank() as u64, comm.size() as u64);
            file.write_all(comm, rank, p, &buf).unwrap();
            file.read_all(comm, rank, p, &mut buf).unwrap();
            (level1, comm.now())
        })
    };
    assert_eq!(run(), run());
}

/// A snapshot write and a reload-and-join at another world size, in
/// fresh worlds over a fresh filesystem each run: every rank's clock
/// after the write and after the join is bit-identical across runs. The
/// reload reads each file's metadata on rank 0 alone, so no two ranks'
/// independent reads contend for the first stripe in host-thread order.
#[test]
fn snapshot_reload_virtual_times_are_identical_across_runs() {
    use mpi_vector_io::sjoin::{spatial_join_snapshots, SnapshotJoinOptions};
    use std::sync::Arc;

    let run = || {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        let written = {
            let fs = Arc::clone(&fs);
            World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
                let sd = mk_decomp(WORLD, 0, 4, comm.size());
                for (path, shift) in [("l.bin", 0.0), ("r.bin", 0.4)] {
                    let coords: Vec<(f64, f64)> = (0..60)
                        .map(|i| {
                            (
                                0.3 + shift + (i % 10) as f64 * 1.5,
                                0.2 + (i / 10) as f64 * 2.5,
                            )
                        })
                        .collect();
                    let owned = wire(&owned_replicas(&sd, &mk_features(&coords), comm.rank()));
                    let opts = SnapshotWriteOptions::default();
                    write_partitioned(comm, &fs, path, record_frames(&owned), &sd, &opts).unwrap();
                }
                comm.now()
            })
        };
        let joined = World::run(WorldConfig::new(Topology::new(3, 1)), move |comm| {
            let opts = SnapshotJoinOptions::default();
            let rep = spatial_join_snapshots(comm, &fs, "l.bin", "r.bin", &opts).unwrap();
            (rep.pairs, comm.now())
        });
        (written, joined)
    };
    let first = run();
    assert!(first.1.iter().any(|(pairs, _)| !pairs.is_empty()));
    for _ in 0..3 {
        assert_eq!(run(), first);
    }
}

/// Level 0 partitioned reads in worlds whose rank threads reach the
/// read in a different, shuffled order each time (staggered sleeps from
/// a per-world permutation, then random yields): every rank's text and
/// clock are bit-equal across the worlds, for both boundary strategies,
/// in one iteration and in many. Each step's reads are timed together
/// in one pfs batch, so the arrival order cannot reach the schedule.
#[test]
fn level0_reads_are_identical_whatever_order_ranks_arrive_in() {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    const WORLDS: u64 = 8;
    const RANKS: usize = 8;
    let text: String = (0..2_000)
        .map(|i| format!("REC{i:05}:{}\n", "x".repeat(5 + (i * 37) % 180)))
        .collect();
    for strategy in [BoundaryStrategy::Message, BoundaryStrategy::Overlap] {
        for block_size in [None, Some(8 << 10)] {
            let read = ReadOptions {
                strategy,
                block_size,
                max_geometry_bytes: 1 << 10,
                ..ReadOptions::default()
            };
            let run = |world: u64| {
                let fs = SimFs::new(FsConfig::lustre_comet());
                fs.create("r.txt", Some(StripeSpec::new(2, 16 << 10)))
                    .unwrap()
                    .append(text.as_bytes());
                let mut rng = StdRng::seed_from_u64(world);
                let mut order: Vec<u64> = (0..RANKS as u64).collect();
                for i in (1..RANKS).rev() {
                    order.swap(i, rng.gen_range(0..=i));
                }
                let yields: Vec<u64> = (0..RANKS).map(|_| rng.gen_range(0..64u64)).collect();
                let (order, yields) = (Arc::new(order), Arc::new(yields));
                World::run(WorldConfig::new(Topology::new(2, 4)), move |comm| {
                    let r = comm.rank();
                    std::thread::sleep(std::time::Duration::from_micros(400 * order[r]));
                    for _ in 0..yields[r] {
                        std::thread::yield_now();
                    }
                    let text = read_partition_text(comm, &fs, "r.txt", &read).unwrap();
                    (text, comm.now().to_bits())
                })
            };
            let first = run(0);
            let delivered: String = first.iter().map(|(t, _)| t.as_str()).collect();
            let mut lines: Vec<&str> = delivered.lines().collect();
            lines.sort_unstable();
            assert_eq!(
                lines,
                text.lines().collect::<Vec<_>>(),
                "{strategy:?} {block_size:?}"
            );
            for world in 1..WORLDS {
                assert_eq!(
                    run(world),
                    first,
                    "{strategy:?} {block_size:?}, world {world}"
                );
            }
        }
    }
}

/// The streamed twin: both layers' Level 0 reads posted as stripe
/// pieces up front and transcoded as their chunks land, in worlds whose
/// rank threads reach each post in a shuffled order. Every rank's
/// received frames, partition end and clock are bit-equal across the
/// worlds, in one iteration and in many.
#[test]
fn streamed_ingests_are_identical_whatever_order_ranks_arrive_in() {
    use mpi_vector_io::core::exchange::serialize_frame;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::sync::Arc;

    const WORLDS: u64 = 6;
    const RANKS: usize = 8;
    let layer = |salt: usize| -> String {
        (0..1_500)
            .map(|i| {
                let (x, y) = ((i * 37 + salt) % 90, (i * 11 + salt) % 60);
                let n = 2 + (i * 13 + salt) % 40;
                let pts: Vec<String> = (0..n)
                    .map(|k| format!("{} {}", x + k % 9, y + k % 7))
                    .collect();
                format!("LINESTRING ({})\tl{salt}-{i}\n", pts.join(", "))
            })
            .collect()
    };
    let texts = [layer(0), layer(5)];
    for block_size in [None, Some(24 << 10)] {
        let read = ReadOptions {
            block_size,
            ..ReadOptions::default()
        };
        let run = |world: u64| {
            let fs = SimFs::new(FsConfig::lustre_comet());
            for (path, text) in ["a.wkt", "b.wkt"].iter().zip(&texts) {
                fs.create(path, Some(StripeSpec::new(2, 16 << 10)))
                    .unwrap()
                    .append(text.as_bytes());
            }
            let mut rng = StdRng::seed_from_u64(world);
            let mut order: Vec<u64> = (0..RANKS as u64).collect();
            for i in (1..RANKS).rev() {
                order.swap(i, rng.gen_range(0..=i));
            }
            let yields: Vec<u64> = (0..RANKS).map(|_| rng.gen_range(0..64u64)).collect();
            let (order, yields) = (Arc::new(order), Arc::new(yields));
            World::run(WorldConfig::new(Topology::new(2, 4)), move |comm| {
                let r = comm.rank();
                std::thread::sleep(std::time::Duration::from_micros(400 * order[r]));
                for _ in 0..yields[r] {
                    std::thread::yield_now();
                }
                let out = pipeline::ingest_layers(
                    comm,
                    &fs,
                    &["a.wkt", "b.wkt"],
                    &read,
                    &WktLineParser,
                    &DecompConfig::uniform(GridSpec::square(6)),
                    &PipelineOptions::default().with_parse_chunk_bytes(4 << 10),
                    ExchangeChunk::Unlimited,
                )
                .unwrap();
                let mut bytes = Vec::new();
                for layer in &out.layers {
                    for frame in layer.owned.frames() {
                        serialize_frame(&frame, &mut bytes).unwrap();
                    }
                }
                (bytes, out.partition_end.to_bits(), comm.now().to_bits())
            })
        };
        let first = run(0);
        assert!(first.iter().all(|(bytes, ..)| !bytes.is_empty()));
        for world in 1..WORLDS {
            assert_eq!(run(world), first, "{block_size:?}, world {world}");
        }
    }
}

#[test]
fn virtual_time_is_independent_of_wall_time() {
    // Injecting real delays must not change virtual results: the model
    // never reads the wall clock.
    let run = |sleep: bool| {
        World::run(WorldConfig::new(Topology::single_node(2)), move |comm| {
            if sleep && comm.rank() == 0 {
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
            comm.charge(Work::Seconds(0.5));
            comm.barrier();
            comm.now()
        })
    };
    assert_eq!(run(false), run(true));
}
