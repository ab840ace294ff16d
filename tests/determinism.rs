//! Determinism guarantees: identical seeds and configurations produce
//! bit-identical results — data always, virtual time on collective paths
//! (the snapshot write and reload included).

mod common;

use common::{catalog_fs, mk_decomp, mk_features, owned_replicas, WORLD};
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
                    let owned = owned_replicas(&*sd, &mk_features(&coords), comm.rank());
                    let opts = SnapshotWriteOptions::default();
                    write_partitioned(comm, &fs, path, &owned, &*sd, &opts).unwrap();
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
