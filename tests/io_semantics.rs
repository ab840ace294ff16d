//! Cross-crate MPI-IO semantics: access-level equivalence, the ROMIO
//! limit, file views, hints, and stats accounting.

use mpi_vector_io::core::sptypes::{encode_rect, RECT_RECORD_BYTES};
use mpi_vector_io::core::views::read_rects_level3;
use mpi_vector_io::msim::datatype::StructField;
use mpi_vector_io::msim::io::{select_readers, FileView};
use mpi_vector_io::msim::MsimError;
use mpi_vector_io::prelude::*;
use std::sync::Arc;

/// `rects` as back-to-back `MPI_RECT` records.
fn encode_rects(rects: &[Rect]) -> Vec<u8> {
    let mut out = Vec::with_capacity(rects.len() * RECT_RECORD_BYTES);
    rects.iter().for_each(|r| encode_rect(r, &mut out));
    out
}

fn rect_file(n: u64, stripe: StripeSpec) -> (Arc<SimFs>, Vec<Rect>) {
    let fs = SimFs::new(FsConfig::lustre_comet());
    let rects: Vec<Rect> = (0..n)
        .map(|i| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0))
        .collect();
    let f = fs.create("rects.bin", Some(stripe)).unwrap();
    f.append(encode_rects(&rects));
    (fs, rects)
}

#[test]
fn all_three_levels_deliver_identical_bytes() {
    let n = 1024u64;
    let (fs, rects) = rect_file(n, StripeSpec::new(4, 4096));
    let expect: Vec<f64> = rects.iter().map(|r| r.min_x).collect();

    for level in ["l0", "l1", "l3"] {
        let fs = Arc::clone(&fs);
        let out = World::run(WorldConfig::new(Topology::new(2, 2)), move |comm| {
            let mut f = MpiFile::open(&fs, "rects.bin", Hints::default()).unwrap();
            match level {
                "l0" | "l1" => {
                    let p = comm.size() as u64;
                    let per = n / p;
                    let off = comm.rank() as u64 * per * RECT_RECORD_BYTES as u64;
                    let mut buf = vec![0u8; (per * RECT_RECORD_BYTES as u64) as usize];
                    if level == "l0" {
                        f.read_at(comm, off, &mut buf).unwrap();
                    } else {
                        f.read_at_all(comm, off, &mut buf).unwrap();
                    }
                    mpi_vector_io::core::sptypes::decode_rects(&buf)
                }
                _ => read_rects_level3(comm, &mut f, n, 64).unwrap(),
            }
        });
        let mut got: Vec<f64> = out.iter().flatten().map(|r| r.min_x).collect();
        got.sort_by(f64::total_cmp);
        let mut want = expect.clone();
        want.sort_by(f64::total_cmp);
        assert_eq!(got, want, "level {level} must deliver every record once");
    }
}

#[test]
fn romio_2gb_limit_is_enforced_per_operation() {
    let (fs, _) = rect_file(8, StripeSpec::new(1, 4096));
    World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
        let f = MpiFile::open(&fs, "rects.bin", Hints::default()).unwrap();
        // Can't allocate >2 GiB in a test; validate through write_at_all
        // whose length check runs before any allocation-dependent work.
        let huge = vec![0u8; 64];
        let ok = f.write_at_all(comm, 0, &huge);
        assert!(ok.is_ok());
        // The checker itself is covered in unit tests; here confirm the
        // public error type round-trips.
        let err = MsimError::CountOverflow { requested: 3 << 30 };
        assert!(err.to_string().contains("2 GiB"));
    });
}

#[test]
fn reader_selection_affects_collective_read_time() {
    // Same file and workload; a node count that divides the stripe count
    // beats one that doesn't (Figure 11's mechanism, end to end).
    let n = 64 * 1024u64;
    let elapsed = |nodes: usize| {
        let (fs, _) = rect_file(n, StripeSpec::new(64, 16 << 10));
        fs.set_active_ranks(nodes * 4);
        let out = World::run(WorldConfig::new(Topology::new(nodes, 4)), move |comm| {
            let f = MpiFile::open(&fs, "rects.bin", Hints::default()).unwrap();
            let p = comm.size() as u64;
            let per = n / p;
            let off = comm.rank() as u64 * per * RECT_RECORD_BYTES as u64;
            let mut buf = vec![0u8; (per * RECT_RECORD_BYTES as u64) as usize];
            f.read_at_all(comm, off, &mut buf).unwrap();
            comm.now()
        });
        out.into_iter().fold(0.0, f64::max)
    };
    // Readers: 32 nodes -> 32 readers; 48 nodes -> still 32 readers but
    // the job is larger; throughput per process must be worse at 48.
    assert_eq!(select_readers(FsKind::Lustre, 64, 32, None), 32);
    assert_eq!(select_readers(FsKind::Lustre, 64, 48, None), 32);
    let t32 = elapsed(32);
    let t48 = elapsed(48);
    // Equal reader counts on the same volume: 48 nodes cannot be
    // meaningfully faster.
    assert!(t48 > t32 * 0.8, "t32 {t32} vs t48 {t48}");
}

#[test]
fn cb_nodes_hint_caps_aggregators() {
    // Low request latency + enough volume that the aggregators' client-
    // side throughput is the bottleneck; fewer aggregators then means
    // less parallel ingest bandwidth.
    let n = 256 * 1024u64;
    let run_with = |hints: Hints| {
        let mut cfg = FsConfig::lustre_comet();
        cfg.perf.request_latency = 2.0e-6;
        let fs = SimFs::new(cfg);
        let rects: Vec<Rect> = (0..n)
            .map(|i| Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0))
            .collect();
        fs.create("rects.bin", Some(StripeSpec::new(16, 16 << 10)))
            .unwrap()
            .append(encode_rects(&rects));
        let out = World::run(WorldConfig::new(Topology::new(4, 4)), move |comm| {
            let f = MpiFile::open(&fs, "rects.bin", hints).unwrap();
            let p = comm.size() as u64;
            let per = n / p;
            let off = comm.rank() as u64 * per * RECT_RECORD_BYTES as u64;
            let mut buf = vec![0u8; (per * RECT_RECORD_BYTES as u64) as usize];
            f.read_at_all(comm, off, &mut buf).unwrap();
            comm.now()
        });
        out.into_iter().fold(0.0, f64::max)
    };
    let free = run_with(Hints::default());
    let capped = run_with(Hints {
        cb_nodes: Some(1),
        ..Default::default()
    });
    assert!(
        capped > free,
        "1 aggregator ({capped}) must be slower than 4 ({free})"
    );
}

#[test]
fn file_views_tile_with_gaps() {
    // A vector view skipping every other 8-byte record.
    let fs = SimFs::new(FsConfig::lustre_comet());
    let f = fs.create("v.bin", None).unwrap();
    let data: Vec<u8> = (0..128u8).collect();
    f.append(&data);
    World::run(WorldConfig::new(Topology::single_node(1)), move |comm| {
        // 8 payload bytes tiled every 16 bytes: a struct padded past its
        // one field.
        let filetype = Datatype::Struct {
            fields: vec![StructField {
                offset: 0,
                count: 8,
                ty: Datatype::Byte,
            }],
            extent: 16,
        };
        let view = FileView::new(0, filetype).unwrap();
        let mut file = MpiFile::open(&fs, "v.bin", Hints::default()).unwrap();
        file.set_view(view);
        let mut buf = vec![0u8; 32]; // 4 instances of 8 payload bytes
        let nread = file.read_all(comm, 0, 1, &mut buf).unwrap();
        assert_eq!(nread, 32);
        // Instance k starts at byte 16k; payload = bytes 16k..16k+8.
        for k in 0..4 {
            for j in 0..8 {
                assert_eq!(buf[k * 8 + j], (16 * k + j) as u8);
            }
        }
    });
}

#[test]
fn stats_account_for_exact_volumes() {
    let n = 512u64;
    let (fs, _) = rect_file(n, StripeSpec::new(4, 2048));
    let expected_bytes = n * RECT_RECORD_BYTES as u64;
    let fs2 = Arc::clone(&fs);
    World::run(WorldConfig::new(Topology::single_node(4)), move |comm| {
        let f = MpiFile::open(&fs2, "rects.bin", Hints::default()).unwrap();
        let p = comm.size() as u64;
        let per = n / p;
        let off = comm.rank() as u64 * per * RECT_RECORD_BYTES as u64;
        let mut buf = vec![0u8; (per * RECT_RECORD_BYTES as u64) as usize];
        f.read_at(comm, off, &mut buf).unwrap();
    });
    assert_eq!(fs.stats().bytes_read(), expected_bytes);
    assert_eq!(fs.stats().read_ops(), 4);
}
