//! Quickstart: partitioned parallel reading of a WKT file.
//!
//! Builds a small world, writes a WKT dataset onto a simulated Lustre
//! filesystem, and reads it back through MPI-Vector-IO's partitioned
//! reader on a 2-node × 4-rank job — the smallest end-to-end tour of the
//! library.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use mpi_vector_io::prelude::*;

fn main() {
    // 1. A simulated Lustre filesystem (COMET calibration) holding one
    //    WKT-per-line dataset, striped over 8 OSTs in 1 MiB stripes.
    let fs = SimFs::new(FsConfig::lustre_comet());
    let file = fs
        .create("demo/lakes.wkt", Some(StripeSpec::new(8, 1 << 20)))
        .expect("create file");
    let mut text = String::new();
    for i in 0..1000 {
        let x = (i % 40) as f64;
        let y = (i / 40) as f64;
        text.push_str(&format!(
            "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tlake-{i}\n",
            x + 0.8,
            x + 0.8,
            y + 0.8,
            y + 0.8
        ));
    }
    file.append(text.as_bytes());
    println!("dataset: {} bytes, 1000 polygons", file.len());

    // 2. An SPMD job: 2 nodes x 4 ranks. Every rank reads its partition
    //    (Algorithm 1: block reads + ring repair of split records), parses
    //    it, and reports.
    let topo = Topology::new(2, 4);
    fs.set_active_ranks(topo.ranks());
    let results = World::run(WorldConfig::new(topo), |comm| {
        let opts = ReadOptions::default().with_block_size(16 << 10);
        let text =
            read_partition_text(comm, &fs, "demo/lakes.wkt", &opts).expect("partitioned read");
        let (feats, _) =
            pipeline::parse_chunked(comm, &text, &WktLineParser, &PipelineOptions::default())
                .expect("parse");

        // Spatial-aware MPI: global extent via the MPI_UNION reduction.
        let local_mbr = feats
            .iter()
            .fold(Rect::EMPTY, |acc, f| acc.union(&f.geometry.envelope()));
        let global = comm.allreduce(local_mbr, 32, &spops::UnionRect);

        let total = comm.allreduce_u64(feats.len() as u64, |a, b| a + b);
        (comm.rank(), feats.len(), total, global, comm.now())
    });

    println!("\nrank  local  global  virtual-time");
    for (rank, local, total, global, now) in &results {
        println!("{rank:>4}  {local:>5}  {total:>6}  {now:.6}s  (extent {global})");
    }
    let total = results[0].2;
    assert_eq!(total, 1000, "every polygon delivered exactly once");
    println!("\nOK: 1000/1000 polygons partitioned, parsed, and globally accounted.");
}
