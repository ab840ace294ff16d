//! The streaming ingest pipeline: chunked parse → cell-map → serialize
//! over modelled worker lanes, with bit-identical output for any worker
//! count.
//!
//! Builds a WKT dataset, then runs the full per-rank ingest
//! (`core::pipeline::ingest`) at 1, 2, 4 and 8 workers. The exchanged
//! result is byte-for-byte identical across worker counts — only the
//! virtual clock compresses, because parse and partition charge the
//! slowest deterministic worker lane instead of the sequential sum. The
//! lanes are modelled: each rank runs every chunk on its own thread and
//! adds chunk `k`'s seconds to lane `k % workers`.
//!
//! ```text
//! cargo run --release --example pipeline
//! ```

use mpi_vector_io::core::FrameStore;
use mpi_vector_io::prelude::*;
use std::sync::Arc;

/// One WKT-per-line dataset on a fresh simulated Lustre filesystem (fresh
/// per run so the simulated OST queues start cold every time).
fn dataset(ranks: usize) -> Arc<SimFs> {
    let fs = SimFs::new(FsConfig::lustre_comet());
    let file = fs
        .create("demo/buildings.wkt", Some(StripeSpec::new(8, 1 << 20)))
        .expect("create file");
    let mut text = String::new();
    for i in 0..4000 {
        let x = (i % 80) as f64 * 0.9;
        let y = (i / 80) as f64 * 1.1;
        match i % 3 {
            0 => text.push_str(&format!("POINT ({x} {y})\tpoi-{i}\n")),
            1 => text.push_str(&format!(
                "LINESTRING ({x} {y}, {} {})\troad-{i}\n",
                x + 2.0,
                y + 0.5
            )),
            _ => text.push_str(&format!(
                "POLYGON (({x} {y}, {} {y}, {} {}, {x} {}, {x} {y}))\tbldg-{i}\n",
                x + 0.7,
                x + 0.7,
                y + 0.7,
                y + 0.7
            )),
        }
    }
    file.append(text.as_bytes());
    fs.set_active_ranks(ranks);
    fs
}

fn main() {
    let topo = Topology::new(2, 2);
    let read = ReadOptions::default().with_block_size(64 << 10);
    let mut baseline: Option<Vec<FrameStore>> = None;
    let mut t1 = 0.0f64;

    println!("ingest of 4000 features on a 2x2 job, worker sweep:\n");
    println!("workers  chunks  pairs  rank-0 owned  virtual-time  speedup");
    for workers in [1usize, 2, 4, 8] {
        let fs = dataset(topo.ranks());
        let popts = PipelineOptions::default()
            .with_workers(workers)
            .with_parse_chunk_bytes(8 << 10)
            .with_partition_chunk_records(256);
        let out = World::run(WorldConfig::new(topo), move |comm| {
            let rep = pipeline::ingest(
                comm,
                &fs,
                "demo/buildings.wkt",
                &read,
                &WktLineParser,
                &mpi_vector_io::core::decomp::DecompConfig::uniform(GridSpec::square(8)),
                &popts,
            )
            .expect("pipelined ingest");
            (rep.owned, rep.stats, comm.now())
        });
        let stats = out[0].1;
        let time = out.iter().map(|(_, _, t)| *t).fold(0.0, f64::max);
        let owned: Vec<FrameStore> = out.into_iter().map(|(o, _, _)| o).collect();
        if workers == 1 {
            t1 = time;
        }
        println!(
            "{workers:>7}  {:>6}  {:>5}  {:>12}  {:>10.6}s  {:>6.2}x",
            stats.parse_chunks + stats.partition_chunks,
            stats.pairs,
            owned[0].len(),
            time,
            t1 / time
        );
        // The correctness oracle: every worker count produces the exact
        // same exchanged partitioning on every rank.
        match &baseline {
            None => baseline = Some(owned),
            Some(base) => {
                for (a, b) in base.iter().zip(&owned) {
                    let same = a.frames().eq(b.frames());
                    assert!(same, "workers={workers} must be bit-identical");
                }
            }
        }
    }
    println!("\nOK: pipeline output bit-identical at 1/2/4/8 workers; virtual time scales.");
}
