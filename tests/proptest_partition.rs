//! Property-based tests of the file-partitioning invariant: every record
//! is delivered to exactly one rank, for arbitrary record lengths, block
//! sizes, rank counts and boundary strategies.

use mpi_vector_io::prelude::*;
use proptest::prelude::*;

/// Builds a file from the given record lengths (record i is `len[i]`
/// copies of a letter derived from i, so records are distinguishable).
fn build_file(lens: &[usize], trailing_newline: bool) -> (std::sync::Arc<SimFs>, Vec<String>) {
    let fs = SimFs::new(FsConfig::test_tiny_like());
    let records: Vec<String> = lens
        .iter()
        .enumerate()
        .map(|(i, &l)| {
            let ch = (b'a' + (i % 26) as u8) as char;
            format!("{i:05}{}", ch.to_string().repeat(l))
        })
        .collect();
    let mut text = records.join("\n");
    if trailing_newline {
        text.push('\n');
    }
    let f = fs.create("p.txt", None).unwrap();
    f.append(text.as_bytes());
    (fs, records)
}

/// Test-only filesystem shim (mirrors `FsConfig::test_tiny` which lives
/// behind the pfs crate's test cfg).
trait TestTiny {
    fn test_tiny_like() -> FsConfig;
}

impl TestTiny for FsConfig {
    fn test_tiny_like() -> FsConfig {
        let mut cfg = FsConfig::lustre_comet();
        cfg.default_stripe = StripeSpec::new(2, 1024);
        cfg
    }
}

fn run_partition(fs: &std::sync::Arc<SimFs>, ranks: usize, opts: ReadOptions) -> Vec<String> {
    let fs = std::sync::Arc::clone(fs);
    let per_rank = World::run(
        WorldConfig::new(Topology::single_node(ranks)),
        move |comm| read_partition_text(comm, &fs, "p.txt", &opts).unwrap(),
    );
    let mut all: Vec<String> = per_rank
        .iter()
        .flat_map(|t| t.lines().map(str::to_string))
        .filter(|l| !l.is_empty())
        .collect();
    all.sort();
    all
}

proptest! {
    // Seed pinned so CI failures are reproducible; override with
    // PROPTEST_SEED to explore a different stream.
    #![proptest_config(ProptestConfig::with_cases(48).with_seed(0x6d76_696f_7061_7274))]

    #[test]
    fn message_strategy_delivers_exactly_once(
        lens in proptest::collection::vec(0usize..120, 1..60),
        ranks in 1usize..7,
        block in 256u64..2048,
        trailing in any::<bool>(),
    ) {
        let (fs, records) = build_file(&lens, trailing);
        let opts = ReadOptions::default()
            .with_block_size(block)
            .with_max_geometry_bytes(4096);
        let got = run_partition(&fs, ranks, opts);
        let mut expect = records.clone();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn overlap_strategy_delivers_exactly_once(
        lens in proptest::collection::vec(0usize..120, 1..60),
        ranks in 1usize..7,
        block in 256u64..2048,
        trailing in any::<bool>(),
    ) {
        let (fs, records) = build_file(&lens, trailing);
        let opts = ReadOptions::default()
            .with_strategy(BoundaryStrategy::Overlap)
            .with_block_size(block)
            .with_max_geometry_bytes(4096);
        let got = run_partition(&fs, ranks, opts);
        let mut expect = records.clone();
        expect.sort();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn strategies_agree_with_each_other(
        lens in proptest::collection::vec(0usize..80, 1..40),
        ranks in 1usize..5,
        block in 512u64..1536,
    ) {
        let (fs, _) = build_file(&lens, true);
        let msg = run_partition(
            &fs,
            ranks,
            ReadOptions::default().with_block_size(block).with_max_geometry_bytes(4096),
        );
        let (fs2, _) = build_file(&lens, true);
        let ovl = run_partition(
            &fs2,
            ranks,
            ReadOptions::default()
                .with_strategy(BoundaryStrategy::Overlap)
                .with_block_size(block)
                .with_max_geometry_bytes(4096),
        );
        prop_assert_eq!(msg, ovl);
    }

    #[test]
    fn collective_level_agrees_with_independent(
        lens in proptest::collection::vec(0usize..80, 1..40),
        ranks in 1usize..5,
        block in 512u64..1536,
    ) {
        let (fs, _) = build_file(&lens, true);
        let l0 = run_partition(
            &fs,
            ranks,
            ReadOptions::default().with_block_size(block).with_max_geometry_bytes(4096),
        );
        let (fs2, _) = build_file(&lens, true);
        let l1 = run_partition(
            &fs2,
            ranks,
            ReadOptions::default()
                .with_level(AccessLevel::Level1)
                .with_block_size(block)
                .with_max_geometry_bytes(4096),
        );
        prop_assert_eq!(l0, l1);
    }
}

/// The file of `records` installed with stripes of `stripe` bytes (a
/// stripe longer than the file makes every rank's read one piece).
fn striped_fs(text: &str, stripe: u64) -> std::sync::Arc<SimFs> {
    let fs = SimFs::new(FsConfig::lustre_comet());
    fs.create("p.txt", Some(StripeSpec::new(2, stripe)))
        .unwrap()
        .append(text.as_bytes());
    fs
}

/// Every rank's own partition text (or its error), in rank order.
fn texts_per_rank(text: &str, stripe: u64, ranks: usize, opts: ReadOptions) -> Vec<String> {
    let fs = striped_fs(text, stripe);
    World::run(
        WorldConfig::new(Topology::single_node(ranks)),
        move |comm| {
            read_partition_text(comm, &fs, "p.txt", &opts).unwrap_or_else(|e| format!("error: {e}"))
        },
    )
}

/// A WKT line layer whose record `i` has about `lens[i]` bytes of
/// vertices, so records outgrow a stripe and span pieces.
fn wkt_lines(lens: &[usize], trailing_newline: bool) -> String {
    let records: Vec<String> = lens
        .iter()
        .enumerate()
        .map(|(i, &len)| {
            let vertices: Vec<String> = (0..2 + len / 12)
                .map(|k| format!("{} {}", (i * 7 + k) % 50, (i + 3 * k) % 30))
                .collect();
            format!("LINESTRING ({})\tline{i}", vertices.join(", "))
        })
        .collect();
    let mut text = records.join("\n");
    if trailing_newline {
        text.push('\n');
    }
    text
}

/// Every rank's received frames of an ingest of `text`, as wire bytes.
fn ingested_bytes(text: &str, stripe: u64, ranks: usize, read: ReadOptions) -> Vec<Vec<u8>> {
    use mpi_vector_io::core::exchange::serialize_frame;
    let fs = striped_fs(text, stripe);
    World::run(
        WorldConfig::new(Topology::single_node(ranks)),
        move |comm| {
            let out = pipeline::ingest(
                comm,
                &fs,
                "p.txt",
                &read,
                &WktLineParser,
                &DecompConfig::uniform(GridSpec::square(4)),
                &PipelineOptions::default().with_parse_chunk_bytes(1 << 10),
            )
            .unwrap();
            let mut bytes = Vec::new();
            for frame in out.owned.frames() {
                serialize_frame(&frame, &mut bytes).unwrap();
            }
            bytes
        },
    )
}

proptest! {
    // Every case runs eight worlds of up to 16 rank threads over a few
    // dozen records. Seed pinned (PROPTEST_SEED overrides).
    #![proptest_config(ProptestConfig::with_cases(32).with_seed(0x6d76_696f_7374_726d))]

    // Reads posted as stripe pieces deliver every rank exactly the text
    // a one-piece read delivers: for one stripe, several stripes or the
    // whole partition per piece, records longer than a stripe, with and
    // without a trailing newline, in one iteration or many — and an
    // ingest's received frames are byte-identical across stripe sizes.
    #[test]
    fn streamed_reads_deliver_the_one_piece_reads_bytes(
        lens in proptest::collection::vec(0usize..4000, 8..48),
        rank_pick in 0usize..5,
        // Below 3 KiB: one iteration (`block_size` None).
        block in 0u64..8192,
        trailing in any::<bool>(),
    ) {
        let ranks = [1usize, 2, 3, 7, 16][rank_pick];
        let block = (block >= 3072).then_some(block);
        let text = wkt_lines(&lens, trailing);
        let whole = 4 * text.len() as u64;
        let opts = ReadOptions {
            block_size: block,
            max_geometry_bytes: 4096,
            ..ReadOptions::default()
        };
        let one_piece = texts_per_rank(&text, whole, ranks, opts);
        // A block without a delimiter fails the read alike at every
        // stripe size; only a clean read is ingested.
        let clean = !one_piece.iter().any(|t| t.starts_with("error"));
        let frames = clean.then(|| ingested_bytes(&text, whole, ranks, opts));
        for stripe in [1u64 << 10, 4 << 10, 64 << 10] {
            prop_assert_eq!(&texts_per_rank(&text, stripe, ranks, opts), &one_piece);
            if let Some(frames) = &frames {
                prop_assert_eq!(&ingested_bytes(&text, stripe, ranks, opts), frames);
            }
        }
    }
}
