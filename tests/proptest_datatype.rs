//! Property-based tests of the derived-datatype machinery: fragment
//! geometry invariants for arbitrary nested layouts.

use mpi_vector_io::msim::datatype::StructField;
use mpi_vector_io::msim::Datatype;
use proptest::prelude::*;

/// Strategy producing arbitrary (valid) nested datatypes of bounded depth.
fn arb_datatype() -> impl Strategy<Value = Datatype> {
    let leaf = prop_oneof![
        Just(Datatype::Byte),
        Just(Datatype::Int32),
        Just(Datatype::Int64),
        Just(Datatype::Double),
    ];
    leaf.prop_recursive(3, 64, 8, |inner| {
        prop_oneof![
            // Contiguous
            (1usize..5, inner.clone()).prop_map(|(n, t)| Datatype::contiguous(n, t)),
            // Strided blocks (the `MPI_Type_vector` layout) with stride >=
            // blocklen, as an indexed type
            (1usize..4, 1usize..4, 0usize..4, inner.clone()).prop_map(|(count, bl, extra, t)| {
                let displs = (0..count).map(|i| i * (bl + extra)).collect();
                Datatype::indexed(vec![bl; count], displs, t)
            }),
            // Indexed with strictly increasing, non-overlapping blocks
            (
                proptest::collection::vec((1usize..4, 0usize..4), 1..4),
                inner.clone()
            )
                .prop_map(|(blocks, t)| {
                    let mut displs = Vec::new();
                    let mut lens = Vec::new();
                    let mut at = 0usize;
                    for (len, gap) in blocks {
                        at += gap;
                        displs.push(at);
                        lens.push(len);
                        at += len;
                    }
                    Datatype::indexed(lens, displs, t)
                }),
            // One-field struct padded to extent >= inner extent
            (inner, 0usize..16).prop_map(|(t, pad)| Datatype::Struct {
                extent: t.extent() + pad,
                fields: vec![StructField {
                    offset: 0,
                    count: 1,
                    ty: t,
                }],
            }),
        ]
    })
}

proptest! {
    // Seed pinned so CI failures are reproducible; override with
    // PROPTEST_SEED to explore a different stream.
    #![proptest_config(ProptestConfig::with_cases(256).with_seed(0x6d76_696f_6474_7970))]

    #[test]
    fn generated_datatypes_validate(dt in arb_datatype()) {
        prop_assert!(dt.validate().is_ok(), "{dt:?}");
    }

    #[test]
    fn fragments_are_sorted_disjoint_and_sum_to_size(dt in arb_datatype()) {
        let frags = dt.fragments();
        let total: usize = frags.iter().map(|f| f.1).sum();
        prop_assert_eq!(total, dt.size(), "{:?}", dt);
        for w in frags.windows(2) {
            prop_assert!(w[0].0 + w[0].1 <= w[1].0, "overlap in {:?}: {:?}", dt, frags);
        }
        if let Some(&(off, len)) = frags.last() {
            prop_assert!(off + len <= dt.extent(), "{:?} runs past extent", dt);
        }
        // No empty fragments.
        prop_assert!(frags.iter().all(|f| f.1 > 0));
    }

    #[test]
    fn size_never_exceeds_extent(dt in arb_datatype()) {
        prop_assert!(dt.size() <= dt.extent(), "{dt:?}");
    }

    #[test]
    fn contiguous_of_n_scales_size_linearly(dt in arb_datatype(), n in 1usize..6) {
        let c = Datatype::contiguous(n, dt.clone());
        prop_assert_eq!(c.size(), n * dt.size());
        prop_assert_eq!(c.extent(), n * dt.extent());
    }
}
