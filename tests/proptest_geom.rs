//! Property-based tests over the geometry engine: serialization round
//! trips, rectangle algebra, and index-vs-brute-force equivalence.

use mpi_vector_io::geom::algo::{
    point_geometry_distance, point_in_polygon, rect_contains_any_vertex, rect_intersects_geometry,
    segments_intersect, PointLocation,
};
use mpi_vector_io::geom::index::RTree;
use mpi_vector_io::geom::{wkb, wkt, Geometry, LineString, Point, Polygon, Rect};
use proptest::prelude::*;

fn finite_coord() -> impl Strategy<Value = f64> {
    // Geographic-ish magnitudes, quantized to avoid pathological
    // shortest-representation blowups in WKT text.
    (-1_800_000i32..1_800_000).prop_map(|v| v as f64 / 10_000.0)
}

fn arb_point() -> impl Strategy<Value = Point> {
    (finite_coord(), finite_coord()).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_rect() -> impl Strategy<Value = Rect> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Rect::from_corners(a, b))
}

fn arb_linestring() -> impl Strategy<Value = LineString> {
    proptest::collection::vec(arb_point(), 2..20)
        .prop_filter_map("valid linestring", |pts| LineString::new(pts).ok())
}

fn arb_polygon() -> impl Strategy<Value = Polygon> {
    // Star-shaped construction guarantees validity for arbitrary inputs.
    (arb_point(), 3usize..24, 1u64..u64::MAX).prop_map(|(center, k, seed)| {
        let mut pts = Vec::with_capacity(k + 1);
        let mut s = seed;
        for i in 0..k {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = 0.1 + (s >> 33) as f64 / u32::MAX as f64 * 5.0;
            let a = i as f64 / k as f64 * std::f64::consts::TAU;
            pts.push(Point::new(center.x + r * a.cos(), center.y + r * a.sin()));
        }
        pts.push(pts[0]);
        Polygon::from_coords(pts, vec![]).expect("star polygon valid")
    })
}

fn arb_geometry() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_point().prop_map(Geometry::Point),
        arb_linestring().prop_map(Geometry::LineString),
        arb_polygon().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_point(), 0..8)
            .prop_map(|v| Geometry::MultiPoint(mpi_vector_io::geom::MultiPoint(v))),
        proptest::collection::vec(arb_polygon(), 1..4)
            .prop_map(|v| Geometry::MultiPolygon(mpi_vector_io::geom::MultiPolygon(v))),
    ]
}

fn arb_polygon_holed() -> impl Strategy<Value = Polygon> {
    // Exterior star plus an interior ring scaled toward the center, so
    // the oracle covers multi-ring polygon bodies.
    (arb_point(), 4usize..12, 1u64..u64::MAX).prop_map(|(center, k, seed)| {
        let mut outer = Vec::with_capacity(k + 1);
        let mut s = seed;
        for i in 0..k {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let r = 1.0 + (s >> 33) as f64 / u32::MAX as f64 * 5.0;
            let a = i as f64 / k as f64 * std::f64::consts::TAU;
            outer.push(Point::new(center.x + r * a.cos(), center.y + r * a.sin()));
        }
        outer.push(outer[0]);
        let hole: Vec<Point> = outer
            .iter()
            .map(|p| {
                Point::new(
                    center.x + (p.x - center.x) * 0.25,
                    center.y + (p.y - center.y) * 0.25,
                )
            })
            .collect();
        Polygon::from_coords(outer, vec![hole]).expect("holed star polygon valid")
    })
}

/// Every WKB variant the codec knows: the five shapes above plus
/// multi-linestrings, holed polygons, and (possibly empty, possibly
/// nested) heterogeneous collections.
fn arb_geometry_full() -> impl Strategy<Value = Geometry> {
    prop_oneof![
        arb_geometry(),
        arb_polygon_holed().prop_map(Geometry::Polygon),
        proptest::collection::vec(arb_linestring(), 1..4)
            .prop_map(|v| Geometry::MultiLineString(mpi_vector_io::geom::MultiLineString(v))),
        proptest::collection::vec(arb_geometry(), 0..4).prop_map(|v| {
            Geometry::GeometryCollection(mpi_vector_io::geom::GeometryCollection(v))
        }),
    ]
}

/// Every vertex of `g`, in the order its rings and parts store them.
fn vertices(g: &Geometry, out: &mut Vec<Point>) {
    let polygon = |p: &Polygon, out: &mut Vec<Point>| {
        out.extend_from_slice(p.exterior().points());
        for hole in p.interiors() {
            out.extend_from_slice(hole.points());
        }
    };
    match g {
        Geometry::Point(p) => out.push(*p),
        Geometry::LineString(l) => out.extend_from_slice(l.points()),
        Geometry::Polygon(p) => polygon(p, out),
        Geometry::MultiPoint(m) => out.extend_from_slice(&m.0),
        Geometry::MultiLineString(m) => m.0.iter().for_each(|l| out.extend_from_slice(l.points())),
        Geometry::MultiPolygon(m) => m.0.iter().for_each(|p| polygon(p, out)),
        Geometry::GeometryCollection(c) => c.0.iter().for_each(|g| vertices(g, out)),
    }
}

proptest! {
    // Seed pinned so CI failures are reproducible; override with
    // PROPTEST_SEED to explore a different stream.
    #![proptest_config(ProptestConfig::with_cases(256).with_seed(0x6d76_696f_6765_6f6d))]

    #[test]
    fn wkt_round_trips_exactly(g in arb_geometry()) {
        let text = wkt::write(&g);
        let back = wkt::parse(&text).unwrap();
        prop_assert_eq!(back, g);
    }

    #[test]
    fn wkb_round_trips_exactly(g in arb_geometry()) {
        let bytes = wkb::encode(&g);
        let (back, used) = wkb::decode(&bytes).unwrap();
        prop_assert_eq!(used, bytes.len());
        prop_assert_eq!(back, g);
    }

    #[test]
    fn wkb_never_panics_on_corruption(g in arb_geometry(), cut in 0usize..64, flip in 0usize..64) {
        let mut bytes = wkb::encode(&g);
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        if !bytes.is_empty() {
            let idx = flip % bytes.len();
            bytes[idx] ^= 0xA5;
        }
        // Must return Ok or Err, never panic or loop.
        let _ = wkb::decode(&bytes);
    }

    // ---- decode_ref ≡ decode oracle -------------------------------
    //
    // The zero-copy borrowed decoder must be observationally identical
    // to the owned decoder: same acceptance set, same rejection set
    // with the same diagnostics, and views that materialize, measure,
    // and bound exactly like the owned geometry.

    #[test]
    fn decode_ref_matches_decode(g in arb_geometry_full()) {
        let bytes = wkb::encode(&g);
        let (owned, used_o) = wkb::decode(&bytes).unwrap();
        let (view, used_r) = wkb::decode_ref(&bytes).unwrap();
        prop_assert_eq!(used_o, bytes.len());
        prop_assert_eq!(used_r, bytes.len());
        prop_assert_eq!(view.geometry_type(), owned.geometry_type());
        prop_assert_eq!(view.num_points(), owned.num_points());
        prop_assert_eq!(view.envelope(), owned.envelope());
        prop_assert_eq!(view.to_geometry(), owned.clone());
        prop_assert_eq!(owned, g);
    }

    #[test]
    fn decode_ref_truncation_parity_at_every_cut(g in arb_geometry_full()) {
        let bytes = wkb::encode(&g);
        for cut in 0..bytes.len() {
            let owned = wkb::decode(&bytes[..cut]);
            let view = wkb::decode_ref(&bytes[..cut]);
            match (owned, view) {
                (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
                (Ok((og, ou)), Ok((vg, vu))) => {
                    prop_assert_eq!(ou, vu);
                    prop_assert_eq!(og, vg.to_geometry());
                }
                (a, b) => prop_assert!(
                    false,
                    "cut {} disagreement: owned ok={} view ok={}",
                    cut,
                    a.is_ok(),
                    b.is_ok()
                ),
            }
        }
    }

    #[test]
    fn decode_ref_agrees_with_decode_on_corruption(
        g in arb_geometry_full(),
        cut in 0usize..64,
        flip in 0usize..64,
    ) {
        let mut bytes = wkb::encode(&g);
        let cut = cut.min(bytes.len());
        bytes.truncate(cut);
        if !bytes.is_empty() {
            let idx = flip % bytes.len();
            bytes[idx] ^= 0xA5;
        }
        match (wkb::decode(&bytes), wkb::decode_ref(&bytes)) {
            (Err(a), Err(b)) => prop_assert_eq!(a.to_string(), b.to_string()),
            (Ok((og, ou)), Ok((vg, vu))) => {
                prop_assert_eq!(ou, vu);
                prop_assert_eq!(og, vg.to_geometry());
            }
            (a, b) => prop_assert!(
                false,
                "corruption disagreement: owned ok={} view ok={}",
                a.is_ok(),
                b.is_ok()
            ),
        }
    }

    #[test]
    fn decode_ref_walks_concatenated_streams(
        gs in proptest::collection::vec(arb_geometry_full(), 1..6),
    ) {
        let mut buf = Vec::new();
        for g in &gs {
            buf.extend_from_slice(&wkb::encode(g));
        }
        let mut pos = 0;
        for g in &gs {
            let (owned, used_o) = wkb::decode(&buf[pos..]).unwrap();
            let (view, used_r) = wkb::decode_ref(&buf[pos..]).unwrap();
            prop_assert_eq!(used_o, used_r);
            prop_assert_eq!(&view.to_geometry(), &owned);
            prop_assert_eq!(&owned, g);
            prop_assert_eq!(view.envelope(), g.envelope());
            prop_assert_eq!(view.num_points(), g.num_points());
            pos += used_o;
        }
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn union_is_commutative_associative_and_covering(a in arb_rect(), b in arb_rect(), c in arb_rect()) {
        prop_assert_eq!(a.union(&b), b.union(&a));
        prop_assert_eq!(a.union(&b).union(&c), a.union(&b.union(&c)));
        let u = a.union(&b);
        prop_assert!(u.contains(&a) && u.contains(&b));
        prop_assert_eq!(a.union(&Rect::EMPTY), a);
    }

    #[test]
    fn intersection_is_contained_and_symmetric(a in arb_rect(), b in arb_rect()) {
        let i = a.intersection(&b);
        prop_assert_eq!(i, b.intersection(&a));
        if !i.is_empty() {
            prop_assert!(a.contains(&i) && b.contains(&i));
            prop_assert!(a.intersects(&b));
        } else {
            prop_assert!(!a.intersects(&b) || a.is_empty() || b.is_empty());
        }
    }

    #[test]
    fn envelope_contains_every_vertex(g in arb_geometry()) {
        let env = g.envelope();
        match &g {
            Geometry::LineString(l) => {
                for p in l.points() {
                    prop_assert!(env.contains_point(p));
                }
            }
            Geometry::Polygon(p) => {
                for q in p.exterior().points() {
                    prop_assert!(env.contains_point(q));
                }
            }
            Geometry::Point(p) => prop_assert!(env.contains_point(p)),
            _ => {}
        }
    }

    #[test]
    fn segment_intersection_is_symmetric(a in arb_point(), b in arb_point(), c in arb_point(), d in arb_point()) {
        prop_assert_eq!(
            segments_intersect(a, b, c, d),
            segments_intersect(c, d, a, b)
        );
        // A segment always intersects itself.
        prop_assert!(segments_intersect(a, b, a, b));
    }

    #[test]
    fn polygon_vertices_are_on_boundary(poly in arb_polygon()) {
        for &v in poly.exterior().points() {
            prop_assert_eq!(point_in_polygon(v, &poly), PointLocation::OnBoundary);
        }
    }

    #[test]
    fn polygon_centroid_of_star_is_inside(poly in arb_polygon()) {
        // The construction is star-shaped around its generation center,
        // whose nearest proxy is the envelope center — not guaranteed
        // inside for all stars, so test the weaker invariant: a point
        // reported Inside is also inside the envelope.
        let c = poly.envelope().center();
        if point_in_polygon(c, &poly) == PointLocation::Inside {
            prop_assert!(poly.envelope().contains_point(&c));
        }
    }

    #[test]
    fn rtree_matches_brute_force(
        items in proptest::collection::vec(arb_rect(), 1..150),
        probe in arb_rect(),
    ) {
        let keyed: Vec<(Rect, usize)> =
            items.iter().cloned().zip(0usize..).collect();
        let tree = RTree::bulk_load(keyed.clone());
        let mut expect: Vec<usize> = keyed
            .iter()
            .filter(|(r, _)| r.intersects(&probe))
            .map(|&(_, i)| i)
            .collect();
        let mut got: Vec<usize> = tree.query(&probe).into_iter().copied().collect();
        expect.sort_unstable();
        got.sort_unstable();
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn rtree_insert_matches_bulk_load_semantics(
        items in proptest::collection::vec(arb_rect(), 1..80),
        probe in arb_rect(),
    ) {
        let bulk = RTree::bulk_load(items.iter().cloned().zip(0usize..).collect());
        let mut inc = RTree::new();
        for (i, r) in items.iter().enumerate() {
            inc.insert(*r, i);
        }
        let mut a: Vec<usize> = bulk.query(&probe).into_iter().copied().collect();
        let mut b: Vec<usize> = inc.query(&probe).into_iter().copied().collect();
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// The serving filter's true-hit rule, over every geometry variant
    /// (holes, multi-part, nested collections): a rectangle that
    /// contains a geometry's non-empty envelope — flush with it or wider
    /// on any side — intersects the geometry, so the exact test can be
    /// skipped for it. An empty envelope is contained by nothing and
    /// keeps the exact test, which rejects it.
    #[test]
    fn rect_containing_the_envelope_intersects_the_geometry(
        g in arb_geometry_full(),
        grow in (0usize..4, 0usize..4, 0usize..4, 0usize..4),
    ) {
        let env = g.envelope();
        if env.is_empty() {
            let everywhere = Rect::new(-1e3, -1e3, 1e3, 1e3);
            prop_assert!(!everywhere.contains(&env));
            prop_assert!(!rect_intersects_geometry(&everywhere, &g));
        } else {
            let margin = [0.0, 1e-9, 0.25, 40.0];
            let window = Rect::new(
                env.min_x - margin[grow.0],
                env.min_y - margin[grow.1],
                env.max_x + margin[grow.2],
                env.max_y + margin[grow.3],
            );
            prop_assert!(window.contains(&env));
            prop_assert!(rect_intersects_geometry(&window, &g), "window {:?}", window);
        }
    }

    /// The serving filter's second true-hit rule, over every geometry
    /// variant (holes, multi-part, collections nested two deep): when the
    /// vertex scan finds a vertex inside the closed window — strictly
    /// inside, exactly on an edge, exactly on a corner, or the window is
    /// the degenerate rectangle of a point query sitting on the vertex —
    /// the exact test agrees, so it can be skipped. The scan reports a
    /// hit exactly when some vertex is inside, stops at the first, never
    /// examines more vertices than the geometry has, and never hits a
    /// geometry without vertices.
    #[test]
    fn a_vertex_in_the_window_implies_exact_intersection(
        g in arb_geometry_full(),
        nest in any::<bool>(),
        pick in any::<usize>(),
        placement in 0usize..5,
        (w, h) in (0.0f64..3.0, 0.0f64..3.0),
        free in arb_rect(),
    ) {
        use mpi_vector_io::geom::{GeometryCollection, MultiPoint};
        let g = if nest {
            Geometry::GeometryCollection(GeometryCollection(vec![
                Geometry::MultiPoint(MultiPoint(vec![])),
                Geometry::GeometryCollection(GeometryCollection(vec![g])),
            ]))
        } else {
            g
        };
        let mut all = Vec::new();
        vertices(&g, &mut all);
        prop_assert_eq!(all.len(), g.num_points());
        let window = match all.get(pick % all.len().max(1)) {
            // Empty geometry: nothing to anchor on.
            None => free,
            Some(v) => match placement {
                0 => v.envelope(),
                1 => Rect::new(v.x, v.y - h, v.x + w, v.y + h),
                2 => Rect::new(v.x - w, v.y - h, v.x, v.y),
                3 => Rect::new(v.x - w, v.y - h, v.x + w, v.y + h),
                _ => free,
            },
        };
        let (hit, examined) = rect_contains_any_vertex(&window, &g);
        let first_inside = all.iter().position(|p| window.contains_point(p));
        prop_assert_eq!(hit, first_inside.is_some(), "window {:?}", window);
        // Early exit: the scan stops on the first vertex inside.
        let expected = first_inside.map_or(all.len(), |i| i + 1);
        prop_assert_eq!(examined, expected as u64, "window {:?}", window);
        if placement < 4 && !all.is_empty() {
            prop_assert!(hit, "the anchoring vertex is inside {:?}", window);
        }
        if hit {
            prop_assert!(rect_intersects_geometry(&window, &g), "window {:?}", window);
        }
    }

    /// The best-first kNN walk's soundness condition: the box distance
    /// it orders by never exceeds the exact distance to the geometry in
    /// the box, from inside, beside or far outside the envelope.
    #[test]
    fn box_distance_never_exceeds_the_exact_distance(
        g in arb_geometry_full(),
        p in arb_point(),
        near in (0usize..3, -1.0f64..2.0, -1.0f64..2.0),
    ) {
        let env = g.envelope();
        // `p` is usually far off; the other two arms probe around and on
        // the envelope itself, where the bound is tight.
        let at = match near.0 {
            1 if !env.is_empty() => Point::new(
                env.min_x + near.1 * env.width(),
                env.min_y + near.2 * env.height(),
            ),
            2 if !env.is_empty() => Point::new(env.max_x, env.min_y + near.2 * env.height()),
            _ => p,
        };
        let bound = env.linf_distance(&at);
        let exact = point_geometry_distance(&at, &g);
        prop_assert!(bound <= exact, "box {} > exact {} at {:?}", bound, exact, at);
    }

    #[test]
    fn intersects_implies_envelope_overlap(a in arb_geometry(), b in arb_geometry()) {
        if mpi_vector_io::geom::algo::intersects(&a, &b) {
            prop_assert!(a.envelope().intersects(&b.envelope()));
        }
    }

    #[test]
    fn intersects_is_symmetric(a in arb_geometry(), b in arb_geometry()) {
        prop_assert_eq!(
            mpi_vector_io::geom::algo::intersects(&a, &b),
            mpi_vector_io::geom::algo::intersects(&b, &a)
        );
    }
}
