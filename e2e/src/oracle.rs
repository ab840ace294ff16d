//! Reference answers, computed serially on the driver thread through a
//! different search path than the program's (one global R-tree for the
//! join, plain scans for queries), so that a wrong distributed answer
//! cannot agree with its oracle by construction.

use crate::api::{
    intersects, point_geometry_distance, rect_intersects_geometry, Feature, Neighbor, Point, Query,
    QueryAnswer, RTree,
};
use crate::inputs::fnv1a;

/// Sorted `(left id, right id)` pairs of a join.
pub type Pairs = Vec<(String, String)>;

/// The plain single-thread join: bulk-load one R-tree over the left
/// layer, probe it with every right feature, refine with `intersects`.
pub fn serial_join(left: &[Feature], right: &[Feature]) -> Pairs {
    let tree = RTree::bulk_load(
        left.iter()
            .enumerate()
            .map(|(i, f)| (f.geometry.envelope(), i))
            .collect(),
    );
    let mut pairs = Pairs::new();
    for r in right {
        tree.query_with(&r.geometry.envelope(), &mut |&i| {
            if intersects(&left[i].geometry, &r.geometry) {
                pairs.push((left[i].userdata.clone(), r.userdata.clone()));
            }
        });
    }
    pairs.sort_unstable();
    pairs
}

/// FNV-1a digest of a sorted pair list.
pub fn pairs_digest(pairs: &Pairs) -> u64 {
    let mut buf = Vec::with_capacity(pairs.len() * 24);
    for (l, r) in pairs {
        buf.extend_from_slice(l.as_bytes());
        buf.push(b'|');
        buf.extend_from_slice(r.as_bytes());
        buf.push(b'\n');
    }
    fnv1a(&buf)
}

/// Outcome of comparing one answer set with its reference.
#[derive(Debug, Default, Clone)]
pub struct Verdict {
    /// Operations whose outcome was checked.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Description of the first disagreement.
    pub first_offender: Option<String>,
}

impl Verdict {
    /// Folds another verdict into this one.
    pub fn absorb(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_offender.is_none() {
            self.first_offender = other.first_offender;
        }
    }

    /// Records one failed operation.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        if self.first_offender.is_none() {
            self.first_offender = Some(what());
        }
    }
}

/// Compares a distributed join result (per-rank pair lists, any order)
/// with the reference. Every pair of the union counts as one attempted
/// outcome; `failed` is the size of the symmetric difference.
pub fn check_join(label: &str, reference: &Pairs, mut got: Pairs) -> Verdict {
    got.sort_unstable();
    let mut v = Verdict::default();
    let (mut i, mut j) = (0, 0);
    while i < reference.len() || j < got.len() {
        v.attempted += 1;
        match (reference.get(i), got.get(j)) {
            (Some(a), Some(b)) if a == b => {
                i += 1;
                j += 1;
            }
            (Some(a), Some(b)) if a < b => {
                v.fail(|| format!("{label}: missing pair {a:?}"));
                i += 1;
            }
            (Some(a), None) => {
                v.fail(|| format!("{label}: missing pair {a:?}"));
                i += 1;
            }
            (_, Some(b)) => {
                v.fail(|| format!("{label}: spurious pair {b:?}"));
                j += 1;
            }
            (None, None) => unreachable!("loop condition"),
        }
    }
    v
}

/// Brute-force answer to one query over `features` (a full scan).
pub fn scan_answer<'a>(features: impl Iterator<Item = &'a Feature>, q: &Query) -> QueryAnswer {
    let rect = match q {
        Query::Range(r) => *r,
        Query::Point(p) => p.envelope(),
        Query::Knn { at, k } => {
            return QueryAnswer::Neighbors(knn_scan(features, at, *k as usize));
        }
    };
    let mut ids: Vec<String> = features
        .filter(|f| {
            f.geometry.envelope().intersects(&rect) && rect_intersects_geometry(&rect, &f.geometry)
        })
        .map(|f| f.userdata.clone())
        .collect();
    ids.sort_unstable();
    QueryAnswer::Matches(ids)
}

fn knn_scan<'a>(
    features: impl Iterator<Item = &'a Feature>,
    at: &Point,
    k: usize,
) -> Vec<Neighbor> {
    let mut all: Vec<(f64, &str)> = features
        .map(|f| {
            (
                point_geometry_distance(at, &f.geometry),
                f.userdata.as_str(),
            )
        })
        .collect();
    all.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(b.1)));
    all.truncate(k);
    all.into_iter()
        .map(|(distance, userdata)| Neighbor {
            distance,
            userdata: userdata.to_string(),
        })
        .collect()
}
