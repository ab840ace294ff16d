//! Experiment implementations, one module per table/figure.

pub mod ablation;
pub mod baseline;
pub mod decomp;
pub mod exchange;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod fig19;
pub mod fig20;
pub mod gate;
pub mod io;
pub mod pipeline;
pub mod rebalance;
pub mod serve;
pub mod table1;
pub mod table2;
pub mod table3;

use mvio_datagen::{catalog, DatasetSpec};
use mvio_pfs::{SimFs, StripeSpec};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Scale of an experiment: paper workload sizes divided by `denominator`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scale {
    pub denominator: u64,
}

impl Scale {
    /// The default reproduction scale: 1/1000 of the paper's sizes.
    pub fn default_repro() -> Self {
        Scale { denominator: 1000 }
    }

    /// A tiny scale for unit tests of the harness itself.
    pub fn test_tiny() -> Self {
        Scale {
            denominator: 1_000_000,
        }
    }

    /// Scales a full-size byte quantity, with a floor to stay meaningful.
    pub fn bytes(&self, full: u64) -> u64 {
        (full / self.denominator).max(64 * 1024)
    }

    /// Scales a stripe/block size with a 4 KiB floor (block sizes shrink
    /// with the data so iteration counts match the paper's).
    pub fn block(&self, full: u64) -> u64 {
        (full / self.denominator).max(4 * 1024)
    }
}

/// Generated dataset bytes, cached by `(table3 row id, denominator)` so
/// repeated experiments pay generation once per process.
fn dataset_cache() -> &'static Mutex<HashMap<(usize, u64), Arc<Vec<u8>>>> {
    static CACHE: OnceLock<Mutex<HashMap<(usize, u64), Arc<Vec<u8>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the WKT bytes of a scaled Table 3 dataset (generated on first
/// use, cached afterwards).
pub fn dataset_bytes(spec: &DatasetSpec, scale: Scale) -> Arc<Vec<u8>> {
    let key = (spec.id, scale.denominator);
    if let Some(hit) = dataset_cache().lock().unwrap().get(&key) {
        return Arc::clone(hit);
    }
    let fs = SimFs::new(mvio_pfs::FsConfig::gpfs_roger());
    let rep = catalog::generate(&fs, spec, scale.denominator, 0xDA7A_5EED ^ spec.id as u64);
    let bytes = Arc::new(fs.open(&rep.path).expect("generated").snapshot());
    dataset_cache()
        .lock()
        .unwrap()
        .insert(key, Arc::clone(&bytes));
    bytes
}

/// Installs cached dataset bytes as a file on a fresh filesystem.
pub fn install_dataset(
    fs: &Arc<SimFs>,
    spec: &DatasetSpec,
    scale: Scale,
    path: &str,
    stripe: Option<StripeSpec>,
) -> u64 {
    let bytes = dataset_bytes(spec, scale);
    let f = fs.create(path, stripe).expect("fresh fs");
    f.append(bytes.as_slice());
    bytes.len() as u64
}

/// Finds a Table 3 spec by name (panics on typo — harness-internal).
pub fn spec(name: &str) -> DatasetSpec {
    catalog::table3()
        .into_iter()
        .find(|s| s.name == name)
        .unwrap_or_else(|| panic!("unknown dataset {name}"))
}

/// Node counts used by the Lustre sweeps, trimmed when `quick` (tests).
pub fn node_sweep(quick: bool) -> Vec<usize> {
    if quick {
        vec![4, 8]
    } else {
        vec![4, 8, 16, 24, 32, 48, 64, 72]
    }
}

/// Lustre config with per-request latency scaled down by the experiment
/// denominator.
///
/// Scaling *sizes* by `1/d` while keeping latencies fixed would distort the
/// α/β balance (latency would swamp the shrunken transfers). Scaling the
/// fixed costs by the same `1/d` makes every time contribution scale by
/// `1/d`, so **scaled bandwidth equals full-scale bandwidth** and scaled
/// times are exactly `1/d` of full-scale times.
pub fn lustre_scaled(scale: Scale) -> mvio_pfs::FsConfig {
    let mut cfg = mvio_pfs::FsConfig::lustre_comet();
    cfg.perf.request_latency /= scale.denominator as f64;
    cfg
}

/// GPFS config with scaled per-request latency (see [`lustre_scaled`]).
pub fn gpfs_scaled(scale: Scale) -> mvio_pfs::FsConfig {
    let mut cfg = mvio_pfs::FsConfig::gpfs_roger();
    cfg.perf.request_latency /= scale.denominator as f64;
    cfg
}

/// Cost model with scaled per-message latency (see [`lustre_scaled`]).
pub fn cost_scaled(scale: Scale) -> mvio_msim::CostModel {
    let mut c = mvio_msim::CostModel::calibrated();
    c.comm_latency /= scale.denominator as f64;
    c
}

/// Converts a scaled virtual time back to full-scale equivalent seconds.
pub fn full_seconds(scale: Scale, scaled_time: f64) -> f64 {
    scaled_time * scale.denominator as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_arithmetic() {
        let s = Scale { denominator: 1000 };
        assert_eq!(s.bytes(92 << 30), (92u64 << 30) / 1000);
        assert_eq!(s.block(64 << 20), (64u64 << 20) / 1000);
        // Floors.
        assert_eq!(s.bytes(1024), 64 * 1024);
        assert_eq!(s.block(1024), 4 * 1024);
    }

    #[test]
    fn dataset_cache_returns_same_bytes() {
        let s = spec("Cemetery");
        let a = dataset_bytes(&s, Scale::test_tiny());
        let b = dataset_bytes(&s, Scale::test_tiny());
        assert!(Arc::ptr_eq(&a, &b));
        assert!(!a.is_empty());
    }

    #[test]
    fn install_places_file() {
        let fs = SimFs::new(mvio_pfs::FsConfig::lustre_comet());
        let n = install_dataset(&fs, &spec("Cemetery"), Scale::test_tiny(), "cem.wkt", None);
        assert_eq!(fs.open("cem.wkt").unwrap().len(), n);
    }
}
