//! The filesystem namespace: create/open/stat over [`SimFile`]s.

use crate::config::{FsConfig, FsKind, StripeSpec};
use crate::engine::TimingEngine;
use crate::file::SimFile;
use crate::stats::FsStats;
use crate::{PfsError, Result};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// A simulated parallel filesystem instance.
///
/// One `SimFs` corresponds to one mounted filesystem (e.g. COMET's Lustre
/// scratch). All ranks of a job share the same `Arc<SimFs>`; the embedded
/// [`TimingEngine`] provides the virtual-time contention model and
/// [`FsStats`] aggregate observability counters.
pub struct SimFs {
    cfg: FsConfig,
    engine: Arc<TimingEngine>,
    stats: Arc<FsStats>,
    files: Mutex<HashMap<String, Arc<SimFile>>>,
    next_ost_base: Mutex<u32>,
}

impl SimFs {
    /// Mounts a fresh filesystem with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when the configuration fails [`FsConfig::validate`]; use
    /// [`SimFs::try_new`] for a typed error instead (configs built from
    /// user input should go through that path).
    pub fn new(cfg: FsConfig) -> Arc<Self> {
        // audit: documented panicking constructor; `try_new` is the typed-error path.
        Self::try_new(cfg).expect("invalid filesystem configuration")
    }

    /// Fallible [`SimFs::new`]: validates the configuration first and
    /// returns the typed [`PfsError`] on rejection instead of panicking.
    pub fn try_new(cfg: FsConfig) -> Result<Arc<Self>> {
        cfg.validate()?;
        Ok(Arc::new(SimFs {
            cfg,
            engine: Arc::new(TimingEngine::new(cfg.perf, cfg.total_osts)),
            stats: Arc::new(FsStats::new(cfg.total_osts)),
            files: Mutex::new(HashMap::new()),
            next_ost_base: Mutex::new(0),
        }))
    }

    /// The mounted configuration.
    pub fn config(&self) -> &FsConfig {
        &self.cfg
    }

    /// Aggregate I/O counters.
    pub fn stats(&self) -> &Arc<FsStats> {
        &self.stats
    }

    /// Creates a file. `stripe` is honoured on Lustre; on GPFS the
    /// filesystem-chosen default is always used (paper §5.1: users cannot
    /// change GPFS striping). Fails if the path exists.
    pub fn create(&self, path: &str, stripe: Option<StripeSpec>) -> Result<Arc<SimFile>> {
        let stripe = match (self.cfg.kind, stripe) {
            (FsKind::Lustre, Some(s)) => {
                s.validate(self.cfg.total_osts)?;
                s
            }
            (FsKind::Gpfs, _) | (FsKind::Lustre, None) => self.cfg.default_stripe,
        };
        let mut files = self.files.lock();
        if files.contains_key(path) {
            return Err(PfsError::AlreadyExists(path.to_string()));
        }
        let base = {
            let mut b = self.next_ost_base.lock();
            let base = *b;
            *b = (*b + stripe.count) % self.cfg.total_osts;
            base
        };
        let file = Arc::new(SimFile::new(
            path.to_string(),
            stripe,
            base,
            Arc::clone(&self.engine),
            Arc::clone(&self.stats),
        ));
        files.insert(path.to_string(), Arc::clone(&file));
        Ok(file)
    }

    /// Opens an existing file.
    pub fn open(&self, path: &str) -> Result<Arc<SimFile>> {
        self.files
            .lock()
            .get(path)
            .cloned()
            .ok_or_else(|| PfsError::NotFound(path.to_string()))
    }

    /// Removes a file from the namespace. Outstanding `Arc`s stay usable.
    pub fn remove(&self, path: &str) -> Result<()> {
        self.files
            .lock()
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| PfsError::NotFound(path.to_string()))
    }

    /// Lists all paths, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.files.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// Declares the job's rank count for the contention model; forwarded
    /// to the timing engine.
    pub fn set_active_ranks(&self, ranks: usize) {
        self.engine.set_active_ranks(ranks);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_new_rejects_invalid_configs_with_typed_errors() {
        let mut cfg = FsConfig::test_tiny();
        cfg.total_osts = 0;
        assert!(matches!(SimFs::try_new(cfg), Err(PfsError::BadConfig(_))));
        let mut cfg = FsConfig::test_tiny();
        cfg.default_stripe = StripeSpec { count: 2, size: 0 };
        assert!(matches!(SimFs::try_new(cfg), Err(PfsError::BadStripe(_))));
        assert!(SimFs::try_new(FsConfig::test_tiny()).is_ok());
    }

    #[test]
    fn create_open_remove_lifecycle() {
        let fs = SimFs::new(FsConfig::test_tiny());
        assert!(fs.open("x").is_err());
        let f = fs.create("x", None).unwrap();
        assert_eq!(f.stripe(), fs.config().default_stripe);
        assert!(fs.create("x", None).is_err());
        assert!(fs.open("x").is_ok());
        assert_eq!(fs.list(), vec!["x".to_string()]);
        fs.remove("x").unwrap();
        assert!(fs.open("x").is_err());
        assert!(fs.remove("x").is_err());
    }

    #[test]
    fn lustre_honours_stripe_spec() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        let f = fs
            .create("striped", Some(StripeSpec::new(64, 32 << 20)))
            .unwrap();
        assert_eq!(f.stripe().count, 64);
        assert_eq!(f.stripe().size, 32 << 20);
    }

    #[test]
    fn lustre_rejects_oversize_stripe_count() {
        let fs = SimFs::new(FsConfig::lustre_comet());
        assert!(matches!(
            fs.create("bad", Some(StripeSpec::new(97, 1 << 20))),
            Err(PfsError::BadStripe(_))
        ));
    }

    #[test]
    fn gpfs_ignores_user_striping() {
        let fs = SimFs::new(FsConfig::gpfs_roger());
        let f = fs.create("g", Some(StripeSpec::new(2, 4096))).unwrap();
        assert_eq!(f.stripe(), fs.config().default_stripe);
    }

    #[test]
    fn ost_base_advances_per_file() {
        // Two files' first stripes sit on different OSTs: simultaneous
        // writes from two nodes to offset 0 of each do not queue behind
        // each other, while two to the same file do.
        let fs = SimFs::new(FsConfig::test_tiny());
        let a = fs.create("a", Some(StripeSpec::new(2, 1024))).unwrap();
        let b = fs.create("b", Some(StripeSpec::new(2, 1024))).unwrap();
        let from = |node| crate::IoCtx {
            node,
            now: 0.0,
            world_nodes: 2,
        };
        let first = a.write_at(0, &[1; 1024], &from(0)).unwrap().completion;
        let other_file = b.write_at(0, &[1; 1024], &from(1)).unwrap().completion;
        let same_file = a.write_at(0, &[1; 1024], &from(1)).unwrap().completion;
        assert_eq!(other_file, first);
        assert!(same_file > first);
    }
}
