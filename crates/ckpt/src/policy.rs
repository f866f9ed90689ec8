//! The knob surface training loops consume: where snapshots go, how often
//! they are taken, and whether to resume from them.

use std::path::PathBuf;
use std::time::Duration;

use crate::dir::CheckpointDir;
use crate::format::{CkptError, Snapshot};

/// Checkpointing configuration handed to [`search`](../autoac_core) and
/// trainer loops. Built fluently:
///
/// ```no_run
/// use autoac_ckpt::CheckpointPolicy;
/// let policy = CheckpointPolicy::new("runs/dblp-search").checkpoint_every(5);
/// ```
#[derive(Debug, Clone)]
pub struct CheckpointPolicy {
    dir: PathBuf,
    every: usize,
    /// Start fresh even if snapshots exist (otherwise resume from the
    /// newest readable snapshot, falling back past corrupted ones).
    fresh: bool,
    throttle: Option<Duration>,
}

impl CheckpointPolicy {
    /// Policy rooted at `dir`: snapshot every epoch, keep the last 3,
    /// resume from the latest readable snapshot when one exists.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), every: 1, fresh: false, throttle: None }
    }

    /// Snapshot after every `n` completed epochs (`n ≥ 1`).
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        assert!(n >= 1, "checkpoint_every: interval must be at least 1");
        self.every = n;
        self
    }

    /// Never resume — always start from scratch (snapshots are still
    /// written).
    pub fn fresh(mut self) -> Self {
        self.fresh = true;
        self
    }

    /// Sleep this many milliseconds at every epoch boundary. A pacing aid
    /// for fault-injection tests (gives an external `kill -9` a wide window
    /// to land mid-run); never useful in production runs.
    pub fn throttle_ms(mut self, ms: u64) -> Self {
        self.throttle = (ms > 0).then(|| Duration::from_millis(ms));
        self
    }

    /// The checkpoint directory root.
    pub fn dir(&self) -> &std::path::Path {
        &self.dir
    }

    /// Whether a snapshot is due after `epochs_done` completed epochs.
    pub fn should_checkpoint(&self, epochs_done: usize) -> bool {
        epochs_done > 0 && epochs_done % self.every == 0
    }

    /// Atomically writes a snapshot and prunes to the retention window.
    pub fn save(&self, epochs_done: usize, snap: &Snapshot) -> Result<PathBuf, CkptError> {
        CheckpointDir::new(&self.dir)?.save(epochs_done, snap)
    }

    /// The snapshot to resume from: `Ok(None)` means "start fresh" (either
    /// requested, or no readable snapshot exists yet).
    pub fn resume_snapshot(&self) -> Result<Option<(usize, Snapshot)>, CkptError> {
        if self.fresh || !self.dir.exists() {
            return Ok(None);
        }
        Ok(CheckpointDir::new(&self.dir)?.load_latest())
    }

    /// A derived policy for a sub-stage (e.g. `search` vs. `retrain` of one
    /// AutoAC run), rooted in a subdirectory.
    pub fn substage(&self, name: &str) -> Self {
        Self { dir: self.dir.join(name), ..self.clone() }
    }

    /// Applies the test-only epoch throttle (no-op unless configured).
    pub fn throttle(&self) {
        if let Some(d) = self.throttle {
            std::thread::sleep(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cadence() {
        let p = CheckpointPolicy::new("/tmp/x").checkpoint_every(5);
        assert!(!p.should_checkpoint(0));
        assert!(!p.should_checkpoint(4));
        assert!(p.should_checkpoint(5));
        assert!(!p.should_checkpoint(6));
        assert!(p.should_checkpoint(10));
        let every_epoch = CheckpointPolicy::new("/tmp/x");
        assert!(every_epoch.should_checkpoint(1));
        assert!(!every_epoch.should_checkpoint(0));
    }

    #[test]
    fn fresh_never_resumes() {
        let root = std::env::temp_dir().join(format!("autoac-ckpt-pol-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let p = CheckpointPolicy::new(&root);
        assert!(p.resume_snapshot().unwrap().is_none(), "no dir yet → fresh start");
        let mut s = Snapshot::new();
        s.put_u64("epochs_done", 3);
        p.save(3, &s).unwrap();
        assert!(p.resume_snapshot().unwrap().is_some());
        assert!(p.clone().fresh().resume_snapshot().unwrap().is_none());
        // Substage lands in a subdirectory with nothing to resume.
        let sub = p.substage("retrain");
        assert_eq!(sub.dir(), root.join("retrain"));
        assert!(sub.resume_snapshot().unwrap().is_none());
        std::fs::remove_dir_all(&root).unwrap();
    }
}
