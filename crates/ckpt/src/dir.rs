//! On-disk snapshot management: naming, retention, and corruption-tolerant
//! latest-snapshot discovery.
//!
//! A checkpoint directory holds files named `ckpt-NNNNNN.bin`, where the
//! number is the count of completed epochs the snapshot captures. Saving is
//! atomic (tmp + rename, see [`Snapshot::write_atomic`]) and prunes old
//! snapshots down to a retention window; loading walks snapshots newest →
//! oldest and falls back past any snapshot that fails its CRC or parse, so
//! one corrupted file degrades a resume by a few epochs instead of killing
//! it.

use std::path::{Path, PathBuf};

use crate::format::{CkptError, Snapshot};

const PREFIX: &str = "ckpt-";
const SUFFIX: &str = ".bin";
/// Snapshots retained per directory; older ones are pruned at each save.
const KEEP: usize = 3;

/// A directory of retained snapshots for one run.
#[derive(Debug, Clone)]
pub struct CheckpointDir {
    root: PathBuf,
}

impl CheckpointDir {
    /// Opens (creating if needed) a checkpoint directory.
    pub fn new(root: impl Into<PathBuf>) -> Result<Self, CkptError> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Self { root })
    }

    /// The directory path.
    pub fn path(&self) -> &Path {
        &self.root
    }

    /// File path for the snapshot taken after `epochs_done` epochs.
    pub fn snapshot_path(&self, epochs_done: usize) -> PathBuf {
        self.root.join(format!("{PREFIX}{epochs_done:06}{SUFFIX}"))
    }

    /// All snapshots present, as `(epochs_done, path)` sorted ascending.
    pub fn list(&self) -> Vec<(usize, PathBuf)> {
        let Ok(entries) = std::fs::read_dir(&self.root) else { return Vec::new() };
        let mut out: Vec<(usize, PathBuf)> = entries
            .flatten()
            .filter_map(|e| {
                let name = e.file_name().into_string().ok()?;
                let epoch = name.strip_prefix(PREFIX)?.strip_suffix(SUFFIX)?.parse().ok()?;
                Some((epoch, e.path()))
            })
            .collect();
        out.sort();
        out
    }

    /// Atomically writes a snapshot for `epochs_done` completed epochs, then
    /// prunes so that at most `KEEP` (3) snapshots remain (newest win).
    /// Returns the final path.
    pub fn save(&self, epochs_done: usize, snap: &Snapshot) -> Result<PathBuf, CkptError> {
        let path = self.snapshot_path(epochs_done);
        snap.write_atomic(&path)?;
        let existing = self.list();
        if existing.len() > KEEP {
            for (_, old) in &existing[..existing.len() - KEEP] {
                // Best-effort: a prune failure must not fail the save.
                let _ = std::fs::remove_file(old);
            }
        }
        Ok(path)
    }

    /// Loads the newest readable snapshot, falling back past corrupted or
    /// truncated files (each skip is warned about on stderr and counted
    /// under the obs `ckpt_read_fallbacks` counter). `None` if no snapshot
    /// can be read.
    pub fn load_latest(&self) -> Option<(usize, Snapshot)> {
        for (epoch, path) in self.list().into_iter().rev() {
            match Snapshot::read(&path) {
                Ok(snap) => return Some((epoch, snap)),
                Err(err) => {
                    autoac_obs::counter_add("ckpt_read_fallbacks", 1);
                    autoac_obs::warn(
                        "ckpt",
                        &format!(
                            "skipping snapshot {} ({err}); falling back to the previous \
                             retained snapshot",
                            path.display()
                        ),
                    );
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("autoac-ckpt-dir-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn snap(marker: u64) -> Snapshot {
        let mut s = Snapshot::new();
        s.put_u64("marker", marker);
        s
    }

    #[test]
    fn save_prunes_to_retention_window() {
        let dir = CheckpointDir::new(tmp_dir("prune")).unwrap();
        for epoch in [2, 4, 6, 8, 10] {
            dir.save(epoch, &snap(epoch as u64)).unwrap();
        }
        let kept: Vec<usize> = dir.list().into_iter().map(|(e, _)| e).collect();
        assert_eq!(kept, vec![6, 8, 10]);
        let (epoch, s) = dir.load_latest().unwrap();
        assert_eq!(epoch, 10);
        assert_eq!(s.get_u64("marker").unwrap(), 10);
        std::fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn load_latest_falls_back_past_corruption() {
        let dir = CheckpointDir::new(tmp_dir("corrupt")).unwrap();
        dir.save(2, &snap(2)).unwrap();
        dir.save(4, &snap(4)).unwrap();
        // Corrupt the newest snapshot's payload bytes.
        let newest = dir.snapshot_path(4);
        let mut bytes = std::fs::read(&newest).unwrap();
        let last = bytes.len() - 6; // inside the payload of the single section
        bytes[last] ^= 0xFF;
        std::fs::write(&newest, bytes).unwrap();
        assert!(matches!(Snapshot::read(&newest), Err(CkptError::Crc { .. })));
        let (epoch, s) = dir.load_latest().unwrap();
        assert_eq!(epoch, 2, "must fall back to the previous good snapshot");
        assert_eq!(s.get_u64("marker").unwrap(), 2);
        // Truncate the older one too → nothing readable remains.
        let older = dir.snapshot_path(2);
        let bytes = std::fs::read(&older).unwrap();
        std::fs::write(&older, &bytes[..bytes.len() / 2]).unwrap();
        std::fs::write(&newest, b"garbage").unwrap();
        assert!(dir.load_latest().is_none());
        std::fs::remove_dir_all(dir.path()).unwrap();
    }

    #[test]
    fn empty_dir_has_no_latest() {
        let dir = CheckpointDir::new(tmp_dir("empty")).unwrap();
        assert!(dir.load_latest().is_none());
        assert!(dir.list().is_empty());
        std::fs::remove_dir_all(dir.path()).unwrap();
    }
}
