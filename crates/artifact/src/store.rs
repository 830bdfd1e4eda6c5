//! A directory of artifacts addressed by query + config fingerprint.
//!
//! The store is deliberately dumb: one file per prepared query, named
//! by a hash of the *same* normalized fingerprint
//! [`plansample_core::cache_key`] computes — what a cache of prepared
//! queries keys them by, behind a scope if it has one — so the two can
//! never drift apart. Publication is
//! atomic (a temp file of the call's own + rename, see [`crate::save`]);
//! a concurrent writer of the same key — another process or another
//! thread of this one — simply wins the rename race with an identical
//! byte image. Anything that fails to decode — corruption,
//! an old format version, a fingerprint that belongs to a different
//! query (hash collision or stale config) — is moved aside to a
//! `.quarantined` file rather than deleted, so an operator can inspect
//! it while the store keeps serving.

use crate::{checksum, ArtifactError};
use plansample_core::{cache_key, PreparedQuery};
use plansample_optimizer::OptimizerConfig;
use plansample_query::QuerySpec;
use std::fs;
use std::path::{Path, PathBuf};

/// File extension of a published artifact.
const EXT: &str = "plan";

/// A directory of plan-space artifacts keyed by normalized query +
/// optimizer-config fingerprint.
#[derive(Debug, Clone)]
pub struct ArtifactStore {
    dir: PathBuf,
}

/// What a [`ArtifactStore::warm`] pass did, for startup logging.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct WarmReport {
    /// Artifacts decoded and admitted.
    pub loaded: usize,
    /// Artifacts that decoded but were refused (for a server: config
    /// mismatch, or the key was already cached).
    pub refused: usize,
    /// Files that failed to decode and were quarantined.
    pub quarantined: usize,
}

impl ArtifactStore {
    /// Opens (creating if needed) the store directory.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Self, ArtifactError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(ArtifactStore { dir })
    }

    /// The store's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The file that does (or would) hold this query + config's
    /// artifact. The name is a hash of the normalized fingerprint:
    /// stable across processes, free of filesystem-hostile characters,
    /// and identical for every spelling that normalizes alike.
    pub fn path_for(&self, query: &QuerySpec, config: &OptimizerConfig) -> PathBuf {
        self.path_for_key(&cache_key(query, config))
    }

    fn path_for_key(&self, fingerprint: &str) -> PathBuf {
        self.dir
            .join(format!("{:016x}.{EXT}", checksum(fingerprint.as_bytes())))
    }

    /// Encodes and atomically publishes `prepared`, returning the
    /// published path.
    pub fn save(&self, prepared: &PreparedQuery) -> Result<PathBuf, ArtifactError> {
        let path = self.path_for(prepared.query(), prepared.config());
        crate::save(prepared, &path)?;
        Ok(path)
    }

    /// Looks up the artifact for `query` under `config`.
    ///
    /// * `Ok(Some(_))` — present and valid.
    /// * `Ok(None)` — absent, or present but *stale* (its fingerprint
    ///   is not this query + config's; the file is quarantined).
    /// * `Err(_)` — present but corrupt; the typed error says how, and
    ///   the file is quarantined so the next lookup is a clean miss.
    pub fn load(
        &self,
        query: &QuerySpec,
        config: &OptimizerConfig,
    ) -> Result<Option<PreparedQuery>, ArtifactError> {
        let requested = cache_key(query, config);
        let path = self.path_for_key(&requested);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        match crate::format::decode_with_fingerprint(&bytes) {
            Ok((prepared, fingerprint)) => {
                if fingerprint == requested {
                    Ok(Some(prepared))
                } else {
                    // Same file name, different fingerprint: a hash
                    // collision or a stale entry. Never serve it.
                    self.quarantine(&path);
                    Ok(None)
                }
            }
            Err(e) => {
                self.quarantine(&path);
                Err(e)
            }
        }
    }

    /// Every published artifact file currently in the store.
    pub fn entries(&self) -> Result<Vec<PathBuf>, ArtifactError> {
        let mut paths: Vec<PathBuf> = fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().map(|x| x == EXT).unwrap_or(false))
            .collect();
        paths.sort();
        Ok(paths)
    }

    /// Decodes every artifact in the store and offers each to `admit`
    /// (startup warming), which returns whether it took it. Corrupt
    /// files are quarantined, refused artifacts are counted — in both
    /// cases warming continues, and the report says what happened.
    pub fn warm(
        &self,
        mut admit: impl FnMut(PreparedQuery) -> bool,
    ) -> Result<WarmReport, ArtifactError> {
        let mut report = WarmReport::default();
        for path in self.entries()? {
            let loaded = fs::read(&path)
                .map_err(ArtifactError::from)
                .and_then(|bytes| crate::decode(&bytes));
            match loaded {
                Ok(prepared) => {
                    if admit(prepared) {
                        report.loaded += 1;
                    } else {
                        report.refused += 1;
                    }
                }
                Err(_) => {
                    self.quarantine(&path);
                    report.quarantined += 1;
                }
            }
        }
        Ok(report)
    }

    /// Moves a bad file aside (best-effort: a failed rename leaves it
    /// in place, and the next lookup will quarantine it again).
    fn quarantine(&self, path: &Path) {
        let _ = fs::rename(path, path.with_extension("quarantined"));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("plansample-artifact-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn q5_prepared() -> (QuerySpec, OptimizerConfig, PreparedQuery) {
        let (catalog, _) = plansample_catalog::tpch::catalog();
        let query = plansample_query::tpch::q5(&catalog);
        let config = OptimizerConfig::default();
        let prepared = PreparedQuery::prepare(&catalog, &query, &config).expect("q5 optimizes");
        (query, config, prepared)
    }

    #[test]
    fn save_load_round_trip_through_the_store() {
        let dir = temp_dir("roundtrip");
        let store = ArtifactStore::open(&dir).unwrap();
        let (query, config, prepared) = q5_prepared();
        assert!(store.load(&query, &config).unwrap().is_none(), "cold miss");
        let path = store.save(&prepared).unwrap();
        assert!(path.exists());
        assert_eq!(store.entries().unwrap(), vec![path.clone()]);
        let loaded = store.load(&query, &config).unwrap().expect("hit");
        assert_eq!(loaded.total(), prepared.total());
        // A different config is a different key: still a miss.
        let other = OptimizerConfig::with_cross_products();
        assert!(store.load(&query, &other).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_entries_are_quarantined_and_the_store_keeps_serving() {
        let dir = temp_dir("quarantine");
        let store = ArtifactStore::open(&dir).unwrap();
        let (query, config, prepared) = q5_prepared();
        let path = store.save(&prepared).unwrap();
        // Flip one payload byte: the next load must fail typed…
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            store.load(&query, &config),
            Err(ArtifactError::ChecksumMismatch { .. })
        ));
        // …and the file is out of the way: clean miss, store serves on.
        assert!(!path.exists(), "corrupt file moved aside");
        assert!(path.with_extension("quarantined").exists());
        assert!(store.load(&query, &config).unwrap().is_none());
        // Re-publishing heals the entry.
        store.save(&prepared).unwrap();
        assert!(store.load(&query, &config).unwrap().is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    /// Eight threads publish one key fifty times each while a ninth
    /// reads it: every read is a complete artifact or a clean miss.
    /// With a temp name shared by the threads of a process, one
    /// writer's `fs::write` truncates the file another is about to
    /// rename, and the reader quarantines a half-written artifact.
    #[test]
    fn threads_publishing_one_key_never_expose_a_partial_artifact() {
        const WRITERS: usize = 8;
        let dir = temp_dir("threads");
        let store = ArtifactStore::open(&dir).unwrap();
        let (query, config, prepared) = q5_prepared();
        let start = std::sync::Barrier::new(WRITERS + 1);
        let writing = AtomicUsize::new(WRITERS);
        // Failures are carried out of the threads, not panicked in them:
        // the reader stops when the last writer has counted itself out.
        let (saves, reads) = std::thread::scope(|scope| {
            let writers: Vec<_> = (0..WRITERS)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        let saved = (0..50).try_for_each(|_| store.save(&prepared).map(drop));
                        writing.fetch_sub(1, Ordering::SeqCst);
                        saved
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                start.wait();
                let mut hits = 0;
                while writing.load(Ordering::SeqCst) > 0 {
                    if let Some(loaded) = store.load(&query, &config)? {
                        assert_eq!(loaded.total(), prepared.total());
                        hits += 1;
                    }
                }
                Ok::<usize, ArtifactError>(hits)
            });
            let saves: Vec<_> = writers.into_iter().map(|w| w.join().unwrap()).collect();
            (saves, reader.join().unwrap())
        });
        for saved in saves {
            saved.expect("every save publishes");
        }
        let hits = reads.expect("every load decodes or is a clean miss");
        assert!(hits > 0, "the reader saw the published artifact");
        let names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(
            names.len(),
            1,
            "one published file, nothing else: {names:?}"
        );
        assert!(names[0].ends_with(".plan"), "{names:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn warm_offers_every_artifact_and_reports_refusals() {
        let dir = temp_dir("warm");
        let store = ArtifactStore::open(&dir).unwrap();
        let (query, config, prepared) = q5_prepared();
        store.save(&prepared).unwrap();

        let mut admitted = Vec::new();
        let report = store
            .warm(|p| {
                admitted.push(p);
                true
            })
            .unwrap();
        assert_eq!(
            report,
            WarmReport {
                loaded: 1,
                refused: 0,
                quarantined: 0
            }
        );
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].total(), prepared.total());
        assert_eq!(
            cache_key(admitted[0].query(), admitted[0].config()),
            cache_key(&query, &config)
        );

        // Whatever the closure refuses is counted, not quarantined.
        let refused = store.warm(|_| false).unwrap();
        assert_eq!((refused.loaded, refused.refused), (0, 1));
        assert_eq!(store.entries().unwrap().len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }
}
