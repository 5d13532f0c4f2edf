//! Persistent on-disk result cache: the second tier of the server's
//! [`ResultStore`](crate::jobs::ResultStore), behind its in-memory LRU.
//!
//! Response bodies are content-addressed by the same canonical cache key
//! the memory tier uses (the request's normalised parameter string), so a
//! result computed before a restart — or by a different coordinator
//! pointed at the same `--cache-dir` — is served without touching a
//! backend.
//!
//! # Layout
//!
//! ```text
//! <dir>/index.json          {"version":1,"entries":[{"key":…,"hash":…,"len":…},…]}
//! <dir>/<16-hex-fnv1a>.body response bytes, exactly as sent to the client
//! ```
//!
//! `entries` is kept in least-recently-used order (front = coldest); a
//! `put` beyond capacity evicts from the front and deletes the body file.
//! Writes are atomic: body and index land in a `.tmp` sibling first and
//! are renamed into place, so a crash mid-write leaves the previous state
//! intact. File names hash the key with FNV-1a (64-bit); a collision
//! would make two keys share a file name, which the index's exact-key and
//! body-length checks turn into a miss rather than a wrong answer.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use refrint_engine::fnv1a;
use refrint_engine::json::{escape, parse, Value};
use refrint_obs::log::Logger;

/// One index entry: a cache key, the body file it maps to, and the
/// expected body length.
#[derive(Debug, Clone, PartialEq, Eq)]
struct IndexEntry {
    key: String,
    hash: String,
    len: usize,
}

/// A persistent LRU cache of response bodies under one directory.
#[derive(Debug)]
pub struct DiskCache {
    dir: PathBuf,
    capacity: usize,
    index: Mutex<Vec<IndexEntry>>,
}

impl DiskCache {
    /// Opens (or creates) the cache directory and loads its index. A
    /// missing, unparseable or partially-valid index degrades to the
    /// entries whose body files still exist — never to an error.
    ///
    /// # Errors
    ///
    /// Only if the directory cannot be created.
    pub fn open(dir: &Path, capacity: usize) -> io::Result<Self> {
        Self::open_observed(dir, capacity, &Logger::disabled(), None)
    }

    /// [`open`](DiskCache::open) with corruption observability: a corrupt
    /// `index.json` (unparseable, wrong version, or missing its `entries`
    /// array) still degrades to an empty index, but emits a structured
    /// warn line and bumps `resets` (the
    /// `refrint_disk_cache_resets_total` counter) instead of doing so
    /// silently. A merely *missing* index — a fresh cache directory — is
    /// normal and stays quiet.
    ///
    /// # Errors
    ///
    /// Only if the directory cannot be created.
    pub fn open_observed(
        dir: &Path,
        capacity: usize,
        logger: &Logger,
        resets: Option<&AtomicU64>,
    ) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let index_path = dir.join("index.json");
        let index = match load_index(&index_path) {
            IndexLoad::Missing => Vec::new(),
            IndexLoad::Corrupt => {
                logger.warn(
                    "disk_cache_index_corrupt",
                    &[
                        ("path", index_path.display().to_string()),
                        ("action", "reset_to_empty".to_owned()),
                    ],
                );
                if let Some(counter) = resets {
                    counter.fetch_add(1, Ordering::Relaxed);
                }
                Vec::new()
            }
            IndexLoad::Loaded(entries) => entries,
        };
        let index = index
            .into_iter()
            .filter(|e| dir.join(format!("{}.body", e.hash)).is_file())
            .collect();
        Ok(Self {
            dir: dir.to_path_buf(),
            capacity: capacity.max(1),
            index: Mutex::new(index),
        })
    }

    /// The number of cached bodies.
    #[must_use]
    pub fn len(&self) -> usize {
        self.index.lock().unwrap().len()
    }

    /// Whether the cache holds nothing.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks a key up, refreshing its LRU position on a hit. Returns
    /// `None` on a miss or when the body file disappeared or changed
    /// length behind the index's back.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        let mut index = self.index.lock().unwrap();
        let pos = index.iter().position(|e| e.key == key)?;
        let entry = index.remove(pos);
        let body = std::fs::read(self.dir.join(format!("{}.body", entry.hash))).ok()?;
        if body.len() != entry.len {
            return None;
        }
        index.push(entry);
        Some(body)
    }

    /// Stores a body under a key, evicting least-recently-used entries
    /// beyond capacity, and persists the index. Write failures are
    /// returned but leave the previous on-disk state intact (tmp +
    /// rename).
    ///
    /// # Errors
    ///
    /// Any filesystem error while writing the body or the index.
    pub fn put(&self, key: &str, body: &[u8]) -> io::Result<()> {
        let hash = format!("{:016x}", fnv1a(0, key.as_bytes()));
        let path = self.dir.join(format!("{hash}.body"));
        write_atomic(&path, body)?;

        let mut index = self.index.lock().unwrap();
        index.retain(|e| e.key != key);
        index.push(IndexEntry {
            key: key.to_owned(),
            hash,
            len: body.len(),
        });
        while index.len() > self.capacity {
            let evicted = index.remove(0);
            std::fs::remove_file(self.dir.join(format!("{}.body", evicted.hash))).ok();
        }
        let doc = index_document(&index);
        drop(index);
        write_atomic(&self.dir.join("index.json"), doc.as_bytes())
    }
}

fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, path)
}

fn index_document(index: &[IndexEntry]) -> String {
    let entries: Vec<String> = index
        .iter()
        .map(|e| {
            format!(
                "{{\"key\":\"{}\",\"hash\":\"{}\",\"len\":{}}}",
                escape(&e.key),
                e.hash,
                e.len
            )
        })
        .collect();
    format!("{{\"version\":1,\"entries\":[{}]}}", entries.join(","))
}

/// How the on-disk index read went: absent (a fresh directory), corrupt
/// (present but unusable — worth warning about), or loaded.
enum IndexLoad {
    Missing,
    Corrupt,
    Loaded(Vec<IndexEntry>),
}

fn load_index(path: &Path) -> IndexLoad {
    let Ok(text) = std::fs::read_to_string(path) else {
        return IndexLoad::Missing;
    };
    let Ok(doc) = parse(&text) else {
        return IndexLoad::Corrupt;
    };
    if doc.get("version").and_then(Value::as_u64) != Some(1) {
        return IndexLoad::Corrupt;
    }
    let Some(entries) = doc.get("entries").and_then(Value::as_arr) else {
        return IndexLoad::Corrupt;
    };
    IndexLoad::Loaded(
        entries
            .iter()
            .filter_map(|e| {
                Some(IndexEntry {
                    key: e.get("key")?.as_str()?.to_owned(),
                    hash: e.get("hash")?.as_str()?.to_owned(),
                    len: usize::try_from(e.get("len")?.as_u64()?).ok()?,
                })
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("refrint-disk-cache-{tag}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        dir
    }

    #[test]
    fn round_trips_and_survives_reopen() {
        let dir = temp_dir("reopen");
        let cache = DiskCache::open(&dir, 8).unwrap();
        assert!(cache.is_empty());
        assert!(cache.get("run|a").is_none());
        cache.put("run|a", b"{\"x\":1}\n").unwrap();
        cache.put("run|b", b"{\"x\":2}\n").unwrap();
        assert_eq!(cache.get("run|a").as_deref(), Some(b"{\"x\":1}\n".as_ref()));

        let reopened = DiskCache::open(&dir, 8).unwrap();
        assert_eq!(reopened.len(), 2);
        assert_eq!(
            reopened.get("run|b").as_deref(),
            Some(b"{\"x\":2}\n".as_ref())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn evicts_least_recently_used_beyond_capacity() {
        let dir = temp_dir("evict");
        let cache = DiskCache::open(&dir, 2).unwrap();
        cache.put("a", b"1").unwrap();
        cache.put("b", b"2").unwrap();
        assert!(cache.get("a").is_some(), "touch a so b is coldest");
        cache.put("c", b"3").unwrap();
        assert_eq!(cache.len(), 2);
        assert!(cache.get("b").is_none(), "b was evicted");
        assert!(cache.get("a").is_some());
        assert!(cache.get("c").is_some());
        // The evicted body file is gone too.
        let bodies = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(Result::ok)
            .filter(|e| e.path().extension().is_some_and(|x| x == "body"))
            .count();
        assert_eq!(bodies, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_index_or_missing_bodies_degrade_to_empty() {
        let dir = temp_dir("corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("index.json"), b"not json").unwrap();
        let cache = DiskCache::open(&dir, 4).unwrap();
        assert!(cache.is_empty());

        cache.put("k", b"body").unwrap();
        // Delete the body behind the index's back: reopen drops the entry.
        for e in std::fs::read_dir(&dir).unwrap().filter_map(Result::ok) {
            if e.path().extension().is_some_and(|x| x == "body") {
                std::fs::remove_file(e.path()).unwrap();
            }
        }
        let reopened = DiskCache::open(&dir, 4).unwrap();
        assert!(reopened.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_index_warns_and_counts_a_reset() {
        use refrint_obs::log::{Level, LogFormat};
        use std::sync::Arc;

        #[derive(Clone, Default)]
        struct Capture(Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for Capture {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let dir = temp_dir("reset-observed");
        let resets = AtomicU64::new(0);
        let cap = Capture::default();
        let logger = Logger::to_writer(Level::Warn, LogFormat::Json, Box::new(cap.clone()));

        // A fresh directory (missing index) is normal: no warn, no count.
        let fresh = DiskCache::open_observed(&dir, 4, &logger, Some(&resets)).unwrap();
        assert!(fresh.is_empty());
        assert_eq!(resets.load(Ordering::Relaxed), 0);
        assert!(cap.0.lock().unwrap().is_empty(), "missing index is silent");

        // A corrupt index degrades to empty, loudly.
        std::fs::write(dir.join("index.json"), b"not json").unwrap();
        let corrupt = DiskCache::open_observed(&dir, 4, &logger, Some(&resets)).unwrap();
        assert!(corrupt.is_empty());
        assert_eq!(resets.load(Ordering::Relaxed), 1);
        let log = String::from_utf8(cap.0.lock().unwrap().clone()).unwrap();
        assert!(log.contains("disk_cache_index_corrupt"), "{log}");
        assert!(log.contains("reset_to_empty"), "{log}");

        // Wrong version and missing entries are corruption too.
        std::fs::write(dir.join("index.json"), b"{\"version\":2,\"entries\":[]}").unwrap();
        DiskCache::open_observed(&dir, 4, &logger, Some(&resets)).unwrap();
        assert_eq!(resets.load(Ordering::Relaxed), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn put_overwrites_in_place() {
        let dir = temp_dir("overwrite");
        let cache = DiskCache::open(&dir, 4).unwrap();
        cache.put("k", b"old").unwrap();
        cache.put("k", b"new").unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get("k").as_deref(), Some(b"new".as_ref()));
        std::fs::remove_dir_all(&dir).ok();
    }
}
