//! The Domino command cache.
//!
//! Domino keeps rendered `?OpenView`/`?ReadViewEntries` pages in a
//! server-wide *command cache* so hot view pages are served without
//! touching the view index at all. A cached page is keyed by everything
//! that can change its bytes: database, view, window (`start`, `count`),
//! output flavor, and the requesting user's *access class* — a digest of
//! their ACL level, roles, and full alias set. Because the alias set
//! includes the user's own name (the same inputs the `$Readers` check
//! consumes), two users share a class only when the reader-field check
//! could never tell them apart; a cached page can therefore never leak a
//! document across an access boundary.
//!
//! Invalidation is by [`PageStamp`]: each page records which attached
//! index its rows came from and the version of that index they were read
//! at, and a lookup only hits when both still match. The stamp covers
//! everything the rendered bytes depend on besides the key — row values,
//! reader lists, ordering, totals all live in the index, and a page is
//! built from the index alone. Under one instance, equal versions imply
//! byte-identical pages — the index mutates under an exclusive guard that
//! bumps its version — so a concurrent writer can only make a page
//! expire, never hit stale. The instance half is there because a version
//! counts one index's mutations from zero: a view or database registered
//! again under a name already in use reaches the old numbers with other
//! rows, and must not hit the pages of the one it replaced. That is also
//! what lets the executor probe the cache *before* it reads a single row.
//! Eviction beyond that is FIFO within a fixed capacity.

use std::collections::{HashMap, VecDeque};
use std::sync::OnceLock;

use domino_obs as obs;
use parking_lot::Mutex;

struct Metrics {
    hits: &'static obs::Counter,
    misses: &'static obs::Counter,
    evictions: &'static obs::Counter,
    invalidations: &'static obs::Counter,
    entries: &'static obs::Gauge,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        hits: obs::counter("Http.Cache.Hits"),
        misses: obs::counter("Http.Cache.Misses"),
        evictions: obs::counter("Http.Cache.Evictions"),
        invalidations: obs::counter("Http.Cache.Invalidations"),
        entries: obs::gauge("Http.Cache.Entries"),
    })
}

/// Which rendered flavor of a view page a key addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// `?OpenView` HTML.
    Html,
    /// `?ReadViewEntries` JSON.
    Json,
}

/// Everything that can change the bytes of a cacheable page.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Database path element.
    pub db: String,
    /// View name (lowercased).
    pub view: String,
    /// 1-based first row of the window.
    pub start: usize,
    /// Window size.
    pub count: usize,
    /// HTML or JSON.
    pub kind: PageKind,
    /// Digest of the user's ACL level, roles, and alias set.
    pub access_class: u64,
}

/// The index state a page was rendered from; a page hits only under an
/// equal stamp.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PageStamp {
    /// Which attached index, unique in the process: a name (part of the
    /// key) can be given to another index later.
    pub view_instance: u64,
    /// That index's version when the rows were taken.
    pub view_version: u64,
}

/// One cached rendered page.
#[derive(Debug, Clone)]
pub struct CachedPage {
    /// The index state the rows were taken at.
    pub stamp: PageStamp,
    /// Rendered bytes.
    pub body: String,
    /// MIME type of `body`.
    pub content_type: &'static str,
}

struct Inner {
    map: HashMap<CacheKey, CachedPage>,
    /// Insertion order for FIFO eviction.
    order: VecDeque<CacheKey>,
}

/// A fixed-capacity command cache. Capacity 0 disables caching entirely
/// (every lookup misses, nothing is stored).
pub struct CommandCache {
    inner: Mutex<Inner>,
    capacity: usize,
}

impl CommandCache {
    /// A cache holding at most `capacity` rendered pages.
    pub fn new(capacity: usize) -> CommandCache {
        CommandCache {
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                order: VecDeque::new(),
            }),
            capacity,
        }
    }

    /// Look up a page, hitting only if it was rendered at exactly this
    /// `stamp`. A present-but-stale page counts as an invalidation and is
    /// dropped.
    pub fn lookup(&self, key: &CacheKey, stamp: PageStamp) -> Option<CachedPage> {
        if self.capacity == 0 {
            return None;
        }
        let mut g = self.inner.lock();
        match g.map.get(key) {
            Some(page) if page.stamp == stamp => {
                m().hits.inc();
                Some(page.clone())
            }
            Some(_) => {
                g.map.remove(key);
                g.order.retain(|k| k != key);
                m().invalidations.inc();
                m().misses.inc();
                m().entries.set(g.map.len() as i64);
                None
            }
            None => {
                m().misses.inc();
                None
            }
        }
    }

    /// Store a rendered page (replacing any entry under the same key),
    /// evicting the oldest entry when at capacity.
    pub fn insert(&self, key: CacheKey, page: CachedPage) {
        if self.capacity == 0 {
            return;
        }
        let mut g = self.inner.lock();
        if g.map.insert(key.clone(), page).is_none() {
            g.order.push_back(key);
            while g.map.len() > self.capacity {
                if let Some(old) = g.order.pop_front() {
                    g.map.remove(&old);
                    m().evictions.inc();
                } else {
                    break;
                }
            }
        }
        m().entries.set(g.map.len() as i64);
    }

    /// Number of cached pages.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(start: usize, class: u64) -> CacheKey {
        CacheKey {
            db: "d".into(),
            view: "v".into(),
            start,
            count: 10,
            kind: PageKind::Html,
            access_class: class,
        }
    }

    fn at(view_version: u64) -> PageStamp {
        PageStamp {
            view_instance: 1,
            view_version,
        }
    }

    fn page(view_version: u64, body: &str) -> CachedPage {
        CachedPage {
            stamp: at(view_version),
            body: body.into(),
            content_type: "text/html",
        }
    }

    #[test]
    fn hits_only_at_the_version_rendered_from() {
        let c = CommandCache::new(8);
        c.insert(key(1, 0), page(3, "v3"));
        assert_eq!(c.lookup(&key(1, 0), at(3)).unwrap().body, "v3");
        // A view mutation (version moved) expires the page...
        assert!(c.lookup(&key(1, 0), at(4)).is_none());
        // ...and the stale entry was dropped, not resurrected.
        assert!(c.lookup(&key(1, 0), at(3)).is_none());
    }

    /// A renderer that raced a writer inserts under the version its rows
    /// were actually read at (captured under the same guard as the rows),
    /// so its page is either what the current version describes or can
    /// never hit.
    #[test]
    fn racing_renderer_cannot_publish_a_stale_hit() {
        let c = CommandCache::new(8);
        // Renderer A paged the view at version 7.
        c.insert(key(1, 0), page(7, "rows as of v7"));
        // A writer's event is applied (version 8) while renderer B is
        // mid-render; B's insert carries the version it read under:
        c.insert(key(1, 0), page(8, "rows as of v8"));
        assert_eq!(c.lookup(&key(1, 0), at(8)).unwrap().body, "rows as of v8");
        assert!(c.lookup(&key(1, 0), at(7)).is_none());
    }

    /// An index attached later under the same name counts its versions
    /// from zero again: an equal version is not an equal state.
    #[test]
    fn a_replaced_index_cannot_hit_its_predecessors_pages() {
        let c = CommandCache::new(8);
        c.insert(key(1, 0), page(3, "old design"));
        let successor = PageStamp {
            view_instance: 2,
            view_version: 3,
        };
        assert!(c.lookup(&key(1, 0), successor).is_none());
        assert!(c.is_empty(), "and the orphan is dropped");
    }

    #[test]
    fn access_class_partitions_the_cache() {
        let c = CommandCache::new(8);
        c.insert(key(1, 0xA), page(1, "alice's page"));
        assert!(c.lookup(&key(1, 0xB), at(1)).is_none());
        assert_eq!(c.lookup(&key(1, 0xA), at(1)).unwrap().body, "alice's page");
    }

    #[test]
    fn fifo_eviction_and_zero_capacity() {
        let c = CommandCache::new(2);
        c.insert(key(1, 0), page(1, "a"));
        c.insert(key(2, 0), page(1, "b"));
        c.insert(key(3, 0), page(1, "c"));
        assert_eq!(c.len(), 2);
        assert!(c.lookup(&key(1, 0), at(1)).is_none(), "oldest evicted");
        assert!(c.lookup(&key(3, 0), at(1)).is_some());

        let off = CommandCache::new(0);
        off.insert(key(1, 0), page(1, "a"));
        assert!(off.lookup(&key(1, 0), at(1)).is_none());
        assert!(off.is_empty());
    }
}
