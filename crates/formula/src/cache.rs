//! Process-wide compiled-formula cache.
//!
//! View selection formulas are compiled from the same source string over
//! and over: every view open, every rebuild of a design reloaded from its
//! design note, every replica applying the same selective-replication
//! formula. Parsing is pure, so the compiled [`Program`] can be shared —
//! this module interns `source → Arc<Program>` once per process and hands
//! out cheap clones.
//!
//! [`compile_cached`] reports whether the lookup hit so callers (the view
//! index surfaces this in its `ViewStats`) can account cache behavior.
//! Failed parses are not cached: errors are rare, and callers treat them
//! as hard failures anyway.
//!
//! The hit/miss counters are registry-backed (`Formula.Cache.Hits` /
//! `Formula.Cache.Misses` in `domino-obs`), with `Formula.Cache.Entries`
//! a gauge of the interned-program count. Both the process-wide counters
//! here and the per-view counters in `ViewStats` derive from the *same*
//! `compile_cached` outcome — one lookup, one verdict, counted once at
//! each granularity — which is what keeps the two surfaces correlatable.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use domino_obs as obs;
use domino_types::Result;

use crate::ast::Program;
use crate::parser::parse;
use crate::Formula;

struct Cache {
    programs: Mutex<HashMap<String, Arc<Program>>>,
    hits: &'static obs::Counter,
    misses: &'static obs::Counter,
    entries: &'static obs::Gauge,
}

fn cache() -> &'static Cache {
    static CACHE: OnceLock<Cache> = OnceLock::new();
    CACHE.get_or_init(|| Cache {
        programs: Mutex::new(HashMap::new()),
        hits: obs::counter("Formula.Cache.Hits"),
        misses: obs::counter("Formula.Cache.Misses"),
        entries: obs::gauge("Formula.Cache.Entries"),
    })
}

/// Compile via the cache; the `bool` is true on a cache hit.
pub fn compile_cached(source: &str) -> Result<(Formula, bool)> {
    let c = cache();
    if let Some(program) = c.programs.lock().expect("formula cache lock").get(source) {
        c.hits.inc();
        return Ok((
            Formula {
                source: source.to_string(),
                program: Arc::clone(program),
            },
            true,
        ));
    }
    // Parse outside the lock: compilation can be slow and other threads
    // should not queue behind it. Two racing threads may both parse; the
    // first insert wins and both results are equivalent.
    let program = Arc::new(parse(source)?);
    c.misses.inc();
    let program = {
        let mut map = c.programs.lock().expect("formula cache lock");
        let program = Arc::clone(map.entry(source.to_string()).or_insert(program));
        c.entries.set(map.len() as i64);
        program
    };
    Ok((
        Formula {
            source: source.to_string(),
            program,
        },
        false,
    ))
}

/// Drop all interned programs (counters keep running). Outstanding
/// `Formula` clones stay valid — they own `Arc`s into the parse.
pub fn clear() {
    let c = cache();
    let mut map = c.programs.lock().expect("formula cache lock");
    map.clear();
    c.entries.set(0);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EvalEnv, MapDoc};
    use domino_types::Value;

    // One test drives the full hit/miss/clear lifecycle: `clear()` wipes
    // the whole process-wide map, so running it concurrently with other
    // cache tests would make their hit assertions racy.
    #[test]
    fn cache_lifecycle() {
        // A source unique to this test so other crates' cache traffic
        // cannot interfere with the hit/miss assertions.
        let src = "1 + 2 + 39000";
        let (a, hit_a) = compile_cached(src).unwrap();
        let (b, hit_b) = compile_cached(src).unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a.program, &b.program));
        assert_eq!(
            b.eval(&MapDoc::new(), &EvalEnv::default()).unwrap(),
            Value::Number(39003.0)
        );
        let c = cache();
        assert!(c.hits.get() >= 1 && c.misses.get() >= 1 && c.entries.get() >= 1);

        // Parse errors are reported every time, never cached.
        assert!(compile_cached("@@@ not a formula %%%").is_err());
        assert!(compile_cached("@@@ not a formula %%%").is_err());

        // Clearing drops entries but outstanding formulas keep their
        // Arc'd programs.
        clear();
        assert_eq!(
            a.eval(&MapDoc::new(), &EvalEnv::default()).unwrap(),
            Value::Number(39003.0)
        );
        let (_, hit) = compile_cached(src).unwrap();
        assert!(!hit, "cleared entry must miss on recompile");
    }

    #[test]
    fn formula_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Formula>();
        assert_send_sync::<EvalEnv>();
    }
}
