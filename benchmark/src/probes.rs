//! Leaf probes: each layer's public functions timed from outside on the
//! workload's own inputs. A probe records one span per call and reports
//! the median, so the trace file holds the samples behind every per-layer
//! number. Timing a call costs two clock reads (~40 ns), which the
//! sub-microsecond probes carry in full.

use std::path::Path;
use std::sync::Arc;

use domino_core::{revision, ChangeEvent, Database, Note, Session};
use domino_formula::{EvalEnv, Formula};
use domino_ftindex::{parse_query, InvertedIndex};
use domino_netio::{HttpParser, ParserLimits};
use domino_security::Directory;
use domino_server::render::{self, Row};
use domino_server::url;
use domino_types::{Frame, FrameDecoder, Unid, Value};
use domino_views::View;
use domino_wal::{FileLogStore, LogManager, LogRecord, Lsn, TxId};

use crate::fixture::{self, rare_term, COMPUTED_COLUMN, DB_PATH, PAGE_ROWS, VIEW_NAMES};
use crate::report::Outcome;
use crate::trace::{probe, Recorder};

/// Calls per probe: enough for a stable median, cheap enough to run on
/// every traced workload.
const ITERS: usize = 2000;

/// `core.*` leaves on stored notes: snapshot open, content hash, revision
/// chain push at the note's depth, segment encode, UNID lookup.
pub fn core(rec: &mut Recorder, out: &mut Outcome, db: &Database, unids: &[Unid]) {
    let notes: Vec<Note> = unids
        .iter()
        .take(ITERS)
        .filter_map(|u| db.open_by_unid(*u).ok())
        .collect();
    assert!(!notes.is_empty(), "core probes need stored notes");
    let at = |i: usize| &notes[i % notes.len()];
    out.set(
        "core.open_note_us",
        probe(rec, "core.open_note", ITERS, |i| {
            std::hint::black_box(db.open_by_unid(at(i).unid()).expect("open"));
        }),
    );
    out.set(
        "core.hash_us",
        probe(rec, "core.hash", ITERS, |i| {
            let parents: Vec<_> = revision::head_hash(at(i)).into_iter().collect();
            std::hint::black_box(revision::content_hash_of(at(i), &parents));
        }),
    );
    let mut scratch: Vec<Note> = notes.clone();
    out.set(
        "core.revision_push_us",
        probe(rec, "core.revision_push", ITERS, |i| {
            let n = &mut scratch[i % notes.len()];
            let head = revision::head_hash(n).expect("stored notes have a head");
            revision::push_head(n, head, n.modified);
        }),
    );
    out.set(
        "core.encode_us",
        probe(rec, "core.encode", ITERS, |i| {
            std::hint::black_box((at(i).encode_summary(), at(i).encode_body()));
        }),
    );
    out.set(
        "storage.unid_lookup_us",
        probe(rec, "storage.unid_lookup", ITERS, |i| {
            std::hint::black_box(db.id_of_unid(at(i).unid()).expect("lookup"));
        }),
    );
    let depth: usize = notes
        .iter()
        .map(|n| revision::revision_chain(n).len())
        .sum();
    out.fact(
        "probe_revision_depth_mean",
        format!("{:.2}", depth as f64 / notes.len() as f64),
    );
}

/// `core.form_lookup_us`: `form_for` on a stored document — what every
/// `Session::save` (so every web write) pays to find its form design.
pub fn form_lookup(rec: &mut Recorder, out: &mut Outcome, db: &Database, unids: &[Unid]) {
    let note = db.open_by_unid(unids[0]).expect("a stored note");
    out.set(
        "core.form_lookup_us",
        probe(rec, "core.form_lookup", 50, |_| {
            std::hint::black_box(domino_core::form_for(db, &note).expect("form lookup"));
        }),
    );
}

/// `formula.eval_us`: the computed view column on one note.
pub fn formula(rec: &mut Recorder, out: &mut Outcome, db: &Database, unids: &[Unid]) {
    let f = Formula::compile(COMPUTED_COLUMN).expect("computed column compiles");
    let env = EvalEnv::default();
    let notes: Vec<Note> = unids
        .iter()
        .take(64)
        .filter_map(|u| db.open_by_unid(*u).ok())
        .collect();
    out.set(
        "formula.eval_us",
        probe(rec, "formula.eval", ITERS, |i| {
            std::hint::black_box(f.eval(&notes[i % notes.len()], &env).expect("eval"));
        }),
    );
}

/// `types.frame_codec_us`: one `Deliver` frame encoded and decoded.
pub fn frame_codec(rec: &mut Recorder, out: &mut Outcome) {
    let mut dec = FrameDecoder::new();
    out.set(
        "types.frame_codec_us",
        probe(rec, "types.frame_codec", ITERS, |_| {
            dec.feed(&Frame::deliver(16).encode());
            std::hint::black_box(dec.next_frame().expect("decode").expect("whole frame"));
        }),
    );
}

/// `netio.parse_us` and `server.url_parse_us` on the requests the clients
/// actually sent: `(raw request bytes, request target)`.
pub fn request_parsing(rec: &mut Recorder, out: &mut Outcome, requests: &[(Vec<u8>, String)]) {
    assert!(!requests.is_empty(), "parse probes need requests");
    out.set(
        "netio.parse_us",
        probe(rec, "netio.parse", ITERS, |i| {
            let mut p = HttpParser::new(ParserLimits::default());
            let parsed = p
                .feed(&requests[i % requests.len()].0)
                .expect("well-formed");
            std::hint::black_box(parsed.expect("complete request"));
        }),
    );
    out.set(
        "server.url_parse_us",
        probe(rec, "server.url_parse", ITERS, |i| {
            std::hint::black_box(url::parse(&requests[i % requests.len()].1).expect("url"));
        }),
    );
}

/// `views.*` on a detached copy of the date-sorted view (the server's own
/// views are private to it): rebuild, one uncached page, one `apply` of a
/// subject edit. Also `server.render_us` on the rows of such a page.
pub fn views(rec: &mut Recorder, out: &mut Outcome, db: &Arc<Database>, unids: &[Unid]) {
    let design = fixture::view_designs().swap_remove(0);
    let columns: Vec<String> = design.columns.iter().map(|c| c.title.clone()).collect();
    let view = View::detached(db, design).expect("detached view");
    rec.time("views.rebuild", 0, || view.rebuild().expect("rebuild"));
    out.set("views.rebuild_ms", rec.p50_us("views.rebuild") / 1e3);
    let pages = (view.len() / PAGE_ROWS).max(1);
    out.set(
        "views.page_us",
        probe(rec, "views.page", ITERS, |i| {
            std::hint::black_box(view.page(0, (i % pages) * PAGE_ROWS, PAGE_ROWS));
        }),
    );
    let rows: Vec<Row> = view
        .page(0, 0, PAGE_ROWS)
        .rows
        .iter()
        .enumerate()
        .map(|(i, e)| Row {
            position: i + 1,
            unid: e.unid,
            response_level: e.response_level,
            cells: e.values.iter().map(Value::to_text).collect(),
        })
        .collect();
    out.set(
        "server.render_us",
        probe(rec, "server.render", ITERS, |_| {
            std::hint::black_box(render::view_page(
                DB_PATH,
                VIEW_NAMES[0],
                &columns,
                &rows,
                1,
                PAGE_ROWS,
                view.len(),
            ));
        }),
    );
    // One subject edit per sampled note, as the change event a save emits.
    let events: Vec<ChangeEvent> = unids
        .iter()
        .take(256)
        .filter_map(|u| db.open_by_unid(*u).ok())
        .map(|old| {
            let mut new = old.clone();
            new.set("Subject", Value::text("probe edit of the subject line"));
            ChangeEvent::Saved {
                old: Some(old),
                new,
            }
        })
        .collect();
    out.set(
        "views.apply_us",
        probe(rec, "views.apply", events.len(), |i| {
            view.apply(&events[i]).expect("apply");
        }),
    );
}

/// `ftindex.*`: index every document of a snapshot into a fresh inverted
/// index (one span per note), then run single-term queries against it.
pub fn ftindex(rec: &mut Recorder, out: &mut Outcome, db: &Database) {
    let mut index = InvertedIndex::new();
    let docs = db.snapshot().documents();
    out.set(
        "ftindex.index_us",
        probe(rec, "ftindex.index", docs.len(), |i| {
            index.index_note(docs[i].as_ref());
        }),
    );
    out.set(
        "ftindex.query_us",
        probe(rec, "ftindex.query", ITERS, |i| {
            let q = parse_query(&rare_term(i as u64 % fixture::RARE_TERMS)).expect("query");
            std::hint::black_box(index.execute(&q));
        }),
    );
}

/// `security.session_open_us`: what the session's ACL and `$Readers`
/// check adds to a plain open, on restricted notes read by an editor.
pub fn security(rec: &mut Recorder, out: &mut Outcome, db: &Arc<Database>, restricted: &[Unid]) {
    if restricted.is_empty() {
        return;
    }
    let session = Session::new(db.clone(), fixture::USERS[0].name, Directory::new());
    let with = probe(rec, "security.session_open", ITERS, |i| {
        std::hint::black_box(
            session
                .open_by_unid(restricted[i % restricted.len()])
                .expect("editor reads $Readers notes"),
        );
    });
    let without = probe(rec, "security.plain_open", ITERS, |i| {
        std::hint::black_box(
            db.open_by_unid(restricted[i % restricted.len()])
                .expect("open"),
        );
    });
    out.set("security.session_open_us", with - without);
}

/// `wal.append_flush_us` in `dir` (where the fixtures live; the device
/// flush elided like everywhere else) and `wal.device_flush_us` under the
/// benchmark's own `work/` with the flush passed through to the device:
/// one update record of `record_bytes` appended and flushed.
pub fn wal(rec: &mut Recorder, out: &mut Outcome, dir: &Path, record_bytes: usize) {
    let run = |rec: &mut Recorder, name: &'static str, dir: &Path| {
        std::fs::create_dir_all(dir).expect("probe dir");
        let path = dir.join(format!("probe-{}.txn", std::process::id()));
        let log = LogManager::open(FileLogStore::open(&path).expect("probe log")).expect("log");
        let record = LogRecord::Update {
            tx: TxId(1),
            prev: Lsn::NIL,
            page: 7,
            offset: 64,
            before: vec![0xAA; record_bytes / 2],
            after: vec![0x55; record_bytes / 2],
        };
        let us = probe(rec, name, 400, |_| {
            let lsn = log.append(&record).expect("append");
            log.flush(lsn).expect("flush");
        });
        drop(log);
        for ext in ["txn", "master", "base"] {
            let _ = std::fs::remove_file(path.with_extension(ext));
        }
        us
    };
    out.set("wal.append_flush_us", run(rec, "wal.append_flush", dir));
    let device = Path::new(env!("CARGO_MANIFEST_DIR")).join("work");
    out.set(
        "wal.device_flush_us",
        crate::device::with_real_device(|| run(rec, "wal.device_flush", &device)),
    );
}
