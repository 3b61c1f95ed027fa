//! Architecture rules: what the source must not say, checked by
//! `cargo test` (these were `grep` gates in CI, which the tier-1 command
//! never ran). Each rule names the design decision it guards.

use std::path::{Path, PathBuf};

use domino::core::{Database, DbConfig, Note};
use domino::types::{LogicalClock, ReplicaId};

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn rust_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            rust_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Every `.rs` file under `crates/*/src`: (path relative to the root, text).
fn sources() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            rust_files(&src, &mut files);
        }
    }
    files
        .into_iter()
        .map(|p| {
            let rel = p
                .strip_prefix(root())
                .unwrap()
                .to_string_lossy()
                .into_owned();
            (rel, std::fs::read_to_string(&p).unwrap())
        })
        .collect()
}

/// `file:line: text` of each line in `files` that `bad` flags.
fn offending<'a>(
    files: impl IntoIterator<Item = (&'a str, &'a str)>,
    bad: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut out = Vec::new();
    for (file, text) in files {
        for (i, line) in text.lines().enumerate() {
            if bad(line) {
                out.push(format!("{file}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    out
}

/// `word` occurs in `line` with no identifier character on either side.
fn has_word(line: &str, word: &str) -> bool {
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    line.match_indices(word).any(|(i, _)| {
        !line[..i].chars().next_back().is_some_and(ident)
            && !line[i + word.len()..].chars().next().is_some_and(ident)
    })
}

fn assert_none(rule: &str, hits: Vec<String>) {
    assert!(hits.is_empty(), "{rule}:\n{}", hits.join("\n"));
}

#[test]
fn stored_note_is_the_engine_side_reference_not_a_read_path() {
    let files = sources();
    let others = files
        .iter()
        .filter(|(f, _)| f != "crates/core/src/db.rs")
        .map(|(f, t)| (f.as_str(), t.as_str()));
    assert_none(
        "`stored_note` outside domino-core",
        offending(others, |l| l.contains("stored_note")),
    );
}

#[test]
fn a_view_page_and_a_search_are_read_from_the_index() {
    let files = sources();
    let file = |name: &str| {
        let (f, t) = files.iter().find(|(f, _)| f == name).unwrap();
        (f.as_str(), t.as_str())
    };
    let server = files
        .iter()
        .filter(|(f, _)| f.starts_with("crates/server/src/"))
        .map(|(f, t)| (f.as_str(), t.as_str()));
    assert_none(
        "no walk to a position in the server",
        offending(server, |l| l.contains("position_of(")),
    );
    // From `fn view_page(` to the test module: no note is opened.
    let (f, text) = file("crates/server/src/server.rs");
    let start = text.find("fn view_page(").expect("view_page exists");
    let end = text[start..]
        .find("\n#[cfg(test)]")
        .map_or(text.len(), |e| start + e);
    assert_none(
        "a view page opens no document",
        offending([(f, &text[start..end])], |l| {
            l.contains("open_by_unid(") || l.contains("open_note(")
        }),
    );
    assert_none(
        "one positional collation order, no B-tree kept beside it",
        offending([file("crates/views/src/index.rs")], |l| {
            l.contains(".skip(") || l.contains("BTreeMap")
        }),
    );
}

#[test]
fn the_heap_free_space_chain_is_gone() {
    let files = sources();
    let names = [
        "heap_avail",
        "set_heap_avail",
        "OFF_HEAP_AVAIL",
        "push_chain",
        "unlink_chain",
        "on_chain",
        "FLAG_ON_CHAIN",
        "CHAIN_PROBES",
        "MIN_USEFUL",
    ];
    assert_none(
        "free-space chain names",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            names.iter().any(|n| has_word(l, n))
        }),
    );
}

#[test]
fn the_retained_log_is_the_only_restart_point() {
    let files = sources();
    let retired = [
        "set_master",
        "get_master",
        "recovery_lsn",
        "write_sidecar",
        "Checkpoint {",
    ];
    assert_none(
        "master record, sidecars, checkpoint record or superblock LSN",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| l.contains(r))
        }),
    );
}

#[test]
fn the_log_is_forced_one_way() {
    let files = sources();
    let retired = [
        "commit_group",
        "GroupCommit",
        "Log.GroupCommit",
        "record_ends",
    ];
    assert_none(
        "group-commit mode or a second log force",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| l.contains(r))
        }),
    );
    // `ViewStats::max_batch` is the largest view maintenance batch, not
    // the deleted commit-batch cap.
    let others = files
        .iter()
        .filter(|(f, _)| !f.starts_with("crates/views/src/"))
        .map(|(f, t)| (f.as_str(), t.as_str()));
    assert_none(
        "a commit batch cap",
        offending(others, |l| has_word(l, "max_batch")),
    );
}

#[test]
fn a_closed_store_is_two_files() {
    let dir = std::env::temp_dir().join(format!("domino-arch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = DbConfig::new("Arch", ReplicaId(1), ReplicaId(9));
    let db = Database::open_path(&dir.join("data.nsf"), config, LogicalClock::new()).unwrap();
    db.save(&mut Note::document("Memo")).unwrap();
    db.checkpoint().unwrap();
    db.save(&mut Note::document("Memo")).unwrap();
    db.shutdown().unwrap();
    drop(db);
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    names.sort();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(names, ["data.nsf", "data.txn"]);
}

#[test]
fn one_revision_history_read_in_one_module() {
    let files = sources();
    let retired = [
        "ITEM_REVISIONS",
        "MAX_REVISIONS",
        "revision_fingerprint",
        "revision_at",
        "push_revision",
    ];
    assert_none(
        "the `$Revisions` fingerprint list",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| has_word(l, r)) || l.contains("\"$Revisions\"")
        }),
    );
    // Ancestry is decided in `core::revision`; everyone else asks it.
    let others = files
        .iter()
        .filter(|(f, _)| f != "crates/core/src/revision.rs")
        .map(|(f, t)| {
            let end = t.find("\n#[cfg(test)]").unwrap_or(t.len());
            (f.as_str(), &t[..end])
        });
    assert_none(
        "chain parsing outside `core::revision`",
        offending(others, |l| {
            ["revision_chain(", "chain_contains(", "latest_common("]
                .iter()
                .any(|c| l.contains(c))
        }),
    );
    // And a saved note carries exactly one history item.
    let db = Database::open_in_memory(
        DbConfig::new("Arch", ReplicaId(1), ReplicaId(9)),
        LogicalClock::new(),
    )
    .unwrap();
    let mut note = Note::document("Memo");
    db.save(&mut note).unwrap();
    db.save(&mut note).unwrap();
    let saved = db.open_note(note.id).unwrap();
    let history: Vec<&str> = saved
        .items_raw()
        .iter()
        .map(|it| it.name.as_str())
        .filter(|n| n.starts_with('$'))
        .collect();
    assert_eq!(history, ["$RevisionHashes"]);
}

#[test]
fn one_candidate_enumeration() {
    let files = sources();
    let retired = [
        "changed_since",
        "TREE_SEQ_INDEX",
        "seq_key",
        "use_history",
        "set_adhoc_options",
        "negotiate:",
    ];
    assert_none(
        "a pull finds its candidates by Merkle diff alone; no cutoff scan or modified-since index",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| l.contains(r))
        }),
    );
}

#[test]
fn one_write_path_into_the_note_store() {
    // `DbInner::write_record` re-puts a segment only when its bytes
    // changed; a second caller of `put` or `remove_segment` in core would
    // bypass that check. Purge's `NoteStore::remove` drops whole records.
    let writes = |l: &str| l.contains(".put(&mut") || l.contains("remove_segment(");
    let mut outside = Vec::new();
    for (f, t) in sources()
        .iter()
        .filter(|(f, _)| f.starts_with("crates/core/src/"))
    {
        // The lines of `fn write_record`, if this file has it.
        let allowed = t.find("    fn write_record(").map(|start| {
            let body = &t[start..start + t[start..].find("\n    }\n").unwrap()];
            assert!(body.contains(".put(&mut") && body.contains("remove_segment("));
            let first = t[..start].lines().count();
            first..first + body.lines().count()
        });
        for (i, line) in t.lines().enumerate() {
            if writes(line) && !allowed.as_ref().is_some_and(|r| r.contains(&i)) {
                outside.push(format!("{f}:{}: {}", i + 1, line.trim()));
            }
        }
    }
    assert_none("`NoteStore` segment writes outside `write_record`", outside);
}

#[test]
fn one_measurement_harness() {
    // `benchmark/` times the system; the paper's claims are the shapes
    // `tests/paper_claims.rs` asserts. No second harness, no microbenches.
    assert!(
        !root().join("crates/bench").exists(),
        "crates/bench is back"
    );
    let mut manifests = vec![root().join("Cargo.toml")];
    for dir in ["crates", "vendor"] {
        for member in std::fs::read_dir(root().join(dir)).unwrap() {
            let manifest = member.unwrap().path().join("Cargo.toml");
            if manifest.exists() {
                manifests.push(manifest);
            }
        }
    }
    let texts: Vec<(String, String)> = manifests
        .iter()
        .map(|p| (p.display().to_string(), std::fs::read_to_string(p).unwrap()))
        .collect();
    assert_none(
        "a workspace manifest names `criterion` or a `[[bench]]` target",
        offending(texts.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            l.contains("criterion") || l.contains("[[bench]]")
        }),
    );
}

#[test]
fn one_fault_plan() {
    // Every injected failure comes from `domino_types::fault`: one
    // seeded `FaultPlan` and one `Faulty` decorator.
    let files = sources();
    let retired = [
        "FaultDisk",
        "FaultLogStore",
        "ScriptedTransport",
        "SimTransport",
        "FaultClock",
        "fail_deliveries",
    ];
    assert_none(
        "a second fault injector",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| has_word(l, r))
        }),
    );
    // One SplitMix64: its increment is written down in one file.
    let gamma: Vec<&str> = files
        .iter()
        .filter(|(_, t)| {
            t.replace('_', "")
                .to_lowercase()
                .contains("9e3779b97f4a7c15")
        })
        .map(|(f, _)| f.as_str())
        .collect();
    assert_eq!(gamma, ["crates/types/src/fault.rs"]);
}
