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

/// Every `.rs` file under `{dir}/*/src`: (path relative to the root, text).
fn sources_under(dir: &str) -> Vec<(String, String)> {
    let mut files = Vec::new();
    for krate in std::fs::read_dir(root().join(dir)).unwrap() {
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

/// Every `.rs` file under `crates/*/src`.
fn sources() -> Vec<(String, String)> {
    sources_under("crates")
}

/// Every `.rs` file of the workspace but this one, which names what the
/// rules retire: (path, text).
fn every_rust_file() -> Vec<(String, String)> {
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    files
        .iter()
        .filter(|p| !p.ends_with("tests/arch_rules.rs"))
        .map(|p| (p.display().to_string(), std::fs::read_to_string(p).unwrap()))
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
    assert_none(
        "a commit batch cap",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            has_word(l, "max_batch")
        }),
    );
}

#[test]
fn one_home_per_counter() {
    // An event is counted once, in the registry: no per-object struct
    // counts it again. What is left is a census of state (`FtStats`,
    // `SnapshotStats`), a report (`RecoveryStats`) and `EngineStats`.
    let texts = every_rust_file();
    let retired = [
        "ViewStats",
        "LogStats",
        "MailStats",
        "RetryStats",
        "CompactStats",
        "log_stats",
        "pass_timeout",
    ];
    assert_none(
        "a second tally of what the registry counts",
        offending(texts.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| has_word(l, r))
        }),
    );
    let kept = ["EngineStats", "SnapshotStats", "RecoveryStats", "FtStats"];
    assert_none(
        "a new per-object `*Stats` type",
        offending(
            sources().iter().map(|(f, t)| (f.as_str(), t.as_str())),
            |l| {
                l.split_whitespace()
                    .skip_while(|w| !["struct", "enum", "type"].contains(w))
                    .nth(1)
                    .map(|name| name.trim_end_matches(|c: char| !c.is_alphanumeric()))
                    .is_some_and(|name| name.ends_with("Stats") && !kept.contains(&name))
            },
        ),
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
fn one_tokenizer() {
    // Documents and queries are split and lowercased by one function,
    // `ftindex::tokenizer::for_each_word`. A second normalization glued a
    // query's `e-mail` into `email` while documents split it.
    let files = sources();
    let others = files
        .iter()
        .filter(|(f, _)| {
            f.starts_with("crates/ftindex/src/") && f != "crates/ftindex/src/tokenizer.rs"
        })
        .map(|(f, t)| (f.as_str(), t.as_str()));
    assert_none(
        "text split or lowercased outside `ftindex::tokenizer`",
        offending(others, |l| {
            [
                "to_lowercase",
                "to_ascii_lowercase",
                "make_ascii_lowercase",
                "is_alphanumeric",
            ]
            .iter()
            .any(|c| l.contains(c))
        }),
    );
    assert_none(
        "a second query normalization",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            has_word(l, "normalize_word")
        }),
    );
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
    let writes = |l: &str| l.contains(".put(") || l.contains("remove_segment(");
    let mut outside = Vec::new();
    for (f, t) in sources()
        .iter()
        .filter(|(f, _)| f.starts_with("crates/core/src/"))
    {
        // The lines of `fn write_record`, if this file has it.
        let allowed = t.find("    fn write_record(").map(|start| {
            let body = &t[start..start + t[start..].find("\n    }\n").unwrap()];
            assert!(body.contains(".put(") && body.contains("remove_segment("));
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

#[test]
fn one_change_feed() {
    // One observer kind, one delivery loop in commit order, one view
    // maintenance entry point; the parallel fan-out and the sequential
    // rebuild are gone.
    let files = sources();
    let retired = [
        "subscribe_batch",
        "BatchObserver",
        "rebuild_sequential",
        "fn apply_batch",
        "with_min_len",
    ];
    assert_none(
        "a second observer kind, dispatch or view maintenance path",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| l.contains(r))
        }),
    );
    // No manifest or lock file names the retired rayon shim.
    let mut manifests = vec!["Cargo.toml".to_string(), "Cargo.lock".to_string()];
    for krate in std::fs::read_dir(root().join("crates")).unwrap() {
        let path = krate.unwrap().path().join("Cargo.toml");
        manifests.push(path.strip_prefix(root()).unwrap().display().to_string());
    }
    let texts: Vec<(String, String)> = manifests
        .into_iter()
        .map(|m| {
            let text = std::fs::read_to_string(root().join(&m)).unwrap();
            (m, text)
        })
        .collect();
    assert_none(
        "a manifest names rayon",
        offending(texts.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            l.contains("rayon")
        }),
    );
}

/// Lines of `.subscribe(` calls whose statement binds the result to `_`.
fn discarded_subscriptions(text: &str) -> Vec<usize> {
    text.match_indices(".subscribe(")
        .filter(|(at, _)| {
            let head = &text[..*at];
            let statement = &head[head.rfind([';', '{', '}']).map_or(0, |i| i + 1)..];
            let words: Vec<&str> = statement
                .lines()
                .filter(|l| !l.trim_start().starts_with("//"))
                .flat_map(str::split_whitespace)
                .collect();
            words.starts_with(&["let", "_", "="])
        })
        .map(|(at, _)| text[..at].lines().count())
        .collect()
}

#[test]
fn one_observer_lifetime() {
    // A `Subscription` owns its observer and the feed holds it weakly, so
    // the cluster holds its mates strongly and needs no weak workaround.
    let cluster = std::fs::read_to_string(root().join("crates/replica/src/cluster.rs")).unwrap();
    assert_none(
        "a weak reference in the cluster",
        offending([("crates/replica/src/cluster.rs", cluster.as_str())], |l| {
            l.contains("Arc::downgrade") || has_word(l, "Weak")
        }),
    );
    // `let _ =` drops the guard, and with it the observer, at once.
    assert_eq!(
        discarded_subscriptions("let x = 1;\n    let _ = db\n        .subscribe(f);"),
        [3]
    );
    let mut files = Vec::new();
    for dir in ["crates", "tests", "examples"] {
        rust_files(&root().join(dir), &mut files);
    }
    let hits: Vec<String> = files
        .iter()
        .flat_map(|path| {
            let text = std::fs::read_to_string(path).unwrap();
            let file = path.strip_prefix(root()).unwrap().display().to_string();
            discarded_subscriptions(&text)
                .into_iter()
                .map(move |line| format!("{file}:{line}"))
        })
        .collect();
    assert_none("a subscription dropped where it is made", hits);
}

#[test]
fn one_reference_monitor() {
    // Who may read, write or delete a note is decided in
    // `domino_core::access` over `domino-security`'s ACL; no other file
    // resolves an ACL or matches a reader list itself.
    let files = sources();
    let policy = [
        "can_read_document",
        "can_edit_document",
        ".effective(",
        "names_of(",
        "can_change_design",
        "can_change_acl",
    ];
    assert_none(
        "an access decision outside the reference monitor",
        offending(
            files
                .iter()
                .filter(|(f, _)| {
                    f != "crates/security/src/acl.rs" && f != "crates/core/src/access.rs"
                })
                .map(|(f, t)| (f.as_str(), t.as_str())),
            |l| policy.iter().any(|p| l.contains(p)),
        ),
    );
}

#[test]
fn one_task_runtime() {
    // Every long-lived server thread is a `domino_obs::Task`: started,
    // listed, stopped and joined in `obs/src/task.rs`. An HTTP request
    // runs on the connection thread that read it: no worker pool. A view
    // evaluates on the calling thread: no fork-join, vendored or not.
    let mut files = sources();
    files.extend(sources_under("vendor"));
    let non_test = files.iter().map(|(f, t)| {
        let end = t.find("\n#[cfg(test)]\nmod ").unwrap_or(t.len());
        (f.as_str(), &t[..end])
    });
    assert_none(
        "a thread started outside the task runtime",
        offending(
            non_test.filter(|(f, _)| *f != "crates/obs/src/task.rs"),
            |l| {
                ["thread::spawn", "thread::Builder", "thread::scope"]
                    .iter()
                    .any(|t| l.contains(t))
            },
        ),
    );
    let retired = [
        "AmgrHandle",
        "LoggerHandle",
        "CheckpointerHandle",
        "ConnThreads",
        "WorkerPool",
        "submit(",
        "par_iter",
        "into_par_iter",
        "PreEval",
        "MainEval",
    ];
    assert_none(
        "a second task handle, connection-thread holder, worker pool or fork-join",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| has_word(l, r))
        }),
    );
}

#[test]
fn one_replication_decision() {
    // A cluster push is a `Replicator` pass restricted to the UNIDs that
    // changed: what a pull writes, and whether one revision descends from
    // another, is decided in `replicator.rs` alone.
    let files = sources();
    let replica = files
        .iter()
        .filter(|(f, _)| {
            f.starts_with("crates/replica/src/") && f != "crates/replica/src/replicator.rs"
        })
        .map(|(f, t)| {
            let end = t.find("\n#[cfg(test)]\nmod ").unwrap_or(t.len());
            (f.as_str(), &t[..end])
        });
    assert_none(
        "a replication decision outside the replicator",
        offending(replica, |l| {
            [
                "save_replicated(",
                "apply_remote_deletion(",
                "descends_from",
            ]
            .iter()
            .any(|c| l.contains(c))
        }),
    );
    // The cluster's own accept/decline copy and its lossy catch-up queue
    // are gone from every Rust file.
    let texts = every_rust_file();
    let retired = [
        "apply_event",
        "holds_stub_as_new",
        "join_with_capacity",
        "ClusterStats",
        "CATCH_UP",
    ];
    assert_none(
        "a second replication decision or the cluster catch-up queue",
        offending(texts.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            retired.iter().any(|r| l.contains(r))
        }),
    );
}

#[test]
fn one_scheduler() {
    // Timed work, on the wall clock or on a simulated one, is an
    // `obs::Task` whose due ticks live in `obs/src/task.rs`; which stored
    // agents run is the agent manager's decision in `core/src/agent.rs`.
    let files = sources();
    assert_none(
        "a due-list outside the task runtime",
        offending(
            files
                .iter()
                .filter(|(f, _)| f != "crates/obs/src/task.rs")
                .map(|(f, t)| (f.as_str(), t.as_str())),
            |l| has_word(l, "next_at"),
        ),
    );
    let non_test = files.iter().map(|(f, t)| {
        let end = t.find("\n#[cfg(test)]\nmod ").unwrap_or(t.len());
        (f.as_str(), &t[..end])
    });
    assert_none(
        "stored agents run outside the agent manager",
        offending(
            non_test.filter(|(f, _)| *f != "crates/core/src/agent.rs"),
            |l| l.contains("stored_agents("),
        ),
    );
    let texts = every_rust_file();
    assert_none(
        "the simulator's own agent schedule",
        offending(texts.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            has_word(l, "AgentSchedule") || l.contains("run_on_update_agents")
        }),
    );
}

#[test]
fn one_byte_reader() {
    // Bytes read back from a file or a socket are decoded through
    // `domino_types::Reader`, whose every read is bounds-checked and
    // returns `Corrupt`; only it and `PageBuf`'s fixed-offset accessors
    // turn bytes into integers. Whitespace is ignored, so a call split
    // over lines counts too.
    let patterns = [
        "from_le_bytes(",
        "try_into().expect(",
        "try_into().unwrap()",
    ];
    let mut hits = Vec::new();
    for (file, text) in sources() {
        if file == "crates/types/src/reader.rs" || file == "crates/storage/src/page.rs" {
            continue;
        }
        let code = &text[..text.find("#[cfg(test)]").unwrap_or(text.len())];
        let squeezed: String = code.chars().filter(|c| !c.is_whitespace()).collect();
        for p in patterns {
            let n = squeezed.matches(p).count();
            if n > 0 {
                hits.push(format!("{file}: {n} × {p}"));
            }
        }
    }
    assert_none("a decoder that reads bytes outside the one reader", hits);
}

/// `line` calls the registry's `counter`, `gauge` or `histogram`
/// function, or names one by path, rather than invoking its macro.
fn registry_lookup(line: &str) -> bool {
    if line.trim_start().starts_with("//") {
        return false;
    }
    ["counter", "gauge", "histogram"].iter().any(|f| {
        line.match_indices(f).any(|(i, _)| {
            let (before, after) = (&line[..i], line[i + f.len()..].trim_start());
            let ident = |c: char| c.is_alphanumeric() || c == '_';
            let called = after.starts_with('(')
                && !before.ends_with('.')
                && !before.trim_end().ends_with("fn");
            let named = before.ends_with("::") && !after.starts_with('!');
            !before.chars().next_back().is_some_and(ident)
                && !after.starts_with(ident)
                && (called || named)
        })
    })
}

#[test]
fn one_way_to_a_metric() {
    // A metric is named where it is recorded: `obs::counter!("…")` keeps
    // the interned handle in a static at its call site. No crate keeps a
    // struct of handles beside the code that records, and only the
    // registry calls the interning functions, which lock on every call
    // (test code may, to read a value).
    let files = sources();
    assert_none(
        "a per-crate struct of metric handles",
        offending(files.iter().map(|(f, t)| (f.as_str(), t.as_str())), |l| {
            has_word(l, "Metrics") && l.contains("struct")
                || l.contains("fn m()")
                || has_word(l, "BusMetrics")
        }),
    );
    let non_test = files
        .iter()
        .filter(|(f, _)| f != "crates/obs/src/registry.rs")
        .map(|(f, t)| (f.as_str(), &t[..t.find("#[cfg(test)]").unwrap_or(t.len())]));
    assert_none(
        "a registry lookup outside the metric macros",
        offending(non_test, registry_lookup),
    );
    let mut computed = Vec::new();
    for (file, text) in &files {
        let squeezed: String = text.chars().filter(|c| !c.is_whitespace()).collect();
        for kind in ["counter!(", "gauge!(", "histogram!("] {
            for (i, _) in squeezed.match_indices(kind) {
                if !squeezed[i + kind.len()..].starts_with('"') {
                    let arg: String = squeezed[i + kind.len()..].chars().take(24).collect();
                    computed.push(format!("{file}: {kind}{arg}"));
                }
            }
        }
    }
    assert_none("a metric name that is not a string literal", computed);
}

#[test]
fn every_declared_dependency_is_used() {
    // A dependency edge no source names is build time and a false
    // statement about the layering. `[dependencies]` must be named in
    // the crate's `src`; `[dev-dependencies]` in its `src`, `tests` or
    // `examples`.
    let mut crates = vec![root().to_path_buf()];
    for entry in std::fs::read_dir(root().join("crates")).unwrap() {
        crates.push(entry.unwrap().path());
    }
    let mut unused = Vec::new();
    for dir in crates {
        let text_of = |subdirs: &[&str]| {
            let mut files = Vec::new();
            for sub in subdirs {
                if dir.join(sub).is_dir() {
                    rust_files(&dir.join(sub), &mut files);
                }
            }
            files
                .iter()
                .map(|p| std::fs::read_to_string(p).unwrap())
                .collect::<String>()
        };
        let (src, all) = (text_of(&["src"]), text_of(&["src", "tests", "examples"]));
        let manifest = std::fs::read_to_string(dir.join("Cargo.toml")).unwrap();
        let mut section = "";
        for line in manifest.lines().map(str::trim) {
            if line.starts_with('[') {
                section = line;
                continue;
            }
            let searched = match section {
                "[dependencies]" => &src,
                "[dev-dependencies]" => &all,
                _ => continue,
            };
            let Some(name) = line.split(['.', '=', ' ']).next().filter(|n| !n.is_empty()) else {
                continue;
            };
            let ident = name.replace('-', "_");
            if !searched.lines().any(|l| has_word(l, &ident)) {
                unused.push(format!("{}: {section} {name}", dir.display()));
            }
        }
    }
    assert_none("a declared dependency no source names", unused);
}
