//! What a run reports: named metrics with units, facts, and the closing
//! JSON line. The metric tables here are the ones `BENCHMARK.json` names;
//! `tests/contract.rs` holds the two in step.

use std::collections::BTreeMap;

/// `(name, unit)` of every end-to-end metric, reported by every workload
/// under `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_us", "us"),
    ("tail_us", "us"),
    ("cpu_us_per_op", "us"),
    ("peak_rss_mb", "MB"),
    ("file_bytes_per_user_byte", "B/B"),
];

/// `(name, unit)` of every per-layer metric, reported by every workload
/// under `--trace 1` (0 where the workload bypasses the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    // Workload-specific end-to-end quantities: user-visible, but defined
    // on one or two workloads only, so they cannot sit in END_TO_END.
    ("web.read_p50_us", "us"),
    ("web.write_p50_us", "us"),
    ("replica.shipped_bytes_per_changed_byte", "B/B"),
    ("storage.reopen_ms", "ms"),
    ("wal.recover_ms", "ms"),
    // netio / types
    ("netio.parse_us", "us"),
    ("netio.socket_self_us", "us"),
    ("netio.conn_requests", "count"),
    ("netio.deliver_rtt_us", "us"),
    ("netio.deliver_frames", "count"),
    ("types.frame_codec_us", "us"),
    // server / security
    ("server.url_parse_us", "us"),
    ("server.pool_handoff_us", "us"),
    ("server.handle_hit_us", "us"),
    ("server.handle_miss_us", "us"),
    ("server.write_handle_us", "us"),
    ("server.search_us", "us"),
    ("server.cache_hit_ratio", "ratio"),
    ("server.cache_invalidations", "count"),
    ("server.render_us", "us"),
    ("server.shed", "count"),
    ("security.session_open_us", "us"),
    // views / formula / ftindex
    ("views.page_us", "us"),
    ("views.apply_us", "us"),
    ("views.docs_evaluated_per_write", "ratio"),
    ("views.rebuild_ms", "ms"),
    ("formula.eval_us", "us"),
    ("formula.cache_hit_ratio", "ratio"),
    ("ftindex.index_us", "us"),
    ("ftindex.query_us", "us"),
    // core
    ("core.open_note_us", "us"),
    ("core.hash_us", "us"),
    ("core.revision_push_us", "us"),
    ("core.encode_us", "us"),
    ("core.form_lookup_us", "us"),
    ("core.save_mem_us", "us"),
    ("core.lock_wait_us", "us"),
    ("core.snapshot_versions", "count"),
    ("core.hydrated", "count"),
    ("core.save_replicated_us", "us"),
    ("core.merkle_read_us", "us"),
    // storage / wal
    ("storage.pool_hit_ratio", "ratio"),
    ("storage.page_reads_per_save", "ratio"),
    ("storage.page_writes_per_save", "ratio"),
    ("storage.evictions", "count"),
    ("storage.checkpoint_ms", "ms"),
    ("storage.checkpoint_pages", "count"),
    ("storage.nsf_syncs_per_save", "ratio"),
    ("storage.nsf_write_bytes_per_user_byte", "B/B"),
    ("storage.unid_lookup_us", "us"),
    ("wal.flushes_per_commit", "ratio"),
    ("wal.bytes_per_user_byte", "B/B"),
    ("wal.append_flush_us", "us"),
    ("wal.device_flush_us", "us"),
    ("wal.recovery_records", "count"),
    ("wal.redone", "count"),
    // replica
    ("replica.candidates_per_converged", "ratio"),
    ("replica.negotiate_bytes_per_pass", "B"),
    ("replica.buckets_differing_per_pass", "count"),
    ("replica.clean_pass_us", "us"),
    ("replica.conflicts", "count"),
    ("replica.retries", "count"),
    // the budget's remainder and the recorder's own cost
    ("budget.unaccounted_us", "us"),
    ("obs.trace_overhead_pct", "%"),
];

/// Everything one run found out.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked, and how many were wrong.
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<&'static str, f64>,
    /// Context that is not a metric: counts, hashes, sample sizes.
    pub facts: Vec<(String, String)>,
    /// Budget tables, printed as they are.
    pub budget: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    pub fn fact(&mut self, name: &str, value: impl std::fmt::Display) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    /// Count one checked output.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Print facts, every metric of `table` by name with its unit, and
    /// the closing JSON line. A metric the workload never set is printed
    /// as 0 (per-layer) or is a bug (end-to-end).
    pub fn print(&self, table: &[(&'static str, &'static str)], per_layer: bool) {
        for (name, value) in &self.facts {
            println!("fact {name} {value}");
        }
        for line in &self.budget {
            println!("budget {line}");
        }
        let mut json = String::new();
        for (name, unit) in table {
            let value = match self.metrics.get(name) {
                Some(v) => *v,
                None if per_layer => 0.0,
                None => panic!("end-to-end metric {name} was not measured"),
            };
            println!("metric {name} {value} {unit}");
            if !json.is_empty() {
                json.push_str(", ");
            }
            json.push_str(&format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            ));
        }
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted,
            self.failed
        );
    }
}

/// A JSON number with all measured digits (`NaN`/infinite never occur in
/// a correct run; they are rendered as 0 so the line stays valid JSON
/// while `correct` reports the failure).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}
