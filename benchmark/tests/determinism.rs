//! The op lists are a pure function of `(workload, seed, seconds)`.

use domino_benchmark::{op_list_hash, Args, WORKLOADS};

fn args(workload: &str, seed: u64) -> Args {
    Args {
        workload: workload.to_string(),
        seed,
        seconds: 18,
        trace: false,
        quick: false,
    }
}

/// `op_list_hash` of each workload for seed 1 at the `run_seconds`
/// `BENCHMARK.json` fixes. A change here means the inputs changed: every
/// earlier measurement stops being comparable.
const GOLDEN: [(&str, u64); 4] = [
    ("web_read", 0xcfba_e359_72ea_c883),
    ("web_mixed", 0xa8a6_0cf2_df58_48e0),
    ("save_durable", 0x38aa_685a_e5cb_0734),
    ("replicate", 0x3f1c_f485_c9b7_2d6c),
];

#[test]
fn golden_hashes_for_seed_1() {
    let got: Vec<(&str, u64)> = GOLDEN
        .iter()
        .map(|(w, _)| (*w, op_list_hash(&args(w, 1))))
        .collect();
    assert_eq!(got, GOLDEN, "op lists changed; hashes now {got:#018x?}");
}

#[test]
fn same_seed_same_list_other_seed_other_list() {
    for workload in WORKLOADS {
        let a = op_list_hash(&args(workload, 7));
        assert_eq!(a, op_list_hash(&args(workload, 7)), "{workload}");
        assert_ne!(a, op_list_hash(&args(workload, 8)), "{workload}");
    }
}

#[test]
fn quick_lists_are_shorter_but_as_deterministic() {
    for workload in WORKLOADS {
        let quick = Args {
            quick: true,
            ..args(workload, 1)
        };
        assert_eq!(op_list_hash(&quick), op_list_hash(&quick), "{workload}");
        assert_ne!(
            op_list_hash(&quick),
            op_list_hash(&args(workload, 1)),
            "{workload}"
        );
    }
}
