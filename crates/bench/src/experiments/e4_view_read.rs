//! E4 (Figure 2) — categorized view navigation and rollups vs raw scans.

use std::time::Instant;

use domino_types::Value;
use domino_views::{ColumnSpec, SortDir, View, ViewDesign};

use crate::table::{fmt, micros_per, Table};
use crate::workload::{make_db, populate, rng};
use crate::Scale;

pub fn run(scale: Scale) -> Table {
    let mut table = Table::new(
        "e4",
        "Figure 2",
        "View reads: category navigation and totals vs document scans",
        "Categorized views give positioned (logarithmic) navigation and cheap \
         category totals, vs re-scanning documents per query",
    )
    .columns(&[
        "N docs",
        "doc-scan µs",
        "view-scan µs",
        "category-range µs",
        "rollup µs",
        "scan/range ratio",
        "page at Start=1 µs",
        "last page µs",
    ]);

    let sizes = match scale {
        Scale::Quick => vec![1_000, 5_000],
        Scale::Full => vec![2_000, 10_000, 50_000],
    };
    for n in sizes {
        let db = make_db("e4", 1, 1);
        let mut r = rng(0xE4);
        populate(&db, &mut r, n, 4, 32, 0);
        let view = View::attach(
            &db,
            ViewDesign::new("v", r#"SELECT Form = "Doc""#)
                .expect("design")
                .column(
                    ColumnSpec::new("Category", "Category")
                        .expect("c")
                        .categorized(),
                )
                .column(
                    ColumnSpec::new("Priority", "Priority")
                        .expect("c")
                        .sorted(SortDir::Ascending)
                        .totaled(),
                ),
        )
        .expect("view");

        // Query: "all docs in cat3" answered three ways.
        let reps = 20;

        // 1. Scan every document, evaluating the predicate per doc.
        let f = domino_formula::Formula::compile(r#"SELECT Category = "cat3""#).expect("f");
        let t0 = Instant::now();
        let mut scan_hits = 0;
        for _ in 0..reps {
            scan_hits = db.search(&f, &Default::default()).expect("search").len();
        }
        let doc_scan = t0.elapsed();

        // 2. Scan the view's entries (summary data already computed).
        let t0 = Instant::now();
        let mut view_hits = 0;
        for _ in 0..reps {
            view_hits = view
                .rows()
                .iter()
                .filter(|e| e.values[0].to_text() == "cat3")
                .count();
        }
        let view_scan = t0.elapsed();

        // 3. Positioned range read on the collation prefix.
        let t0 = Instant::now();
        let mut range_hits = 0;
        for _ in 0..reps {
            range_hits = view.rows_by_prefix(0, &[Value::text("cat3")]).len();
        }
        let range = t0.elapsed();
        assert_eq!(scan_hits, view_hits);
        assert_eq!(scan_hits, range_hits);

        // 4. Full category rollup with totals (one ordered pass).
        let t0 = Instant::now();
        let mut cats = 0;
        for _ in 0..reps {
            cats = view.categories().len();
        }
        let rollup = t0.elapsed();
        assert!(cats > 0);

        // 5. One 30-row page by position: the first, and the last.
        let page_reps = 2_000;
        let page_at = |start: usize| {
            let t0 = Instant::now();
            for _ in 0..page_reps {
                assert_eq!(view.page(0, start, 30).rows.len(), 30);
            }
            t0.elapsed()
        };
        let (first_page, last_page) = (page_at(0), page_at(view.len() - 30));

        table.row(vec![
            fmt(n as f64),
            micros_per(reps, doc_scan),
            micros_per(reps, view_scan),
            micros_per(reps, range),
            micros_per(reps, rollup),
            fmt(doc_scan.as_secs_f64() / range.as_secs_f64().max(1e-9)),
            micros_per(page_reps, first_page),
            micros_per(page_reps, last_page),
        ]);
    }
    table.takeaway(
        "the positioned category range is orders of magnitude cheaper than \
         re-scanning documents and cheaper than scanning the whole view; rollups \
         cost one ordered pass over the index with no document fetches; a page is \
         found by position, so the last page of a view costs what the first does",
    );
    table
}
