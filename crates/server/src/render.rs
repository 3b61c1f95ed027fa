//! HTML and JSON page rendering.
//!
//! Domino renders web pages straight from the note store: a view page is
//! the view's column values in a table, a document page is its items, an
//! edit form is `<input>` fields that post back to `?SaveDocument`. The
//! functions here are pure — the executor assembles the data (already
//! access-filtered) and the renderer only formats it, so every byte that
//! can reach a cache or a wire goes through the escapers below.

use std::fmt::Write;

use domino_core::Note;
use domino_types::Unid;

/// One renderable view row: absolute position, identity, and the cell
/// text for each design column.
#[derive(Debug, Clone)]
pub struct Row {
    /// 1-based absolute position in the collation order.
    pub position: usize,
    /// Document UNID (used to link to `?OpenDocument`).
    pub unid: Unid,
    /// Response-hierarchy depth (0 = main document), indented like the
    /// Notes client renders discussion threads.
    pub response_level: u32,
    /// One formatted cell per view column.
    pub cells: Vec<String>,
}

/// Append `s` to `out`, escaped for HTML element/attribute content.
pub fn escape_into(out: &mut String, s: &str) {
    let mut rest = s;
    while let Some(i) = rest.find(['&', '<', '>', '"', '\'']) {
        out.push_str(&rest[..i]);
        out.push_str(match rest.as_bytes()[i] {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' => "&quot;",
            _ => "&#39;",
        });
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
}

/// Escape text for HTML element/attribute content.
pub fn html_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    escape_into(&mut out, s);
    out
}

/// Append `s` to `out`, escaped for a JSON string literal (quotes not
/// included).
pub fn json_escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

// The minimal page shell shared by every HTML response: open, the
// escaped title, `SHELL_BODY`, the body, close.
const SHELL_OPEN: &str = "<!DOCTYPE html><html><head><title>";
const SHELL_BODY: &str = "</title></head><body>";
const SHELL_CLOSE: &str = "</body></html>";

fn shell(title: &str, body: &str) -> String {
    let mut out = String::with_capacity(title.len() + body.len() + 96);
    out.push_str(SHELL_OPEN);
    escape_into(&mut out, title);
    out.push_str(SHELL_BODY);
    out.push_str(body);
    out.push_str(SHELL_CLOSE);
    out
}

/// A one-line message page (save confirmations, error bodies).
pub fn message_page(title: &str, detail: &str) -> String {
    shell(
        title,
        &format!(
            "<h1>{}</h1><p>{}</p>",
            html_escape(title),
            html_escape(detail)
        ),
    )
}

/// Bytes of cell text in `rows`: what a page's size scales with.
fn cell_bytes(rows: &[Row]) -> usize {
    rows.iter().flat_map(|r| &r.cells).map(String::len).sum()
}

/// An `?OpenView` page: the column titles and one table row per entry,
/// with next/previous paging links and each row linked to its document.
/// Written into one buffer sized for the page — a row costs no
/// allocation.
pub fn view_page(
    db: &str,
    view: &str,
    columns: &[String],
    rows: &[Row],
    start: usize,
    count: usize,
    total: usize,
) -> String {
    let link = 2 * (db.len() + view.len()) + 96;
    let mut b = String::with_capacity(512 + 2 * cell_bytes(rows) + rows.len() * link);
    b.push_str(SHELL_OPEN);
    escape_into(&mut b, view);
    b.push_str(" - ");
    escape_into(&mut b, db);
    b.push_str(SHELL_BODY);
    b.push_str("<h1>");
    escape_into(&mut b, db);
    b.push_str(" — ");
    escape_into(&mut b, view);
    let _ = write!(
        b,
        "</h1><p>{total} documents, showing from {start}</p><table border=\"1\"><tr>"
    );
    for c in columns {
        b.push_str("<th>");
        escape_into(&mut b, c);
        b.push_str("</th>");
    }
    b.push_str("</tr>");
    for row in rows {
        b.push_str("<tr>");
        for (i, cell) in row.cells.iter().enumerate() {
            b.push_str("<td>");
            if i == 0 {
                for _ in 0..row.response_level {
                    b.push_str("&nbsp;&nbsp;");
                }
                b.push_str("<a href=\"/");
                escape_into(&mut b, db);
                b.push_str(".nsf/");
                escape_into(&mut b, view);
                let _ = write!(b, "/{}?OpenDocument\">", row.unid);
                escape_into(&mut b, cell);
                b.push_str("</a>");
            } else {
                escape_into(&mut b, cell);
            }
            b.push_str("</td>");
        }
        b.push_str("</tr>");
    }
    b.push_str("</table>");
    let next = start.saturating_add(count);
    if next <= total {
        b.push_str("<p><a href=\"/");
        escape_into(&mut b, db);
        b.push_str(".nsf/");
        escape_into(&mut b, view);
        let _ = write!(
            b,
            "?OpenView&amp;Start={next}&amp;Count={count}\">Next</a></p>"
        );
    }
    b.push_str(SHELL_CLOSE);
    b
}

/// A `?ReadViewEntries` payload: the Domino JSON shape
/// (`@toplevelentries`, then one `viewentry` per row with its
/// `@position`, `@unid`, and named `entrydata` cells).
pub fn view_entries_json(
    columns: &[String],
    rows: &[Row],
    start: usize,
    count: usize,
    total: usize,
) -> String {
    let names: usize = columns.iter().map(String::len).sum();
    let mut b = String::with_capacity(128 + 2 * cell_bytes(rows) + rows.len() * (128 + 2 * names));
    let _ = write!(
        b,
        "{{\"@toplevelentries\":{total},\"@start\":{start},\"@count\":{count},\"viewentry\":["
    );
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            b.push(',');
        }
        let _ = write!(
            b,
            "{{\"@position\":\"{}\",\"@unid\":\"{}\",\"@responselevel\":{},\"entrydata\":[",
            row.position, row.unid, row.response_level
        );
        for (j, cell) in row.cells.iter().enumerate() {
            if j > 0 {
                b.push(',');
            }
            b.push_str("{\"@name\":\"");
            json_escape_into(&mut b, columns.get(j).map_or("", String::as_str));
            b.push_str("\",\"text\":\"");
            json_escape_into(&mut b, cell);
            b.push_str("\"}");
        }
        b.push_str("]}");
    }
    b.push_str("]}");
    b
}

/// Items hidden from rendered documents (system/internal fields).
fn hidden_item(name: &str) -> bool {
    name.starts_with('$')
}

/// An `?OpenDocument` page: every visible item as a definition list.
pub fn document_page(db: &str, note: &Note) -> String {
    let mut b = String::new();
    let title = note
        .get_text("Subject")
        .unwrap_or_else(|| note.unid().to_string());
    b.push_str(&format!("<h1>{}</h1><dl>", html_escape(&title)));
    for item in note.items() {
        if hidden_item(&item.name) {
            continue;
        }
        b.push_str(&format!(
            "<dt>{}</dt><dd>{}</dd>",
            html_escape(&item.name),
            html_escape(&item.value.to_text())
        ));
    }
    b.push_str("</dl>");
    b.push_str(&format!(
        "<p><a href=\"/{}.nsf/{}?EditDocument\">Edit</a></p>",
        html_escape(db),
        note.unid()
    ));
    shell(&title, &b)
}

/// An `?EditDocument` page: a form whose inputs post the document's
/// visible items back to `?SaveDocument`.
pub fn edit_page(db: &str, note: &Note) -> String {
    let mut b = String::new();
    b.push_str(&format!(
        "<form method=\"post\" action=\"/{}.nsf/{}?SaveDocument\">",
        html_escape(db),
        note.unid()
    ));
    for item in note.items() {
        if hidden_item(&item.name) {
            continue;
        }
        b.push_str(&format!(
            "<label>{}<input name=\"{}\" value=\"{}\"></label><br>",
            html_escape(&item.name),
            html_escape(&item.name),
            html_escape(&item.value.to_text())
        ));
    }
    b.push_str("<input type=\"submit\" value=\"Save\"></form>");
    shell("Edit", &b)
}

/// A `?SearchView` result page: scored hits linked to their documents.
pub fn search_page(db: &str, view: &str, query: &str, hits: &[(Unid, f32, String)]) -> String {
    let titles: usize = hits.iter().map(|(_, _, t)| t.len()).sum();
    let mut b = String::with_capacity(256 + 2 * titles + hits.len() * (96 + 2 * db.len()));
    b.push_str(SHELL_OPEN);
    b.push_str("Search");
    b.push_str(SHELL_BODY);
    b.push_str("<h1>Search ");
    escape_into(&mut b, view);
    b.push_str(" for \u{201c}");
    escape_into(&mut b, query);
    let _ = write!(b, "\u{201d}</h1><p>{} hits</p><ol>", hits.len());
    for (unid, score, title) in hits {
        b.push_str("<li><a href=\"/");
        escape_into(&mut b, db);
        let _ = write!(b, ".nsf/{unid}?OpenDocument\">");
        escape_into(&mut b, title);
        let _ = write!(b, "</a> ({score:.3})</li>");
    }
    b.push_str("</ol>");
    b.push_str(SHELL_CLOSE);
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_types::Value;

    #[test]
    fn escaping_neutralizes_markup_and_quotes() {
        assert_eq!(
            html_escape("<b a=\"x\">&'"),
            "&lt;b a=&quot;x&quot;&gt;&amp;&#39;"
        );
        let mut json = String::new();
        json_escape_into(&mut json, "a\"b\\c\nd");
        assert_eq!(json, "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn view_page_links_rows_and_pages() {
        let rows = vec![Row {
            position: 1,
            unid: Unid(0xFEED),
            response_level: 0,
            cells: vec!["hello <script>".into(), "ann".into()],
        }];
        let html = view_page(
            "disc",
            "topics",
            &["Subject".into(), "From".into()],
            &rows,
            1,
            1,
            2,
        );
        assert!(html.contains("hello &lt;script&gt;"));
        assert!(html.contains(&format!("{}?OpenDocument", Unid(0xFEED))));
        // More rows remain: a Next link to Start=2.
        assert!(html.contains("Start=2"));
    }

    /// The bytes of an HTML page, a JSON page and a search page, as the
    /// per-cell `format!` renderer (PR 19) produced them: markup and quote
    /// characters in every position, a response-level indent, a control
    /// character, and a last page without a Next link.
    #[test]
    fn pages_are_byte_identical_to_the_per_cell_renderer() {
        let rows = vec![
            Row {
                position: 31,
                unid: Unid(0xFEED),
                response_level: 0,
                cells: vec!["Q&A <\"urgent\"> it's".into(), "ann".into()],
            },
            Row {
                position: 32,
                unid: Unid(0xBEEF_0000_0000_0000_0000_0000_0000_0001),
                response_level: 2,
                cells: vec!["re: Q&A\tnext\nline \\ \u{1}".into(), "".into()],
            },
        ];
        let cols: Vec<String> = vec!["Subject <&>".into(), "From \"who\"".into()];
        assert_eq!(
            view_page("disc&co", "By \"Author\"", &cols, &rows, 31, 2, 40),
            "<!DOCTYPE html><html><head><title>By &quot;Author&quot; - disc&amp;co</title></head><body><h1>disc&amp;co — By &quot;Author&quot;</h1><p>40 documents, showing from 31</p><table border=\"1\"><tr><th>Subject &lt;&amp;&gt;</th><th>From &quot;who&quot;</th></tr><tr><td><a href=\"/disc&amp;co.nsf/By &quot;Author&quot;/0000000000000000000000000000FEED?OpenDocument\">Q&amp;A &lt;&quot;urgent&quot;&gt; it&#39;s</a></td><td>ann</td></tr><tr><td>&nbsp;&nbsp;&nbsp;&nbsp;<a href=\"/disc&amp;co.nsf/By &quot;Author&quot;/BEEF0000000000000000000000000001?OpenDocument\">re: Q&amp;A\tnext\nline \\ \u{1}</a></td><td></td></tr></table><p><a href=\"/disc&amp;co.nsf/By &quot;Author&quot;?OpenView&amp;Start=33&amp;Count=2\">Next</a></p></body></html>"
        );
        assert_eq!(
            view_page("disc", "topics", &cols, &rows[..1], 40, 2, 40),
            "<!DOCTYPE html><html><head><title>topics - disc</title></head><body><h1>disc — topics</h1><p>40 documents, showing from 40</p><table border=\"1\"><tr><th>Subject &lt;&amp;&gt;</th><th>From &quot;who&quot;</th></tr><tr><td><a href=\"/disc.nsf/topics/0000000000000000000000000000FEED?OpenDocument\">Q&amp;A &lt;&quot;urgent&quot;&gt; it&#39;s</a></td><td>ann</td></tr></table></body></html>"
        );
        assert_eq!(
            view_entries_json(&cols, &rows, 31, 2, 40),
            "{\"@toplevelentries\":40,\"@start\":31,\"@count\":2,\"viewentry\":[{\"@position\":\"31\",\"@unid\":\"0000000000000000000000000000FEED\",\"@responselevel\":0,\"entrydata\":[{\"@name\":\"Subject <&>\",\"text\":\"Q&A <\\\"urgent\\\"> it's\"},{\"@name\":\"From \\\"who\\\"\",\"text\":\"ann\"}]},{\"@position\":\"32\",\"@unid\":\"BEEF0000000000000000000000000001\",\"@responselevel\":2,\"entrydata\":[{\"@name\":\"Subject <&>\",\"text\":\"re: Q&A\\tnext\\nline \\\\ \\u0001\"},{\"@name\":\"From \\\"who\\\"\",\"text\":\"\"}]}]}"
        );
        let hits = vec![
            (
                Unid(0xFEED),
                1.23456f32,
                "Q&A <\"urgent\"> it's".to_string(),
            ),
            (Unid(7), 0.5f32, "plain".to_string()),
        ];
        assert_eq!(
            search_page("disc&co", "By \"Author\"", "a<b & \"c\"", &hits),
            "<!DOCTYPE html><html><head><title>Search</title></head><body><h1>Search By &quot;Author&quot; for “a&lt;b &amp; &quot;c&quot;”</h1><p>2 hits</p><ol><li><a href=\"/disc&amp;co.nsf/0000000000000000000000000000FEED?OpenDocument\">Q&amp;A &lt;&quot;urgent&quot;&gt; it&#39;s</a> (1.235)</li><li><a href=\"/disc&amp;co.nsf/00000000000000000000000000000007?OpenDocument\">plain</a> (0.500)</li></ol></body></html>"
        );
    }

    /// Hostile windows saturate instead of overflowing.
    #[test]
    fn a_window_at_the_end_of_usize_renders() {
        let html = view_page("d", "v", &[], &[], usize::MAX, usize::MAX, 3);
        assert!(html.contains("3 documents") && !html.contains("Next"));
    }

    #[test]
    fn json_payload_is_shaped_like_domino() {
        let rows = vec![Row {
            position: 3,
            unid: Unid(7),
            response_level: 1,
            cells: vec!["x \"y\"".into()],
        }];
        let json = view_entries_json(&["Subject".into()], &rows, 3, 1, 9);
        assert!(json.starts_with("{\"@toplevelentries\":9,"));
        assert!(json.contains("\"@position\":\"3\""));
        assert!(json.contains("\"@responselevel\":1"));
        assert!(json.contains("\"text\":\"x \\\"y\\\"\""));
    }

    #[test]
    fn document_pages_hide_system_items() {
        let mut n = Note::document("Topic");
        n.set("Subject", Value::text("plan"));
        n.set("$Secret", Value::text("internal"));
        let html = document_page("d", &n);
        assert!(html.contains("plan"));
        assert!(!html.contains("internal"));
        let form = edit_page("d", &n);
        assert!(form.contains("?SaveDocument"));
        assert!(form.contains("name=\"Subject\""));
    }
}
