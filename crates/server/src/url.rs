//! The Domino URL-command grammar.
//!
//! Domino addresses everything in a database through URLs of the shape
//!
//! ```text
//! /<database>.nsf/<view-or-document>?<Command>&<Arg>=<value>&...
//! ```
//!
//! The first query token is the *command* (`OpenView`, `OpenDocument`,
//! `ReadViewEntries`, ...); the remaining `key=value` pairs are its
//! arguments. [`parse`] maps a request target onto a typed
//! [`UrlCommand`]; anything malformed is an
//! [`InvalidArgument`](DominoError::InvalidArgument), which the executor
//! answers with `400 Bad Request`.
//!
//! Documents are addressed by their 32-hex-digit UNID (the form
//! [`Unid`] displays as), optionally below a view segment which is
//! accepted and ignored, exactly like Domino's
//! `/db.nsf/<view>/<unid>?OpenDocument`.

use domino_types::{DominoError, Result, Unid};

/// Rows per view page when `Count=` is absent (Domino's default).
pub const DEFAULT_COUNT: usize = 30;

/// Most rows one page or search returns, whatever `Count=` asks for
/// (Domino's default "maximum lines per view page"): a request cannot
/// make the server render, and cache, a whole view.
pub const MAX_COUNT: usize = 1000;

/// A parsed Domino URL command. `start` is 1-based, as in Domino URLs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UrlCommand {
    /// `/db.nsf/<view>?OpenView&Start=..&Count=..` — an HTML view page.
    OpenView {
        /// Database path element (without `.nsf`, lowercased).
        db: String,
        /// View name (percent-decoded).
        view: String,
        /// 1-based first row.
        start: usize,
        /// Rows per page.
        count: usize,
    },
    /// `/db.nsf/<view>?ReadViewEntries&Start=..&Count=..` — the same page
    /// as structured JSON (Domino returns XML/JSON for programmatic use).
    ReadViewEntries {
        /// Database path element.
        db: String,
        /// View name.
        view: String,
        /// 1-based first row.
        start: usize,
        /// Rows per page.
        count: usize,
    },
    /// `/db.nsf/[<view>/]<unid>?OpenDocument` — render one document.
    OpenDocument {
        /// Database path element.
        db: String,
        /// Document UNID from the path.
        unid: Unid,
    },
    /// `/db.nsf/[<view>/]<unid>?EditDocument` — render an edit form.
    EditDocument {
        /// Database path element.
        db: String,
        /// Document UNID from the path.
        unid: Unid,
    },
    /// `/db.nsf/[<view>/]<unid>?SaveDocument` — write the request body's
    /// form fields back to the document.
    SaveDocument {
        /// Database path element.
        db: String,
        /// Document UNID from the path.
        unid: Unid,
    },
    /// `/db.nsf/<form>?CreateDocument` — create a document of the named
    /// form from the request body's fields.
    CreateDocument {
        /// Database path element.
        db: String,
        /// Form name from the path.
        form: String,
    },
    /// `/db.nsf/[<view>/]<unid>?DeleteDocument` — delete a document.
    DeleteDocument {
        /// Database path element.
        db: String,
        /// Document UNID from the path.
        unid: Unid,
    },
    /// `/db.nsf/<view>?SearchView&Query=..&Count=..` — full-text search
    /// scoped to a view.
    SearchView {
        /// Database path element.
        db: String,
        /// View name.
        view: String,
        /// Full-text query (AND/OR/NOT/phrase syntax of `domino-ftindex`).
        query: String,
        /// Maximum hits returned.
        count: usize,
    },
}

impl UrlCommand {
    /// The database path element the command addresses.
    pub fn db(&self) -> &str {
        match self {
            UrlCommand::OpenView { db, .. }
            | UrlCommand::ReadViewEntries { db, .. }
            | UrlCommand::OpenDocument { db, .. }
            | UrlCommand::EditDocument { db, .. }
            | UrlCommand::SaveDocument { db, .. }
            | UrlCommand::CreateDocument { db, .. }
            | UrlCommand::DeleteDocument { db, .. }
            | UrlCommand::SearchView { db, .. } => db,
        }
    }
}

fn invalid(msg: impl Into<String>) -> DominoError {
    DominoError::InvalidArgument(msg.into())
}

/// Percent-decode one URL component (`%41` → `A`, `+` → space).
pub fn percent_decode(s: &str) -> Result<String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' => {
                let hex = bytes
                    .get(i + 1..i + 3)
                    .and_then(|h| std::str::from_utf8(h).ok())
                    .and_then(|h| u8::from_str_radix(h, 16).ok())
                    .ok_or_else(|| invalid(format!("bad percent escape in {s:?}")))?;
                out.push(hex);
                i += 3;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8(out).map_err(|_| invalid(format!("non-UTF-8 escape in {s:?}")))
}

/// Parse `a=1&b=two+words` into decoded `(key, value)` pairs — the format
/// of both query-argument tails and POSTed form bodies.
pub fn parse_form(s: &str) -> Result<Vec<(String, String)>> {
    let mut out = Vec::new();
    for pair in s.split('&').filter(|p| !p.is_empty()) {
        let (k, v) = pair.split_once('=').unwrap_or((pair, ""));
        let k = percent_decode(k)?;
        if k.is_empty() {
            continue;
        }
        out.push((k, percent_decode(v)?));
    }
    Ok(out)
}

/// Parse a UNID path segment: up to 32 hex digits (the form `Unid`
/// displays as).
pub fn parse_unid(s: &str) -> Result<Unid> {
    if s.is_empty() || s.len() > 32 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
        return Err(invalid(format!("{s:?} is not a document UNID")));
    }
    u128::from_str_radix(s, 16)
        .map(Unid)
        .map_err(|_| invalid(format!("{s:?} is not a document UNID")))
}

fn arg_usize(args: &[(String, String)], key: &str, default: usize) -> Result<usize> {
    for (k, v) in args {
        if k.eq_ignore_ascii_case(key) {
            return v
                .parse::<usize>()
                .map_err(|_| invalid(format!("{key}={v:?} is not a number")));
        }
    }
    Ok(default)
}

/// `Count=`, capped at [`MAX_COUNT`].
fn arg_count(args: &[(String, String)]) -> Result<usize> {
    Ok(arg_usize(args, "count", DEFAULT_COUNT)?.min(MAX_COUNT))
}

fn arg_text(args: &[(String, String)], key: &str) -> Option<String> {
    args.iter()
        .find(|(k, _)| k.eq_ignore_ascii_case(key))
        .map(|(_, v)| v.clone())
}

/// The last path segment as a UNID (document commands accept an optional
/// leading view segment, which Domino uses for navigation context only).
fn path_unid(segs: &[String]) -> Result<Unid> {
    match segs {
        [unid] | [_, unid] => parse_unid(unid),
        _ => Err(invalid("document commands take /db.nsf/[view/]<unid>")),
    }
}

fn one_segment<'a>(segs: &'a [String], what: &str) -> Result<&'a str> {
    match segs {
        [s] => Ok(s),
        _ => Err(invalid(format!("expected /db.nsf/<{what}> in URL path"))),
    }
}

/// Parse a request target (`/db.nsf/byauthor?OpenView&Start=1&Count=30`)
/// into a [`UrlCommand`].
pub fn parse(target: &str) -> Result<UrlCommand> {
    let rest = target
        .strip_prefix('/')
        .ok_or_else(|| invalid("request target must start with /"))?;
    let (path, query) = rest.split_once('?').unwrap_or((rest, ""));
    let segs: Vec<String> = path
        .split('/')
        .filter(|s| !s.is_empty())
        .map(percent_decode)
        .collect::<Result<_>>()?;
    let (db_seg, rest_segs) = segs
        .split_first()
        .ok_or_else(|| invalid("URL path names no database"))?;
    let lower = db_seg.to_lowercase();
    let db = lower
        .strip_suffix(".nsf")
        .ok_or_else(|| invalid(format!("{db_seg:?}: database path must end in .nsf")))?
        .to_string();
    if db.is_empty() {
        return Err(invalid("empty database name"));
    }

    let mut tokens = query.split('&').filter(|s| !s.is_empty());
    let command = tokens
        .next()
        .ok_or_else(|| invalid("missing ?Command in URL"))?;
    if command.contains('=') {
        return Err(invalid(format!(
            "first query token {command:?} must be the command, not an argument"
        )));
    }
    let args = parse_form(&tokens.collect::<Vec<_>>().join("&"))?;

    match command.to_lowercase().as_str() {
        "openview" => Ok(UrlCommand::OpenView {
            db,
            view: one_segment(rest_segs, "view")?.to_string(),
            start: arg_usize(&args, "start", 1)?.max(1),
            count: arg_count(&args)?,
        }),
        "readviewentries" => Ok(UrlCommand::ReadViewEntries {
            db,
            view: one_segment(rest_segs, "view")?.to_string(),
            start: arg_usize(&args, "start", 1)?.max(1),
            count: arg_count(&args)?,
        }),
        "opendocument" => Ok(UrlCommand::OpenDocument {
            db,
            unid: path_unid(rest_segs)?,
        }),
        "editdocument" => Ok(UrlCommand::EditDocument {
            db,
            unid: path_unid(rest_segs)?,
        }),
        "savedocument" => Ok(UrlCommand::SaveDocument {
            db,
            unid: path_unid(rest_segs)?,
        }),
        "deletedocument" => Ok(UrlCommand::DeleteDocument {
            db,
            unid: path_unid(rest_segs)?,
        }),
        "createdocument" => Ok(UrlCommand::CreateDocument {
            db,
            form: one_segment(rest_segs, "form")?.to_string(),
        }),
        "searchview" => Ok(UrlCommand::SearchView {
            db,
            view: one_segment(rest_segs, "view")?.to_string(),
            query: arg_text(&args, "query")
                .ok_or_else(|| invalid("SearchView requires &Query="))?,
            count: arg_count(&args)?,
        }),
        other => Err(invalid(format!("unknown URL command {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_view_with_defaults_and_args() {
        assert_eq!(
            parse("/disc.nsf/By%20Author?OpenView").unwrap(),
            UrlCommand::OpenView {
                db: "disc".into(),
                view: "By Author".into(),
                start: 1,
                count: DEFAULT_COUNT,
            }
        );
        assert_eq!(
            parse("/Disc.NSF/topics?openview&Start=31&Count=10").unwrap(),
            UrlCommand::OpenView {
                db: "disc".into(),
                view: "topics".into(),
                start: 31,
                count: 10,
            }
        );
    }

    #[test]
    fn document_commands_parse_unids_with_optional_view() {
        let unid = Unid(0xAB);
        let hex = format!("{unid}");
        assert_eq!(
            parse(&format!("/d.nsf/{hex}?OpenDocument")).unwrap(),
            UrlCommand::OpenDocument {
                db: "d".into(),
                unid
            }
        );
        assert_eq!(
            parse(&format!("/d.nsf/topics/{hex}?EditDocument")).unwrap(),
            UrlCommand::EditDocument {
                db: "d".into(),
                unid
            }
        );
    }

    #[test]
    fn search_view_requires_query() {
        assert!(parse("/d.nsf/topics?SearchView").is_err());
        assert_eq!(
            parse("/d.nsf/topics?SearchView&Query=disk+%22full+text%22&Count=5").unwrap(),
            UrlCommand::SearchView {
                db: "d".into(),
                view: "topics".into(),
                query: "disk \"full text\"".into(),
                count: 5,
            }
        );
    }

    #[test]
    fn malformed_targets_are_invalid_argument() {
        for bad in [
            "db.nsf/v?OpenView",          // no leading slash
            "/db/v?OpenView",             // not an .nsf path
            "/db.nsf/v",                  // no command
            "/db.nsf/v?Start=1&OpenView", // argument before command
            "/db.nsf/v?FlushBuffers",     // unknown command
            "/db.nsf/nothex?OpenDocument",
            "/db.nsf/v?OpenView&Count=many",
            "/db.nsf/%zz?OpenView",
        ] {
            let err = parse(bad).unwrap_err();
            assert_eq!(err.kind(), "invalid_argument", "{bad}");
        }
    }

    #[test]
    fn count_is_capped() {
        for (arg, want) in [
            ("0", 0),
            ("1000", MAX_COUNT),
            ("6000", MAX_COUNT),
            ("18446744073709551615", MAX_COUNT),
        ] {
            for command in ["OpenView", "ReadViewEntries", "SearchView&Query=x"] {
                let count = match parse(&format!("/d.nsf/v?{command}&Count={arg}")).unwrap() {
                    UrlCommand::OpenView { count, .. }
                    | UrlCommand::ReadViewEntries { count, .. }
                    | UrlCommand::SearchView { count, .. } => count,
                    other => panic!("{other:?}"),
                };
                assert_eq!(count, want, "{command} Count={arg}");
            }
        }
        // One past usize is not a number at all.
        assert!(parse("/d.nsf/v?OpenView&Count=18446744073709551616").is_err());
    }

    #[test]
    fn start_is_clamped_to_one() {
        match parse("/d.nsf/v?OpenView&Start=0").unwrap() {
            UrlCommand::OpenView { start, .. } => assert_eq!(start, 1),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn form_bodies_decode() {
        assert_eq!(
            parse_form("Subject=Hello+world&Body=a%26b&=skipme").unwrap(),
            vec![
                ("Subject".to_string(), "Hello world".to_string()),
                ("Body".to_string(), "a&b".to_string()),
            ]
        );
    }
}
