//! View designs: the stored query + collation definition.
//!
//! A view is defined by a *selection formula* (which documents appear), a
//! list of *columns* (what each row shows, with optional sorting,
//! categorization, and totals), and optional alternate *collations*
//! (resorting the same index by different columns, an R5 feature). Designs
//! are persisted as `View`-class design notes so they replicate with the
//! database.

use domino_core::Note;
use domino_formula::Formula;
use domino_types::{DominoError, NoteClass, Result, Value};

use crate::collate::SortDir;

/// One view column.
#[derive(Debug, Clone)]
pub struct ColumnSpec {
    pub title: String,
    /// Formula computing the column's value per document.
    pub formula: Formula,
    /// Sorting in the primary collation (in column order).
    pub sort: Option<SortDir>,
    /// Is this a category column? (must also be sorted)
    pub category: bool,
    /// Accumulate totals for this (numeric) column?
    pub total: bool,
}

impl ColumnSpec {
    pub fn new(title: &str, formula_src: &str) -> Result<ColumnSpec> {
        Ok(ColumnSpec {
            title: title.to_string(),
            formula: Formula::compile(formula_src)?,
            sort: None,
            category: false,
            total: false,
        })
    }

    pub fn sorted(mut self, dir: SortDir) -> ColumnSpec {
        self.sort = Some(dir);
        self
    }

    pub fn categorized(mut self) -> ColumnSpec {
        self.category = true;
        self.sort.get_or_insert(SortDir::Ascending);
        self
    }

    pub fn totaled(mut self) -> ColumnSpec {
        self.total = true;
        self
    }
}

/// An alternate collation: sort the same entries by these columns.
#[derive(Debug, Clone)]
pub struct Collation {
    /// `(column index, direction)` pairs, most-significant first.
    pub keys: Vec<(usize, SortDir)>,
}

/// A complete view design.
#[derive(Debug, Clone)]
pub struct ViewDesign {
    pub name: String,
    pub selection: Formula,
    pub columns: Vec<ColumnSpec>,
    /// Show response documents beneath their parents (set automatically
    /// when the selection formula uses `@AllDescendants`/`@AllChildren`).
    pub show_responses: bool,
    /// Alternate collations (primary is derived from column sort specs).
    pub alternates: Vec<Collation>,
}

impl ViewDesign {
    pub fn new(name: &str, selection_src: &str) -> Result<ViewDesign> {
        let selection = Formula::compile(selection_src)?;
        let show_responses = selection.wants_descendants();
        Ok(ViewDesign {
            name: name.to_string(),
            selection,
            columns: Vec::new(),
            show_responses,
            alternates: Vec::new(),
        })
    }

    pub fn column(mut self, col: ColumnSpec) -> ViewDesign {
        self.columns.push(col);
        self
    }

    pub fn alternate(mut self, keys: Vec<(usize, SortDir)>) -> ViewDesign {
        self.alternates.push(Collation { keys });
        self
    }

    /// The primary collation: sorted columns in column order. Unsorted
    /// views fall back to modified-time order (empty key list).
    pub fn primary_collation(&self) -> Collation {
        Collation {
            keys: self
                .columns
                .iter()
                .enumerate()
                .filter_map(|(i, c)| c.sort.map(|d| (i, d)))
                .collect(),
        }
    }

    /// All collations: primary first, then alternates.
    pub fn collations(&self) -> Vec<Collation> {
        let mut out = vec![self.primary_collation()];
        out.extend(self.alternates.iter().cloned());
        out
    }

    /// Validate: categories must be sorted and lead the collation;
    /// alternate collations must reference real columns.
    pub fn validate(&self) -> Result<()> {
        let mut seen_non_category = false;
        for c in &self.columns {
            if c.category {
                if c.sort.is_none() {
                    return Err(DominoError::InvalidArgument(format!(
                        "category column {:?} must be sorted",
                        c.title
                    )));
                }
                if seen_non_category && c.sort.is_some() {
                    return Err(DominoError::InvalidArgument(format!(
                        "category column {:?} must precede sorted data columns",
                        c.title
                    )));
                }
            } else if c.sort.is_some() {
                seen_non_category = true;
            }
        }
        for alt in &self.alternates {
            for (i, _) in &alt.keys {
                if *i >= self.columns.len() {
                    return Err(DominoError::InvalidArgument(format!(
                        "alternate collation references column {i} of {}",
                        self.columns.len()
                    )));
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // persistence as a design note
    // ------------------------------------------------------------------

    /// Encode into a `View`-class design note.
    pub fn to_note(&self) -> Note {
        let mut n = Note::new(NoteClass::View);
        n.set("$TITLE", Value::text(self.name.clone()));
        n.set("Selection", Value::text(self.selection.source()));
        n.set("ShowResponses", Value::from(self.show_responses));
        let cols: Vec<String> = self.columns.iter().map(encode_column).collect();
        n.set("Columns", Value::text_list(cols));
        let alts: Vec<String> = self
            .alternates
            .iter()
            .map(|a| {
                a.keys
                    .iter()
                    .map(|(i, d)| {
                        format!("{i}{}", if *d == SortDir::Descending { "d" } else { "a" })
                    })
                    .collect::<Vec<_>>()
                    .join(",")
            })
            .collect();
        if !alts.is_empty() {
            n.set("Collations", Value::text_list(alts));
        }
        n
    }

    /// Decode from a design note; a design [`ViewDesign::validate`]
    /// rejects is an error here, not when it is attached.
    pub fn from_note(note: &Note) -> Result<ViewDesign> {
        if note.class != NoteClass::View {
            return Err(DominoError::InvalidArgument(format!(
                "{:?} note is not a view design",
                note.class
            )));
        }
        let name = note
            .get_text("$TITLE")
            .ok_or_else(|| DominoError::Corrupt("view design missing $TITLE".into()))?;
        let selection_src = note
            .get_text("Selection")
            .ok_or_else(|| DominoError::Corrupt("view design missing Selection".into()))?;
        let mut design = ViewDesign::new(&name, &selection_src)?;
        if let Some(v) = note.get("ShowResponses") {
            design.show_responses = v.as_bool().unwrap_or(false) || design.show_responses;
        }
        if let Some(cols) = note.get("Columns") {
            for spec in cols.iter_scalars() {
                design.columns.push(decode_column(&spec.to_text())?);
            }
        }
        if let Some(alts) = note.get("Collations") {
            for alt in alts.iter_scalars() {
                let mut keys = Vec::new();
                for part in alt.to_text().split(',').filter(|s| !s.is_empty()) {
                    let (idx, dir) = part.split_at(part.len() - 1);
                    let i: usize = idx
                        .parse()
                        .map_err(|_| DominoError::Corrupt(format!("bad collation key {part:?}")))?;
                    let d = if dir == "d" {
                        SortDir::Descending
                    } else {
                        SortDir::Ascending
                    };
                    keys.push((i, d));
                }
                design.alternates.push(Collation { keys });
            }
        }
        design.validate()?;
        Ok(design)
    }
}

fn encode_column(c: &ColumnSpec) -> String {
    let sort = match (c.category, c.sort) {
        (true, _) => "c",
        (false, Some(SortDir::Ascending)) => "a",
        (false, Some(SortDir::Descending)) => "d",
        (false, None) => "n",
    };
    let total = if c.total { "t" } else { "-" };
    // Title and formula are base-escaped with | replaced (titles/formulas
    // rarely contain |; escape defensively).
    format!(
        "{}|{}|{}|{}",
        sort,
        total,
        c.title.replace('|', "\u{1}"),
        c.formula.source().replace('|', "\u{1}")
    )
}

fn decode_column(s: &str) -> Result<ColumnSpec> {
    let parts: Vec<&str> = s.splitn(4, '|').collect();
    if parts.len() != 4 {
        return Err(DominoError::Corrupt(format!("bad column spec {s:?}")));
    }
    let title = parts[2].replace('\u{1}', "|");
    let src = parts[3].replace('\u{1}', "|");
    let mut col = ColumnSpec::new(&title, &src)?;
    match parts[0] {
        "c" => col = col.categorized(),
        "a" => col = col.sorted(SortDir::Ascending),
        "d" => col = col.sorted(SortDir::Descending),
        _ => {}
    }
    if parts[1] == "t" {
        col = col.totaled();
    }
    Ok(col)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ViewDesign {
        ViewDesign::new("By Status", r#"SELECT Form = "Task""#)
            .unwrap()
            .column(ColumnSpec::new("Status", "Status").unwrap().categorized())
            .column(
                ColumnSpec::new("Priority", "Priority")
                    .unwrap()
                    .sorted(SortDir::Descending),
            )
            .column(ColumnSpec::new("Subject", "Subject").unwrap())
            .column(ColumnSpec::new("Hours", "Hours").unwrap().totaled())
            .alternate(vec![(2, SortDir::Ascending)])
    }

    #[test]
    fn primary_collation_from_sorted_columns() {
        let d = sample();
        let c = d.primary_collation();
        assert_eq!(
            c.keys,
            vec![(0, SortDir::Ascending), (1, SortDir::Descending)]
        );
        assert_eq!(d.collations().len(), 2);
    }

    #[test]
    fn validate_accepts_sample() {
        sample().validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_alternate() {
        let d = ViewDesign::new("v", "SELECT @All")
            .unwrap()
            .column(ColumnSpec::new("A", "A").unwrap())
            .alternate(vec![(5, SortDir::Ascending)]);
        assert!(d.validate().is_err());
    }

    #[test]
    fn validate_rejects_category_after_data_sort() {
        let d = ViewDesign::new("v", "SELECT @All")
            .unwrap()
            .column(
                ColumnSpec::new("A", "A")
                    .unwrap()
                    .sorted(SortDir::Ascending),
            )
            .column(ColumnSpec::new("B", "B").unwrap().categorized());
        assert!(d.validate().is_err());
    }

    #[test]
    fn responses_flag_from_formula() {
        let d = ViewDesign::new("t", "SELECT Form = \"Main\" | @AllDescendants").unwrap();
        assert!(d.show_responses);
        let e = ViewDesign::new("t", "SELECT @All").unwrap();
        assert!(!e.show_responses);
    }

    #[test]
    fn note_roundtrip() {
        let d = sample();
        let note = d.to_note();
        let back = ViewDesign::from_note(&note).unwrap();
        assert_eq!(back.name, d.name);
        assert_eq!(back.selection.source(), d.selection.source());
        assert_eq!(back.columns.len(), 4);
        assert!(back.columns[0].category);
        assert_eq!(back.columns[1].sort, Some(SortDir::Descending));
        assert!(back.columns[3].total);
        assert_eq!(back.alternates.len(), 1);
        assert_eq!(back.alternates[0].keys, vec![(2, SortDir::Ascending)]);
    }

    #[test]
    fn column_spec_with_pipes_roundtrips() {
        let c = ColumnSpec::new("A|B", r#"@If(X = 1; "a"; "b")"#).unwrap();
        let back = decode_column(&encode_column(&c)).unwrap();
        assert_eq!(back.title, "A|B");
        assert_eq!(back.formula.source(), c.formula.source());
    }

    #[test]
    fn from_note_rejects_an_invalid_design() {
        let bad = ViewDesign::new("v", "SELECT @All")
            .unwrap()
            .column(ColumnSpec::new("A", "A").unwrap())
            .alternate(vec![(5, SortDir::Ascending)]);
        assert!(ViewDesign::from_note(&bad.to_note()).is_err());
    }

    #[test]
    fn from_note_rejects_wrong_class() {
        let n = Note::document("X");
        assert!(ViewDesign::from_note(&n).is_err());
    }
}
