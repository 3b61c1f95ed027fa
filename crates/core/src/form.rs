//! Forms: the schema-by-convention layer.
//!
//! A Notes database is schemaless, but *forms* (design notes) describe how
//! documents of a given `Form` item are composed and edited: per-field
//! **default value** formulas (applied when the field is absent on first
//! save), **computed** formulas (recomputed on every save), **validation**
//! formulas (`@Success` / `@Failure("message")`), and storage flags
//! (summary, readers, authors, protected). `Session::save` applies the
//! form matching a document automatically.

use domino_formula::{EvalEnv, Formula};
use domino_types::{DominoError, ItemFlags, NoteClass, Result, Value};

use crate::db::Database;
use crate::mvcc::Snapshot;
use crate::note::Note;

/// How a field gets its value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FieldKind {
    /// User-entered; the default formula fills it only when absent.
    Editable,
    /// Recomputed by formula on every save.
    Computed,
    /// Computed once, when the document is first saved.
    ComputedWhenComposed,
}

impl FieldKind {
    fn code(self) -> &'static str {
        match self {
            FieldKind::Editable => "e",
            FieldKind::Computed => "c",
            FieldKind::ComputedWhenComposed => "w",
        }
    }

    fn parse(s: &str) -> FieldKind {
        match s {
            "c" => FieldKind::Computed,
            "w" => FieldKind::ComputedWhenComposed,
            _ => FieldKind::Editable,
        }
    }
}

/// One field of a form.
#[derive(Debug, Clone)]
pub struct FieldSpec {
    pub name: String,
    pub kind: FieldKind,
    /// Value formula: the default (Editable) or the computation (Computed*).
    pub formula: Option<Formula>,
    /// Validation, run after values settle: truthy/`@Success` passes, a
    /// text result is the failure message.
    pub validation: Option<Formula>,
    /// Flags applied to the stored item.
    pub flags: ItemFlags,
}

impl FieldSpec {
    pub fn editable(name: &str) -> FieldSpec {
        FieldSpec {
            name: name.to_string(),
            kind: FieldKind::Editable,
            formula: None,
            validation: None,
            flags: ItemFlags::SUMMARY,
        }
    }

    pub fn with_default(mut self, src: &str) -> Result<FieldSpec> {
        self.formula = Some(Formula::compile(src)?);
        Ok(self)
    }

    pub fn computed(name: &str, src: &str) -> Result<FieldSpec> {
        Ok(FieldSpec {
            name: name.to_string(),
            kind: FieldKind::Computed,
            formula: Some(Formula::compile(src)?),
            validation: None,
            flags: ItemFlags::SUMMARY,
        })
    }

    pub fn computed_when_composed(name: &str, src: &str) -> Result<FieldSpec> {
        Ok(FieldSpec {
            name: name.to_string(),
            kind: FieldKind::ComputedWhenComposed,
            formula: Some(Formula::compile(src)?),
            validation: None,
            flags: ItemFlags::SUMMARY,
        })
    }

    pub fn validated(mut self, src: &str) -> Result<FieldSpec> {
        self.validation = Some(Formula::compile(src)?);
        Ok(self)
    }

    pub fn with_flags(mut self, flags: ItemFlags) -> FieldSpec {
        self.flags = flags;
        self
    }
}

/// A form design.
#[derive(Debug, Clone)]
pub struct FormDesign {
    /// Matches documents whose `Form` item equals this name.
    pub name: String,
    pub fields: Vec<FieldSpec>,
}

impl FormDesign {
    pub fn new(name: &str) -> FormDesign {
        FormDesign {
            name: name.to_string(),
            fields: Vec::new(),
        }
    }

    pub fn field(mut self, f: FieldSpec) -> FormDesign {
        self.fields.push(f);
        self
    }

    /// Apply the form to a document about to be saved: fill defaults,
    /// recompute computed fields, then validate. `is_new` selects the
    /// compose-time behaviours.
    pub fn process(&self, note: &mut Note, env: &EvalEnv, is_new: bool) -> Result<()> {
        for field in &self.fields {
            let run = match field.kind {
                FieldKind::Editable => is_new && !note.has(&field.name),
                FieldKind::Computed => true,
                FieldKind::ComputedWhenComposed => is_new,
            };
            if run {
                if let Some(f) = &field.formula {
                    let v = f.eval(note, env)?;
                    note.set_with_flags(&field.name, v, field.flags);
                }
            } else if note.has(&field.name) {
                // Normalize flags on user-entered values (reader/author
                // fields must carry their flags to be enforced).
                if let Some(v) = note.get(&field.name).cloned() {
                    note.set_with_flags(&field.name, v, field.flags);
                }
            }
        }
        // Validation pass, after all values settle.
        for field in &self.fields {
            let Some(v) = &field.validation else { continue };
            let out = v.eval(note, env)?;
            match out {
                Value::Text(msg) => {
                    return Err(DominoError::InvalidArgument(format!(
                        "field {}: {msg}",
                        field.name
                    )))
                }
                other => {
                    if !other.as_bool().unwrap_or(false) {
                        return Err(DominoError::InvalidArgument(format!(
                            "field {} failed validation",
                            field.name
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // persistence as a Form design note
    // ------------------------------------------------------------------

    pub fn to_note(&self) -> Note {
        let mut n = Note::new(NoteClass::Form);
        n.set("$TITLE", Value::text(self.name.clone()));
        let fields: Vec<String> = self
            .fields
            .iter()
            .map(|f| {
                format!(
                    "{}|{}|{}|{}|{}",
                    f.kind.code(),
                    f.flags.0,
                    f.name.replace('|', "\u{1}"),
                    f.formula
                        .as_ref()
                        .map(|x| x.source().replace('|', "\u{1}"))
                        .unwrap_or_default(),
                    f.validation
                        .as_ref()
                        .map(|x| x.source().replace('|', "\u{1}"))
                        .unwrap_or_default(),
                )
            })
            .collect();
        n.set("Fields", Value::text_list(fields));
        n
    }

    pub fn from_note(note: &Note) -> Result<FormDesign> {
        if note.class != NoteClass::Form {
            return Err(DominoError::InvalidArgument(format!(
                "{:?} note is not a form design",
                note.class
            )));
        }
        let name = note
            .get_text("$TITLE")
            .ok_or_else(|| DominoError::Corrupt("form design missing $TITLE".into()))?;
        let mut design = FormDesign::new(&name);
        if let Some(v) = note.get("Fields") {
            for spec in v.iter_scalars() {
                let s = spec.to_text();
                let parts: Vec<&str> = s.splitn(5, '|').collect();
                if parts.len() != 5 {
                    return Err(DominoError::Corrupt(format!("bad field spec {s:?}")));
                }
                let kind = FieldKind::parse(parts[0]);
                let flags = ItemFlags(parts[1].parse::<u8>().map_err(|_| {
                    DominoError::Corrupt(format!("bad field flags {:?}", parts[1]))
                })?);
                let fname = parts[2].replace('\u{1}', "|");
                let formula = if parts[3].is_empty() {
                    None
                } else {
                    Some(Formula::compile(&parts[3].replace('\u{1}', "|"))?)
                };
                let validation = if parts[4].is_empty() {
                    None
                } else {
                    Some(Formula::compile(&parts[4].replace('\u{1}', "|"))?)
                };
                design.fields.push(FieldSpec {
                    name: fname,
                    kind,
                    formula,
                    validation,
                    flags,
                });
            }
        }
        Ok(design)
    }
}

/// Store a form design in the database (so it replicates with the data),
/// replacing the stored design of the same name.
pub fn save_form(db: &Database, form: &FormDesign) -> Result<()> {
    db.save_design(&mut form.to_note())
}

/// Load the form design matching a document's `Form` item, if stored.
pub fn form_for(db: &Database, note: &Note) -> Result<Option<FormDesign>> {
    form_at(&db.snapshot(), note)
}

/// [`form_for`] at a snapshot the caller already holds, so the form agrees
/// with whatever else the caller reads there.
pub(crate) fn form_at(snap: &Snapshot, note: &Note) -> Result<Option<FormDesign>> {
    let Some(form_name) = note.get_text(crate::note::ITEM_FORM) else {
        return Ok(None);
    };
    snap.design_note(NoteClass::Form, &form_name)?
        .map(|design_note| FormDesign::from_note(&design_note))
        .transpose()
}

/// All stored form designs.
pub fn stored_forms(db: &Database) -> Result<Vec<FormDesign>> {
    db.snapshot()
        .design_notes(NoteClass::Form)?
        .iter()
        .map(|n| FormDesign::from_note(n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::db::DbConfig;
    use domino_types::{LogicalClock, ReplicaId};

    fn order_form() -> FormDesign {
        FormDesign::new("Order")
            .field(
                FieldSpec::editable("Status")
                    .with_default(r#""new""#)
                    .unwrap(),
            )
            .field(FieldSpec::computed("Total", "Quantity * UnitPrice").unwrap())
            .field(FieldSpec::computed_when_composed("OrderedBy", "@UserName").unwrap())
            .field(
                FieldSpec::editable("Quantity")
                    .validated(
                        r#"@If(Quantity > 0; @Success; @Failure("quantity must be positive"))"#,
                    )
                    .unwrap(),
            )
    }

    fn env(user: &str) -> EvalEnv {
        EvalEnv {
            username: user.into(),
            ..EvalEnv::default()
        }
    }

    #[test]
    fn defaults_fill_missing_fields_on_compose_only() {
        let form = order_form();
        let mut n = Note::document("Order");
        n.set("Quantity", Value::Number(2.0));
        n.set("UnitPrice", Value::Number(10.0));
        form.process(&mut n, &env("ann"), true).unwrap();
        assert_eq!(n.get_text("Status").unwrap(), "new");
        // User sets it; a later save must not reset it.
        n.set("Status", Value::text("shipped"));
        form.process(&mut n, &env("ann"), false).unwrap();
        assert_eq!(n.get_text("Status").unwrap(), "shipped");
    }

    #[test]
    fn computed_fields_recompute_every_save() {
        let form = order_form();
        let mut n = Note::document("Order");
        n.set("Quantity", Value::Number(2.0));
        n.set("UnitPrice", Value::Number(10.0));
        form.process(&mut n, &env("ann"), true).unwrap();
        assert_eq!(n.get("Total"), Some(&Value::Number(20.0)));
        n.set("Quantity", Value::Number(5.0));
        form.process(&mut n, &env("ann"), false).unwrap();
        assert_eq!(n.get("Total"), Some(&Value::Number(50.0)));
    }

    #[test]
    fn computed_when_composed_sticks() {
        let form = order_form();
        let mut n = Note::document("Order");
        n.set("Quantity", Value::Number(1.0));
        n.set("UnitPrice", Value::Number(1.0));
        form.process(&mut n, &env("ann"), true).unwrap();
        assert_eq!(n.get_text("OrderedBy").unwrap(), "ann");
        form.process(&mut n, &env("bob"), false).unwrap();
        assert_eq!(n.get_text("OrderedBy").unwrap(), "ann", "compose-time only");
    }

    #[test]
    fn validation_rejects_with_message() {
        let form = order_form();
        let mut n = Note::document("Order");
        n.set("Quantity", Value::Number(0.0));
        n.set("UnitPrice", Value::Number(10.0));
        let err = form.process(&mut n, &env("ann"), true).unwrap_err();
        assert!(
            err.to_string().contains("quantity must be positive"),
            "{err}"
        );
    }

    #[test]
    fn design_note_roundtrip() {
        let form = order_form();
        let note = form.to_note();
        let back = FormDesign::from_note(&note).unwrap();
        assert_eq!(back.name, "Order");
        assert_eq!(back.fields.len(), 4);
        assert_eq!(back.fields[1].kind, FieldKind::Computed);
        assert_eq!(
            back.fields[1].formula.as_ref().unwrap().source(),
            "Quantity * UnitPrice"
        );
        assert!(back.fields[3].validation.is_some());
    }

    #[test]
    fn save_form_replaces_by_name() {
        let db = Database::open_in_memory(
            DbConfig::new("T", ReplicaId(1), ReplicaId(2)),
            LogicalClock::new(),
        )
        .unwrap();
        save_form(&db, &order_form()).unwrap();
        save_form(&db, &FormDesign::new("Order")).unwrap(); // replaces
        let forms = stored_forms(&db).unwrap();
        assert_eq!(forms.len(), 1);
        assert!(forms[0].fields.is_empty());
        // Replaced in place: one note, whose second revision descends
        // from its first (so the edit replicates as an update).
        let stored = db.snapshot().design_notes(NoteClass::Form).unwrap();
        assert_eq!(stored.len(), 1);
        assert_eq!(stored[0].oid.seq, 2);
        assert_eq!(crate::revision::revision_chain(&stored[0]).len(), 2);
    }

    #[test]
    fn form_for_matches_document_form_item() {
        let db = Database::open_in_memory(
            DbConfig::new("T", ReplicaId(1), ReplicaId(2)),
            LogicalClock::new(),
        )
        .unwrap();
        save_form(&db, &order_form()).unwrap();
        let order = Note::document("Order");
        assert!(form_for(&db, &order).unwrap().is_some());
        let memo = Note::document("Memo");
        assert!(form_for(&db, &memo).unwrap().is_none());
    }
}
