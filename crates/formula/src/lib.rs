//! The Notes formula language.
//!
//! Domino's views, selective replication, agents, and computed fields are
//! all driven by *formulas*: small expressions over a document's items,
//! built from `@`-functions, infix operators with list ("pairwise")
//! semantics, temporary variables (`x := ...`), field writes
//! (`FIELD x := ...`), and an optional `SELECT` statement that turns the
//! formula into a document predicate.
//!
//! ```
//! use domino_formula::{Formula, EvalEnv, MapDoc};
//! use domino_types::Value;
//!
//! let f = Formula::compile(r#"SELECT Form = "Order" & Total > 100"#).unwrap();
//! let doc = MapDoc::new()
//!     .with("Form", Value::text("Order"))
//!     .with("Total", Value::Number(250.0));
//! assert!(f.selects(&doc, &EvalEnv::default()).unwrap());
//! ```
//!
//! The implementation is a classic pipeline: [`token`] lexes source text,
//! [`parser`] builds the [`ast`], and [`eval`] walks it against any type
//! implementing [`DocContext`]. The ~45 built-in `@`-functions live in
//! [`functions`].

pub mod ast;
pub mod eval;
pub mod functions;
pub mod parser;
pub mod token;

pub use ast::{BinOp, Expr, Program, UnOp};
pub use eval::{DocContext, EvalEnv, EvalOutput, Evaluator, MapDoc};
pub use parser::parse;

use std::sync::Arc;

use domino_obs as obs;
use domino_types::{DominoError, Result, Unid, Value};

/// A compiled, reusable formula.
///
/// Compile once with [`Formula::compile`], then evaluate against many
/// documents. Compilation is pure parsing; all name resolution happens at
/// evaluation time (Notes items are schemaless).
///
/// The compiled [`Program`] sits behind an `Arc`, so cloning a `Formula`
/// shares the parse rather than repeating it. `Formula` is `Send + Sync`:
/// programs are plain data and evaluation never mutates them.
#[derive(Debug, Clone)]
pub struct Formula {
    source: String,
    program: Arc<Program>,
}

impl Formula {
    /// Parse `source` into a reusable formula.
    pub fn compile(source: &str) -> Result<Formula> {
        let program = Arc::new(parse(source)?);
        Ok(Formula {
            source: source.to_string(),
            program,
        })
    }

    /// The original source text.
    pub fn source(&self) -> &str {
        &self.source
    }

    /// The parsed program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// Evaluate the formula against `doc`, returning the full output
    /// (result value, field writes, selection verdict, response-inclusion
    /// flags).
    pub fn eval_full(&self, doc: &dyn DocContext, env: &EvalEnv) -> Result<EvalOutput> {
        Evaluator::new(env).run(&self.program, doc)
    }

    /// Evaluate and return just the result value (the value of the last
    /// statement, as in Notes column formulas).
    pub fn eval(&self, doc: &dyn DocContext, env: &EvalEnv) -> Result<Value> {
        Ok(self.eval_full(doc, env)?.value)
    }

    /// Does this formula select `doc`? Uses the `SELECT` statement if
    /// present, otherwise the truthiness of the final value (matching how
    /// Notes treats selection formulas without an explicit `SELECT`).
    pub fn selects(&self, doc: &dyn DocContext, env: &EvalEnv) -> Result<bool> {
        Ok(self.eval_full(doc, env)?.selected)
    }

    /// True if the formula contains `@AllDescendants`/`@AllChildren`, i.e.
    /// a view using it must include response documents of selected parents.
    pub fn wants_descendants(&self) -> bool {
        self.program.mentions_function("alldescendants")
            || self.program.mentions_function("allchildren")
    }
}

/// The formula failures one operation met — a view's apply or rebuild, a
/// selective pull pass, an agent run — where a formula that fails on a
/// note is that note's verdict (not in the view, not selected, skipped),
/// never the operation's error. Each failure counts in the
/// `Formula.Eval.Errors` registry counter as it is recorded;
/// [`EvalErrors::report`] then emits one `Warning` event for the
/// operation, naming the first failure.
#[derive(Debug, Clone, Default)]
pub struct EvalErrors {
    count: u64,
    /// Formula source, note and error of the first failure.
    first: Option<(String, Unid, String)>,
}

impl EvalErrors {
    /// Count one failed evaluation of `formula` on the note `unid`.
    pub fn record(&mut self, formula: &Formula, unid: Unid, err: DominoError) {
        obs::counter!("Formula.Eval.Errors").inc();
        self.count += 1;
        if self.first.is_none() {
            self.first = Some((formula.source().to_string(), unid, err.to_string()));
        }
    }

    /// Emit one `Formula.Eval.Errors` warning for `site` (a view, agent
    /// or replication pass) if any failure was recorded, and start over.
    /// `site` is only called when there is something to report.
    pub fn report(&mut self, kind: obs::EventKind, site: impl FnOnce() -> String) {
        let Some((formula, unid, error)) = self.first.take() else {
            return;
        };
        obs::emit(
            obs::Event::new(kind, obs::Severity::Warning, "Formula.Eval.Errors")
                .with("site", site())
                .with("formula", formula)
                .with("errors", std::mem::take(&mut self.count))
                .with("first_unid", unid.to_string())
                .with("error", error),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_types::Value;

    #[test]
    fn formula_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Formula>();
        assert_send_sync::<EvalEnv>();
    }

    #[test]
    fn compile_eval_roundtrip() {
        let f = Formula::compile("1 + 2").unwrap();
        assert_eq!(f.source(), "1 + 2");
        let out = f.eval(&MapDoc::new(), &EvalEnv::default()).unwrap();
        assert_eq!(out, Value::Number(3.0));
    }

    #[test]
    fn selects_without_select_uses_truthiness() {
        let doc = MapDoc::new().with("N", Value::Number(5.0));
        let env = EvalEnv::default();
        assert!(Formula::compile("N > 1")
            .unwrap()
            .selects(&doc, &env)
            .unwrap());
        assert!(!Formula::compile("N > 9")
            .unwrap()
            .selects(&doc, &env)
            .unwrap());
    }

    #[test]
    fn wants_descendants_detected() {
        let f = Formula::compile(r#"SELECT Form = "Main" | @AllDescendants"#).unwrap();
        assert!(f.wants_descendants());
        let g = Formula::compile(r#"SELECT Form = "Main""#).unwrap();
        assert!(!g.wants_descendants());
    }
}
