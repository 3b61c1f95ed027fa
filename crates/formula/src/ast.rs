//! Abstract syntax of formulas.

use domino_types::Value;

/// Binary operators. Arithmetic and comparison use pairwise list semantics;
/// `PermEq`/`PermNe` compare every combination of elements (`*=` / `*<>`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    PermEq,
    PermNe,
    And,
    Or,
    /// `:` — list concatenation.
    Concat,
}

impl BinOp {
    /// Is this a comparison producing a boolean (1/0) result?
    pub fn is_comparison(self) -> bool {
        matches!(
            self,
            BinOp::Eq
                | BinOp::Ne
                | BinOp::Lt
                | BinOp::Le
                | BinOp::Gt
                | BinOp::Ge
                | BinOp::PermEq
                | BinOp::PermNe
        )
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Numeric negation (pairwise over lists).
    Neg,
    /// Logical not.
    Not,
}

/// An expression node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value (number or string from source text).
    Lit(Value),
    /// Reference to an item or temporary variable by (case-insensitive)
    /// name. Variables shadow items, as in Notes.
    Ref(String),
    /// `name := expr` — bind a temporary variable.
    Assign(String, Box<Expr>),
    /// `FIELD name := expr` — write an item on the document being computed.
    FieldAssign(String, Box<Expr>),
    Unary(UnOp, Box<Expr>),
    Binary(BinOp, Box<Expr>, Box<Expr>),
    /// `@name(arg; arg; ...)` — `@`-function call. For functions like
    /// `@If`, argument evaluation is lazy (handled by the evaluator).
    Call(String, Vec<Expr>),
}

impl Expr {
    /// Walk the tree, calling `f` on every node.
    pub fn visit(&self, f: &mut impl FnMut(&Expr)) {
        f(self);
        match self {
            Expr::Lit(_) | Expr::Ref(_) => {}
            Expr::Assign(_, e) | Expr::FieldAssign(_, e) | Expr::Unary(_, e) => e.visit(f),
            Expr::Binary(_, a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.visit(f);
                }
            }
        }
    }
}

/// One statement of a formula program.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// A plain expression; its value becomes the program result if it is
    /// the last statement.
    Expr(Expr),
    /// `SELECT expr` — the selection predicate for view/replication use.
    Select(Expr),
}

/// A compiled formula: a `;`-separated list of statements.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub statements: Vec<Statement>,
}

impl Program {
    /// Index of the `SELECT` statement, if any.
    pub fn select_index(&self) -> Option<usize> {
        self.statements
            .iter()
            .position(|s| matches!(s, Statement::Select(_)))
    }

    /// Does any expression call the named @-function (lowercase name)?
    pub fn mentions_function(&self, name: &str) -> bool {
        let mut found = false;
        for st in &self.statements {
            let e = match st {
                Statement::Expr(e) | Statement::Select(e) => e,
            };
            e.visit(&mut |node| {
                if let Expr::Call(n, _) = node {
                    if n == name {
                        found = true;
                    }
                }
            });
        }
        found
    }

    /// All item/variable names referenced (for dependency tracking in view
    /// maintenance: a view only needs refreshing for items it reads).
    pub fn referenced_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for st in &self.statements {
            let e = match st {
                Statement::Expr(e) | Statement::Select(e) => e,
            };
            e.visit(&mut |node| {
                if let Expr::Ref(n) = node {
                    names.push(n.to_lowercase());
                }
            });
        }
        names.sort_unstable();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visit_reaches_all_nodes() {
        let e = Expr::Binary(
            BinOp::Add,
            Box::new(Expr::Ref("a".into())),
            Box::new(Expr::Call(
                "sum".into(),
                vec![Expr::Lit(Value::Number(1.0))],
            )),
        );
        let mut count = 0;
        e.visit(&mut |_| count += 1);
        assert_eq!(count, 4);
    }

    #[test]
    fn referenced_names_dedup_and_fold_case() {
        let p = Program {
            statements: vec![
                Statement::Expr(Expr::Binary(
                    BinOp::Add,
                    Box::new(Expr::Ref("Total".into())),
                    Box::new(Expr::Ref("TOTAL".into())),
                )),
                Statement::Select(Expr::Ref("Form".into())),
            ],
        };
        assert_eq!(
            p.referenced_names(),
            vec!["form".to_string(), "total".to_string()]
        );
    }

    #[test]
    fn select_index_found() {
        let p = Program {
            statements: vec![
                Statement::Expr(Expr::Lit(Value::Number(1.0))),
                Statement::Select(Expr::Lit(Value::Number(1.0))),
            ],
        };
        assert_eq!(p.select_index(), Some(1));
    }

    #[test]
    fn comparison_classification() {
        assert!(BinOp::Eq.is_comparison());
        assert!(BinOp::PermNe.is_comparison());
        assert!(!BinOp::Add.is_comparison());
        assert!(!BinOp::Concat.is_comparison());
    }
}
