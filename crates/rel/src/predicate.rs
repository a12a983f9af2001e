//! Attribute filter predicates.
//!
//! MicroNN "supports standard relational operators over the defined
//! attributes (>, <, =, !=)" plus FTS `MATCH`, combined with AND/OR
//! (§3.5). Predicates are built as an AST, compiled against a table
//! schema (resolving column names to indexes once), and then evaluated
//! per row on the scan hot path.
//!
//! Evaluation is two-valued: a comparison involving NULL or mismatched
//! types is `false` (and so is its negation's operand), which matches
//! how filters behave in the paper's setting — a row either qualifies
//! or it does not.

use crate::error::Result;
use crate::fts;
use crate::schema::TableSchema;
use crate::value::{Value, ValueRef};

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Applies the operator to an ordering result.
    pub fn matches(self, ord: std::cmp::Ordering) -> bool {
        use std::cmp::Ordering::*;
        match self {
            CmpOp::Eq => ord == Equal,
            CmpOp::Ne => ord != Equal,
            CmpOp::Lt => ord == Less,
            CmpOp::Le => ord != Greater,
            CmpOp::Gt => ord == Greater,
            CmpOp::Ge => ord != Less,
        }
    }

    /// Whether `v <op> lit` holds: the one comparison every filter runs,
    /// on a row's column or on an index entry's value. A NULL or a
    /// mismatched type on either side never holds.
    #[inline]
    pub(crate) fn holds(self, v: ValueRef<'_>, lit: &Value) -> bool {
        v.compare(lit).is_some_and(|ord| self.matches(ord))
    }
}

/// A filter expression over a table's attribute columns.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Matches every row.
    True,
    /// `column <op> literal`.
    Cmp {
        column: String,
        op: CmpOp,
        value: Value,
    },
    /// Full-text `column MATCH query` (conjunctive over query tokens).
    Match {
        column: String,
        query: String,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
}

impl Expr {
    /// `column = value`
    pub fn eq(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: value.into(),
        }
    }

    /// `column != value`
    pub fn ne(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Ne,
            value: value.into(),
        }
    }

    /// `column < value`
    pub fn lt(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Lt,
            value: value.into(),
        }
    }

    /// `column <= value`
    pub fn le(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Le,
            value: value.into(),
        }
    }

    /// `column > value`
    pub fn gt(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Gt,
            value: value.into(),
        }
    }

    /// `column >= value`
    pub fn ge(column: impl Into<String>, value: impl Into<Value>) -> Expr {
        Expr::Cmp {
            column: column.into(),
            op: CmpOp::Ge,
            value: value.into(),
        }
    }

    /// `column MATCH query`
    pub fn matches(column: impl Into<String>, query: impl Into<String>) -> Expr {
        Expr::Match {
            column: column.into(),
            query: query.into(),
        }
    }

    /// `self AND other`
    pub fn and(self, other: Expr) -> Expr {
        Expr::And(Box::new(self), Box::new(other))
    }

    /// `self OR other`
    pub fn or(self, other: Expr) -> Expr {
        Expr::Or(Box::new(self), Box::new(other))
    }

    /// `NOT self`
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Expr {
        Expr::Not(Box::new(self))
    }

    /// Resolves column names against `schema`, producing an evaluable
    /// predicate. Fails on unknown columns.
    pub fn compile(&self, schema: &TableSchema) -> Result<Compiled> {
        Ok(Compiled {
            node: self.compile_node(schema)?,
        })
    }

    fn compile_node(&self, schema: &TableSchema) -> Result<Node> {
        Ok(match self {
            Expr::True => Node::True,
            Expr::Cmp { column, op, value } => Node::Cmp {
                col: schema.column_index(column)?,
                op: *op,
                value: value.clone(),
            },
            Expr::Match { column, query } => {
                let tokens = fts::tokenize_unique(query);
                Node::Match {
                    col: schema.column_index(column)?,
                    tokens,
                }
            }
            Expr::And(a, b) => Node::And(
                Box::new(a.compile_node(schema)?),
                Box::new(b.compile_node(schema)?),
            ),
            Expr::Or(a, b) => Node::Or(
                Box::new(a.compile_node(schema)?),
                Box::new(b.compile_node(schema)?),
            ),
            Expr::Not(a) => Node::Not(Box::new(a.compile_node(schema)?)),
        })
    }
}

#[derive(Debug, Clone)]
enum Node {
    True,
    Cmp { col: usize, op: CmpOp, value: Value },
    Match { col: usize, tokens: Vec<String> },
    And(Box<Node>, Box<Node>),
    Or(Box<Node>, Box<Node>),
    Not(Box<Node>),
}

/// A predicate compiled against a schema; evaluation is infallible.
#[derive(Debug, Clone)]
pub struct Compiled {
    node: Node,
}

/// A row as a compiled predicate reads it: one borrowed column at a
/// time. Implemented by decoded rows (`[Value]`) and by
/// [`EncodedRow`](crate::row::EncodedRow), so both evaluate through the
/// same evaluator.
pub trait Columns {
    /// Column `col` of the row.
    fn column(&self, col: usize) -> ValueRef<'_>;
}

impl Columns for [Value] {
    fn column(&self, col: usize) -> ValueRef<'_> {
        self[col].as_ref()
    }
}

impl Compiled {
    /// Evaluates the predicate against a decoded row.
    pub fn eval(&self, row: &[Value]) -> bool {
        self.eval_columns(row)
    }

    /// Evaluates the predicate against any [`Columns`] view — an
    /// [`EncodedRow`](crate::row::EncodedRow) on the scan hot path.
    pub fn eval_columns<C: Columns + ?Sized>(&self, row: &C) -> bool {
        eval_node(&self.node, row)
    }
}

fn eval_node<C: Columns + ?Sized>(node: &Node, row: &C) -> bool {
    match node {
        Node::True => true,
        Node::Cmp { col, op, value } => op.holds(row.column(*col), value),
        Node::Match { col, tokens } => match row.column(*col).as_text() {
            Some(text) => {
                if tokens.is_empty() {
                    return false;
                }
                let doc = fts::tokenize_unique(text);
                tokens.iter().all(|t| doc.binary_search(t).is_ok())
            }
            None => false,
        },
        Node::And(a, b) => eval_node(a, row) && eval_node(b, row),
        Node::Or(a, b) => eval_node(a, row) || eval_node(b, row),
        Node::Not(a) => !eval_node(a, row),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColumnDef;
    use crate::value::ValueType;

    fn schema() -> TableSchema {
        TableSchema::new(
            "photos",
            vec![
                ColumnDef::new("id", ValueType::Integer),
                ColumnDef::new("location", ValueType::Text),
                ColumnDef::nullable("taken_at", ValueType::Integer),
                ColumnDef::nullable("tags", ValueType::Text),
            ],
            &["id"],
        )
        .unwrap()
    }

    fn row(id: i64, loc: &str, at: Option<i64>, tags: &str) -> Vec<Value> {
        vec![
            Value::Integer(id),
            Value::text(loc),
            at.map(Value::Integer).unwrap_or(Value::Null),
            Value::text(tags),
        ]
    }

    #[test]
    fn comparison_operators() {
        let s = schema();
        let r = row(1, "Seattle", Some(100), "");
        let cases = [
            (Expr::eq("location", "Seattle"), true),
            (Expr::eq("location", "NYC"), false),
            (Expr::ne("location", "NYC"), true),
            (Expr::lt("taken_at", 200i64), true),
            (Expr::le("taken_at", 100i64), true),
            (Expr::gt("taken_at", 100i64), false),
            (Expr::ge("taken_at", 100i64), true),
        ];
        for (e, want) in cases {
            assert_eq!(e.compile(&s).unwrap().eval(&r), want, "{e:?}");
        }
    }

    #[test]
    fn null_comparisons_are_false() {
        let s = schema();
        let r = row(1, "x", None, "");
        for op in [
            Expr::eq("taken_at", 5i64),
            Expr::ne("taken_at", 5i64),
            Expr::lt("taken_at", 5i64),
        ] {
            assert!(!op.compile(&s).unwrap().eval(&r));
        }
        // But NOT(cmp-with-null) is true under two-valued semantics.
        assert!(Expr::eq("taken_at", 5i64)
            .not()
            .compile(&s)
            .unwrap()
            .eval(&r));
    }

    #[test]
    fn boolean_combinators() {
        let s = schema();
        let r = row(1, "Seattle", Some(100), "");
        let e = Expr::eq("location", "Seattle").and(Expr::lt("taken_at", 200i64));
        assert!(e.compile(&s).unwrap().eval(&r));
        let e = Expr::eq("location", "NYC").or(Expr::lt("taken_at", 200i64));
        assert!(e.compile(&s).unwrap().eval(&r));
        let e = Expr::eq("location", "NYC").or(Expr::gt("taken_at", 200i64));
        assert!(!e.compile(&s).unwrap().eval(&r));
        assert!(Expr::True.compile(&s).unwrap().eval(&r));
        assert!(!Expr::True.not().compile(&s).unwrap().eval(&r));
    }

    #[test]
    fn match_semantics() {
        let s = schema();
        let r = row(1, "x", None, "Black cat playing with yarn");
        let hit = Expr::matches("tags", "black CAT");
        assert!(hit.compile(&s).unwrap().eval(&r));
        let miss = Expr::matches("tags", "black dog");
        assert!(!miss.compile(&s).unwrap().eval(&r));
        // Empty query matches nothing.
        assert!(!Expr::matches("tags", "").compile(&s).unwrap().eval(&r));
        // MATCH on a NULL column is false.
        let r2 = vec![
            Value::Integer(1),
            Value::text("x"),
            Value::Null,
            Value::Null,
        ];
        assert!(!Expr::matches("tags", "cat").compile(&s).unwrap().eval(&r2));
    }

    #[test]
    fn encoded_rows_evaluate_like_decoded_rows() {
        use crate::row::{encode_row, EncodedRow};
        let s = schema();
        let rows = [
            row(1, "Seattle", Some(100), "black cat"),
            row(2, "NYC", None, ""),
            vec![
                Value::Integer(3),
                Value::text("x"),
                Value::Null,
                Value::Null,
            ],
        ];
        let exprs = [
            Expr::eq("location", "Seattle"),
            Expr::lt("taken_at", Value::Real(100.5)),
            Expr::ne("taken_at", 5i64).not(),
            Expr::matches("tags", "cat").or(Expr::ge("id", 3i64)),
            Expr::eq("location", "NYC").and(Expr::True),
        ];
        for e in &exprs {
            let c = e.compile(&s).unwrap();
            for r in &rows {
                let bytes = encode_row(r);
                let enc = EncodedRow::new(&bytes).unwrap();
                assert_eq!(c.eval_columns(&enc), c.eval(r), "{e:?} on {r:?}");
            }
        }
    }

    #[test]
    fn unknown_column_fails_at_compile_time() {
        let s = schema();
        assert!(Expr::eq("nope", 1i64).compile(&s).is_err());
        assert!(Expr::matches("nope", "x").compile(&s).is_err());
    }

    #[test]
    fn numeric_widening_in_comparisons() {
        let s = schema();
        let r = row(1, "x", Some(100), "");
        assert!(Expr::eq("taken_at", Value::Real(100.0))
            .compile(&s)
            .unwrap()
            .eval(&r));
        assert!(Expr::lt("taken_at", Value::Real(100.5))
            .compile(&s)
            .unwrap()
            .eval(&r));
    }
}
