//! Bound (physical) expressions: evaluated against a row by column index.
//!
//! The SQL front-end lowers `AstExpr` into this form after name resolution;
//! the classifier/distiller hot paths construct these directly.

use crate::error::{DbError, DbResult};
use crate::value::{Row, Value, ValueSet};
use std::cmp::Ordering;

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (integer division when both sides are Int; NULL on divide-by-zero
    /// would hide bugs, so it errors instead)
    Div,
    /// `=`
    Eq,
    /// `<>` / `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `and`
    And,
    /// `or`
    Or,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnOp {
    /// Arithmetic negation.
    Neg,
    /// Logical negation.
    Not,
}

/// Scalar functions available in the dialect — exactly those the paper's
/// printed SQL uses, plus a couple of numeric conveniences.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    /// `exp(x)` — used by the monitoring query `avg(exp(relevance))`.
    Exp,
    /// Natural log.
    Ln,
    /// Absolute value.
    Abs,
    /// Square root.
    Sqrt,
    /// `coalesce(a, b, …)` — Figure 3 uses `coalesce(lpr1, 0)`.
    Coalesce,
    /// `minute(ts)` — the §3.7 monitor groups by `minute(lastvisited)`;
    /// timestamps are integer seconds, so this is `ts / 60`.
    Minute,
}

impl Func {
    /// Resolve a function name.
    pub fn parse(name: &str) -> Option<Func> {
        Some(match name.to_ascii_lowercase().as_str() {
            "exp" => Func::Exp,
            "ln" | "log" => Func::Ln,
            "abs" => Func::Abs,
            "sqrt" => Func::Sqrt,
            "coalesce" => Func::Coalesce,
            "minute" => Func::Minute,
            _ => return None,
        })
    }
}

/// A bound expression tree.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Column of the input row, by position.
    Col(usize),
    /// Constant.
    Lit(Value),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary operation.
    Un(UnOp, Box<Expr>),
    /// Scalar function call.
    Call(Func, Vec<Expr>),
    /// `expr IN (v1, v2, …)` — subqueries are materialized to this. A
    /// NULL probe is false either way; otherwise membership is
    /// [`ValueSet::contains`], a hash lookup.
    InList(Box<Expr>, ValueSet, /*negated=*/ bool),
    /// `expr IS NULL` / `IS NOT NULL`.
    IsNull(Box<Expr>, /*negated=*/ bool),
    /// `?` placeholder (0-based). Plans keep these symbolic; the executor
    /// substitutes the bound value per execution. Evaluating one directly
    /// is an error — a plan leaked out without specialization.
    Param(usize),
    /// Scalar subquery slot: index into the enclosing plan's subquery
    /// list. Substituted with the subquery's value per execution.
    SubScalar(usize),
    /// `expr [NOT] IN (subquery slot)`. Substituted with [`Expr::InList`]
    /// once the subquery has run (per execution, so a mutated source
    /// table is observed by cached prepared plans).
    InSub(Box<Expr>, usize, /*negated=*/ bool),
    /// `current timestamp` — reads the session clock at execution time,
    /// so cached plans see clock updates.
    Now,
}

impl Expr {
    /// Shorthand: binary op.
    pub fn bin(op: BinOp, l: Expr, r: Expr) -> Expr {
        Expr::Bin(op, Box::new(l), Box::new(r))
    }

    /// Evaluate against `row`.
    pub fn eval(&self, row: &Row) -> DbResult<Value> {
        match self {
            Expr::Col(i) => row
                .get(*i)
                .cloned()
                .ok_or_else(|| DbError::Eval(format!("column index {i} out of bounds"))),
            Expr::Lit(v) => Ok(v.clone()),
            Expr::Bin(op, l, r) => {
                // Short-circuit logic ops.
                match op {
                    BinOp::And => {
                        return Ok(Value::Int(
                            (l.eval(row)?.is_truthy() && r.eval(row)?.is_truthy()) as i64,
                        ))
                    }
                    BinOp::Or => {
                        return Ok(Value::Int(
                            (l.eval(row)?.is_truthy() || r.eval(row)?.is_truthy()) as i64,
                        ))
                    }
                    _ => {}
                }
                let lv = l.eval(row)?;
                let rv = r.eval(row)?;
                eval_bin(*op, lv, rv)
            }
            Expr::Un(op, e) => {
                let v = e.eval(row)?;
                match op {
                    UnOp::Not => Ok(Value::Int((!v.is_truthy()) as i64)),
                    UnOp::Neg => match v {
                        Value::Int(i) => Ok(Value::Int(-i)),
                        Value::Float(f) => Ok(Value::Float(-f)),
                        Value::Null => Ok(Value::Null),
                        Value::Str(_) => Err(DbError::Eval("cannot negate a string".into())),
                    },
                }
            }
            Expr::Call(f, args) => eval_call(*f, args, row),
            Expr::InList(e, list, negated) => {
                let v = e.eval(row)?;
                if v.is_null() {
                    return Ok(Value::Int(0));
                }
                Ok(Value::Int((list.contains(&v) != *negated) as i64))
            }
            Expr::IsNull(e, negated) => {
                let v = e.eval(row)?;
                Ok(Value::Int((v.is_null() != *negated) as i64))
            }
            Expr::Param(i) => Err(DbError::Eval(format!(
                "unbound parameter ?{} (execute through a prepared statement)",
                i + 1
            ))),
            Expr::SubScalar(_) | Expr::InSub(..) | Expr::Now => Err(DbError::Eval(
                "unspecialized plan expression evaluated directly".into(),
            )),
        }
    }
}

fn numeric_pair(l: &Value, r: &Value, op: &str) -> DbResult<(f64, f64, bool)> {
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => Ok((*a as f64, *b as f64, true)),
        _ => {
            let a = l
                .as_f64()
                .ok_or_else(|| DbError::Eval(format!("{op}: non-numeric operand {l}")))?;
            let b = r
                .as_f64()
                .ok_or_else(|| DbError::Eval(format!("{op}: non-numeric operand {r}")))?;
            Ok((a, b, false))
        }
    }
}

fn eval_bin(op: BinOp, l: Value, r: Value) -> DbResult<Value> {
    use BinOp::*;
    match op {
        Eq | Ne | Lt | Le | Gt | Ge => {
            // SQL three-valued logic collapsed to false on NULL operands,
            // which is what every WHERE clause in the paper expects.
            if l.is_null() || r.is_null() {
                return Ok(Value::Int(0));
            }
            let c = l.total_cmp(&r);
            let b = match op {
                Eq => c == Ordering::Equal,
                Ne => c != Ordering::Equal,
                Lt => c == Ordering::Less,
                Le => c != Ordering::Greater,
                Gt => c == Ordering::Greater,
                Ge => c != Ordering::Less,
                _ => unreachable!(),
            };
            Ok(Value::Int(b as i64))
        }
        Add | Sub | Mul | Div => {
            if l.is_null() || r.is_null() {
                return Ok(Value::Null);
            }
            if let (Value::Str(a), Value::Str(b), Add) = (&l, &r, op) {
                return Ok(Value::Str(format!("{a}{b}")));
            }
            let (a, b, both_int) = numeric_pair(&l, &r, "arithmetic")?;
            if op == Div && b == 0.0 {
                return Err(DbError::Eval("division by zero".into()));
            }
            let f = match op {
                Add => a + b,
                Sub => a - b,
                Mul => a * b,
                Div => a / b,
                _ => unreachable!(),
            };
            if both_int && op != Div {
                Ok(Value::Int(f as i64))
            } else if both_int && op == Div {
                // Integer division truncates (matches the DB2 dialect the
                // paper's minute()/grouping tricks rely on).
                Ok(Value::Int((a / b).trunc() as i64))
            } else {
                Ok(Value::Float(f))
            }
        }
        And | Or => unreachable!("handled by eval"),
    }
}

fn eval_call(f: Func, args: &[Expr], row: &Row) -> DbResult<Value> {
    let need = |n: usize| -> DbResult<()> {
        if args.len() != n {
            Err(DbError::Eval(format!(
                "{f:?} expects {n} argument(s), got {}",
                args.len()
            )))
        } else {
            Ok(())
        }
    };
    match f {
        Func::Coalesce => {
            for a in args {
                let v = a.eval(row)?;
                if !v.is_null() {
                    return Ok(v);
                }
            }
            Ok(Value::Null)
        }
        Func::Minute => {
            need(1)?;
            match args[0].eval(row)? {
                Value::Int(s) => Ok(Value::Int(s.div_euclid(60))),
                Value::Null => Ok(Value::Null),
                v => Err(DbError::Eval(format!(
                    "minute() expects an integer, got {v}"
                ))),
            }
        }
        Func::Exp | Func::Ln | Func::Abs | Func::Sqrt => {
            need(1)?;
            let v = args[0].eval(row)?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            let x = v
                .as_f64()
                .ok_or_else(|| DbError::Eval(format!("{f:?}: non-numeric argument {v}")))?;
            let y = match f {
                Func::Exp => x.exp(),
                Func::Ln => {
                    if x <= 0.0 {
                        return Err(DbError::Eval(format!("ln of non-positive value {x}")));
                    }
                    x.ln()
                }
                Func::Abs => x.abs(),
                Func::Sqrt => {
                    if x < 0.0 {
                        return Err(DbError::Eval(format!("sqrt of negative value {x}")));
                    }
                    x.sqrt()
                }
                _ => unreachable!(),
            };
            Ok(Value::Float(y))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lit(v: impl Into<Value>) -> Expr {
        Expr::Lit(v.into())
    }

    fn row() -> Row {
        vec![
            Value::Int(10),
            Value::Float(0.5),
            Value::Str("bike".into()),
            Value::Null,
        ]
    }

    #[test]
    fn arithmetic_and_types() {
        let r = row();
        let e = Expr::bin(BinOp::Add, Expr::Col(0), lit(5i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(15));
        let e = Expr::bin(BinOp::Mul, Expr::Col(1), lit(4i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Float(2.0));
        // Integer division truncates.
        let e = Expr::bin(BinOp::Div, lit(7i64), lit(2i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(3));
        let e = Expr::bin(BinOp::Div, lit(7.0), lit(2i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Float(3.5));
        // String concat via +.
        let e = Expr::bin(BinOp::Add, Expr::Col(2), lit("s"));
        assert_eq!(e.eval(&r).unwrap(), Value::Str("bikes".into()));
    }

    #[test]
    fn division_by_zero_errors() {
        let e = Expr::bin(BinOp::Div, lit(1i64), lit(0i64));
        assert!(e.eval(&row()).is_err());
    }

    #[test]
    fn comparisons_and_null_semantics() {
        let r = row();
        let e = Expr::bin(BinOp::Gt, Expr::Col(0), lit(9i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(1));
        // NULL comparisons are false.
        let e = Expr::bin(BinOp::Eq, Expr::Col(3), lit(0i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(0));
        // NULL arithmetic propagates.
        let e = Expr::bin(BinOp::Add, Expr::Col(3), lit(1i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Null);
        // Mixed int/float compare.
        let e = Expr::bin(BinOp::Lt, Expr::Col(1), lit(1i64));
        assert_eq!(e.eval(&r).unwrap(), Value::Int(1));
    }

    #[test]
    fn logic_ops() {
        let r = row();
        let t = lit(1i64);
        let f = lit(0i64);
        assert_eq!(
            Expr::bin(BinOp::And, t.clone(), f.clone())
                .eval(&r)
                .unwrap(),
            Value::Int(0)
        );
        assert_eq!(
            Expr::bin(BinOp::Or, t.clone(), f.clone()).eval(&r).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Expr::Un(UnOp::Not, Box::new(f)).eval(&r).unwrap(),
            Value::Int(1)
        );
        assert_eq!(
            Expr::Un(UnOp::Neg, Box::new(Expr::Col(1)))
                .eval(&r)
                .unwrap(),
            Value::Float(-0.5)
        );
    }

    #[test]
    fn functions() {
        let r = row();
        let e = Expr::Call(Func::Exp, vec![lit(0.0)]);
        assert_eq!(e.eval(&r).unwrap(), Value::Float(1.0));
        let e = Expr::Call(Func::Coalesce, vec![Expr::Col(3), lit(9i64)]);
        assert_eq!(e.eval(&r).unwrap(), Value::Int(9));
        let e = Expr::Call(Func::Minute, vec![lit(125i64)]);
        assert_eq!(e.eval(&r).unwrap(), Value::Int(2));
        let e = Expr::Call(Func::Ln, vec![lit(-1.0)]);
        assert!(e.eval(&r).is_err());
        assert_eq!(Func::parse("COALESCE"), Some(Func::Coalesce));
        assert_eq!(Func::parse("nope"), None);
    }

    #[test]
    fn in_list_and_is_null() {
        let r = row();
        let e = Expr::InList(
            Box::new(Expr::Col(0)),
            vec![Value::Int(9), Value::Int(10)].into(),
            false,
        );
        assert_eq!(e.eval(&r).unwrap(), Value::Int(1));
        let e = Expr::InList(Box::new(Expr::Col(0)), vec![Value::Int(9)].into(), true);
        assert_eq!(e.eval(&r).unwrap(), Value::Int(1)); // NOT IN
        let e = Expr::IsNull(Box::new(Expr::Col(3)), false);
        assert_eq!(e.eval(&r).unwrap(), Value::Int(1));
        let e = Expr::IsNull(Box::new(Expr::Col(0)), true);
        assert_eq!(e.eval(&r).unwrap(), Value::Int(1));
    }

    #[test]
    fn in_list_membership_is_the_list_walk() {
        // The hashed lookup answers what `any(x == v)` over the list
        // answers, NULL probe and NOT IN included, also where `Value`
        // equality is not transitive: `Float(2⁵³)` equals both ints below,
        // which differ from each other. (Passes with the list walk too:
        // it pins that answer.)
        let big = 1i64 << 53;
        let pool = [
            Value::Null,
            Value::Int(big),
            Value::Int(big + 1),
            Value::Float(big as f64),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(3.5),
            Value::Float(-0.0),
            Value::Int(0),
            Value::Str("3".into()),
            Value::Float(f64::NAN),
        ];
        let lists: Vec<Vec<Value>> = vec![
            vec![],
            vec![Value::Int(big)],
            vec![Value::Float(big as f64)],
            vec![Value::Int(big + 1), Value::Null],
            vec![Value::Float(3.0), Value::Str("x".into())],
            vec![Value::Float(0.0), Value::Float(f64::NAN)],
            pool.to_vec(),
        ];
        for list in &lists {
            for v in &pool {
                for negated in [false, true] {
                    let e = Expr::InList(Box::new(lit(v.clone())), list.clone().into(), negated);
                    let walk = !v.is_null() && list.iter().any(|x| x == v);
                    let want = Value::Int((!v.is_null() && walk != negated) as i64);
                    assert_eq!(e.eval(&row()).unwrap(), want, "{v:?} in {list:?}");
                }
            }
        }
    }

    #[test]
    fn out_of_bounds_column() {
        let e = Expr::Col(9);
        assert!(e.eval(&row()).is_err());
    }
}
