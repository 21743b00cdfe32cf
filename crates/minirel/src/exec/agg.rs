//! Group-by aggregation (hash-based).
//!
//! Supports exactly the aggregates the paper's SQL uses: `sum`, `count`,
//! `avg`, `min`, `max` (plus `count(*)`), with SQL NULL semantics:
//! aggregates skip NULL inputs; `sum`/`min`/`max`/`avg` over an empty or
//! all-NULL group are NULL; `count` is 0.

use crate::error::{DbError, DbResult};
use crate::exec::expr::Expr;
use crate::value::{Row, Value};
use std::collections::HashMap;

/// Aggregate function kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    /// `sum(expr)`
    Sum,
    /// `count(expr)` — non-NULL count.
    Count,
    /// `count(*)` — row count.
    CountStar,
    /// `avg(expr)`
    Avg,
    /// `min(expr)`
    Min,
    /// `max(expr)`
    Max,
}

impl AggKind {
    /// Resolve an aggregate by name (`count` here means `count(expr)`).
    pub fn parse(name: &str) -> Option<AggKind> {
        Some(match name.to_ascii_lowercase().as_str() {
            "sum" => AggKind::Sum,
            "count" => AggKind::Count,
            "avg" => AggKind::Avg,
            "min" => AggKind::Min,
            "max" => AggKind::Max,
            _ => return None,
        })
    }
}

/// One aggregate call: kind + argument expression (ignored for CountStar).
#[derive(Debug, Clone)]
pub struct AggCall {
    /// Which aggregate.
    pub kind: AggKind,
    /// Argument over the input row.
    pub arg: Expr,
}

#[derive(Debug, Clone)]
struct Acc {
    sum: f64,
    sum_is_int: bool,
    count: u64,
    rows: u64,
    min: Option<Value>,
    max: Option<Value>,
}

impl Acc {
    fn new() -> Acc {
        Acc {
            sum: 0.0,
            sum_is_int: true,
            count: 0,
            rows: 0,
            min: None,
            max: None,
        }
    }

    fn update(&mut self, kind: AggKind, v: &Value) -> DbResult<()> {
        self.rows += 1;
        if v.is_null() {
            return Ok(());
        }
        self.count += 1;
        match kind {
            AggKind::Sum | AggKind::Avg => {
                let f = v.as_f64().ok_or_else(|| {
                    DbError::Eval(format!("cannot aggregate non-numeric value {v}"))
                })?;
                if !matches!(v, Value::Int(_)) {
                    self.sum_is_int = false;
                }
                self.sum += f;
            }
            AggKind::Min => {
                if self.min.as_ref().is_none_or(|m| v < m) {
                    self.min = Some(v.clone());
                }
            }
            AggKind::Max => {
                if self.max.as_ref().is_none_or(|m| v > m) {
                    self.max = Some(v.clone());
                }
            }
            AggKind::Count | AggKind::CountStar => {}
        }
        Ok(())
    }

    fn finish(&self, kind: AggKind) -> Value {
        match kind {
            AggKind::CountStar => Value::Int(self.rows as i64),
            AggKind::Count => Value::Int(self.count as i64),
            AggKind::Sum => {
                if self.count == 0 {
                    Value::Null
                } else if self.sum_is_int {
                    Value::Int(self.sum as i64)
                } else {
                    Value::Float(self.sum)
                }
            }
            AggKind::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggKind::Min => self.min.clone().unwrap_or(Value::Null),
            AggKind::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Group-by aggregation over rows handed in one at a time: output rows
/// are `group values ++ aggregate results`, in first-seen group order
/// (deterministic given input order). With no group expressions, exactly
/// one row is produced even for empty input.
///
/// Only a new group allocates: each row's key is evaluated into one
/// reused buffer and looked up by slice, and a group's accumulators sit
/// in one flat vector. A global aggregate (no group expressions) hashes
/// nothing.
pub struct Aggregator<'a> {
    group: &'a [Expr],
    aggs: &'a [AggCall],
    /// The current row's key.
    key: Row,
    /// Each group's number, by key; groups are numbered as first seen.
    groups: HashMap<Row, usize>,
    /// `aggs.len()` accumulators per group, in group-number order.
    accs: Vec<Acc>,
}

impl<'a> Aggregator<'a> {
    /// An aggregation of `aggs` grouped by `group`, over no rows yet.
    pub fn new(group: &'a [Expr], aggs: &'a [AggCall]) -> Aggregator<'a> {
        Aggregator {
            group,
            aggs,
            key: Row::new(),
            groups: HashMap::new(),
            accs: Vec::new(),
        }
    }

    /// Fold one input row into its group.
    pub fn push(&mut self, row: &Row) -> DbResult<()> {
        let n = self.aggs.len();
        let g = if self.group.is_empty() {
            if self.accs.is_empty() {
                self.accs.resize(n, Acc::new());
            }
            0
        } else {
            self.key.clear();
            for e in self.group {
                self.key.push(e.eval(row)?);
            }
            match self.groups.get(self.key.as_slice()) {
                Some(&g) => g,
                None => {
                    let g = self.groups.len();
                    self.groups.insert(self.key.clone(), g);
                    self.accs.resize((g + 1) * n, Acc::new());
                    g
                }
            }
        };
        for (acc, call) in self.accs[g * n..(g + 1) * n].iter_mut().zip(self.aggs) {
            let v = match call.kind {
                AggKind::CountStar => Value::Int(1),
                _ => call.arg.eval(row)?,
            };
            acc.update(call.kind, &v)?;
        }
        Ok(())
    }

    /// Hand each group's output row to `sink`, stopping at its first
    /// error.
    pub fn finish(self, mut sink: impl FnMut(&mut Row) -> DbResult<()>) -> DbResult<()> {
        let (aggs, n) = (self.aggs, self.aggs.len());
        if self.group.is_empty() {
            // Over empty input: one row of "empty" results.
            let fresh = vec![Acc::new(); n];
            let accs = if self.accs.is_empty() {
                &fresh
            } else {
                &self.accs
            };
            return sink(&mut results(aggs, accs).collect());
        }
        let mut keys = vec![Row::new(); self.groups.len()];
        for (key, g) in self.groups {
            keys[g] = key;
        }
        for (g, mut row) in keys.into_iter().enumerate() {
            row.extend(results(aggs, &self.accs[g * n..(g + 1) * n]));
            sink(&mut row)?;
        }
        Ok(())
    }
}

/// One group's aggregate results.
fn results<'r>(aggs: &'r [AggCall], accs: &'r [Acc]) -> impl Iterator<Item = Value> + 'r {
    accs.iter().zip(aggs).map(|(a, c)| a.finish(c.kind))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The rows of aggregating `rows`, collected.
    fn aggregate(rows: &[Row], group: &[Expr], aggs: &[AggCall]) -> DbResult<Vec<Row>> {
        let mut agg = Aggregator::new(group, aggs);
        for row in rows {
            agg.push(row)?;
        }
        let mut out = Vec::new();
        agg.finish(|row| {
            out.push(std::mem::take(row));
            Ok(())
        })?;
        Ok(out)
    }

    fn rows() -> Vec<Row> {
        vec![
            vec![Value::Int(1), Value::Float(0.5)],
            vec![Value::Int(1), Value::Float(1.5)],
            vec![Value::Int(2), Value::Null],
            vec![Value::Int(2), Value::Float(4.0)],
        ]
    }

    fn call(kind: AggKind, col: usize) -> AggCall {
        AggCall {
            kind,
            arg: Expr::Col(col),
        }
    }

    #[test]
    fn grouped_sum_count_avg() {
        let out = aggregate(
            &rows(),
            &[Expr::Col(0)],
            &[
                call(AggKind::Sum, 1),
                call(AggKind::Count, 1),
                call(AggKind::CountStar, 1),
                call(AggKind::Avg, 1),
            ],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        // Group 1: sum 2.0, count 2, count* 2, avg 1.0
        assert_eq!(
            out[0],
            vec![
                Value::Int(1),
                Value::Float(2.0),
                Value::Int(2),
                Value::Int(2),
                Value::Float(1.0)
            ]
        );
        // Group 2: NULL skipped by all but count(*).
        assert_eq!(
            out[1],
            vec![
                Value::Int(2),
                Value::Float(4.0),
                Value::Int(1),
                Value::Int(2),
                Value::Float(4.0)
            ]
        );
    }

    #[test]
    fn min_max() {
        let out = aggregate(
            &rows(),
            &[],
            &[call(AggKind::Min, 1), call(AggKind::Max, 1)],
        )
        .unwrap();
        assert_eq!(out, vec![vec![Value::Float(0.5), Value::Float(4.0)]]);
    }

    #[test]
    fn int_sums_stay_int() {
        let rows = vec![vec![Value::Int(2)], vec![Value::Int(3)]];
        let out = aggregate(&rows, &[], &[call(AggKind::Sum, 0)]).unwrap();
        assert_eq!(out[0][0], Value::Int(5));
    }

    #[test]
    fn empty_input_global_vs_grouped() {
        let empty: Vec<Row> = vec![];
        let global = aggregate(
            &empty,
            &[],
            &[call(AggKind::Count, 0), call(AggKind::Sum, 0)],
        )
        .unwrap();
        assert_eq!(global, vec![vec![Value::Int(0), Value::Null]]);
        let grouped = aggregate(&empty, &[Expr::Col(0)], &[call(AggKind::Count, 0)]).unwrap();
        assert!(grouped.is_empty());
    }

    #[test]
    fn expression_arguments() {
        use crate::exec::expr::{BinOp, Func};
        // sum(freq * (logtheta + logdenom)) shape from Figure 3.
        let rows = vec![
            vec![Value::Int(2), Value::Float(-1.0), Value::Float(-3.0)],
            vec![Value::Int(3), Value::Float(-2.0), Value::Float(-3.0)],
        ];
        let arg = Expr::bin(
            BinOp::Mul,
            Expr::Col(0),
            Expr::bin(BinOp::Add, Expr::Col(1), Expr::Col(2)),
        );
        let out = aggregate(
            &rows,
            &[],
            &[AggCall {
                kind: AggKind::Sum,
                arg,
            }],
        )
        .unwrap();
        assert_eq!(out[0][0], Value::Float(2.0 * -4.0 + 3.0 * -5.0));
        // avg(exp(x)) shape from the monitoring query.
        let rows = vec![vec![Value::Float(0.0)], vec![Value::Float(0.0)]];
        let arg = Expr::Call(Func::Exp, vec![Expr::Col(0)]);
        let out = aggregate(
            &rows,
            &[],
            &[AggCall {
                kind: AggKind::Avg,
                arg,
            }],
        )
        .unwrap();
        assert_eq!(out[0][0], Value::Float(1.0));
    }

    #[test]
    fn non_numeric_sum_errors() {
        let rows = vec![vec![Value::Str("x".into())]];
        assert!(aggregate(&rows, &[], &[call(AggKind::Sum, 0)]).is_err());
    }

    #[test]
    fn group_by_expression() {
        use crate::exec::expr::Func;
        // group by minute(ts)
        let rows = vec![
            vec![Value::Int(59)],
            vec![Value::Int(61)],
            vec![Value::Int(119)],
        ];
        let out = aggregate(
            &rows,
            &[Expr::Call(Func::Minute, vec![Expr::Col(0)])],
            &[call(AggKind::CountStar, 0)],
        )
        .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0], vec![Value::Int(0), Value::Int(1)]);
        assert_eq!(out[1], vec![Value::Int(1), Value::Int(2)]);
    }
}
