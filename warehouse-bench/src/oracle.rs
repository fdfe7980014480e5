//! The benchmark's correctness oracle: recomputes a registered view from
//! the warehouse's base tables with hash joins and hash aggregation written
//! here, sharing no kernel with the engine's executor.
//!
//! `Warehouse::verify` recomputes through the executor's row-at-a-time
//! reference evaluator, whose nested-loop joins do not finish at sf 0.1.
//! This evaluator handles the operators the benchmark's views use (scan,
//! select, project, equi-join, group-by aggregation) and reports anything
//! else as unsupported rather than guessing.

use mvmqo_relalg::agg::AggFunc;
use mvmqo_relalg::catalog::Catalog;
use mvmqo_relalg::expr::{CmpOp, Predicate, ScalarExpr};
use mvmqo_relalg::logical::LogicalExpr;
use mvmqo_relalg::schema::{AttrId, Schema};
use mvmqo_relalg::tuple::Tuple;
use mvmqo_relalg::types::Value;
use mvmqo_storage::database::Database;
use std::borrow::Cow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{DefaultHasher, Hash, Hasher};

/// Relative tolerance for float columns: maintained SUM/AVG values are
/// reassociated sums, exact only up to the last few ulps.
pub const FLOAT_TOLERANCE: f64 = 1e-9;

#[derive(Debug)]
pub enum OracleError {
    Unsupported(String),
    Storage(String),
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::Unsupported(what) => write!(f, "oracle does not support {what}"),
            OracleError::Storage(e) => write!(f, "oracle could not read base data: {e}"),
        }
    }
}

/// A relation in flight: rows laid out by `schema`. Unfiltered scans
/// borrow the stored table's row view.
struct Rel<'a> {
    schema: Schema,
    rows: Cow<'a, [Tuple]>,
}

/// Recompute `expr` over the base tables of `db`, with rows in the
/// expression's declared column order (the order `Warehouse::query`
/// serves).
pub fn evaluate(
    expr: &LogicalExpr,
    catalog: &Catalog,
    db: &Database,
) -> Result<Vec<Tuple>, OracleError> {
    Ok(eval(expr, Vec::new(), catalog, db)?.rows.into_owned())
}

/// Evaluate `expr` and keep only rows satisfying every conjunct in
/// `filters`. Conjuncts travel down to the lowest input that has all their
/// attributes, so a selection above a join filters the join's inputs.
fn eval<'a>(
    expr: &LogicalExpr,
    filters: Vec<ScalarExpr>,
    catalog: &Catalog,
    db: &'a Database,
) -> Result<Rel<'a>, OracleError> {
    match expr {
        LogicalExpr::Scan { table } => {
            let stored = db
                .base(*table)
                .map_err(|e| OracleError::Storage(e.to_string()))?;
            let rel = Rel {
                schema: catalog.table(*table).schema.clone(),
                rows: Cow::Borrowed(stored.rows()),
            };
            filter(rel, &filters)
        }
        LogicalExpr::Select { input, predicate } => {
            let mut all = filters;
            all.extend(predicate.conjuncts().iter().cloned());
            eval(input, all, catalog, db)
        }
        LogicalExpr::Project { input, attrs } => {
            let rel = eval(input, filters, catalog, db)?;
            let pos = positions(&rel.schema, attrs)?;
            Ok(Rel {
                schema: rel.schema.select_ids(attrs),
                rows: rel
                    .rows
                    .iter()
                    .map(|r| pos.iter().map(|&p| r[p].clone()).collect())
                    .collect(),
            })
        }
        LogicalExpr::Join {
            left,
            right,
            predicate,
        } => {
            let (ls, rs) = (left.schema(catalog), right.schema(catalog));
            let (mut lf, mut rf, mut rest) = (Vec::new(), Vec::new(), Vec::new());
            for c in filters {
                let attrs = c.referenced_attrs();
                if attrs.iter().all(|a| ls.position_of(*a).is_some()) {
                    lf.push(c);
                } else if attrs.iter().all(|a| rs.position_of(*a).is_some()) {
                    rf.push(c);
                } else {
                    rest.push(c);
                }
            }
            let joined = hash_join(
                eval(left, lf, catalog, db)?,
                eval(right, rf, catalog, db)?,
                predicate,
            )?;
            filter(joined, &rest)
        }
        LogicalExpr::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let rel = eval(input, Vec::new(), catalog, db)?;
            let keys = positions(&rel.schema, group_by)?;
            let mut groups: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut states: Vec<(Vec<Value>, Vec<Acc>)> = Vec::new();
            for row in rel.rows.iter() {
                let key: Vec<Value> = keys.iter().map(|&p| row[p].clone()).collect();
                let gid = *groups.entry(key.clone()).or_insert_with(|| {
                    states.push((key, aggs.iter().map(|a| Acc::new(a.func)).collect()));
                    states.len() - 1
                });
                for (acc, spec) in states[gid].1.iter_mut().zip(aggs) {
                    acc.add(scalar(&spec.input, row, &rel.schema)?);
                }
            }
            let rel = Rel {
                schema: expr.schema(catalog),
                rows: states
                    .into_iter()
                    .map(|(mut key, accs)| {
                        key.extend(accs.iter().map(Acc::finish));
                        key
                    })
                    .collect(),
            };
            filter(rel, &filters)
        }
        LogicalExpr::UnionAll { .. } | LogicalExpr::Minus { .. } | LogicalExpr::Distinct { .. } => {
            Err(OracleError::Unsupported(format!("operator in {expr:?}")))
        }
    }
}

fn filter<'a>(rel: Rel<'a>, conjuncts: &[ScalarExpr]) -> Result<Rel<'a>, OracleError> {
    if conjuncts.is_empty() {
        return Ok(rel);
    }
    let p = Predicate::from_conjuncts(conjuncts.to_vec());
    let mut keep = Vec::new();
    for row in rel.rows.iter() {
        if holds(&p, row, &rel.schema)? {
            keep.push(row.clone());
        }
    }
    Ok(Rel {
        schema: rel.schema,
        rows: Cow::Owned(keep),
    })
}

fn positions(schema: &Schema, attrs: &[AttrId]) -> Result<Vec<usize>, OracleError> {
    attrs
        .iter()
        .map(|a| {
            schema
                .position_of(*a)
                .ok_or_else(|| OracleError::Unsupported(format!("attribute {a} outside {schema}")))
        })
        .collect()
}

/// Equi-join by hashing the right input on the `left.col = right.col`
/// conjuncts; every other conjunct is checked on the joined row. NULL keys
/// never match.
fn hash_join<'a>(
    left: Rel<'_>,
    right: Rel<'_>,
    predicate: &Predicate,
) -> Result<Rel<'a>, OracleError> {
    let schema = left.schema.concat(&right.schema);
    let mut lkeys = Vec::new();
    let mut rkeys = Vec::new();
    let mut residual = Vec::new();
    for c in predicate.conjuncts() {
        let side_of = |a: &AttrId| (left.schema.position_of(*a), right.schema.position_of(*a));
        if let ScalarExpr::Cmp {
            op: CmpOp::Eq,
            lhs,
            rhs,
        } = c
        {
            if let (ScalarExpr::Col(a), ScalarExpr::Col(b)) = (lhs.as_ref(), rhs.as_ref()) {
                match (side_of(a), side_of(b)) {
                    ((Some(l), None), (None, Some(r))) | ((None, Some(r)), (Some(l), None)) => {
                        lkeys.push(l);
                        rkeys.push(r);
                        continue;
                    }
                    _ => {}
                }
            }
        }
        residual.push(c.clone());
    }
    let residual = Predicate::from_conjuncts(residual);

    // Rows with a NULL key never match.
    let fill_key = |key: &mut Vec<Value>, row: &Tuple, pos: &[usize]| -> bool {
        key.clear();
        key.extend(pos.iter().map(|&p| row[p].clone()));
        !key.iter().any(Value::is_null)
    };
    let mut key = Vec::with_capacity(rkeys.len());
    let mut table: HashMap<Vec<Value>, Vec<usize>> = HashMap::with_capacity(right.rows.len());
    for (i, row) in right.rows.iter().enumerate() {
        if fill_key(&mut key, row, &rkeys) {
            table.entry(key.clone()).or_default().push(i);
        }
    }
    let mut rows = Vec::new();
    for l in left.rows.iter() {
        if !fill_key(&mut key, l, &lkeys) {
            continue;
        }
        let Some(matches) = table.get(key.as_slice()) else {
            continue;
        };
        for &i in matches {
            let mut out = Vec::with_capacity(schema.len());
            out.extend_from_slice(l);
            out.extend_from_slice(&right.rows[i]);
            if holds(&residual, &out, &schema)? {
                rows.push(out);
            }
        }
    }
    Ok(Rel {
        schema,
        rows: Cow::Owned(rows),
    })
}

fn holds(p: &Predicate, row: &[Value], schema: &Schema) -> Result<bool, OracleError> {
    for c in p.conjuncts() {
        if !truth(c, row, schema)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// SQL filter semantics: a comparison against NULL is not true.
fn truth(e: &ScalarExpr, row: &[Value], schema: &Schema) -> Result<bool, OracleError> {
    match e {
        ScalarExpr::Cmp { op, lhs, rhs } => {
            let (l, r) = (scalar(lhs, row, schema)?, scalar(rhs, row, schema)?);
            if l.is_null() || r.is_null() {
                return Ok(false);
            }
            let ord = l.cmp(r);
            Ok(match op {
                CmpOp::Eq => ord.is_eq(),
                CmpOp::Ne => ord.is_ne(),
                CmpOp::Lt => ord.is_lt(),
                CmpOp::Le => ord.is_le(),
                CmpOp::Gt => ord.is_gt(),
                CmpOp::Ge => ord.is_ge(),
            })
        }
        ScalarExpr::And(es) => {
            for e in es {
                if !truth(e, row, schema)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        ScalarExpr::Or(es) => {
            for e in es {
                if truth(e, row, schema)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        ScalarExpr::Not(e) => Ok(!truth(e, row, schema)?),
        ScalarExpr::Lit(Value::Bool(b)) => Ok(*b),
        other => Err(OracleError::Unsupported(format!("predicate {other}"))),
    }
}

fn scalar<'a>(
    e: &'a ScalarExpr,
    row: &'a [Value],
    schema: &Schema,
) -> Result<&'a Value, OracleError> {
    match e {
        ScalarExpr::Col(a) => schema
            .position_of(*a)
            .map(|p| &row[p])
            .ok_or_else(|| OracleError::Unsupported(format!("attribute {a} outside {schema}"))),
        ScalarExpr::Lit(v) => Ok(v),
        other => Err(OracleError::Unsupported(format!("expression {other}"))),
    }
}

/// One aggregate's running state. Integer sums are kept exact; a SUM over
/// any non-integer input is a float.
struct Acc {
    func: AggFunc,
    count: i64,
    int_sum: i64,
    float_sum: f64,
    all_int: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl Acc {
    fn new(func: AggFunc) -> Acc {
        Acc {
            func,
            count: 0,
            int_sum: 0,
            float_sum: 0.0,
            all_int: true,
            min: None,
            max: None,
        }
    }

    fn add(&mut self, v: &Value) {
        match v {
            Value::Null => return,
            Value::Int(i) => self.int_sum = self.int_sum.wrapping_add(*i),
            other => {
                self.all_int = false;
                if let Some(f) = other.as_f64() {
                    self.float_sum += f;
                }
            }
        }
        self.count += 1;
        if self.min.as_ref().is_none_or(|m| v < m) {
            self.min = Some(v.clone());
        }
        if self.max.as_ref().is_none_or(|m| v > m) {
            self.max = Some(v.clone());
        }
    }

    fn finish(&self) -> Value {
        let sum = self.float_sum + self.int_sum as f64;
        match self.func {
            AggFunc::Count => Value::Int(self.count),
            _ if self.count == 0 => Value::Null,
            AggFunc::Sum if self.all_int => Value::Int(self.int_sum),
            AggFunc::Sum => Value::Float(sum),
            AggFunc::Avg => Value::Float(sum / self.count as f64),
            AggFunc::Min => self.min.clone().unwrap_or(Value::Null),
            AggFunc::Max => self.max.clone().unwrap_or(Value::Null),
        }
    }
}

/// Compare two bags of rows; floats within [`FLOAT_TOLERANCE`] (relative)
/// match. Rows are first matched exactly by hashing; only the rows left
/// over are sorted and compared with the tolerance. Returns a description
/// of the first difference, if any.
pub fn bag_difference(expected: &[Tuple], actual: &[Tuple]) -> Option<String> {
    if expected.len() != actual.len() {
        return Some(format!(
            "expected {} rows, got {}",
            expected.len(),
            actual.len()
        ));
    }
    let mut counts: HashMap<&Tuple, usize> = HashMap::with_capacity(expected.len());
    for row in expected {
        *counts.entry(row).or_default() += 1;
    }
    let mut a: Vec<&Tuple> = Vec::new();
    for row in actual {
        match counts.get_mut(row) {
            Some(c) if *c > 0 => *c -= 1,
            _ => a.push(row),
        }
    }
    let mut e: Vec<&Tuple> = counts
        .into_iter()
        .flat_map(|(row, c)| std::iter::repeat_n(row, c))
        .collect();
    e.sort_unstable();
    a.sort_unstable();
    for (x, y) in e.iter().zip(&a) {
        let same = x.len() == y.len()
            && x.iter().zip(y.iter()).all(|(u, v)| match (u, v) {
                (Value::Float(p), Value::Float(q)) => {
                    (p - q).abs() <= FLOAT_TOLERANCE * p.abs().max(q.abs()).max(1.0)
                }
                _ => u == v,
            });
        if !same {
            return Some(format!("expected row {x:?}, got {y:?}"));
        }
    }
    None
}

/// An order-independent summary of a bag of rows for comparing two
/// engines without holding both: the row count, the wrapping sum of the
/// hashes of each row's non-float values, and per float column the sum of
/// its values, which may differ within [`FLOAT_TOLERANCE`].
#[derive(Debug)]
pub struct Digest {
    rows: usize,
    exact: u64,
    float_sums: Vec<(f64, f64)>,
}

impl Digest {
    pub fn of(rows: &[Tuple]) -> Digest {
        let mut exact = 0u64;
        let mut float_sums: Vec<(f64, f64)> = Vec::new();
        for row in rows {
            let mut h = DefaultHasher::new();
            for (i, v) in row.iter().enumerate() {
                if let Value::Float(x) = v {
                    if float_sums.len() <= i {
                        float_sums.resize(i + 1, (0.0, 0.0));
                    }
                    float_sums[i].0 += x;
                    float_sums[i].1 += x.abs();
                } else {
                    (i, v).hash(&mut h);
                }
            }
            exact = exact.wrapping_add(h.finish());
        }
        Digest {
            rows: rows.len(),
            exact,
            float_sums,
        }
    }

    pub fn matches(&self, other: &Digest) -> bool {
        self.rows == other.rows
            && self.exact == other.exact
            && self.float_sums.len() == other.float_sums.len()
            && self
                .float_sums
                .iter()
                .zip(&other.float_sums)
                .all(|((a, scale_a), (b, scale_b))| {
                    (a - b).abs() <= FLOAT_TOLERANCE * scale_a.max(*scale_b).max(1.0)
                })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mvmqo_tpcd::{
        epoch_updates, five_agg_views, five_join_views, generate_database, tpcd_catalog,
        DriverProfile,
    };
    use mvmqo_warehouse::Warehouse;

    /// The Figure 4 views at the smallest scale factor, after two refresh
    /// epochs, so maintained state (not only initial population) is read.
    fn refreshed_warehouse() -> Warehouse {
        let mut tpcd = tpcd_catalog(0.001);
        let mut views = five_join_views(&tpcd);
        views.extend(five_agg_views(&mut tpcd));
        let mut wh = Warehouse::new(tpcd.catalog.clone(), generate_database(&tpcd, 7));
        for v in views {
            wh.register_view(v).unwrap();
        }
        for epoch in 0..2 {
            let deltas = epoch_updates(
                &tpcd,
                wh.database(),
                DriverProfile::Steady { percent: 10.0 },
                epoch,
                7,
            )
            .unwrap();
            for t in deltas.tables().collect::<Vec<_>>() {
                wh.ingest(t, deltas.get(t).unwrap().clone()).unwrap();
            }
            wh.run_epoch().unwrap();
        }
        wh
    }

    #[test]
    fn oracle_agrees_with_engine_verify() {
        let wh = refreshed_warehouse();
        for view in wh.views() {
            assert!(wh.verify(&view.name).unwrap(), "{} fails verify", view.name);
            let expected = evaluate(&view.expr, wh.catalog(), wh.database()).unwrap();
            let served = wh.query(&view.name).unwrap().rows;
            assert!(!expected.is_empty(), "{} is empty at this scale", view.name);
            assert_eq!(bag_difference(&expected, &served), None, "{}", view.name);
        }
    }

    #[test]
    fn oracle_catches_planted_mismatches() {
        let wh = refreshed_warehouse();
        let view = &wh.views()[0];
        let expected = evaluate(&view.expr, wh.catalog(), wh.database()).unwrap();
        let served = wh.query(&view.name).unwrap().rows;
        assert!(served.len() >= 2);

        let mut dropped = served.clone();
        dropped.pop();
        assert!(bag_difference(&expected, &dropped).is_some(), "dropped row");

        let mut duplicated = served.clone();
        duplicated.push(served[0].clone());
        assert!(
            bag_difference(&expected, &duplicated).is_some(),
            "added duplicate"
        );

        // Same row count: one row replaced by a copy of another.
        let mut swapped = served.clone();
        let last = swapped.len() - 1;
        swapped[last] = served[0].clone();
        assert!(
            bag_difference(&expected, &swapped).is_some(),
            "replaced row"
        );
    }

    #[test]
    fn digest_detects_changed_rows_and_tolerates_float_rounding() {
        let row = |k: i64, x: f64| vec![Value::Int(k), Value::Float(x)];
        let base = Digest::of(&[row(1, 0.1), row(2, 1.0e6)]);
        let reordered = Digest::of(&[row(2, 1.0e6 * (1.0 + 1e-15)), row(1, 0.1)]);
        assert!(base.matches(&reordered));
        assert!(!base.matches(&Digest::of(&[row(1, 0.1), row(3, 1.0e6)])));
        assert!(!base.matches(&Digest::of(&[row(1, 0.1), row(2, 2.0e6)])));
        assert!(!base.matches(&Digest::of(&[row(1, 0.1)])));
    }

    #[test]
    fn float_tolerance_is_relative_and_tight() {
        let row = |x: f64| vec![Value::Int(1), Value::Float(x)];
        let base = vec![row(1.0e6), row(2.5)];
        assert_eq!(
            bag_difference(&base, &[row(2.5), row(1.0e6 * (1.0 + 1e-12))]),
            None
        );
        assert!(bag_difference(&base, &[row(2.5), row(1.0e6 * (1.0 + 1e-6))]).is_some());
    }
}
