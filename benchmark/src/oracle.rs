//! Reference answers the wire replies are compared against.
//!
//! `invest` statements are recomputed by a second `Database` over the same
//! relations on the engine's plainest path: view cache off, dense and
//! sparse kernels off, one thread, `Strategy::Ve(Degree)` (the view's joint
//! domain, ≈8·10¹¹ points, is far beyond what `Strategy::Naive` can
//! enumerate). `tri` statements are recomputed by three nested loops over
//! the generated grids: the row-path engine would need a 16.8-million-row
//! intermediate per statement, the loops need none and share no code with
//! the kernels under test.

use std::collections::BTreeMap;

use mpf_algebra::{ExecLimits, RelationStore};
use mpf_engine::parser::{parse, Statement};
use mpf_engine::{Database, DenseMode, Heuristic, Query, QueryRequest, ReprMode, Strategy};
use mpf_semiring::Aggregate;
use mpf_storage::Catalog;

use crate::service::{load, TRI_D};

/// Row set of a reference answer, keyed like [`crate::wire::Answer::rows`].
pub type Reference = BTreeMap<String, f64>;

pub struct Oracle {
    db: Database,
    tri: [Vec<f64>; 3],
}

impl Oracle {
    /// An oracle over the given relations (the generated store, or the
    /// final snapshot of a workload that updated it). `tri` must be the
    /// grids of `r1`, `r2`, `r3` in that store; no workload updates them.
    pub fn new(catalog: Catalog, store: RelationStore, tri: [Vec<f64>; 3]) -> Oracle {
        let db = load(catalog, store, 0)
            .with_dense(DenseMode::Off)
            .with_repr(ReprMode::Off)
            .with_limits(ExecLimits::none().with_threads(1));
        Oracle { db, tri }
    }

    pub fn answer(&self, sql: &str) -> Result<Reference, String> {
        let query = match parse(sql).map_err(|e| format!("`{sql}`: {e}"))? {
            Statement::Select(q) => q,
            _ => return Err(format!("`{sql}` is not a select")),
        };
        if query.view == "tri" {
            return self.triangle(&query);
        }
        let answer = self
            .db
            .run(QueryRequest::from(query).strategy(Strategy::Ve(Heuristic::Degree)))
            .map_err(|e| format!("`{sql}`: {e}"))?;
        let catalog = self.db.catalog();
        let rel = &answer.relation;
        let names: Vec<&str> = rel.schema().iter().map(|v| catalog.name(v)).collect();
        Ok(rel
            .rows()
            .map(|(row, m)| {
                let mut bindings: Vec<String> = names
                    .iter()
                    .zip(row)
                    .map(|(n, v)| format!("{n}={v}"))
                    .collect();
                bindings.sort_unstable();
                (bindings.join(" "), m)
            })
            .collect())
    }

    /// `select g, agg(f) from tri [where e = k] group by g` by enumeration
    /// of `r1(a,b)·r2(b,c)·r3(c,a)`.
    fn triangle(&self, q: &Query) -> Result<Reference, String> {
        let axis = |name: &str| match name {
            "a" => Ok(0),
            "b" => Ok(1),
            "c" => Ok(2),
            other => Err(format!("`{other}` is not a tri variable")),
        };
        let [group] = q.group_vars.as_slice() else {
            return Err("tri oracle handles one group-by variable".into());
        };
        let group_axis = axis(group)?;
        let mut fixed = [None; 3];
        for (var, value) in &q.filters {
            fixed[axis(var)?] = Some(*value);
        }
        if q.having.is_some() {
            return Err("tri oracle handles no having clause".into());
        }
        let fold: fn(f64, f64) -> f64 = match q.agg {
            Aggregate::Sum => |acc, x| acc + x,
            Aggregate::Max => f64::max,
            Aggregate::Min => f64::min,
            Aggregate::Or => return Err("tri oracle handles sum, min and max".into()),
        };
        let d = TRI_D;
        let range = |axis: usize| match fixed[axis] {
            Some(v) => v..v + 1,
            None => 0..d,
        };
        let at = |grid: &[f64], i: u32, j: u32| grid[(i * d + j) as usize];
        let mut acc: Vec<Option<f64>> = vec![None; d as usize];
        for a in range(0) {
            for b in range(1) {
                let ab = at(&self.tri[0], a, b);
                for c in range(2) {
                    let x = ab * at(&self.tri[1], b, c) * at(&self.tri[2], c, a);
                    let slot = &mut acc[[a, b, c][group_axis] as usize];
                    *slot = Some(slot.map_or(x, |s| fold(s, x)));
                }
            }
        }
        Ok(acc
            .iter()
            .enumerate()
            .filter_map(|(v, m)| m.map(|m| (format!("{group}={v}"), m)))
            .collect())
    }
}
