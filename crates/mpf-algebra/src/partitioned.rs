//! Partitioned parallel operator variants.
//!
//! Hash-partitioning both inputs on the shared variables makes the
//! operators embarrassingly parallel — rows with different key hashes
//! never interact — so [`parallel_join`] and [`parallel_group_by`] run
//! the partitions on a pool of scoped worker threads
//! (`std::thread::scope`), in the intra-operator partitioned-parallelism
//! tradition of Volcano's exchange operator and Gamma. The **partition count is decoupled from the worker count**:
//! partitions are sized so each build partition's hash table stays
//! cache-resident ([`parallel_partitions`]), and each worker consumes a
//! contiguous chunk of partitions. On a machine with few cores the
//! cache-residency effect alone makes the partitioned operators beat the
//! monolithic hash operators; on a many-core machine the chunks run
//! concurrently on top of that.
//!
//! Results are deterministic and bit-identical to the sequential
//! operators' (up to row order, which no relation-level equality observes):
//! each output row's measure is computed entirely within one partition —
//! a join row is one multiplication, and all rows of a group hash to the
//! same partition where they are folded in input order — so no
//! cross-thread reduction order is involved, and partition outputs are
//! merged in partition order.
//!
//! All variants take an [`ExecContext`]. Worker threads charge the
//! *shared* [`ExecBudget`] (the cell counter is atomic) and poll
//! cancellation/deadline between partitions and inside the per-partition
//! kernels, so budget trips and cancellations surface from workers as the
//! same typed errors as in sequential execution; the whole-operator
//! output-row cap is enforced on the merged total, matching the
//! single-threaded operators.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use mpf_semiring::SemiringKind;
use mpf_storage::{FunctionalRelation, Key, VarId};

use crate::limits::ExecBudget;
use crate::ops;
use crate::{AlgebraError, ExecContext, Result};

/// Per-partition target size for the parallel operators: small enough
/// that a partition's build rows plus its hash table stay cache-resident.
/// Measured on the paper's large sparse joins, partition counts in this
/// regime beat the monolithic hash join by 2–3× even single-threaded.
pub const PARTITION_TARGET_BYTES: u64 = 256 * 1024;

/// Cap on parallel-operator partition counts (empty partitions are cheap
/// but not free).
pub const MAX_PARTITIONS: usize = 512;

/// Partition count for the parallel operators: enough partitions that
/// each holds at most [`PARTITION_TARGET_BYTES`] of build rows (cache
/// residency), at least one per worker, rounded up to a multiple of
/// `threads` so worker chunks are even, and capped at
/// [`MAX_PARTITIONS`].
pub fn parallel_partitions(build_rows: usize, row_bytes: u64, threads: usize) -> usize {
    let threads = threads.max(1);
    let bytes = build_rows as u64 * row_bytes;
    let by_cache = bytes.div_ceil(PARTITION_TARGET_BYTES).max(1) as usize;
    let p = by_cache.clamp(threads.min(MAX_PARTITIONS), MAX_PARTITIONS);
    (p.div_ceil(threads) * threads).min(MAX_PARTITIONS.max(threads))
}

fn partition_of(key: &Key, partitions: usize) -> usize {
    let mut h = DefaultHasher::new();
    key.hash(&mut h);
    (h.finish() % partitions as u64) as usize
}

/// Split a relation into `partitions` buckets by the hash of the key
/// columns at `positions`. Rows come from an already-validated relation
/// with the same schema, so the buckets use the unchecked append.
fn partition(
    rel: &FunctionalRelation,
    positions: &[usize],
    partitions: usize,
) -> Vec<FunctionalRelation> {
    let mut out: Vec<FunctionalRelation> = (0..partitions)
        .map(|i| FunctionalRelation::new(format!("{}#{i}", rel.name()), rel.schema().clone()))
        .collect();
    for (row, m) in rel.rows() {
        let p = partition_of(&Key::extract(row, positions), partitions);
        out[p].push_row_unchecked(row, m);
    }
    out
}

/// Parallel product join with an automatically derived partition count
/// ([`parallel_partitions`] of the build side).
pub fn parallel_join(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    threads: usize,
) -> Result<FunctionalRelation> {
    let build_rows = l.len().min(r.len());
    let row_bytes = l.row_bytes().max(r.row_bytes());
    let partitions = parallel_partitions(build_rows, row_bytes, threads);
    parallel_join_parts(cx, l, r, threads, partitions)
}

/// Parallel product join: hash partitioning into `partitions`
/// cache-sized buckets, with `threads` scoped workers each joining a
/// contiguous chunk of partition pairs. With one partition (or no shared
/// variables) this falls back to the plain hash join. The worker count
/// affects only how partitions are chunked, never the output: rows merge
/// in partition order, so the result is bit-identical at every thread
/// count — one worker simply processes all partitions itself.
pub fn parallel_join_parts(
    cx: &mut ExecContext<'_>,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    threads: usize,
    partitions: usize,
) -> Result<FunctionalRelation> {
    cx.fault("parallel_join")?;
    let threads = threads.max(1);
    let partitions = partitions.clamp(1, MAX_PARTITIONS.max(threads));
    let shared = l.schema().intersect(r.schema());
    if shared.is_empty() || partitions == 1 {
        return ops::product_join(cx, l, r);
    }
    let out = parallel_join_impl(cx.semiring(), l, r, threads, partitions, cx.budget())?;
    cx.record_join(&[l, r], &out);
    Ok(out)
}

fn parallel_join_impl(
    sr: SemiringKind,
    l: &FunctionalRelation,
    r: &FunctionalRelation,
    threads: usize,
    partitions: usize,
    budget: Option<&ExecBudget>,
) -> Result<FunctionalRelation> {
    let shared = l.schema().intersect(r.schema());
    let l_pos = l.schema().positions(shared.vars())?;
    let r_pos = r.schema().positions(shared.vars())?;
    let l_parts = partition(l, &l_pos, partitions);
    let r_parts = partition(r, &r_pos, partitions);

    let workers = threads.min(partitions).max(1);
    let chunk = partitions.div_ceil(workers);
    let results: Vec<Result<Vec<FunctionalRelation>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = l_parts
            .chunks(chunk)
            .zip(r_parts.chunks(chunk))
            .map(|(ls, rs)| {
                scope.spawn(move || -> Result<Vec<FunctionalRelation>> {
                    let mut outs = Vec::with_capacity(ls.len());
                    for (lp, rp) in ls.iter().zip(rs) {
                        if let Some(b) = budget {
                            b.checkpoint()?;
                        }
                        outs.push(ops::product_join_impl(sr, lp, rp, budget)?);
                    }
                    Ok(outs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(AlgebraError::Internal(
                        "partition join worker panicked".into(),
                    ))
                })
            })
            .collect()
    });

    let out_schema = l.schema().union(r.schema());
    let mut out = FunctionalRelation::new(
        format!("({}⋈p{})", l.name(), r.name()),
        out_schema.clone(),
    );
    // Merge in partition order: deterministic output, deterministic error
    // precedence (the first failing partition in partition order wins).
    for chunk_result in results {
        for part in chunk_result? {
            debug_assert_eq!(part.schema(), &out_schema);
            for (row, m) in part.rows() {
                out.push_row_unchecked(row, m);
            }
        }
    }
    // Workers charged the output cells partition-locally against the
    // shared budget; the whole-operator row cap is enforced here on the
    // merged total, matching the sequential operator.
    if let Some(b) = budget {
        b.check_rows(out.len() as u64)?;
        b.checkpoint()?;
    }
    Ok(out)
}

/// Parallel marginalization with an automatically derived partition
/// count ([`parallel_partitions`] of the input).
pub fn parallel_group_by(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
    threads: usize,
) -> Result<FunctionalRelation> {
    let partitions = parallel_partitions(input.len(), input.row_bytes(), threads);
    parallel_group_by_parts(cx, input, group_vars, threads, partitions)
}

/// Parallel marginalization: partition by the hash of the grouping values
/// into `partitions` buckets and aggregate chunks of buckets on `threads`
/// scoped workers. Rows of one group land in one partition, so per-group
/// fold order is exactly the sequential operator's.
pub fn parallel_group_by_parts(
    cx: &mut ExecContext<'_>,
    input: &FunctionalRelation,
    group_vars: &[VarId],
    threads: usize,
    partitions: usize,
) -> Result<FunctionalRelation> {
    cx.fault("parallel_group_by")?;
    for &v in group_vars {
        if !input.schema().contains(v) {
            return Err(AlgebraError::GroupVarNotInInput(v));
        }
    }
    let threads = threads.max(1);
    let partitions = partitions.clamp(1, MAX_PARTITIONS.max(threads));
    if partitions == 1 || group_vars.is_empty() {
        return ops::group_by(cx, input, group_vars);
    }
    let out = parallel_group_by_impl(
        cx.semiring(),
        input,
        group_vars,
        threads,
        partitions,
        cx.budget(),
    )?;
    cx.record_group_by(&[input], &out);
    Ok(out)
}

fn parallel_group_by_impl(
    sr: SemiringKind,
    input: &FunctionalRelation,
    group_vars: &[VarId],
    threads: usize,
    partitions: usize,
    budget: Option<&ExecBudget>,
) -> Result<FunctionalRelation> {
    let positions = input.schema().positions(group_vars)?;
    let parts = partition(input, &positions, partitions);

    let workers = threads.min(partitions).max(1);
    let chunk = partitions.div_ceil(workers);
    let results: Vec<Result<Vec<FunctionalRelation>>> = std::thread::scope(|scope| {
        let handles: Vec<_> = parts
            .chunks(chunk)
            .map(|ps| {
                scope.spawn(move || -> Result<Vec<FunctionalRelation>> {
                    let mut outs = Vec::with_capacity(ps.len());
                    for p in ps {
                        if let Some(b) = budget {
                            b.checkpoint()?;
                        }
                        outs.push(ops::group_by_impl(sr, p, group_vars, budget)?);
                    }
                    Ok(outs)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(AlgebraError::Internal(
                        "partition group-by worker panicked".into(),
                    ))
                })
            })
            .collect()
    });

    let out_schema = mpf_storage::Schema::new(group_vars.to_vec())?;
    let mut out = FunctionalRelation::new(format!("γp({})", input.name()), out_schema.clone());
    for chunk_result in results {
        for part in chunk_result? {
            debug_assert_eq!(part.schema(), &out_schema);
            for (row, m) in part.rows() {
                out.push_row_unchecked(row, m);
            }
        }
    }
    if let Some(b) = budget {
        b.check_rows(out.len() as u64)?;
        b.checkpoint()?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mpf_storage::{Catalog, Schema};

    fn fixtures() -> (Catalog, FunctionalRelation, FunctionalRelation) {
        let mut cat = Catalog::new();
        let a = cat.add_var("a", 8).unwrap();
        let b = cat.add_var("b", 8).unwrap();
        let c = cat.add_var("c", 8).unwrap();
        let l = FunctionalRelation::complete(
            "l",
            Schema::new(vec![a, b]).unwrap(),
            &cat,
            |row| (row[0] * 3 + row[1] + 1) as f64,
        );
        let r = FunctionalRelation::complete(
            "r",
            Schema::new(vec![b, c]).unwrap(),
            &cat,
            |row| (row[0] + 5 * row[1] + 1) as f64,
        );
        (cat, l, r)
    }

    #[test]
    fn parallel_join_matches_hash_join() {
        let (_, l, r) = fixtures();
        for sr in [SemiringKind::SumProduct, SemiringKind::MinSum] {
            let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
            for threads in [1, 2, 4] {
                let got = parallel_join(&mut ExecContext::new(sr), &l, &r, threads).unwrap();
                assert!(want.function_eq(&got), "{threads} threads");
            }
        }
    }

    #[test]
    fn explicit_partition_counts_match_too() {
        let (_, l, r) = fixtures();
        let sr = SemiringKind::SumProduct;
        let want = ops::product_join(&mut ExecContext::new(sr), &l, &r).unwrap();
        for (threads, partitions) in [(2, 2), (2, 16), (3, 7), (4, 64), (8, 512)] {
            let got = parallel_join_parts(&mut ExecContext::new(sr), &l, &r, threads, partitions)
                .unwrap();
            assert!(want.function_eq(&got), "{threads} threads, {partitions} partitions");
        }
    }

    #[test]
    fn parallel_group_by_matches_serial() {
        let (cat, l, _) = fixtures();
        let a = cat.var("a").unwrap();
        for sr in [SemiringKind::SumProduct, SemiringKind::MaxProduct] {
            let want = ops::group_by(&mut ExecContext::new(sr), &l, &[a]).unwrap();
            for threads in [1, 2, 4] {
                let got = parallel_group_by(&mut ExecContext::new(sr), &l, &[a], threads).unwrap();
                assert!(want.function_eq(&got), "{threads} threads");
            }
        }
        // Scalar group-by goes through the serial path.
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        let total = parallel_group_by(&mut cx, &l, &[], 4).unwrap();
        assert_eq!(total.len(), 1);
    }

    #[test]
    fn parallel_results_are_deterministic() {
        let (cat, l, r) = fixtures();
        let sr = SemiringKind::SumProduct;
        let mut cx = ExecContext::new(sr);
        let first = parallel_join(&mut cx, &l, &r, 4).unwrap().canonicalized();
        for _ in 0..3 {
            let again = parallel_join(&mut cx, &l, &r, 4).unwrap().canonicalized();
            assert_eq!(first, again);
        }
        let a = cat.var("a").unwrap();
        let g1 = parallel_group_by(&mut cx, &l, &[a], 4).unwrap().canonicalized();
        let g2 = parallel_group_by(&mut cx, &l, &[a], 4).unwrap().canonicalized();
        assert_eq!(g1, g2);
    }

    #[test]
    fn partitioned_ops_count_as_one_operator() {
        let (cat, l, r) = fixtures();
        let a = cat.var("a").unwrap();
        let mut cx = ExecContext::new(SemiringKind::SumProduct);
        parallel_join(&mut cx, &l, &r, 4).unwrap();
        parallel_group_by(&mut cx, &l, &[a], 4).unwrap();
        assert_eq!(cx.stats().joins, 1);
        assert_eq!(cx.stats().group_bys, 1);
    }

    #[test]
    fn partition_count_derivations() {
        // Cache-sized, a multiple of the worker count, capped.
        for threads in [1usize, 2, 3, 4, 8] {
            for rows in [0usize, 100, 10_000, 2_000_000] {
                let p = parallel_partitions(rows, 16, threads);
                assert!(p >= 1 && p <= MAX_PARTITIONS.max(threads), "p = {p}");
                assert_eq!(p % threads, 0, "{rows} rows, {threads} threads");
            }
        }
        // 2M rows × 16 B = 32 MiB → cache sizing dominates and lands in
        // the measured sweet spot (well above the thread count).
        assert!(parallel_partitions(2_000_000, 16, 4) >= 64);
    }
}
