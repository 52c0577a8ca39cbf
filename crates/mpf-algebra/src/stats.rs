/// Deterministic work counters accumulated during plan execution.
///
/// Wall-clock timings on a laptop are noisy; the experiment harnesses
/// therefore report both elapsed time and these counters, which are exact
/// functions of the plan and data. `rows_processed` is the executor
/// analogue of the paper's operation-count cost metric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Rows read from base relations.
    pub rows_scanned: u64,
    /// Total rows entering + leaving every operator (work proxy).
    pub rows_processed: u64,
    /// Largest intermediate relation materialized.
    pub max_intermediate_rows: u64,
    /// Number of product-join operators executed.
    pub joins: u64,
    /// Number of group-by operators executed.
    pub group_bys: u64,
    /// Number of selection operators executed.
    pub selects: u64,
    /// Joins that ran on the dense odometer kernel (also counted in
    /// `joins`).
    pub dense_joins: u64,
    /// Group-bys that ran on the dense odometer kernel (also counted in
    /// `group_bys`).
    pub dense_group_bys: u64,
    /// Dense↔rows boundary conversions performed.
    pub dense_converts: u64,
    /// Joins that ran on the sparse-tensor sorted-merge kernel (also
    /// counted in `joins`).
    pub sparse_joins: u64,
    /// Group-bys that ran on the sparse coordinate-collapse kernel (also
    /// counted in `group_bys`).
    pub sparse_group_bys: u64,
    /// Sparse↔rows boundary conversions performed.
    pub sparse_converts: u64,
    /// Shared-trunk subtrees evaluated once for a scenario batch.
    pub trunk_builds: u64,
    /// Scenario frontiers that reused a memoized trunk subtree instead of
    /// recomputing it.
    pub trunk_hits: u64,
    /// Fused join→marginalize operators executed (each also counted in
    /// both `joins` and `group_bys`, so totals reconcile with an unfused
    /// plan).
    pub fused_join_aggs: u64,
    /// Kernel dispatches that ran the lane-chunked inner loops.
    pub kernel_chunked_ops: u64,
    /// Kernel dispatches that ran the scalar reference inner loops.
    pub kernel_scalar_ops: u64,
    /// Sparse operands keyed from a stored relation's memoized order
    /// (no linearization, no sort).
    pub keyed_memo_hits: u64,
    /// Sparse operands whose keyed order was built and memoized on a
    /// stored relation (its first use in that axis order).
    pub keyed_memo_builds: u64,
}

impl ExecStats {
    /// Merge counters from another execution (e.g. across workload queries).
    pub fn merge(&mut self, other: &ExecStats) {
        self.rows_scanned += other.rows_scanned;
        self.rows_processed += other.rows_processed;
        self.max_intermediate_rows = self.max_intermediate_rows.max(other.max_intermediate_rows);
        self.joins += other.joins;
        self.group_bys += other.group_bys;
        self.selects += other.selects;
        self.dense_joins += other.dense_joins;
        self.dense_group_bys += other.dense_group_bys;
        self.dense_converts += other.dense_converts;
        self.sparse_joins += other.sparse_joins;
        self.sparse_group_bys += other.sparse_group_bys;
        self.sparse_converts += other.sparse_converts;
        self.trunk_builds += other.trunk_builds;
        self.trunk_hits += other.trunk_hits;
        self.fused_join_aggs += other.fused_join_aggs;
        self.kernel_chunked_ops += other.kernel_chunked_ops;
        self.kernel_scalar_ops += other.kernel_scalar_ops;
        self.keyed_memo_hits += other.keyed_memo_hits;
        self.keyed_memo_builds += other.keyed_memo_builds;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_accumulates() {
        let mut a = ExecStats {
            rows_scanned: 10,
            rows_processed: 100,
            max_intermediate_rows: 50,
            joins: 1,
            group_bys: 1,
            selects: 0,
            dense_joins: 1,
            dense_group_bys: 0,
            dense_converts: 3,
            sparse_joins: 1,
            sparse_group_bys: 0,
            sparse_converts: 2,
            trunk_builds: 1,
            trunk_hits: 4,
            fused_join_aggs: 1,
            kernel_chunked_ops: 3,
            kernel_scalar_ops: 0,
            keyed_memo_hits: 5,
            keyed_memo_builds: 1,
        };
        let b = ExecStats {
            rows_scanned: 1,
            rows_processed: 2,
            max_intermediate_rows: 80,
            joins: 0,
            group_bys: 2,
            selects: 1,
            dense_joins: 0,
            dense_group_bys: 1,
            dense_converts: 2,
            sparse_joins: 0,
            sparse_group_bys: 2,
            sparse_converts: 1,
            trunk_builds: 2,
            trunk_hits: 10,
            fused_join_aggs: 2,
            kernel_chunked_ops: 1,
            kernel_scalar_ops: 2,
            keyed_memo_hits: 2,
            keyed_memo_builds: 3,
        };
        a.merge(&b);
        assert_eq!(a.rows_scanned, 11);
        assert_eq!(a.rows_processed, 102);
        assert_eq!(a.max_intermediate_rows, 80);
        assert_eq!(a.joins, 1);
        assert_eq!(a.group_bys, 3);
        assert_eq!(a.selects, 1);
        assert_eq!(a.dense_joins, 1);
        assert_eq!(a.dense_group_bys, 1);
        assert_eq!(a.dense_converts, 5);
        assert_eq!(a.sparse_joins, 1);
        assert_eq!(a.sparse_group_bys, 2);
        assert_eq!(a.sparse_converts, 3);
        assert_eq!(a.trunk_builds, 3);
        assert_eq!(a.trunk_hits, 14);
        assert_eq!(a.fused_join_aggs, 3);
        assert_eq!(a.kernel_chunked_ops, 4);
        assert_eq!(a.kernel_scalar_ops, 2);
        assert_eq!(a.keyed_memo_hits, 7);
        assert_eq!(a.keyed_memo_builds, 4);
    }
}
