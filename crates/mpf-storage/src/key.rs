use crate::Value;

/// A compact hashable join/group key extracted from a row.
///
/// Join and group-by keys in MPF plans are almost always 1–4 variables wide
/// (a variable's `rels` set, or a separator between junction-tree cliques),
/// so keys pack into machine words instead of allocating. Wider keys fall
/// back to a boxed slice. Keys of one width order by their packed value,
/// so a sorted key column can be binary-searched.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// Up to one column, packed.
    P1(u32),
    /// Two columns, packed.
    P2(u64),
    /// Three columns, packed.
    P3(u128),
    /// Four columns, packed. The variant carries the width, so all 128
    /// bits hold values.
    P4(u128),
    /// Five or more columns.
    Big(Box<[Value]>),
}

impl Key {
    /// The key of the empty column set (all rows agree).
    pub const UNIT: Key = Key::P1(0);

    /// Extract the key of `row` at the given column positions.
    #[inline]
    pub fn extract(row: &[Value], positions: &[usize]) -> Key {
        Key::pack(positions.len(), |j| row[positions[j]])
    }

    /// Extract the key of an entire row (all columns in order).
    #[inline]
    pub fn of_row(row: &[Value]) -> Key {
        Key::pack(row.len(), |j| row[j])
    }

    /// The key of the `n` columns `col(0), …, col(n - 1)`, the first in
    /// the most significant bits.
    #[inline(always)]
    fn pack(n: usize, col: impl Fn(usize) -> Value) -> Key {
        let wide = || (0..n).fold(0u128, |p, j| (p << 32) | col(j) as u128);
        match n {
            0 => Key::UNIT,
            1 => Key::P1(col(0)),
            2 => Key::P2(((col(0) as u64) << 32) | col(1) as u64),
            3 => Key::P3(wide()),
            4 => Key::P4(wide()),
            _ => Key::Big((0..n).map(col).collect()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn extraction_matches_columns() {
        let row = &[7, 8, 9, 10, 11, 12][..];
        assert_eq!(Key::extract(row, &[]), Key::UNIT);
        assert_eq!(Key::extract(row, &[2]), Key::P1(9));
        assert_eq!(Key::extract(row, &[0, 1]), Key::extract(&[7, 8], &[0, 1]));
        assert_ne!(Key::extract(row, &[0, 1]), Key::extract(row, &[1, 0]));
        assert_eq!(
            Key::extract(row, &[0, 1, 2, 3, 4]),
            Key::Big(vec![7, 8, 9, 10, 11].into_boxed_slice())
        );
    }

    #[test]
    fn arity_three_and_four_do_not_collide() {
        // [0, 1, 2] as a 3-key must differ from [0, 0, 1, 2] as a 4-key even
        // though their packed value bits coincide.
        let k3 = Key::extract(&[0, 1, 2], &[0, 1, 2]);
        let k4 = Key::extract(&[0, 0, 1, 2], &[0, 1, 2, 3]);
        assert_ne!(k3, k4);
    }

    #[test]
    fn four_column_keys_keep_every_bit_of_the_first_value() {
        let all = [0, 1, 2, 3];
        assert_ne!(Key::extract(&[1 << 30, 0, 0, 0], &all), Key::extract(&[0, 0, 0, 0], &all));
        assert_ne!(Key::of_row(&[u32::MAX, 0, 0, 0]), Key::of_row(&[u32::MAX >> 2, 0, 0, 0]));
        // Keys of one width still order by their values, first column first.
        assert!(Key::of_row(&[1 << 31, 0, 0, 0]) > Key::of_row(&[1, u32::MAX, u32::MAX, u32::MAX]));
        assert!(Key::of_row(&[2, 0, 0]) > Key::of_row(&[1, 5, 5]));
    }

    #[test]
    fn of_row_matches_extract_all() {
        for row in [vec![3u32], vec![3, 4], vec![3, 4, 5], vec![3, 4, 5, 6], vec![3, 4, 5, 6, 7]] {
            let all: Vec<usize> = (0..row.len()).collect();
            assert_eq!(Key::of_row(&row), Key::extract(&row, &all));
        }
    }
}
