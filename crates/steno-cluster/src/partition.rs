//! Partitioned collections.
//!
//! "To execute a query on a large data set, a common strategy is to
//! divide the data set into partitions, and execute the query in parallel
//! on each partition" (§6).

use steno_expr::{Column, Value};

/// A named collection split into partitions, one per (simulated) storage
/// node.
#[derive(Clone, Debug)]
pub struct DistributedCollection {
    /// The source name queries refer to.
    pub name: String,
    /// The partitions.
    pub partitions: Vec<Column>,
}

impl DistributedCollection {
    /// Partitions an f64 column into `n` contiguous chunks.
    pub fn from_f64(name: impl Into<String>, data: Vec<f64>, n: usize) -> DistributedCollection {
        let n = n.max(1);
        let chunk = data.len().div_ceil(n);
        let partitions = if data.is_empty() {
            vec![Column::from_f64(Vec::new()); n]
        } else {
            data.chunks(chunk.max(1))
                .map(|c| Column::from_f64(c.to_vec()))
                .collect()
        };
        DistributedCollection {
            name: name.into(),
            partitions,
        }
    }

    /// Partitions an i64 column into `n` contiguous chunks.
    pub fn from_i64(name: impl Into<String>, data: Vec<i64>, n: usize) -> DistributedCollection {
        let n = n.max(1);
        let chunk = data.len().div_ceil(n);
        let partitions = if data.is_empty() {
            vec![Column::from_i64(Vec::new()); n]
        } else {
            data.chunks(chunk.max(1))
                .map(|c| Column::from_i64(c.to_vec()))
                .collect()
        };
        DistributedCollection {
            name: name.into(),
            partitions,
        }
    }

    /// Partitions a row collection (points) into `n` contiguous chunks.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim`.
    pub fn from_rows(
        name: impl Into<String>,
        data: Vec<f64>,
        dim: usize,
        n: usize,
    ) -> DistributedCollection {
        let n = n.max(1);
        let rows = data.len() / dim;
        assert_eq!(data.len(), rows * dim, "ragged row data");
        let rows_per = rows.div_ceil(n).max(1);
        let mut partitions = Vec::new();
        let mut offset = 0;
        while offset < rows {
            let take = rows_per.min(rows - offset);
            partitions.push(Column::from_rows(
                data[offset * dim..(offset + take) * dim].to_vec(),
                dim,
            ));
            offset += take;
        }
        if partitions.is_empty() {
            partitions.push(Column::from_rows(Vec::new(), dim));
        }
        DistributedCollection {
            name: name.into(),
            partitions,
        }
    }

    /// Partitions boxed values into `n` contiguous chunks.
    pub fn from_values(
        name: impl Into<String>,
        data: Vec<Value>,
        n: usize,
    ) -> DistributedCollection {
        let n = n.max(1);
        let chunk = data.len().div_ceil(n);
        let partitions = if data.is_empty() {
            vec![Column::from_values(Vec::new()); n]
        } else {
            data.chunks(chunk.max(1))
                .map(|c| Column::from_values(c.to_vec()))
                .collect()
        };
        DistributedCollection {
            name: name.into(),
            partitions,
        }
    }

    /// The number of partitions.
    pub fn partition_count(&self) -> usize {
        self.partitions.len()
    }

    /// Total number of elements across partitions.
    pub fn len(&self) -> usize {
        self.partitions.iter().map(Column::len).sum()
    }

    /// `true` when every partition is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reassembles the collection (partition order) for serial baselines.
    pub fn to_column(&self) -> Column {
        let mut values = Vec::with_capacity(self.len());
        for p in &self.partitions {
            values.extend(p.to_values());
        }
        Column::from_values(values)
    }
}

/// Hash-partitions boxed values by key image into `n` buckets — the
/// exchange operator used between map and reduce stages when keys must be
/// co-located.
pub fn hash_exchange(values: &[Value], n: usize, key: impl Fn(&Value) -> Value) -> Vec<Vec<Value>> {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let n = n.max(1);
    let mut buckets = vec![Vec::new(); n];
    for v in values {
        let mut h = DefaultHasher::new();
        key(v).key().hash(&mut h);
        let b = (h.finish() % n as u64) as usize;
        buckets[b].push(v.clone());
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunked_partitioning_covers_all_elements() {
        let d = DistributedCollection::from_f64("xs", (0..10).map(|i| i as f64).collect(), 3);
        assert_eq!(d.partition_count(), 3);
        assert_eq!(d.len(), 10);
        let sizes: Vec<usize> = d.partitions.iter().map(Column::len).collect();
        assert_eq!(sizes, vec![4, 4, 2]);
        assert_eq!(d.to_column().len(), 10);
    }

    #[test]
    fn empty_collections_still_have_partitions() {
        let d = DistributedCollection::from_f64("xs", vec![], 4);
        assert!(d.is_empty());
        assert_eq!(d.partition_count(), 4);
    }

    #[test]
    fn row_partitioning_keeps_rows_intact() {
        let data: Vec<f64> = (0..30).map(|i| i as f64).collect();
        let d = DistributedCollection::from_rows("pts", data, 3, 4);
        assert_eq!(d.len(), 10);
        for p in &d.partitions {
            // Every partition holds whole rows.
            assert_eq!(p.value_at(0).as_row().unwrap().len(), 3);
        }
    }

    #[test]
    fn hash_exchange_groups_equal_keys() {
        let values: Vec<Value> = (0..40)
            .map(|i| Value::pair(Value::I64(i % 5), Value::I64(i)))
            .collect();
        let buckets = hash_exchange(&values, 3, |v| v.as_pair().unwrap().0.clone());
        assert_eq!(buckets.iter().map(Vec::len).sum::<usize>(), 40);
        // All pairs with the same key land in the same bucket.
        for k in 0..5 {
            let holders: Vec<usize> = buckets
                .iter()
                .enumerate()
                .filter(|(_, b)| b.iter().any(|v| v.as_pair().unwrap().0 == &Value::I64(k)))
                .map(|(i, _)| i)
                .collect();
            assert_eq!(holders.len(), 1, "key {k} split across buckets");
        }
    }
}
