//! Distance-matrix-backed nearest-neighbor "index".
//!
//! The axiomatic analysis of §3.1 quantifies over arbitrary distance
//! functions, and the motivating integer example of §3 uses
//! `d(a, b) = |a − b|`. [`MatrixIndex`] runs the whole DE machinery over an
//! explicit symmetric distance matrix, which is what the axiom checkers,
//! the growth-spheres demo, and many unit tests use.

use fuzzydedup_nnindex::{LookupCost, LookupSpec, NnIndex};
use fuzzydedup_relation::Neighbor;

/// A symmetric distance matrix implementing [`NnIndex`] exactly.
#[derive(Debug, Clone)]
pub struct MatrixIndex {
    n: usize,
    /// Row-major `n × n` distances.
    d: Vec<f64>,
}

impl MatrixIndex {
    /// Build from a full matrix. Validates shape, symmetry, zero diagonal,
    /// and non-negativity.
    ///
    /// # Panics
    /// Panics on malformed input — the matrix is produced by code, not by
    /// data.
    pub fn new(matrix: Vec<Vec<f64>>) -> Self {
        let n = matrix.len();
        let mut d = Vec::with_capacity(n * n);
        for (i, row) in matrix.iter().enumerate() {
            assert_eq!(row.len(), n, "row {i} has wrong length");
            for (j, &v) in row.iter().enumerate() {
                assert!(v >= 0.0, "negative distance at ({i},{j})");
                if i == j {
                    assert_eq!(v, 0.0, "nonzero diagonal at {i}");
                }
                d.push(v);
            }
        }
        for i in 0..n {
            for j in 0..n {
                assert_eq!(d[i * n + j], d[j * n + i], "asymmetric at ({i},{j})");
            }
        }
        Self { n, d }
    }

    /// Build from points on the real line with `d(a, b) = |a − b|`
    /// (the integers example of §3).
    pub fn from_points_1d(points: &[f64]) -> Self {
        let n = points.len();
        let mut matrix = vec![vec![0.0; n]; n];
        for (i, row) in matrix.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                *cell = (points[i] - points[j]).abs();
            }
        }
        Self::new(matrix)
    }

    /// Build by evaluating a symmetric distance function over `0..n`.
    // Symmetric fill writes (i, j) and (j, i) together; index loops are the
    // clear formulation here.
    #[allow(clippy::needless_range_loop)]
    pub fn from_fn(n: usize, f: impl Fn(u32, u32) -> f64) -> Self {
        let mut matrix = vec![vec![0.0; n]; n];
        for i in 0..n {
            for j in (i + 1)..n {
                let v = f(i as u32, j as u32);
                matrix[i][j] = v;
                matrix[j][i] = v;
            }
        }
        Self::new(matrix)
    }

    /// The distance between two ids.
    pub fn dist(&self, a: u32, b: u32) -> f64 {
        self.d[a as usize * self.n + b as usize]
    }

    /// A new matrix with every distance scaled by `alpha > 0` (scale
    /// invariance tests).
    pub fn scaled(&self, alpha: f64) -> Self {
        assert!(alpha > 0.0);
        Self { n: self.n, d: self.d.iter().map(|&v| v * alpha).collect() }
    }

    /// A new matrix transformed pointwise by `f(i, j, d)`; the result is
    /// re-validated (used for the P-conscious transformations of Lemma 3).
    pub fn transformed(&self, f: impl Fn(u32, u32, f64) -> f64) -> Self {
        let mut matrix = vec![vec![0.0; self.n]; self.n];
        for (i, row) in matrix.iter_mut().enumerate() {
            for (j, cell) in row.iter_mut().enumerate() {
                if i != j {
                    *cell = f(i as u32, j as u32, self.dist(i as u32, j as u32));
                }
            }
        }
        Self::new(matrix)
    }
}

impl NnIndex for MatrixIndex {
    fn len(&self) -> usize {
        self.n
    }

    /// One pass over row `id`: every other id in `(distance, id)` order,
    /// `ng` counted over the whole row, then the list cut to `spec`. Reads
    /// the matrix, so the cost records no candidates and no distance calls.
    fn lookup(&self, id: u32, spec: LookupSpec, p: f64) -> (Vec<Neighbor>, f64, LookupCost) {
        let mut row: Vec<Neighbor> = (0..self.n as u32)
            .filter(|&o| o != id)
            .map(|o| Neighbor::new(o, self.dist(id, o)))
            .collect();
        row.sort_by(|a, b| a.dist.total_cmp(&b.dist).then(a.id.cmp(&b.id)));
        let ng =
            row.first().map_or(1, |nn| 1 + row.iter().filter(|n| n.dist < p * nn.dist).count());
        match spec {
            LookupSpec::TopK(k) => row.truncate(k),
            LookupSpec::Radius(theta) => row.retain(|n| n.dist < theta),
        }
        let cost = LookupCost::default();
        cost.record();
        (row, ng as f64, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_integer_example_distances() {
        let m = MatrixIndex::from_points_1d(&[1.0, 2.0, 4.0, 20.0, 22.0, 30.0, 32.0]);
        assert_eq!(m.dist(0, 1), 1.0);
        assert_eq!(m.dist(0, 6), 31.0);
        assert_eq!(m.dist(3, 4), 2.0);
        assert_eq!(m.len(), 7);
    }

    #[test]
    fn lookups_read_the_row() {
        let m = MatrixIndex::from_points_1d(&[0.0, 1.0, 3.0, 10.0]);
        let (nn, ng, _) = m.lookup(0, LookupSpec::TopK(2), 2.0);
        assert_eq!(nn.iter().map(|n| n.id).collect::<Vec<_>>(), vec![1, 2]);
        assert_eq!(ng, 2.0, "nn = 1: only 1 lies within 2");
        let (w, _, _) = m.lookup(0, LookupSpec::Radius(3.5), 2.0);
        assert_eq!(w.len(), 2);
        let (w, ng, _) = m.lookup(0, LookupSpec::Radius(1.0), 2.0);
        assert!(w.is_empty(), "strict inequality");
        assert_eq!(ng, 2.0, "nn(v) lies past an empty radius list");
    }

    #[test]
    fn scaling() {
        let m = MatrixIndex::from_points_1d(&[0.0, 2.0]);
        let s = m.scaled(2.5);
        assert_eq!(s.dist(0, 1), 5.0);
    }

    #[test]
    fn transform_revalidates() {
        let m = MatrixIndex::from_points_1d(&[0.0, 1.0, 5.0]);
        let shrunk = m.transformed(|_, _, d| d / 2.0);
        assert_eq!(shrunk.dist(0, 2), 2.5);
    }

    #[test]
    #[should_panic(expected = "asymmetric")]
    fn asymmetry_panics() {
        MatrixIndex::new(vec![vec![0.0, 1.0], vec![2.0, 0.0]]);
    }

    #[test]
    #[should_panic(expected = "nonzero diagonal")]
    fn bad_diagonal_panics() {
        MatrixIndex::new(vec![vec![1.0]]);
    }

    #[test]
    #[should_panic(expected = "negative")]
    fn negative_distance_panics() {
        MatrixIndex::new(vec![vec![0.0, -1.0], vec![-1.0, 0.0]]);
    }

    #[test]
    fn from_fn_builds_symmetric() {
        let m = MatrixIndex::from_fn(3, |a, b| (a + b) as f64);
        assert_eq!(m.dist(0, 1), 1.0);
        assert_eq!(m.dist(1, 0), 1.0);
        assert_eq!(m.dist(1, 2), 3.0);
    }
}
