//! The oracle the integration suites share.

/// Levenshtein distance by the full `(|a| + 1) × (|b| + 1)` matrix, row
/// by row in one flat buffer.
pub fn levenshtein_matrix(a: &[char], b: &[char]) -> usize {
    let width = b.len() + 1;
    let mut d = vec![0usize; (a.len() + 1) * width];
    for i in 0..=a.len() {
        d[i * width] = i;
    }
    for (j, cell) in d[..width].iter_mut().enumerate() {
        *cell = j;
    }
    for i in 1..=a.len() {
        for j in 1..=b.len() {
            let substitute = d[(i - 1) * width + j - 1] + usize::from(a[i - 1] != b[j - 1]);
            let delete = d[(i - 1) * width + j] + 1;
            let insert = d[i * width + j - 1] + 1;
            d[i * width + j] = substitute.min(delete).min(insert);
        }
    }
    d[a.len() * width + b.len()]
}
