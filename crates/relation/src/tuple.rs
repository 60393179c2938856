//! Tuples: rows of values, encodable to heap-file records.

use std::cmp::Ordering;

use crate::error::RelationResult;
use crate::value::Value;

/// A row of values. The schema is carried by the containing table; a bare
/// `Tuple` is just an ordered value list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    values: Vec<Value>,
}

impl Tuple {
    /// Construct from values.
    pub fn new(values: Vec<Value>) -> Self {
        Self { values }
    }

    /// Number of values.
    pub fn arity(&self) -> usize {
        self.values.len()
    }

    /// The values in order.
    pub fn values(&self) -> &[Value] {
        &self.values
    }

    /// Value at a column index (panics when out of range, like slice
    /// indexing — table code validates arity against the schema on insert).
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Binary encoding: arity (u16) followed by each value's encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 * self.values.len() + 2);
        out.extend_from_slice(&(self.values.len() as u16).to_le_bytes());
        for v in &self.values {
            v.encode(&mut out);
        }
        out
    }

    /// Decode from heap-file record bytes.
    pub fn decode(bytes: &[u8]) -> RelationResult<Self> {
        use crate::error::RelationError;
        if bytes.len() < 2 {
            return Err(RelationError::DecodeError("missing arity"));
        }
        let arity = u16::from_le_bytes([bytes[0], bytes[1]]) as usize;
        let mut pos = 2;
        let mut values = Vec::with_capacity(arity);
        for _ in 0..arity {
            values.push(Value::decode(bytes, &mut pos)?);
        }
        if pos != bytes.len() {
            return Err(RelationError::DecodeError("trailing bytes"));
        }
        Ok(Self { values })
    }

    /// Compare two tuples on a sequence of key column indices (total order,
    /// used by the external sort).
    pub fn compare_on(&self, other: &Self, key_columns: &[usize]) -> Ordering {
        for &k in key_columns {
            let c = self.values[k].cmp(&other.values[k]);
            if c != Ordering::Equal {
                return c;
            }
        }
        Ordering::Equal
    }
}

impl From<Vec<Value>> for Tuple {
    fn from(values: Vec<Value>) -> Self {
        Self::new(values)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Neighbor;
    use proptest::prelude::*;

    #[test]
    fn encode_decode_roundtrip() {
        let t = Tuple::new(vec![
            Value::I64(7),
            Value::Str("the doors".into()),
            Value::Neighbors(vec![Neighbor::new(1, 0.25)]),
            Value::BoolList(vec![true, false]),
            Value::F64(3.5),
            Value::Null,
        ]);
        let bytes = t.encode();
        assert_eq!(Tuple::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn empty_tuple_roundtrip() {
        let t = Tuple::new(vec![]);
        assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let t = Tuple::new(vec![Value::I64(1)]);
        let mut bytes = t.encode();
        bytes.push(0xAB);
        assert!(Tuple::decode(&bytes).is_err());
        assert!(Tuple::decode(&[]).is_err());
        assert!(Tuple::decode(&[1]).is_err());
    }

    #[test]
    fn compare_on_keys() {
        let a = Tuple::new(vec![Value::I64(1), Value::Str("b".into())]);
        let b = Tuple::new(vec![Value::I64(1), Value::Str("a".into())]);
        assert_eq!(a.compare_on(&b, &[0]), Ordering::Equal);
        assert_eq!(a.compare_on(&b, &[0, 1]), Ordering::Greater);
        assert_eq!(a.compare_on(&b, &[1]), Ordering::Greater);
        assert_eq!(a.compare_on(&b, &[]), Ordering::Equal);
    }

    proptest! {
        #[test]
        fn roundtrip_random_tuples(
            ints in prop::collection::vec(any::<i64>(), 0..6),
            strs in prop::collection::vec(".{0,20}", 0..4),
        ) {
            let mut values: Vec<Value> = Vec::new();
            values.extend(ints.iter().map(|&i| Value::I64(i)));
            values.extend(strs.iter().map(|s| Value::Str(s.clone())));
            let t = Tuple::new(values);
            prop_assert_eq!(Tuple::decode(&t.encode()).unwrap(), t);
        }
    }
}
