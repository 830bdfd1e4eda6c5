//! [`Datum`]: the single value type shared by query literals and the
//! execution engine's rows.

use crate::ColType;
use std::cmp::Ordering;
use std::fmt;
use std::hash::Hasher;

/// A single column value. `Float` carries a total order (via
/// [`f64::total_cmp`]) so rows can be sorted deterministically — the
/// differential-testing oracle compares sorted row multisets.
#[derive(Debug, Clone)]
pub enum Datum {
    /// Absent value (produced only by outer operations; kept for
    /// completeness and ordered before all present values).
    Null,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Datum {
    /// The [`ColType`] this datum inhabits, `None` for `Null`.
    pub fn col_type(&self) -> Option<ColType> {
        match self {
            Datum::Null => None,
            Datum::Int(_) => Some(ColType::Int),
            Datum::Float(_) => Some(ColType::Float),
            Datum::Str(_) => Some(ColType::Str),
        }
    }

    /// Extracts an integer value.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Datum::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Extracts a float, widening integers (used by SUM/AVG aggregates).
    pub fn as_float_lossy(&self) -> Option<f64> {
        match self {
            Datum::Float(v) => Some(*v),
            Datum::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// Extracts a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Datum::Str(s) => Some(s),
            _ => None,
        }
    }

    fn rank(&self) -> u8 {
        match self {
            Datum::Null => 0,
            Datum::Int(_) => 1,
            Datum::Float(_) => 2,
            Datum::Str(_) => 3,
        }
    }
}

impl PartialEq for Datum {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Datum {}

impl PartialOrd for Datum {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Datum {
    /// Total order: Null < Int < Float < Str across types; natural order
    /// within a type (`total_cmp` for floats, so NaN is ordered too).
    fn cmp(&self, other: &Self) -> Ordering {
        match (self, other) {
            (Datum::Null, Datum::Null) => Ordering::Equal,
            (Datum::Int(a), Datum::Int(b)) => a.cmp(b),
            (Datum::Float(a), Datum::Float(b)) => a.total_cmp(b),
            (Datum::Str(a), Datum::Str(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }
}

impl std::hash::Hash for Datum {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.rank().hash(state);
        match self {
            Datum::Null => {}
            Datum::Int(v) => v.hash(state),
            Datum::Float(v) => v.to_bits().hash(state),
            Datum::Str(s) => s.hash(state),
        }
    }
}

/// Multiply-rotate hasher in the style of FxHash — the workspace's one
/// fixed (unkeyed) mixer, for hashing values this program built itself:
/// the executor's join and grouping keys (fed by [`Datum`]'s `Hash`) and
/// the memo's batch duplicate check. Its well-mixed bits are the high
/// ones. Keys read from outside the program keep std's keyed hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mix(u64);

impl Mix {
    fn word(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for Mix {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.word(u64::from_le_bytes(word));
        }
    }

    // One word an integer, whatever its width — what `write` would make
    // of its bytes, without the byte loop a derived `Hash` would pay for
    // every discriminant (`usize`) and id (`u32`).
    fn write_u8(&mut self, v: u8) {
        self.word(v.into());
    }

    fn write_u32(&mut self, v: u32) {
        self.word(v.into());
    }

    fn write_u64(&mut self, v: u64) {
        self.word(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.word(v as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for Datum {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Datum::Null => write!(f, "NULL"),
            Datum::Int(v) => write!(f, "{v}"),
            Datum::Float(v) => write!(f, "{v}"),
            Datum::Str(s) => write!(f, "'{s}'"),
        }
    }
}

impl From<i64> for Datum {
    fn from(v: i64) -> Self {
        Datum::Int(v)
    }
}

impl From<f64> for Datum {
    fn from(v: f64) -> Self {
        Datum::Float(v)
    }
}

impl From<&str> for Datum {
    fn from(v: &str) -> Self {
        Datum::Str(v.to_string())
    }
}

impl From<String> for Datum {
    fn from(v: String) -> Self {
        Datum::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn h(d: &Datum) -> u64 {
        let mut s = DefaultHasher::new();
        d.hash(&mut s);
        s.finish()
    }

    #[test]
    fn ordering_within_types() {
        assert!(Datum::Int(1) < Datum::Int(2));
        assert!(Datum::Str("a".into()) < Datum::Str("b".into()));
        assert!(Datum::Float(1.0) < Datum::Float(1.5));
    }

    #[test]
    fn ordering_across_types_is_total() {
        assert!(Datum::Null < Datum::Int(i64::MIN));
        assert!(Datum::Int(i64::MAX) < Datum::Float(f64::NEG_INFINITY));
        assert!(Datum::Float(f64::INFINITY) < Datum::Str(String::new()));
    }

    #[test]
    fn nan_is_ordered_and_equal_to_itself() {
        let nan = Datum::Float(f64::NAN);
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert_eq!(nan, Datum::Float(f64::NAN));
        assert!(Datum::Float(f64::INFINITY) < nan); // total_cmp puts +NaN above +inf
    }

    #[test]
    fn eq_consistent_with_hash() {
        let a = Datum::Int(42);
        let b = Datum::Int(42);
        assert_eq!(a, b);
        assert_eq!(h(&a), h(&b));
        let f1 = Datum::Float(0.5);
        let f2 = Datum::Float(0.5);
        assert_eq!(h(&f1), h(&f2));
    }

    #[test]
    fn accessors() {
        assert_eq!(Datum::Int(3).as_int(), Some(3));
        assert_eq!(Datum::Str("x".into()).as_int(), None);
        assert_eq!(Datum::Int(3).as_float_lossy(), Some(3.0));
        assert_eq!(Datum::Float(2.5).as_float_lossy(), Some(2.5));
        assert_eq!(Datum::Str("x".into()).as_str(), Some("x"));
        assert_eq!(Datum::Null.col_type(), None);
        assert_eq!(Datum::Int(0).col_type(), Some(ColType::Int));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Datum::Int(5).to_string(), "5");
        assert_eq!(Datum::Str("hi".into()).to_string(), "'hi'");
        assert_eq!(Datum::Null.to_string(), "NULL");
    }

    #[test]
    fn conversions() {
        assert_eq!(Datum::from(5i64), Datum::Int(5));
        assert_eq!(Datum::from("s"), Datum::Str("s".into()));
        assert_eq!(Datum::from(1.25f64), Datum::Float(1.25));
    }
}
