//! JSON number text from the vendored `serde_json`.
//!
//! Checkpoints are JSON, so the exact text of every number is part of the
//! on-disk format. The writer must keep one rule byte for byte: a finite
//! `f64` is `format!("{v}")` followed by `.0` when that text holds no `.`,
//! `e` or `E`; a non-finite one is `null`; integers are their decimal
//! `Display`. Reading the text back must return every finite value with
//! the same bits.

/// The number rule the checkpoint format was written with.
fn reference(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// SplitMix64: a fixed stream of 64-bit patterns.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

fn check(v: f64) {
    let text = serde_json::to_string(&v).unwrap();
    assert_eq!(text, reference(v), "bits {:016x}", v.to_bits());
    if v.is_finite() {
        let back: f64 = serde_json::from_str(&text).unwrap();
        assert_eq!(back.to_bits(), v.to_bits(), "text {text}");
    }
}

#[test]
fn edge_floats_follow_the_reference_rule() {
    let edges = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        1e21,
        1e-7,
        5e-324,
        -5e-324,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        -1.5e-300,
        0.1,
        123_456_789.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    for v in edges {
        check(v);
    }
    assert_eq!(serde_json::to_string(&-0.0f64).unwrap(), "-0.0");
    assert_eq!(
        serde_json::to_string(&1e21f64).unwrap(),
        format!("1{}.0", "0".repeat(21))
    );
    assert_eq!(serde_json::to_string(&f64::NAN).unwrap(), "null");
}

#[test]
fn random_bit_patterns_follow_the_reference_rule() {
    let mut rng = SplitMix(20261016);
    for _ in 0..100_000 {
        check(f64::from_bits(rng.next()));
    }
}

#[test]
fn integers_are_their_decimal_text() {
    assert_eq!(
        serde_json::to_string(&u64::MAX).unwrap(),
        u64::MAX.to_string()
    );
    assert_eq!(
        serde_json::to_string(&i64::MIN).unwrap(),
        i64::MIN.to_string()
    );
    assert_eq!(serde_json::to_string(&0u64).unwrap(), "0");
    assert_eq!(serde_json::to_string(&-7i64).unwrap(), "-7");
    assert_eq!(
        serde_json::from_str::<u64>("18446744073709551615").unwrap(),
        u64::MAX
    );
    assert_eq!(
        serde_json::from_str::<i64>("-9223372036854775808").unwrap(),
        i64::MIN
    );
}

/// Numbers inside containers are written the same way, separators and
/// all.
#[test]
fn numbers_in_a_sequence_match_the_reference() {
    let xs = [1.0, -0.0, 2.5e-10, f64::NAN, 1e300];
    let want = format!(
        "[{}]",
        xs.iter()
            .map(|&v| reference(v))
            .collect::<Vec<_>>()
            .join(",")
    );
    assert_eq!(serde_json::to_string(&xs.to_vec()).unwrap(), want);
    let ints: Vec<(u64, i64)> = vec![(u64::MAX, i64::MIN), (0, -1)];
    assert_eq!(
        serde_json::to_string(&ints).unwrap(),
        format!("[[{},{}],[0,-1]]", u64::MAX, i64::MIN)
    );
}
