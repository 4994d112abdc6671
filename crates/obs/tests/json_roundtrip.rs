//! Round trips of the one JSON value type through its renderer and its
//! parser, over generated trees.
//!
//! * Rendering is stable: `render(parse(render(v))) == render(v)` for
//!   every tree — control characters and non-ASCII in strings and
//!   keys, non-finite floats (rendered `null`), integral floats
//!   (rendered as integer tokens) and `-0.0` included.
//! * Parsing inverts rendering, `parse(render(v)) == v`, whenever every
//!   float is finite and non-integral and every `I64` is negative: the
//!   parser's canonical forms (an integer token is `U64` unless it is
//!   negative, a float token is `F64`).
//!
//! The vendored proptest samples primitive ranges only, so the trees
//! are derived from a seeded [`Xoshiro256StarStar`] inside each case.

use proptest::prelude::*;

use ssr_obs::json::{parse, Value};
use ssr_runtime::rng::Xoshiro256StarStar;

/// Characters that stress the escaper and the UTF-8 path.
const ALPHABET: &[char] = &[
    'a', 'Z', '0', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{8}', '\u{c}',
    '\u{1f}', '\u{7f}', 'é', 'ß', '∘', '€', '😀', '\u{fffd}',
];

fn string(rng: &mut Xoshiro256StarStar) -> String {
    (0..rng.index(12)).map(|_| *rng.choose(ALPHABET)).collect()
}

/// A float; `canonical` keeps it finite and non-integral.
fn float(rng: &mut Xoshiro256StarStar, canonical: bool) -> f64 {
    loop {
        let f = match rng.index(4) {
            0 => f64::from_bits(rng.next_u64()),
            1 => (rng.next_u64() >> 11) as f64 / 1024.0 - 4.0e12,
            2 => rng.f64() * 10f64.powi(rng.index(40) as i32 - 20),
            _ => *rng.choose(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 3.0, 1e300]),
        };
        if !canonical || (f.is_finite() && f.fract() != 0.0) {
            return f;
        }
    }
}

/// A tree at most `depth` containers deep.
fn value(rng: &mut Xoshiro256StarStar, depth: usize, canonical: bool) -> Value {
    let kinds = if depth == 0 { 6 } else { 8 };
    match rng.index(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.chance(0.5)),
        2 => Value::U64(rng.next_u64() >> (rng.index(4) * 16)),
        3 if canonical => Value::I64(-((rng.next_u64() >> 1) as i64) - 1),
        3 => Value::I64(rng.next_u64() as i64),
        4 => Value::F64(float(rng, canonical)),
        5 => Value::Str(string(rng)),
        6 => Value::Arr(
            (0..rng.index(4))
                .map(|_| value(rng, depth - 1, canonical))
                .collect(),
        ),
        _ => Value::Obj(
            (0..rng.index(4))
                .map(|_| (string(rng), value(rng, depth - 1, canonical)))
                .collect(),
        ),
    }
}

proptest! {
    #[test]
    fn rendering_is_stable_through_the_parser(seed in 0u64..u64::MAX) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..16 {
            let v = value(&mut rng, 4, false);
            let text = v.to_string();
            let back = parse(&text).unwrap_or_else(|e| panic!("{e}: {text}"));
            prop_assert_eq!(back.to_string(), text);
        }
    }

    #[test]
    fn parsing_inverts_rendering_on_canonical_trees(seed in 0u64..u64::MAX) {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        for _ in 0..16 {
            let v = value(&mut rng, 4, true);
            let text = v.to_string();
            prop_assert_eq!(parse(&text), Ok(v), "{}", text);
        }
    }
}
