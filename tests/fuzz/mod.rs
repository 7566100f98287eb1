//! A seeded, dependency-free mutation fuzzer for the hand-written
//! decoders, shared by the hostile-input test binaries: every case is a
//! pure function of the seed, so a failure names its round and replays.

use std::panic::{catch_unwind, AssertUnwindSafe};

/// xorshift64*: every case is a pure function of the seed.
pub struct Rng(pub u64);

impl Rng {
    pub fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_f491_4f6c_dd1d) % n.max(1) as u64) as usize
    }
}

/// Byte flips (half of them to a byte of `syntax`, the bytes the format
/// gives meaning to), a truncation, a splice with `other`, or a
/// duplicated span.
pub fn mutate(rng: &mut Rng, body: &[u8], other: &[u8], syntax: &[u8]) -> Vec<u8> {
    let mut out = body.to_vec();
    let at = rng.below(body.len() + 1);
    match rng.below(4) {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(out.len());
                let flip = out[i] ^ (1 << rng.below(8));
                out[i] = [flip, syntax[rng.below(syntax.len())]][rng.below(2)];
            }
        }
        1 => out.truncate(at),
        2 => {
            out.truncate(at);
            out.extend_from_slice(&other[rng.below(other.len())..]);
        }
        _ => {
            let end = at + rng.below(body.len() - at + 1);
            out.splice(at..at, body[at..end].iter().copied());
        }
    }
    out
}

/// `rounds` mutations of every `(name, body)` in `corpus`, each handed
/// to `check` as (lossy) text; a panic in `check` fails with the round,
/// the body's name and the mutated text.
pub fn run(corpus: &[(&str, String)], rounds: usize, syntax: &[u8], check: impl Fn(&str)) {
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    for round in 0..rounds {
        for (name, body) in corpus {
            let other = &corpus[rng.below(corpus.len())].1;
            let bytes = mutate(&mut rng, body.as_bytes(), other.as_bytes(), syntax);
            let text = String::from_utf8_lossy(&bytes);
            if catch_unwind(AssertUnwindSafe(|| check(&text))).is_err() {
                panic!("round {round}: mutated {name} failed: {text:?}");
            }
        }
    }
}
