//! Mutation fuzz of the expression front end: no string reaches a panic.
//!
//! An expression string is outside input (`sam_serve::Query::new` takes one
//! from any client), so `parse`, `ConcreteIndexNotation::new` with the
//! default schedule, `lower_exec` and `lower` must answer every string with
//! a value or a typed error. The mutants are one to four character edits of
//! the Table 1 expressions: close enough to valid that several percent
//! parse and most of those lower, so the edits land in the lowering's
//! checks and not only in the tokenizer.

use custard::{lower, lower_exec, parse, ConcreteIndexNotation, Formats, Schedule};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The twelve Table 1 expressions, and one scaled by a literal.
const SEEDS: [&str; 13] = [
    "x(i) = B(i,j) * c(j)",
    "X(i,j) = B(i,k) * C(k,j)",
    "X(i,j) = B(i,j) * C(i,k) * D(j,k)",
    "chi() = B(i,j,k) * C(i,j,k)",
    "X(i,j) = B(i,j,k) * c(k)",
    "X(i,j,k) = B(i,j,l) * C(k,l)",
    "X(i,j) = B(i,k,l) * C(j,k) * D(j,l)",
    "x(i) = b(i) - C(i,j) * d(j)",
    "x(i) = alpha * B(j,i) * c(j) + beta * d(i)",
    "X(i,j) = B(i,j) + C(i,j)",
    "X(i,j) = B(i,j) + C(i,j) + D(i,j)",
    "X(i,j,k) = B(i,j,k) + C(i,j,k)",
    "x(i) = 2.5 * b(i)",
];

/// What an insertion or replacement draws from.
const ALPHABET: &str = "(),=*+-. \t0123456789ijklBCDbcdxXé∑";

const MUTANTS: usize = 50_000;

struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: usize) -> usize {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 % n as u64) as usize
    }
}

fn mutate(rng: &mut XorShift, seed: &str, alphabet: &[char]) -> String {
    let mut text: Vec<char> = seed.chars().collect();
    for _ in 0..1 + rng.below(4) {
        if text.is_empty() {
            break;
        }
        let at = rng.below(text.len());
        match rng.below(4) {
            0 => drop(text.remove(at)),
            1 => text.insert(at, alphabet[rng.below(alphabet.len())]),
            2 => text[at] = alphabet[rng.below(alphabet.len())],
            _ => text.insert(at, text[at]),
        }
    }
    text.into_iter().collect()
}

#[test]
fn no_mutant_of_a_table1_expression_unwinds_the_front_end() {
    let alphabet: Vec<char> = ALPHABET.chars().collect();
    let mut rng = XorShift(0x9e37_79b9_7f4a_7c15);
    let (mut parsed, mut lowered) = (0, 0);
    let mut unwound: Vec<String> = Vec::new();
    // The default hook would print a backtrace per offender.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    for n in 0..MUTANTS {
        let text = mutate(&mut rng, SEEDS[n % SEEDS.len()], &alphabet);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            let Ok(assignment) = parse(&text) else { return (false, false) };
            let cin = ConcreteIndexNotation::new(assignment, &Schedule::new(), Formats::new());
            lower(&cin);
            (true, lower_exec(&cin).is_ok())
        }));
        match outcome {
            Ok((p, l)) => {
                parsed += usize::from(p);
                lowered += usize::from(l);
            }
            Err(_) => unwound.push(text),
        }
    }
    std::panic::set_hook(hook);
    assert!(
        unwound.is_empty(),
        "{} of {MUTANTS} mutants unwound, e.g. {:?}",
        unwound.len(),
        &unwound[..unwound.len().min(5)]
    );
    assert!(
        parsed * 20 >= MUTANTS,
        "only {parsed} of {MUTANTS} mutants parse: the fuzz stopped reaching the lowering"
    );
    assert!(lowered > 0, "no mutant lowered");
}
