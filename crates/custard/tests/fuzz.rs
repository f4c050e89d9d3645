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

/// The stack a `sam-serve` worker parses on: `std::thread::spawn`'s
/// default, set explicitly so `RUST_MIN_STACK` cannot enlarge it.
const WORKER_STACK: usize = 2 << 20;

/// Deep nesting, long operand chains and huge literals — the shapes the
/// mutants never reach — are typed parse errors, and the largest
/// expressions the bounds admit go through the whole front end, on a
/// worker-sized stack. Before the bounds, 3,000-deep parentheses or a
/// 30,000-operand sum overflowed that stack, which aborts the process.
#[test]
fn hostile_shapes_are_typed_errors_on_a_worker_sized_stack() {
    use custard::{ParseErrorKind, MAX_NESTING, MAX_OPERANDS};

    let nested = |depth: usize| format!("x(i) = {}b(i){}", "(".repeat(depth), ")".repeat(depth));
    let chain = |n: usize, op: &str| format!("x(i) = {}", vec!["b(i)"; n].join(op));
    let rejected = [
        (nested(3_000), ParseErrorKind::TooDeep),
        (nested(MAX_NESTING + 1), ParseErrorKind::TooDeep),
        (chain(30_000, " + "), ParseErrorKind::TooManyOperands),
        (chain(30_000, " * "), ParseErrorKind::TooManyOperands),
        (chain(30_000, "-"), ParseErrorKind::TooManyOperands),
        (chain(MAX_OPERANDS + 1, "*"), ParseErrorKind::TooManyOperands),
        (format!("x(i) = {} * b(i)", "9".repeat(400)), ParseErrorKind::NonFiniteLiteral),
    ];
    let admitted = [nested(MAX_NESTING), chain(MAX_OPERANDS, " + "), chain(MAX_OPERANDS, " * ")];
    let worker = std::thread::Builder::new().stack_size(WORKER_STACK).spawn(move || {
        for (text, kind) in &rejected {
            let err = parse(text).expect_err("rejected shape parsed");
            assert_eq!(err.kind, *kind, "{}…: {err}", &text[..text.len().min(40)]);
        }
        for text in &admitted {
            let assignment = parse(text).unwrap_or_else(|e| panic!("{}…: {e}", &text[..40]));
            let cin = ConcreteIndexNotation::new(assignment, &Schedule::new(), Formats::new());
            lower(&cin);
            let _ = lower_exec(&cin);
        }
    });
    worker.expect("spawn").join().expect("the front end stays within a worker's stack");
}
