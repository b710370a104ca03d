//! Seeded garbage through the SQL front end: the lexer, the parser and the
//! binder return `Ok` or a typed `Error` for every input, and never panic.
//!
//! Two generators, both SplitMix64-seeded: token soup drawn from the
//! dialect's vocabulary (keywords, function and column names, punctuation,
//! numbers past `i64`, quotes terminated or not, multi-byte characters), and
//! byte-level mutations of the benchmark's statements.

mod common;

use common::{CHAIN_SQL, FANOUT_SQL, PAR_SQL};
use std::panic::{catch_unwind, AssertUnwindSafe};
use wfopt::datagen::rng::SplitMix64;
use wfopt::datagen::WsConfig;
use wfopt::sql::{bind, parse, Catalog};

/// The dialect's keywords, function and column names, punctuation,
/// numbers (past `i64` either way included), quotes (unterminated ones
/// included) and multi-byte characters, space-separated.
const WORDS: &str = "SELECT FROM WHERE WINDOW AS ORDER BY PARTITION OVER ROWS RANGE \
    BETWEEN AND UNBOUNDED PRECEDING FOLLOWING CURRENT ROW ASC DESC NULLS FIRST LAST select \
    Over rank row_number dense_rank percent_rank cume_dist ntile lag lead first_value \
    last_value nth_value count sum avg min max var_samp stddev_pop median \
    web_sales ws_item_sk ws_sold_time_sk ws_quantity ws_bill_customer_sk w nope _ t \
    , ( ) * = <> != < <= > >= ! ; . - + \
    0 1 -1 3 -7 2.5 -0.0 9223372036854775807 -9223372036854775808 9223372036854775808 \
    -9223372036854775809 99999999999999999999999 1. 1e9 \
    'x' 'it''s' '' ' 'open ''' 'naïve' é 多字节 🦀";

/// What a space-separated list cannot hold.
const ODD: [&str; 5] = ["\u{0}", "\t", "\n", "\u{a0}", "\u{feff}"];

fn vocabulary() -> Vec<&'static str> {
    WORDS.split_whitespace().chain(ODD).collect()
}

/// A statement of up to 40 vocabulary entries, mostly space-separated.
fn token_soup(words: &[&str], rng: &mut SplitMix64) -> String {
    let len = rng.random_inclusive_usize(0, 40);
    let mut out = String::new();
    for _ in 0..len {
        out.push_str(words[rng.random_below_usize(words.len())]);
        if rng.random_below(4) != 0 {
            out.push(' ');
        }
    }
    out
}

/// `base` with one to four byte-level edits, read back lossily as UTF-8.
fn mutation(base: &str, words: &[&str], rng: &mut SplitMix64) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for _ in 0..rng.random_inclusive_usize(1, 4) {
        let at = rng.random_below_usize(bytes.len() + 1);
        match rng.random_below(6) {
            0 if at < bytes.len() => bytes[at] = rng.next_u64() as u8,
            1 => {
                let end = (at + rng.random_inclusive_usize(1, 12)).min(bytes.len());
                bytes.drain(at..end);
            }
            2 => bytes.insert(at, rng.next_u64() as u8),
            3 => {
                let end = (at + rng.random_inclusive_usize(1, 24)).min(bytes.len());
                let copy = bytes[at..end].to_vec();
                bytes.splice(at..at, copy);
            }
            4 => bytes.truncate(at),
            _ => {
                let word = words[rng.random_below_usize(words.len())];
                bytes.splice(at..at, word.bytes());
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// How far one input got.
#[derive(Debug, Default)]
struct Reached {
    parse_errors: usize,
    bind_errors: usize,
    bound: usize,
}

fn front_end(sql: &str, catalog: &Catalog, reached: &mut Reached) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        parse(sql).map(|stmt| bind(&stmt, catalog).map(|_| ()))
    }));
    match outcome {
        Err(_) => panic!("the front end panicked on {sql:?}"),
        Ok(Err(_)) => reached.parse_errors += 1,
        Ok(Ok(Err(_))) => reached.bind_errors += 1,
        Ok(Ok(Ok(()))) => reached.bound += 1,
    }
}

#[test]
fn seeded_garbage_never_panics_the_sql_front_end() {
    let mut catalog = Catalog::new();
    catalog.register("web_sales", WsConfig::small(1).schema());
    let bases = [CHAIN_SQL, FANOUT_SQL, PAR_SQL];
    for base in bases {
        let mut reached = Reached::default();
        front_end(base, &catalog, &mut reached);
        assert_eq!(reached.bound, 1, "{base}");
    }
    let words = vocabulary();
    let mut rng = SplitMix64::seed_from_u64(0x5EED_F022);
    let (mut soup, mut mutated) = (Reached::default(), Reached::default());
    for case in 0..2_000 {
        if case % 2 == 0 {
            front_end(&token_soup(&words, &mut rng), &catalog, &mut soup);
        } else {
            let base = bases[rng.random_below_usize(bases.len())];
            let sql = mutation(base, &words, &mut rng);
            front_end(&sql, &catalog, &mut mutated);
        }
    }
    // Every stage saw inputs: the generators are not all rejected up front.
    assert!(soup.parse_errors > 0, "{soup:?}");
    assert!(
        mutated.parse_errors > 0 && mutated.bind_errors > 0 && mutated.bound > 0,
        "{mutated:?}"
    );
}
