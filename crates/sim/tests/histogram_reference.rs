//! `Histogram` against the fully allocated histogram it replaced.
//!
//! Lazy bucket sizing is a pure re-representation: buckets past the
//! highest one recorded are zero whether or not they are stored. For any
//! sequence of records, merges and clears the lazily sized histogram must
//! report exactly what the reference in `oracle/` reports — every
//! quantile, the batch quantiles, count, min, max, mean, sum and the
//! `Display` line. Three histograms of each kind are driven in lockstep,
//! so merges run in both directions between histograms grown to different
//! heights (including an empty or cleared one), and values reach
//! `u64::MAX` so the last bucket and the `u128` sum are exercised.

mod oracle;

use ceio_sim::Histogram;
use oracle::histogram::Histogram as Reference;
use proptest::prelude::*;

/// Histograms driven in lockstep.
const SLOTS: usize = 3;

#[derive(Debug, Clone)]
enum Op {
    Record(usize, u64),
    Merge { from: usize, into: usize },
    Clear(usize),
}

fn value_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        // The linear region and the first log tiers.
        3 => 0u64..512,
        // Nanosecond latencies.
        3 => 0u64..10_000_000,
        // Anywhere in the range, up to the last bucket.
        1 => any::<u64>(),
        1 => (u64::MAX - 1_000)..=u64::MAX,
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..SLOTS, value_strategy()).prop_map(|(s, v)| Op::Record(s, v)),
        2 => (0..SLOTS, 0..SLOTS).prop_map(|(from, into)| Op::Merge { from, into }),
        1 => (0..SLOTS).prop_map(Op::Clear),
    ]
}

const QS: [f64; 6] = [0.0, 0.25, 0.5, 0.99, 0.999, 1.0];

/// Every observable of both histograms must agree.
fn assert_same(new: &Histogram, old: &Reference, at: &Op) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.count(), old.count(), "count after {:?}", at);
    prop_assert_eq!(new.min(), old.min(), "min after {:?}", at);
    prop_assert_eq!(new.max(), old.max(), "max after {:?}", at);
    prop_assert_eq!(new.sum(), old.sum(), "sum after {:?}", at);
    prop_assert_eq!(
        new.mean().to_bits(),
        old.mean().to_bits(),
        "mean after {:?}",
        at
    );
    for q in QS {
        prop_assert_eq!(new.quantile(q), old.quantile(q), "q={} after {:?}", q, at);
    }
    prop_assert_eq!(
        new.quantiles(&QS),
        old.quantiles(&QS),
        "quantiles after {:?}",
        at
    );
    prop_assert_eq!(new.to_string(), old.to_string(), "Display after {:?}", at);
    Ok(())
}

/// Apply `op` to the slot arrays of one kind.
fn apply<H: Clone>(
    hs: &mut [H; SLOTS],
    op: &Op,
    record: impl Fn(&mut H, u64),
    merge: impl Fn(&mut H, &H),
    clear: impl Fn(&mut H),
) {
    match *op {
        Op::Record(s, v) => record(&mut hs[s], v),
        Op::Merge { from, into } => {
            let src = hs[from].clone();
            merge(&mut hs[into], &src);
        }
        Op::Clear(s) => clear(&mut hs[s]),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn lazy_histogram_matches_full_reference(ops in prop::collection::vec(op_strategy(), 1..80)) {
        let mut new: [Histogram; SLOTS] = std::array::from_fn(|_| Histogram::new());
        let mut old: [Reference; SLOTS] = std::array::from_fn(|_| Reference::new());
        for op in &ops {
            apply(&mut new, op, Histogram::record, Histogram::merge, Histogram::clear);
            apply(&mut old, op, Reference::record, Reference::merge, Reference::clear);
            // Only the written histogram can have changed.
            let s = match *op {
                Op::Record(s, _) | Op::Clear(s) | Op::Merge { into: s, .. } => s,
            };
            assert_same(&new[s], &old[s], op)?;
        }
        for (n, o) in new.iter().zip(&old) {
            assert_same(n, o, &ops[ops.len() - 1])?;
        }
    }

    /// Other precisions size their logical bucket array differently; the
    /// clamp into the last bucket must hold for each. (Up to 10 bits: the
    /// reference's full array reaches millions of buckets beyond that.)
    #[test]
    fn lazy_histogram_matches_reference_at_any_precision(
        bits in 1u32..=10,
        values in prop::collection::vec(value_strategy(), 0..60),
    ) {
        let mut new = Histogram::with_precision(bits);
        let mut old = Reference::with_precision(bits);
        for &v in &values {
            new.record(v);
            old.record(v);
        }
        assert_same(&new, &old, &Op::Record(0, values.last().copied().unwrap_or(0)))?;
    }
}

/// A histogram that never records holds no bucket storage, and one that
/// records a single small value grows only to that bucket.
#[test]
fn unrecorded_histogram_is_small() {
    let empty = Histogram::new();
    let grown = {
        let mut h = Histogram::new();
        h.record(3);
        h
    };
    // The lazily sized array shows in the derived `Debug` output: the
    // empty histogram prints an empty bucket list.
    assert!(format!("{empty:?}").contains("counts: []"), "{empty:?}");
    assert!(
        format!("{grown:?}").contains("counts: [0, 0, 0, 1]"),
        "{grown:?}"
    );
}
