//! Property-based tests for the claim-cursor pool: for arbitrary item and
//! worker counts the pool claims every index once, maps like the serial
//! loop, and orders what it returns by what was claimed.

use proptest::prelude::*;
use std::ops::ControlFlow;
use surveyor_obs::{claim_fold, claim_map};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn map_equals_the_serial_map(items in 0usize..200, workers in 0usize..12) {
        let serial: Vec<u64> = (0..items).map(|i| (i as u64).wrapping_mul(0x9e37_79b9)).collect();
        let mapped = claim_map(items, workers, || 0x9e37_79b9u64, |k, i| (i as u64).wrapping_mul(*k));
        prop_assert_eq!(serial, mapped);
    }

    #[test]
    fn fold_partitions_the_indexes_in_claim_order(items in 0usize..200, workers in 0usize..12) {
        let claimed = claim_fold(items, workers, Vec::new, |state: &mut Vec<usize>, index| {
            state.push(index);
            ControlFlow::Continue(())
        });
        prop_assert!(claimed.len() <= workers.clamp(1, items.max(1)));
        prop_assert_eq!(claimed.is_empty(), items == 0);
        let mut all: Vec<usize> = claimed.iter().flat_map(|c| c.state.iter().copied()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..items).collect::<Vec<_>>());
        let firsts: Vec<usize> = claimed.iter().map(|c| c.first.unwrap_or(usize::MAX)).collect();
        prop_assert!(firsts.windows(2).all(|w| w[0] <= w[1]));
        for c in &claimed {
            prop_assert_eq!(c.first, c.state.first().copied());
            prop_assert!(c.broke_at.is_none());
        }
    }

    #[test]
    fn break_reports_its_index_and_leaves_a_prefix(
        items in 1usize..200,
        workers in 1usize..12,
        at in 0usize..200,
    ) {
        let at = at % items;
        let claimed = claim_fold(items, workers, Vec::new, |state: &mut Vec<usize>, index| {
            state.push(index);
            if index == at { ControlFlow::Break(()) } else { ControlFlow::Continue(()) }
        });
        let breakers: Vec<_> = claimed.iter().filter_map(|c| c.broke_at).collect();
        prop_assert_eq!(breakers, vec![at]);
        // The cursor only rises: what was claimed is a prefix that
        // reaches the breaking index, each index once.
        let mut all: Vec<usize> = claimed.iter().flat_map(|c| c.state.iter().copied()).collect();
        all.sort_unstable();
        prop_assert!(all.len() > at);
        prop_assert_eq!(all.clone(), (0..all.len()).collect::<Vec<_>>());
        // The worker that broke claimed nothing afterwards.
        let breaker = claimed.iter().find(|c| c.broke_at.is_some()).expect("one breaker");
        prop_assert_eq!(breaker.state.last().copied(), Some(at));
    }
}
