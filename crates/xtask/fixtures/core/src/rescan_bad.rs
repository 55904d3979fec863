// Fixture for tests/meta.rs: production code rebuilding the per-epoch
// prefix-sum table instead of borrowing the one the decode runner built.
// Never compiled.

fn rescans_the_epoch(signal: &[Complex]) -> Complex {
    let sums = PrefixSums::new(signal);
    sums.mean(0, signal.len())
}

fn one_shot_entry_point(signal: &[Complex]) -> Complex {
    let sums = PrefixSums::new(signal); // one-shot wrapper: xtask: allow(no-epoch-rescan)
    sums.mean(0, signal.len())
}

#[cfg(test)]
mod tests {
    #[test]
    fn rescans_in_test_code_are_fine() {
        let sums = PrefixSums::new(in_test_code);
        assert_eq!(sums.n_samples(), 0);
    }
}
