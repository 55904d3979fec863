// Fixture for tests/meta.rs: library code outside lf-core calling the
// decode pipeline's stage internals directly instead of going through
// the Decoder facade. Never compiled.

fn hand_rolled_pipeline(signal: &[Complex], cfg: &DecoderConfig) -> usize {
    let edges = detect_edges(signal, cfg);
    let streams = find_streams(&edges, signal.len(), cfg);
    streams.len()
}

fn isolated_stage_measurement(signal: &[Complex], cfg: &DecoderConfig) -> usize {
    detect_edges(signal, cfg).len() // measures one stage alone: xtask: allow(no-stage-bypass)
}

#[cfg(test)]
mod tests {
    #[test]
    fn stage_calls_in_test_code_are_fine() {
        let edges = detect_edges(in_test_code, &cfg());
        assert!(edges.is_empty());
    }
}
