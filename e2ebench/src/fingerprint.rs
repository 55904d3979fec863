//! The machine and build a result was measured on.

/// What every result is printed with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// CPU model name.
    pub cpu: String,
    /// SIMD kernel backend the decoder dispatches to.
    pub simd: String,
    /// Hardware threads available to the process.
    pub nproc: usize,
    /// Compiler that built the benchmark (and the program).
    pub rustc: String,
    /// Cargo profile of the build.
    pub profile: String,
}

impl Fingerprint {
    /// The fingerprint of this process.
    pub fn current() -> Fingerprint {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .and_then(|rest| rest.split_once(':'))
                    .map(|(_, v)| v.trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Fingerprint {
            cpu,
            simd: format!("{:?}", lf_dsp::simd::active_backend()),
            nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            rustc: env!("E2EBENCH_RUSTC").to_owned(),
            profile: env!("E2EBENCH_PROFILE").to_owned(),
        }
    }
}
