//! The domain-invariant linter behind `cargo xtask lint`.
//!
//! Compiler lints catch the generic hazards, and CI runs clippy with
//! `-D warnings`, so each of them is a build error:
//!
//! * the root `Cargo.toml`'s `[workspace.lints.clippy]` denies `unwrap`,
//!   `expect`, `panic!`, `unreachable!`, `todo!`, `unimplemented!` and raw
//!   float `==`;
//! * the library crate roots warn on `missing_docs` (lf-core and lf-dsp
//!   among them) and on `clippy::print_stdout` / `clippy::print_stderr`
//!   (diagnostics go through `lf_obs::event!`);
//! * `clippy.toml` disallows the unbounded `std::sync::mpsc::channel`.
//!
//! The rules here encode invariants specific to this codebase that no
//! general-purpose lint can express:
//!
//! * [`Rule::FloatOrdering`] — ordering or equality of IQ magnitudes and
//!   other floats must go through `f64::total_cmp`, never `partial_cmp`
//!   (whose `None` on NaN either panics via `unwrap` or silently corrupts a
//!   sort). The decoder sorts candidate streams, peaks, and centroids by
//!   float keys in many places; one NaN must not reorder a decode.
//! * [`Rule::LossyTimeCast`] — sample indices and times cross the
//!   float/integer boundary only through an explicit rounding step
//!   (`round`/`floor`/`ceil`). A bare `expr as usize` truncates toward
//!   zero, which silently biases edge positions by up to one sample —
//!   exactly the error margin the tracker's residual test depends on.
//!   The sanctioned conversion helpers live in `lf-types`.
//! * [`Rule::NoStageBypass`] — library code outside `lf-core` never calls
//!   the decode pipeline's stage internals (`detect_edges`,
//!   `find_streams`, `slot_differentials`, `analyze_slots`,
//!   `decode_single`, …) directly. The decode runner (`lf_core`'s private
//!   `graph` module, behind the `Decoder` facade) is the only sanctioned
//!   composition: it owns stage order, the carve's re-run, and the single
//!   instrumentation point, so a hand-rolled pipeline silently loses
//!   provenance, spans, and the sub-harmonic carve.
//!   Binaries, examples, and benches own their own experiments and are
//!   exempt; simulation experiments that deliberately measure one stage
//!   in isolation carry explicit waivers.
//! * [`Rule::NoEpochRescan`] — no production code calls
//!   `PrefixSums::new`: the decode runner's epoch setup rebuilds the
//!   caller's table in place (`PrefixSums::rebuild`). The prefix-sum
//!   table is O(samples) to build and is *the* shared input of the edges
//!   and slots stages; a stage (or any other production code) that builds
//!   its own re-scans the whole epoch and silently reintroduces the
//!   O(streams × samples) cost the hot-path overhaul removed. One-shot
//!   entry points and stage-isolation experiments carry explicit waivers.
//! * [`Rule::LockOrdering`] — the workspace's ranked mutexes are acquired
//!   outermost-first: `state → truths → metrics → latencies → slots`. Within one function, textually acquiring a lower-ranked
//!   (more outer) lock after a higher-ranked one is the shape every
//!   lock-order deadlock starts as; the `lf-check` model harness proves
//!   the inversion deadlocks (`reports_lock_inversion_as_deadlock`), this
//!   rule keeps new ones from being written. Today no function holds two
//!   ranked locks at once — the rule pins that.
//! * [`Rule::NoAtomicOrderingDefault`] — every atomic operation spelling
//!   an `Ordering::` carries a justification comment (`ordering: …` on
//!   the line, in the 4 lines above, or above the contiguous block of
//!   atomic lines it opens). `Relaxed` written without an argument for
//!   why is how silent weak-memory bugs get merged; the audit that seeded
//!   these comments found one (the histogram snapshot extrema tear).
//! * [`Rule::NoCondvarWithoutLoop`] — `Condvar::wait`/`wait_timeout` sits
//!   inside a `while`/`loop` re-checking its predicate. Condition
//!   variables wake spuriously and `notify_all` wakes waiters whose
//!   predicate a sibling already consumed; a bare `if … { wait }` is the
//!   lost-item bug the `lf-check` fixture `if_wait_round` demonstrates.
//!   `wait_while` is exempt — it owns its loop.
//! * [`Rule::NoUnattributedDrop`] — library code never discards a decode
//!   or frame value with `let _ =`. The delivery ledger's conservation
//!   invariant (every expected frame is delivered *or* attributed to a
//!   failing stage) holds only if every `EpochDecode`, delivered frame,
//!   and queue receive reaches an observation point; a silent drop is a
//!   frame that vanishes from the accounting with no outcome. Tombstone
//!   pushes and thread joins are not decode values and stay legal;
//!   binaries and examples own their own draining and are exempt.
//! * [`Rule::NoWallclockOrdering`] — the fleet coordination layer
//!   (`crates/fleet/src`) never touches `Instant` or `SystemTime`. Frame
//!   identity, dedup, and delivery lag are defined over epoch ordinals
//!   and delivered-frame ticks — quantities every reader derives from the
//!   shared carrier structure, so they agree across hosts and replays. A
//!   wall-clock read smuggles per-host time into an ordering or identity
//!   decision and makes delivery irreproducible; plain `Duration` values
//!   (poll parks, timeouts) are fine.
//! * [`Rule::NoAosHotloop`] — inside a designated hot-kernel region
//!   (delimited by `// hot-kernel begin` / `// hot-kernel end` marker
//!   comments), per-sample `Complex` values are banned: no `Complex` type
//!   mentions and no `.re`/`.im` field access. Hot loops read split
//!   structure-of-arrays slices (separate `re`/`im` arrays, see
//!   DESIGN.md §15) so vector loads stay contiguous; one interleaved
//!   access quietly reintroduces the gather the layout work removed.
//!   Cold preambles inside a region carry explicit waivers.
//!
//! The scanner is deliberately textual (line-oriented with a small amount
//! of context), not a full parser: the toolchain here is hermetic, so no
//! `syn`. Two scoping heuristics keep it honest, both verified by the
//! meta-tests in `tests/meta.rs`:
//!
//! * Test code is exempt (mirroring `clippy.toml`'s
//!   `allow-unwrap-in-tests`). In this repo every `#[cfg(test)]` module
//!   sits at the end of its file, so the scanner stops at the first
//!   `#[cfg(test)]` line.
//! * A line may carry an explicit waiver `// xtask: allow(<rule-name>)`
//!   with the justification expected in an adjacent comment.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// The rules the linter enforces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `partial_cmp` (or `==`/`!=` between magnitudes) on floats.
    FloatOrdering,
    /// Bare truncating cast of a time/offset/period expression to an
    /// integer type.
    LossyTimeCast,
    /// Direct call of a decode-stage internal from library code outside
    /// `lf-core`.
    NoStageBypass,
    /// `PrefixSums::new` in production code.
    NoEpochRescan,
    /// Ranked mutexes acquired inner-before-outer within one function.
    LockOrdering,
    /// Atomic operation without an `ordering:` justification comment.
    NoAtomicOrderingDefault,
    /// `Condvar::wait` outside a predicate-re-checking loop.
    NoCondvarWithoutLoop,
    /// `Instant`/`SystemTime` in the fleet's clock-free coordination
    /// layer.
    NoWallclockOrdering,
    /// `let _ =` discarding a decode/frame value in library code.
    NoUnattributedDrop,
    /// Per-sample `Complex` access inside a designated hot-kernel region.
    NoAosHotloop,
}

impl Rule {
    /// The rule's waiver name, as written in `// xtask: allow(<name>)`.
    pub fn name(self) -> &'static str {
        match self {
            Rule::FloatOrdering => "float-ordering",
            Rule::LossyTimeCast => "lossy-time-cast",
            Rule::NoStageBypass => "no-stage-bypass",
            Rule::NoEpochRescan => "no-epoch-rescan",
            Rule::LockOrdering => "lock-ordering",
            Rule::NoAtomicOrderingDefault => "no-atomic-ordering-default",
            Rule::NoCondvarWithoutLoop => "no-condvar-without-timeout-loop",
            Rule::NoWallclockOrdering => "no-wallclock-ordering",
            Rule::NoUnattributedDrop => "no-unattributed-drop",
            Rule::NoAosHotloop => "no-aos-hotloop",
        }
    }
}

/// One violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// The rule violated.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Directories never scanned: build output, the linter itself (its rule
/// tables and fixtures contain every forbidden pattern), the vendored
/// shim crates standing in for external dependencies, the `lf-check`
/// model harness (its scheduler and sync shims *are* the verification
/// tooling: the shims relay `wait` without a loop by design — the caller
/// owns the predicate loop — and its internals synchronize the model
/// itself), and test/bench trees (test and bench code is exempt by
/// policy, matching `clippy.toml`). `e2ebench` is the end-to-end
/// benchmark: a bench tree that is also its own cargo workspace, which
/// the workspace clippy and fmt gates never build either.
const SKIP_DIRS: &[&str] = &[
    "target",
    "xtask",
    "rng",
    "proptest",
    "criterion-shim",
    "check",
    "tests",
    "benches",
    "e2ebench",
];

/// Lints every production `.rs` file under `root`. `root` is usually the
/// repository root, but the meta-tests point it at a fixtures tree.
pub fn lint_tree(root: &Path) -> Result<Vec<Finding>, String> {
    let mut files = Vec::new();
    collect_rs_files(root, &mut files)?;
    files.sort();
    let mut findings = Vec::new();
    for file in files {
        let text =
            fs::read_to_string(&file).map_err(|e| format!("read {}: {e}", file.display()))?;
        lint_file(root, &file, &text, &mut findings);
    }
    Ok(findings)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("read_dir {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Which rule families apply to a file, from its path relative to the
/// scanned root.
struct Scope {
    time_cast: bool,
    stage_bypass: bool,
    wallclock: bool,
    unattributed_drop: bool,
}

fn scope_of(root: &Path, file: &Path) -> Scope {
    let rel = file.strip_prefix(root).unwrap_or(file);
    let rel = rel.to_string_lossy().replace('\\', "/");
    let in_core = rel.contains("core/src");
    let in_types = rel.contains("types/src");
    // Binaries and examples run their own experiments and own their
    // output; only library sources are held to the composition rules.
    let is_bin = rel.contains("/bin/")
        || rel.contains("examples/")
        || rel.ends_with("main.rs")
        || rel.ends_with("build.rs");
    Scope {
        // lf-types owns the sanctioned index/time conversion helpers.
        time_cast: !in_types,
        // lf-core composes its own stages; binaries/examples run their
        // own experiments. Everything else goes through `Decoder`.
        stage_bypass: !in_core && !is_bin,
        // The fleet's dedup/delivery ordering is clock-free by contract;
        // benches and examples timing the fleet from outside are not.
        wallclock: rel.contains("fleet/src"),
        // Binaries and examples own their own frame draining (a warm-up
        // decode whose result is deliberately unused is their business);
        // library code feeds every decode/frame outcome to the ledger.
        unattributed_drop: !is_bin,
    }
}

fn lint_file(root: &Path, file: &Path, text: &str, findings: &mut Vec<Finding>) {
    let scope = scope_of(root, file);
    let lines: Vec<&str> = text.lines().collect();
    // Ranked locks textually acquired so far in the current function
    // (rank index into LOCK_RANKS), for the lock-ordering rule.
    let mut locks_taken: Vec<usize> = Vec::new();
    // Whether the scan is inside a `// hot-kernel begin` … `end` region
    // (the no-aos-hotloop rule's scope).
    let mut in_hot_kernel = false;
    for (idx, &line) in lines.iter().enumerate() {
        let trimmed = line.trim_start();
        // Test modules sit at the end of files in this repo; everything
        // from the first #[cfg(test)] on is test code and exempt.
        if trimmed.starts_with("#[cfg(test)]") {
            break;
        }
        let lineno = idx + 1;
        // Strip line comments so commented-out code and rule names in
        // comments don't fire, but keep the comment text for waivers.
        let (code, comment) = split_comment(line);

        // Hot-kernel region markers (full-line comments; carry no code).
        if comment.contains("hot-kernel begin") {
            in_hot_kernel = true;
        } else if comment.contains("hot-kernel end") {
            in_hot_kernel = false;
        }

        if is_fn_decl(trimmed) {
            locks_taken.clear();
        }

        if !waived(comment, Rule::FloatOrdering)
            && !trimmed.starts_with("//")
            && has_float_ordering_violation(code)
        {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: Rule::FloatOrdering,
                message: "compare floats with f64::total_cmp, not partial_cmp \
                          or magnitude equality"
                    .into(),
            });
        }

        if scope.time_cast
            && !waived(comment, Rule::LossyTimeCast)
            && !trimmed.starts_with("//")
            && has_lossy_time_cast(code)
        {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: Rule::LossyTimeCast,
                message: "time/offset/period values cross to integer types \
                          via round()/floor()/ceil() or an lf-types helper, \
                          not a bare truncating `as`"
                    .into(),
            });
        }

        if scope.stage_bypass && !waived(comment, Rule::NoStageBypass) && !trimmed.starts_with("//")
        {
            if let Some(what) = stage_bypass_call(code) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: Rule::NoStageBypass,
                    message: format!(
                        "`{}` is a decode-stage internal; compose stages \
                         through `Decoder` so ordering, re-entry, and \
                         provenance are owned by the decode runner",
                        what.trim_end_matches('(')
                    ),
                });
            }
        }

        if !waived(comment, Rule::NoEpochRescan)
            && !trimmed.starts_with("//")
            && has_epoch_rescan(code)
        {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: Rule::NoEpochRescan,
                message: "`PrefixSums::new` re-scans the whole epoch; the \
                          decode runner builds the table once per epoch and \
                          shares it — take a `&PrefixSums` (or reuse a \
                          `DecodeScratch`) instead"
                    .into(),
            });
        }

        if !trimmed.starts_with("//") {
            if let Some(rank) = locked_rank(code, idx, &lines) {
                if let Some(&inner) = locks_taken.iter().find(|&&taken| taken > rank) {
                    if !waived(comment, Rule::LockOrdering) {
                        findings.push(Finding {
                            file: file.to_path_buf(),
                            line: lineno,
                            rule: Rule::LockOrdering,
                            message: format!(
                                "`{}` (outer) locked after `{}` (inner); ranked \
                                 locks are acquired outermost-first: {}",
                                LOCK_RANKS[rank],
                                LOCK_RANKS[inner],
                                LOCK_RANKS.join(" → ")
                            ),
                        });
                    }
                }
                locks_taken.push(rank);
            }
        }

        if !waived(comment, Rule::NoAtomicOrderingDefault)
            && !trimmed.starts_with("//")
            && atomic_op_with_ordering(code)
            && !ordering_justified(&lines, idx)
        {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: Rule::NoAtomicOrderingDefault,
                message: "atomic operation without a justification comment; \
                          state why this `Ordering` suffices in an \
                          `// ordering: …` comment on or above the operation"
                    .into(),
            });
        }

        if !waived(comment, Rule::NoCondvarWithoutLoop)
            && !trimmed.starts_with("//")
            && condvar_wait_outside_loop(&lines, idx)
        {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: Rule::NoCondvarWithoutLoop,
                message: "`Condvar::wait` outside a `while`/`loop`: waits wake \
                          spuriously and lose notify races; re-check the \
                          predicate in a loop (or use `wait_while`)"
                    .into(),
            });
        }

        if scope.wallclock
            && !waived(comment, Rule::NoWallclockOrdering)
            && !trimmed.starts_with("//")
        {
            if let Some(what) = wallclock_type(code) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: Rule::NoWallclockOrdering,
                    message: format!(
                        "`{what}` in the fleet coordination layer: frame \
                         identity and delivery order are clock-free (epoch \
                         ordinals + delivery ticks); host time does not \
                         replay and does not agree across readers"
                    ),
                });
            }
        }

        if scope.unattributed_drop
            && !waived(comment, Rule::NoUnattributedDrop)
            && !trimmed.starts_with("//")
            && has_unattributed_drop(code)
        {
            findings.push(Finding {
                file: file.to_path_buf(),
                line: lineno,
                rule: Rule::NoUnattributedDrop,
                message: "`let _ =` on a decode/frame value drops it with no \
                          recorded outcome, breaking the delivery ledger's \
                          conservation invariant; observe the value (or bind \
                          and handle it) instead"
                    .into(),
            });
        }

        if in_hot_kernel && !waived(comment, Rule::NoAosHotloop) && !trimmed.starts_with("//") {
            if let Some(what) = aos_hotloop_access(code) {
                findings.push(Finding {
                    file: file.to_path_buf(),
                    line: lineno,
                    rule: Rule::NoAosHotloop,
                    message: format!(
                        "`{what}` inside a `// hot-kernel` region: hot loops \
                         consume split SoA slices (separate re/im arrays); \
                         a per-sample `Complex` access reintroduces the \
                         interleaved layout — hoist it above the region or \
                         waive a cold path"
                    ),
                });
            }
        }
    }
}

/// Splits a line at a `//` comment that is not inside a string literal.
/// Good enough for this codebase: string literals containing `//` and a
/// forbidden token on one line do not occur outside the linter itself.
fn split_comment(line: &str) -> (&str, &str) {
    let bytes = line.as_bytes();
    let mut in_str = false;
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'\\' if in_str => i += 1, // skip escaped char
            b'"' => in_str = !in_str,
            b'/' if !in_str && i + 1 < bytes.len() && bytes[i + 1] == b'/' => {
                return (&line[..i], &line[i..]);
            }
            _ => {}
        }
        i += 1;
    }
    (line, "")
}

fn waived(comment: &str, rule: Rule) -> bool {
    comment.contains("xtask: allow(") && comment.contains(rule.name())
}

fn has_float_ordering_violation(code: &str) -> bool {
    if code.contains("partial_cmp") {
        return true;
    }
    // Equality between two IQ magnitudes: `.abs() ==`, `.norm_sqr() !=` …
    for probe in [".abs()", ".norm_sqr()"] {
        let mut rest = code;
        while let Some(pos) = rest.find(probe) {
            let after = rest[pos + probe.len()..].trim_start();
            if after.starts_with("==") || after.starts_with("!=") {
                // Comparison against exact zero is well-defined (clippy
                // permits it too): a magnitude is zero iff the vector is.
                let operand = after[2..].trim_start();
                if !operand.starts_with("0.0") {
                    return true;
                }
            }
            rest = &rest[pos + probe.len()..];
        }
    }
    false
}

/// Identifier stems that mark a value as a sample-time quantity.
const TIME_STEMS: &[&str] = &["time", "offset", "period", "slot_times"];
/// Integer types a truncating cast would target.
const INT_TARGETS: &[&str] = &["usize", "u64", "u32", "i64", "i32", "isize"];
/// Rounding/clamping calls that sanction the cast on the same expression.
const SANCTIONED: &[&str] = &["round(", "floor(", "ceil(", "clamp(", "abs_diff("];

fn has_lossy_time_cast(code: &str) -> bool {
    let Some(as_pos) = find_as_cast(code) else {
        return false;
    };
    let (before, after) = code.split_at(as_pos);
    let target_is_int = INT_TARGETS
        .iter()
        .any(|t| after[2..].trim_start().starts_with(t));
    if !target_is_int {
        return false;
    }
    let mentions_time = TIME_STEMS.iter().any(|s| before.contains(s));
    let sanctioned = SANCTIONED.iter().any(|s| before.contains(s));
    mentions_time && !sanctioned
}

/// Finds ` as ` used as a cast (crudely: surrounded by spaces), returning
/// the byte offset of the `as` keyword.
fn find_as_cast(code: &str) -> Option<usize> {
    // Casts are always spaced by rustfmt, so ` as ` is a reliable probe.
    code.find(" as ").map(|rel| rel + 1)
}

/// The decode pipeline's stage entry points: only `lf-core`'s decode
/// runner composes these. Each probe carries its call paren so a mention
/// in a path or doc string never fires, and the prefix check below
/// rejects matches inside longer identifiers.
const STAGE_INTERNALS: &[&str] = &[
    "detect_edges(",
    "find_streams(",
    "slot_differentials(",
    "slot_cleanliness(",
    "analyze_slots(",
    "analyze_slots_with(",
    "decode_single(",
    "decode_single_traced(",
    "decode_member_traced(",
];

fn stage_bypass_call(code: &str) -> Option<&'static str> {
    STAGE_INTERNALS.iter().copied().find(|probe| {
        code.match_indices(probe).any(|(pos, _)| {
            pos == 0
                || !code.as_bytes()[pos - 1].is_ascii_alphanumeric()
                    && code.as_bytes()[pos - 1] != b'_'
        })
    })
}

fn has_epoch_rescan(code: &str) -> bool {
    // The probe carries its call paren; the prefix check rejects matches
    // inside longer identifiers (`MyPrefixSums::new(` stays silent).
    const PROBE: &str = "PrefixSums::new(";
    code.match_indices(PROBE).any(|(pos, _)| {
        pos == 0
            || !code.as_bytes()[pos - 1].is_ascii_alphanumeric() && code.as_bytes()[pos - 1] != b'_'
    })
}

/// Any function declaration line, used as the reset/stop boundary for the
/// within-function concurrency rules.
fn is_fn_decl(trimmed: &str) -> bool {
    let rest = trimmed
        .strip_prefix("pub(crate) ")
        .or_else(|| trimmed.strip_prefix("pub(super) "))
        .or_else(|| trimmed.strip_prefix("pub "))
        .unwrap_or(trimmed);
    let rest = rest.strip_prefix("const ").unwrap_or(rest);
    let rest = rest.strip_prefix("unsafe ").unwrap_or(rest);
    rest.starts_with("fn ")
}

/// The workspace's ranked mutexes, outermost first. A function acquiring
/// two of these must take the lower index first. Unranked locks (local
/// test mutexes, shim internals) are outside the discipline.
const LOCK_RANKS: &[&str] = &["state", "truths", "metrics", "latencies", "slots"];

/// The rank of the field a `.lock()` call on this line acquires, if the
/// field is ranked. Handles rustfmt's split chains: when `.lock()` opens
/// the line, the field identifier is the tail of the previous line
/// (`self\n.latencies\n.lock()`, `self.slots[idx]\n.lock()`).
fn locked_rank(code: &str, idx: usize, lines: &[&str]) -> Option<usize> {
    let pos = code.find(".lock()")?;
    let mut ident = trailing_field_ident(&code[..pos]);
    if ident.is_empty() && idx > 0 {
        ident = trailing_field_ident(split_comment(lines[idx - 1]).0);
    }
    LOCK_RANKS.iter().position(|&r| r == ident)
}

/// The identifier a field-access chain ends in, ignoring one trailing
/// index expression: `recover(self.state` → `state`, `self.slots[idx]` →
/// `slots`. Empty when the text ends in anything else.
fn trailing_field_ident(s: &str) -> String {
    let mut s = s.trim_end();
    if let Some(open) = s.rfind('[') {
        if s.ends_with(']') {
            s = &s[..open];
        }
    }
    s.chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect::<String>()
        .chars()
        .rev()
        .collect()
}

/// Atomic operations that take an `Ordering` argument; each probe carries
/// its call syntax so field names merely containing `load` never fire.
const ATOMIC_OPS: &[&str] = &[
    ".load(",
    ".store(",
    ".swap(",
    ".fetch_",
    ".compare_exchange",
];

/// An atomic operation spelling an `Ordering::` on this line. Requiring
/// both keeps the probe exact: a split call whose `Ordering::` lands on
/// the next line escapes, which the fixtures accept as the cost of a
/// textual scanner.
fn atomic_op_with_ordering(code: &str) -> bool {
    code.contains("Ordering::") && ATOMIC_OPS.iter().any(|p| code.contains(p))
}

/// Whether the atomic operation on `lines[idx]` carries an `ordering:`
/// justification: in a comment on the line itself, or in one of the 8
/// lines above it but below the enclosing `fn` declaration. The window
/// spans split call chains and lets one comment justify a block of
/// related updates (e.g. a histogram record's five cells); stopping at
/// the `fn` keeps a comment from leaking into the next function.
fn ordering_justified(lines: &[&str], idx: usize) -> bool {
    if split_comment(lines[idx]).1.contains("ordering:") {
        return true;
    }
    for back in 1..=8 {
        let Some(i) = idx.checked_sub(back) else {
            break;
        };
        let (code, comment) = split_comment(lines[i]);
        if comment.contains("ordering:") {
            return true;
        }
        if is_fn_decl(code.trim_start()) {
            break;
        }
    }
    false
}

/// A `Condvar::wait`/`wait_timeout` on `lines[idx]` with no `while`/`loop`
/// between it and its enclosing `fn`. `wait_while` owns its loop and is
/// exempt; so is a wait on the same line as its loop header.
fn condvar_wait_outside_loop(lines: &[&str], idx: usize) -> bool {
    let code = split_comment(lines[idx]).0;
    let waits = (code.contains(".wait(") || code.contains(".wait_timeout("))
        && !code.contains("wait_while");
    if !waits {
        return false;
    }
    if is_loop_header(code.trim_start()) {
        return false;
    }
    for i in (0..idx).rev() {
        let t = split_comment(lines[i]).0.trim_start();
        if is_loop_header(t) {
            return false;
        }
        if is_fn_decl(t) {
            return true;
        }
    }
    true
}

/// Identifier stems that mark a `let _ =` right-hand side as producing a
/// decode or frame value — the quantities the delivery ledger accounts
/// for. Each identifier token on the right-hand side is checked for a
/// stem case-insensitively (`decode`, `decoder.decode_timed_with`,
/// `EpochDecode`, `recv`, `try_recv`, `frames`), so a drop of any of
/// them fires while `EpochReport` tombstones, `join()` handles, and
/// `flight.trigger(…)` stay silent.
const DROP_STEMS: &[&str] = &["decode", "frame", "recv"];

/// A `let _ =` whose right-hand side mentions a decode/frame-producing
/// identifier. Tokenized on identifier boundaries first, so the stem
/// check cannot bridge two identifiers (`results`, `push_forced`, and
/// `EpochReport` never fire).
fn has_unattributed_drop(code: &str) -> bool {
    let Some(pos) = code.find("let _ =") else {
        return false;
    };
    let rhs = &code[pos + "let _ =".len()..];
    let fires = |t: &str| {
        let lower = t.to_ascii_lowercase();
        DROP_STEMS.iter().any(|s| lower.contains(s))
    };
    let mut token = String::new();
    for ch in rhs.chars() {
        if ch.is_ascii_alphanumeric() || ch == '_' {
            token.push(ch);
        } else if !token.is_empty() {
            if fires(&token) {
                return true;
            }
            token.clear();
        }
    }
    !token.is_empty() && fires(&token)
}

/// Wall-clock types banned from the fleet's coordination layer. Plain
/// `Duration` spans carry no epoch and stay legal (poll parks, timeouts).
const WALLCLOCK_TYPES: &[&str] = &["Instant", "SystemTime"];

/// A wall-clock type mentioned on this line, if any. Both identifier
/// boundaries are checked so longer names that merely contain a token
/// (`instantaneous_eps`, `MyInstant`) stay silent; imports and aliases
/// (`use std::time::Instant`) fire — bringing the type into scope at all
/// is the violation.
fn wallclock_type(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    let boundary = |b: u8| !b.is_ascii_alphanumeric() && b != b'_';
    WALLCLOCK_TYPES.iter().copied().find(|probe| {
        code.match_indices(probe).any(|(pos, _)| {
            let end = pos + probe.len();
            (pos == 0 || boundary(bytes[pos - 1])) && (end == bytes.len() || boundary(bytes[end]))
        })
    })
}

/// Per-sample AoS access inside a designated hot kernel: a `Complex`
/// type mention, or a `.re`/`.im` field access (the probe requires the
/// identifier to *end* after `re`/`im`, so `.resize`, `.rem_euclid`,
/// `.rev`, and `.iter` stay silent). Bare SoA slice indexing (`re[t]`,
/// `pim[i]`) has no leading dot and never fires.
fn aos_hotloop_access(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    let boundary = |b: u8| !b.is_ascii_alphanumeric() && b != b'_';
    if code
        .match_indices("Complex")
        .any(|(pos, _)| pos == 0 || boundary(bytes[pos - 1]))
    {
        return Some("Complex");
    }
    [".re", ".im"].iter().copied().find(|probe| {
        code.match_indices(probe).any(|(pos, _)| {
            let end = pos + probe.len();
            end == bytes.len() || boundary(bytes[end])
        })
    })
}

fn is_loop_header(trimmed_code: &str) -> bool {
    trimmed_code.starts_with("while ")
        || trimmed_code.starts_with("loop {")
        || trimmed_code == "loop"
        || trimmed_code.starts_with("for ")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_comment_respects_strings() {
        let (code, comment) = split_comment(r#"let u = "https://x"; // note"#);
        assert_eq!(code, r#"let u = "https://x"; "#);
        assert_eq!(comment, "// note");
    }

    #[test]
    fn float_ordering_probe() {
        assert!(has_float_ordering_violation("a.partial_cmp(&b)"));
        assert!(has_float_ordering_violation("if x.abs() == y.abs() {"));
        assert!(!has_float_ordering_violation("a.total_cmp(&b)"));
        assert!(!has_float_ordering_violation("if x.abs() < 1e-9 {"));
    }

    #[test]
    fn lossy_cast_probe() {
        assert!(has_lossy_time_cast("let t = e.time as usize;"));
        assert!(has_lossy_time_cast("let s = (offset + k) as u64;"));
        assert!(!has_lossy_time_cast("let t = e.time.round() as usize;"));
        assert!(!has_lossy_time_cast("let x = n as f64;"));
        assert!(!has_lossy_time_cast("let n = count as usize;"));
    }

    #[test]
    fn stage_bypass_probe() {
        assert_eq!(
            stage_bypass_call("let edges = detect_edges(&signal, &cfg);"),
            Some("detect_edges(")
        );
        assert_eq!(
            stage_bypass_call("let (a, p) = analyze_slots_with(&d, &c, &cfg);"),
            Some("analyze_slots_with(")
        );
        // Longer identifiers that merely end in a probe name stay silent.
        assert_eq!(stage_bypass_call("my_detect_edges(&signal)"), None);
        // Mentions without a call do not fire.
        assert_eq!(stage_bypass_call("use lf_core::edges::detect_edges;"), None);
    }

    #[test]
    fn epoch_rescan_probe() {
        assert!(has_epoch_rescan("let sums = PrefixSums::new(signal);"));
        assert!(has_epoch_rescan(
            "detect_with(&lf_core::edges::PrefixSums::new(&signal), cfg)"
        ));
        // Longer identifiers that merely end in the probe stay silent, as
        // do mentions without a call.
        assert!(!has_epoch_rescan("let s = MyPrefixSums::new(signal);"));
        assert!(!has_epoch_rescan("use lf_core::edges::PrefixSums;"));
    }

    #[test]
    fn aos_hotloop_probe() {
        assert_eq!(
            aos_hotloop_access("fn f(samples: &[Complex]) {"),
            Some("Complex")
        );
        assert_eq!(aos_hotloop_access("let x = z.re * z.re;"), Some(".re"));
        assert_eq!(aos_hotloop_access("acc += samples[k].im;"), Some(".im"));
        // Field access ends the identifier: longer method/field names that
        // merely start with `re`/`im` stay silent, as do bare SoA slices
        // and identifiers that merely contain `Complex`.
        assert_eq!(aos_hotloop_access("out.resize(n, 0.0);"), None);
        assert_eq!(aos_hotloop_access("let p = t.rem_euclid(period);"), None);
        assert_eq!(aos_hotloop_access("for v in xs.iter().rev() {"), None);
        assert_eq!(aos_hotloop_access("out[t] = re[t + w] - im[t - w];"), None);
        assert_eq!(aos_hotloop_access("let k = NonComplexity::new();"), None);
    }

    #[test]
    fn fn_decl_probe() {
        assert!(is_fn_decl("fn refill(&mut self) -> bool {"));
        assert!(is_fn_decl("pub fn pop(&self) -> Option<T> {"));
        assert!(is_fn_decl("pub(crate) const fn new() -> Self {"));
        assert!(!is_fn_decl("let f = |x| x + 1;"));
        assert!(!is_fn_decl("// fn commented_out() {"));
    }

    #[test]
    fn trailing_field_ident_reads_chain_tails() {
        assert_eq!(trailing_field_ident("recover(self.state"), "state");
        assert_eq!(trailing_field_ident("    .latencies"), "latencies");
        assert_eq!(
            trailing_field_ident("let mut slot = self.slots[idx]"),
            "slots"
        );
        assert_eq!(trailing_field_ident("let mut rings = self"), "self");
        assert_eq!(trailing_field_ident("drop(st);"), "");
    }

    #[test]
    fn locked_rank_handles_split_chains() {
        let rank = |name: &str| Some(LOCK_RANKS.iter().position(|&r| r == name).unwrap());
        // Same-line lock.
        let lines = ["let st = recover(self.state.lock());"];
        assert_eq!(locked_rank(lines[0], 0, &lines), rank("state"));
        // rustfmt-split chain: `.lock()` opens the line, field above.
        let lines = ["let mut rings = self", "    .latencies", "    .lock()"];
        assert_eq!(locked_rank(lines[2], 2, &lines), rank("latencies"));
        // Indexed field above.
        let lines = ["let mut slot = self.slots[idx]", "    .lock()"];
        assert_eq!(locked_rank(lines[1], 1, &lines), rank("slots"));
        // Unranked locals stay outside the discipline.
        let lines = ["let g = my_mutex.lock();"];
        assert_eq!(locked_rank(lines[0], 0, &lines), None);
    }

    #[test]
    fn atomic_ordering_probe_needs_op_and_ordering() {
        assert!(atomic_op_with_ordering(
            "self.count.fetch_add(1, Ordering::Relaxed);"
        ));
        assert!(atomic_op_with_ordering("x.load(Ordering::Acquire)"));
        // An Ordering mention without an operation (imports, match arms)
        // stays silent, as does an op without an Ordering on the line.
        assert!(!atomic_op_with_ordering("use std::sync::atomic::Ordering;"));
        assert!(!atomic_op_with_ordering("cursor.fetch_add(1, ordering)"));
        assert!(!atomic_op_with_ordering("file.load(path)"));
    }

    #[test]
    fn ordering_justification_window_and_blocks() {
        // Same-line comment.
        let lines = ["x.load(Ordering::Relaxed) // ordering: monitoring read"];
        assert!(ordering_justified(&lines, 0));
        // Comment within the window above, inside the same fn.
        let lines = [
            "fn get(&self) {",
            "    // ordering: Relaxed — standalone cell.",
            "    x.load(Ordering::Relaxed);",
        ];
        assert!(ordering_justified(&lines, 2));
        // One comment covers a block of related atomic lines, even with
        // only its first line carrying the `ordering:` marker.
        let lines = [
            "fn record(&self) {",
            "    // ordering: Relaxed — five independent cells; the",
            "    // snapshot reconciles a copy taken mid-record.",
            "    a.fetch_add(1, Ordering::Relaxed);",
            "    b.fetch_add(1, Ordering::Relaxed);",
            "    c.fetch_add(v, Ordering::Relaxed);",
            "    d.fetch_min(v, Ordering::Relaxed);",
            "    e.fetch_max(v, Ordering::Relaxed);",
        ];
        assert!(ordering_justified(&lines, 7));
        // The window stops at the enclosing fn: a comment in the previous
        // function does not justify this one's op.
        let lines = [
            "// ordering: Relaxed — belongs to the fn above.",
            "fn f() {",
            "    x.store(1, Ordering::SeqCst);",
        ];
        assert!(!ordering_justified(&lines, 2));
        // No comment anywhere near: unjustified.
        let lines = ["fn f() {", "", "", "", "", "x.store(1, Ordering::SeqCst);"];
        assert!(!ordering_justified(&lines, 5));
    }

    #[test]
    fn wallclock_probe() {
        assert_eq!(
            wallclock_type("let t0 = std::time::Instant::now();"),
            Some("Instant")
        );
        assert_eq!(
            wallclock_type("use std::time::{Duration, SystemTime};"),
            Some("SystemTime")
        );
        // Longer identifiers containing a token stay silent, as do plain
        // Duration spans.
        assert_eq!(wallclock_type("let instantaneous_eps = 4.0;"), None);
        assert_eq!(wallclock_type("struct MyInstantCache;"), None);
        assert_eq!(wallclock_type("park: Duration::from_micros(500),"), None);
    }

    #[test]
    fn unattributed_drop_probe() {
        assert!(has_unattributed_drop("let _ = decoder.decode(&signal);"));
        assert!(has_unattributed_drop(
            "let _ = self.decode_timed_with(&sig, &mut s);"
        ));
        assert!(has_unattributed_drop("let _ = sub.recv();"));
        assert!(has_unattributed_drop("let _ = results.try_recv();"));
        assert!(has_unattributed_drop("let _ = frames.pop();"));
        assert!(has_unattributed_drop(
            "let _ = make(EpochDecode::default());"
        ));
        // Tombstones, joins, and trigger results are not decode values.
        assert!(!has_unattributed_drop(
            "let _ = results.push_forced(EpochReport {"
        ));
        assert!(!has_unattributed_drop("let _ = t.join();"));
        assert!(!has_unattributed_drop(
            "let _ = flight.trigger(&format!(\"worker-panic\"));"
        ));
        // A bound (non-`_`) result is handled, not dropped.
        assert!(!has_unattributed_drop("let decode = run(&signal);"));
    }

    #[test]
    fn condvar_loop_scan() {
        let while_wait = [
            "fn pop(&self) {",
            "    let mut st = recover(self.state.lock());",
            "    while st.is_empty() {",
            "        st = recover(self.not_empty.wait(st));",
            "    }",
        ];
        assert!(!condvar_wait_outside_loop(&while_wait, 3));
        let if_wait = [
            "fn pop(&self) {",
            "    let mut st = recover(self.state.lock());",
            "    if st.is_empty() {",
            "        st = recover(self.not_empty.wait(st));",
            "    }",
        ];
        assert!(condvar_wait_outside_loop(&if_wait, 3));
        let wait_while = ["fn f() {", "    let g = cv.wait_while(g, |s| s.busy);"];
        assert!(!condvar_wait_outside_loop(&wait_while, 1));
        let loop_wait = [
            "fn f() {",
            "    loop {",
            "        g = cv.wait_timeout(g, TICK).0;",
            "    }",
        ];
        assert!(!condvar_wait_outside_loop(&loop_wait, 2));
    }
}
