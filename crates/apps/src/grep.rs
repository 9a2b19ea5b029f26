//! `cat file | grep pattern` (§5.8).
//!
//! The paper's most I/O-bound pipeline: "IO-Lite is able to eliminate
//! three copies — two due to cat, and one due to grep." Conversion
//! wrinkle reproduced faithfully: "since grep expects all data in a line
//! to be contiguous in memory, lines that were split across IO-Lite
//! buffers were copied into dynamically allocated contiguous memory."

use iolite_buf::Aggregate;
use iolite_core::{Charge, CostCategory, Kernel, Pid};
use iolite_fs::FileId;
use iolite_sim::SimTime;

use crate::costs::AppCosts;
use crate::{push_through_pipe, ApiMode};

/// What `grep` found.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GrepResult {
    /// Lines containing the pattern.
    pub matches: u64,
    /// Total lines seen.
    pub lines: u64,
}

/// Naive substring search (real matching over real bytes).
fn line_matches(line: &[u8], pattern: &[u8]) -> bool {
    if pattern.is_empty() || line.len() < pattern.len() {
        return pattern.is_empty();
    }
    line.windows(pattern.len()).any(|w| w == pattern)
}

/// Grep's incremental state: a carry buffer for partial lines.
struct GrepState {
    pattern: Vec<u8>,
    carry: Vec<u8>,
    result: GrepResult,
    /// Bytes copied to make split lines contiguous (IO-Lite mode).
    split_copied: u64,
}

impl GrepState {
    fn feed_contiguous(&mut self, data: &[u8], charge_splits: bool) {
        let mut start = 0;
        for (i, &b) in data.iter().enumerate() {
            if b == b'\n' {
                if self.carry.is_empty() {
                    self.scan_line(&data[start..i]);
                } else {
                    // The line started in a previous buffer: it was
                    // copied into contiguous memory.
                    let carried = std::mem::take(&mut self.carry);
                    let mut line = carried;
                    line.extend_from_slice(&data[start..i]);
                    if charge_splits {
                        self.split_copied += line.len() as u64;
                    }
                    self.scan_line(&line);
                }
                start = i + 1;
            }
        }
        if start < data.len() {
            self.carry.extend_from_slice(&data[start..]);
        }
    }

    fn scan_line(&mut self, line: &[u8]) {
        self.result.lines += 1;
        if line_matches(line, &self.pattern) {
            self.result.matches += 1;
        }
    }

    fn finish(&mut self) {
        if !self.carry.is_empty() {
            let line = std::mem::take(&mut self.carry);
            self.scan_line(&line);
        }
    }
}

/// Runs `cat file | grep pattern`, returning the (real) match counts
/// and the simulated runtime. The pipe is a kernel pipe addressed by
/// descriptors: cat holds the write end, grep the read end, exactly as
/// the shell would wire them.
pub fn run_cat_grep(
    kernel: &mut Kernel,
    cat_pid: Pid,
    grep_pid: Pid,
    file: FileId,
    pattern: &[u8],
    mode: ApiMode,
    costs: &AppCosts,
) -> (GrepResult, SimTime) {
    let start = kernel.now();
    let (wfd, rfd) = kernel.pipe_between(cat_pid, grep_pid, mode.pipe_mode());
    let in_fd = kernel.open_file(cat_pid, file);
    let len = kernel.fd_len(cat_pid, in_fd).unwrap_or(0);
    let chunk = 64 * 1024u64;
    let mut state = GrepState {
        pattern: pattern.to_vec(),
        carry: Vec::new(),
        result: GrepResult::default(),
        split_copied: 0,
    };
    let scratch = kernel.create_pool(iolite_buf::Acl::with_domain(cat_pid.domain()));

    let mut offset = 0u64;
    while offset < len {
        let want = chunk.min(len - offset);
        // --- cat: read one chunk sequentially off its descriptor ---
        let data: Aggregate = match mode {
            ApiMode::Posix => {
                let (bytes, out) = kernel
                    .posix_read_fd(cat_pid, in_fd, want)
                    .expect("open file");
                kernel.advance(out.disk_time);
                Aggregate::from_bytes(&scratch, &bytes)
            }
            ApiMode::IoLite => {
                let (agg, out) = kernel.iol_read_fd(cat_pid, in_fd, want).expect("open file");
                kernel.advance(out.disk_time);
                agg
            }
        };
        kernel.charge(
            CostCategory::AppCompute,
            Charge::us(want as f64 * costs.cat_ns_per_byte / 1000.0),
        );
        // --- cat writes, grep drains (alternating on one CPU) ---
        push_through_pipe(
            kernel,
            (cat_pid, wfd),
            (grep_pid, rfd),
            &data,
            |kernel, agg| {
                // grep processes what arrived.
                kernel.charge(
                    CostCategory::AppCompute,
                    Charge::us(agg.len() as f64 * costs.grep_scan_ns_per_byte / 1000.0),
                );
                // POSIX: the copied-out data is contiguous user memory, and
                // the pipe already charged the copy, so the runs are scanned
                // without re-materializing. IO-Lite: run by run, split lines
                // get copied (and charged below).
                for run in agg.chunks() {
                    state.feed_contiguous(run, mode == ApiMode::IoLite);
                }
            },
        );
        offset += want;
    }
    state.finish();
    // Charge the split-line contiguity copies (IO-Lite conversion cost).
    if state.split_copied > 0 {
        let c = kernel.cost.cached_copy(state.split_copied);
        kernel.charge_copied(CostCategory::Copy, c, state.split_copied);
    }
    kernel.close_fd(cat_pid, in_fd).expect("close cat input");
    kernel.close_fd(cat_pid, wfd).expect("close pipe write end");
    kernel.close_fd(grep_pid, rfd).expect("close pipe read end");
    (state.result, kernel.now().saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_core::CostModel;

    fn setup(text: &[u8]) -> (Kernel, Pid, Pid, FileId) {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let cat = k.spawn("cat");
        let grep = k.spawn("grep");
        let f = k.create_file("/data", text);
        (k, cat, grep, f)
    }

    #[test]
    fn finds_matches_like_reference() {
        let text = b"alpha beta\ngamma delta\nneedle here\nno match\nneedle again\n";
        let (mut k, cat, grep, f) = setup(text);
        let (r, _) = run_cat_grep(
            &mut k,
            cat,
            grep,
            f,
            b"needle",
            ApiMode::Posix,
            &AppCosts::calibrated(),
        );
        assert_eq!(r.matches, 2);
        assert_eq!(r.lines, 5);
    }

    #[test]
    fn modes_agree_on_results() {
        // Synthetic text with newlines sprinkled in.
        let mut text = Vec::new();
        for i in 0..5000u32 {
            text.extend_from_slice(format!("line {i} with some words\n").as_bytes());
            if i % 37 == 0 {
                text.extend_from_slice(b"the magic token appears\n");
            }
        }
        let (mut k, cat, grep, f) = setup(&text);
        let costs = AppCosts::calibrated();
        let (a, _) = run_cat_grep(&mut k, cat, grep, f, b"magic token", ApiMode::Posix, &costs);
        let (b, _) = run_cat_grep(
            &mut k,
            cat,
            grep,
            f,
            b"magic token",
            ApiMode::IoLite,
            &costs,
        );
        assert_eq!(a, b);
        assert_eq!(a.matches, 136);
    }

    #[test]
    fn iolite_reduction_matches_figure_13() {
        // ~1.75MB of text, cached (run once to warm).
        let mut text = Vec::new();
        while text.len() < 1_750_000 {
            text.extend_from_slice(b"some ordinary log line with content\n");
        }
        let (mut k, cat, grep, f) = setup(&text);
        let costs = AppCosts::calibrated();
        run_cat_grep(&mut k, cat, grep, f, b"pattern", ApiMode::Posix, &costs);
        k.reset_clock();
        let (_, posix_t) = run_cat_grep(&mut k, cat, grep, f, b"pattern", ApiMode::Posix, &costs);
        k.reset_clock();
        let (_, iolite_t) = run_cat_grep(&mut k, cat, grep, f, b"pattern", ApiMode::IoLite, &costs);
        let reduction = 1.0 - iolite_t.as_secs() / posix_t.as_secs();
        // Fig. 13: 48%.
        assert!(
            (0.35..0.60).contains(&reduction),
            "reduction {reduction} (posix {posix_t}, iolite {iolite_t})"
        );
    }

    #[test]
    fn split_lines_counted_once() {
        // One long line spanning several 8KB pipe chunks must be a
        // single line.
        let mut text = vec![b'x'; 200_000];
        text.push(b'\n');
        text.extend_from_slice(b"short\n");
        let (mut k, cat, grep, f) = setup(&text);
        let (r, _) = run_cat_grep(
            &mut k,
            cat,
            grep,
            f,
            b"short",
            ApiMode::IoLite,
            &AppCosts::calibrated(),
        );
        assert_eq!(r.lines, 2);
        assert_eq!(r.matches, 1);
    }
}
