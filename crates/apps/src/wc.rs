//! `wc`: word count over the simulated kernel (§5.8).
//!
//! "Converting it involved replacing UNIX read with IOL_read and
//! iterating through the slices returned in the buffer aggregate."

use iolite_core::{Charge, CostCategory, Kernel, Pid};
use iolite_fs::FileId;
use iolite_sim::SimTime;

use crate::costs::AppCosts;
use crate::ApiMode;

/// The counts `wc` produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WcCounts {
    /// Newlines.
    pub lines: u64,
    /// Whitespace-separated words.
    pub words: u64,
    /// Bytes.
    pub bytes: u64,
}

/// Counts words in `data`, continuing from `in_word` state across chunk
/// boundaries (`permute | wc` runs the same scan on its pipe reads).
pub(crate) fn count_chunk(data: &[u8], counts: &mut WcCounts, in_word: &mut bool) {
    for &b in data {
        counts.bytes += 1;
        if b == b'\n' {
            counts.lines += 1;
        }
        let is_space = b.is_ascii_whitespace();
        if *in_word && is_space {
            *in_word = false;
        } else if !*in_word && !is_space {
            *in_word = true;
            counts.words += 1;
        }
    }
}

/// Runs `wc` on a file, returning the (real) counts and the simulated
/// runtime — the kernel clock's advance: every read bills itself, the
/// scan and the disk waits are added here. The program opens its own
/// descriptor and reads sequentially, exactly like the real `wc`
/// reading `stdin`-style.
pub fn run_wc(
    kernel: &mut Kernel,
    pid: Pid,
    file: FileId,
    mode: ApiMode,
    costs: &AppCosts,
) -> (WcCounts, SimTime) {
    let start = kernel.now();
    let fd = kernel.open_file(pid, file);
    let len = kernel.fd_len(pid, fd).unwrap_or(0);
    let chunk = 64 * 1024u64;
    let mut counts = WcCounts::default();
    let mut in_word = false;
    let mut offset = 0u64;
    while offset < len {
        let want = chunk.min(len - offset);
        match mode {
            ApiMode::Posix => {
                let (data, out) = kernel.posix_read_fd(pid, fd, want).expect("open file");
                kernel.advance(out.disk_time);
                count_chunk(&data, &mut counts, &mut in_word);
            }
            ApiMode::IoLite => {
                let (agg, out) = kernel.iol_read_fd(pid, fd, want).expect("open file");
                kernel.advance(out.disk_time);
                // Iterate the byte runs in place: no contiguity needed.
                for run in agg.chunks() {
                    count_chunk(run, &mut counts, &mut in_word);
                }
            }
        }
        kernel.charge(
            CostCategory::AppCompute,
            Charge::us(want as f64 * costs.wc_scan_ns_per_byte / 1000.0),
        );
        offset += want;
    }
    kernel.close_fd(pid, fd).expect("close wc input");
    (counts, kernel.now().saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_core::CostModel;

    fn kernel_with(text: &[u8]) -> (Kernel, Pid, FileId) {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let pid = k.spawn("wc");
        let f = k.create_file("/data", text);
        (k, pid, f)
    }

    #[test]
    fn counts_match_reference() {
        let text = b"hello world\nthis is  a test\nlast line";
        let (mut k, pid, f) = kernel_with(text);
        let (counts, _) = run_wc(&mut k, pid, f, ApiMode::Posix, &AppCosts::calibrated());
        assert_eq!(counts.lines, 2);
        assert_eq!(counts.words, 8);
        assert_eq!(counts.bytes, text.len() as u64);
    }

    #[test]
    fn both_modes_agree_on_counts() {
        // A file large enough to span many chunks and slices.
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let pid = k.spawn("wc");
        let f = k.create_synthetic_file("/big", 300_000, 5);
        let costs = AppCosts::calibrated();
        let (a, _) = run_wc(&mut k, pid, f, ApiMode::Posix, &costs);
        let (b, _) = run_wc(&mut k, pid, f, ApiMode::IoLite, &costs);
        assert_eq!(a, b);
    }

    #[test]
    fn iolite_mode_is_faster_on_cached_file() {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let pid = k.spawn("wc");
        let f = k.create_synthetic_file("/big", 1_750_000, 5);
        let costs = AppCosts::calibrated();
        // Warm the cache (the paper's wc test reads a cached file).
        run_wc(&mut k, pid, f, ApiMode::Posix, &costs);
        k.reset_clock();
        let (_, posix_t) = run_wc(&mut k, pid, f, ApiMode::Posix, &costs);
        k.reset_clock();
        let (_, iolite_t) = run_wc(&mut k, pid, f, ApiMode::IoLite, &costs);
        let reduction = 1.0 - iolite_t.as_secs() / posix_t.as_secs();
        // Fig. 13: 37% reduction (tolerance for model drift).
        assert!(
            (0.25..0.50).contains(&reduction),
            "reduction {reduction} (posix {posix_t}, iolite {iolite_t})"
        );
    }

    #[test]
    fn word_state_spans_chunk_boundaries() {
        // A word crossing the 64KB read boundary must count once.
        let mut data = vec![b'a'; 64 * 1024 + 10];
        data[5] = b' ';
        let (mut k, pid, f) = kernel_with(&data);
        let (counts, _) = run_wc(&mut k, pid, f, ApiMode::IoLite, &AppCosts::calibrated());
        assert_eq!(counts.words, 2);
    }
}
