//! `permute | wc` (§5.8).
//!
//! "Permute generates all possible permutations of four-character words
//! in a 40-character string. Its output (10!*40 = 145,152,000 bytes) is
//! piped into the wc program." Producer/consumer over a pipe: with
//! IO-Lite, "not only does IO-Lite eliminate data copying between the
//! processes, but it also avoids the VM map operations affecting the wc
//! example" — buffer recycling keeps the steady state at shared-memory
//! cost.

use iolite_buf::Aggregate;
use iolite_core::{Charge, CostCategory, Kernel, Pid};
use iolite_sim::SimTime;

use crate::costs::AppCosts;
use crate::wc::{count_chunk, WcCounts};
use crate::{push_through_pipe, ApiMode};

/// Generates all permutations of `n` four-character words ("aaa ",
/// "bbb ", ...) via Heap's algorithm, streaming each 4n-byte string to
/// `emit`.
fn generate_permutations(n: usize, mut emit: impl FnMut(&[u8])) {
    assert!((1..=12).contains(&n), "n! strings must stay enumerable");
    let mut words: Vec<[u8; 4]> = (0..n)
        .map(|i| {
            let c = b'a' + (i as u8);
            [c, c, c, b' ']
        })
        .collect();
    let mut line = vec![0u8; 4 * n];
    let mut output = |words: &[[u8; 4]]| {
        for (i, w) in words.iter().enumerate() {
            line[i * 4..i * 4 + 4].copy_from_slice(w);
        }
        emit(&line);
    };
    // Heap's algorithm, iterative form.
    let mut c = vec![0usize; n];
    output(&words);
    let mut i = 0;
    while i < n {
        if c[i] < i {
            if i % 2 == 0 {
                words.swap(0, i);
            } else {
                words.swap(c[i], i);
            }
            output(&words);
            c[i] += 1;
            i = 0;
        } else {
            c[i] = 0;
            i += 1;
        }
    }
}

/// Runs `permute n | wc`, returning wc's (real) counts and the simulated
/// runtime. The paper's configuration is `n = 10`.
pub fn run_permute_wc(
    kernel: &mut Kernel,
    perm_pid: Pid,
    wc_pid: Pid,
    n: usize,
    mode: ApiMode,
    costs: &AppCosts,
) -> (WcCounts, SimTime) {
    let start = kernel.now();
    let (wfd, rfd) = kernel.pipe_between(perm_pid, wc_pid, mode.pipe_mode());
    let pool = kernel.process(perm_pid).pool().clone();
    let mut counts = WcCounts::default();
    let mut in_word = false;
    // Stage buffer: permute accumulates ~64KB, then pushes through the
    // pipe while wc drains.
    let mut stage: Vec<u8> = Vec::with_capacity(96 * 1024);
    let mut flush = |kernel: &mut Kernel, stage: &mut Vec<u8>| {
        if stage.is_empty() {
            return;
        }
        // Generation cost for these bytes.
        kernel.charge(
            CostCategory::AppCompute,
            Charge::us(stage.len() as f64 * costs.permute_gen_ns_per_byte / 1000.0),
        );
        let agg = Aggregate::from_bytes(&pool, stage);
        push_through_pipe(
            kernel,
            (perm_pid, wfd),
            (wc_pid, rfd),
            &agg,
            |kernel, chunk| {
                kernel.charge(
                    CostCategory::AppCompute,
                    Charge::us(chunk.len() as f64 * costs.wc_scan_ns_per_byte / 1000.0),
                );
                for run in chunk.chunks() {
                    count_chunk(run, &mut counts, &mut in_word);
                }
            },
        );
        stage.clear();
    };
    {
        let mut emit = |line: &[u8]| {
            stage.extend_from_slice(line);
            if stage.len() >= 64 * 1024 {
                flush(kernel, &mut stage);
            }
        };
        generate_permutations(n, &mut emit);
    }
    flush(kernel, &mut stage);
    kernel
        .close_fd(perm_pid, wfd)
        .expect("close pipe write end");
    kernel.close_fd(wc_pid, rfd).expect("close pipe read end");
    (counts, kernel.now().saturating_sub(start))
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_core::CostModel;

    fn factorial(n: u64) -> u64 {
        (1..=n).product()
    }

    #[test]
    fn permutation_count_is_exact() {
        let mut seen = std::collections::BTreeSet::new();
        let mut count = 0u64;
        generate_permutations(5, |line| {
            count += 1;
            seen.insert(line.to_vec());
        });
        assert_eq!(count, factorial(5));
        // All distinct.
        assert_eq!(seen.len() as u64, factorial(5));
        // Each line is 4n bytes.
        assert!(seen.iter().all(|l| l.len() == 20));
    }

    #[test]
    fn wc_sees_the_full_stream() {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let p = k.spawn("permute");
        let w = k.spawn("wc");
        let n = 6;
        let (counts, _) = run_permute_wc(&mut k, p, w, n, ApiMode::IoLite, &AppCosts::calibrated());
        let perms = factorial(n as u64);
        assert_eq!(counts.bytes, perms * 4 * n as u64);
        // Each permutation contributes n space-terminated words.
        assert_eq!(counts.words, perms * n as u64);
        assert_eq!(counts.lines, 0);
    }

    #[test]
    fn modes_agree_and_iolite_is_faster() {
        let costs = AppCosts::calibrated();
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let p = k.spawn("permute");
        let w = k.spawn("wc");
        let (a, posix_t) = run_permute_wc(&mut k, p, w, 7, ApiMode::Posix, &costs);
        k.reset_clock();
        let (b, iolite_t) = run_permute_wc(&mut k, p, w, 7, ApiMode::IoLite, &costs);
        assert_eq!(a, b);
        let reduction = 1.0 - iolite_t.as_secs() / posix_t.as_secs();
        // Fig. 13: 33% (wide tolerance at this reduced scale).
        assert!(
            (0.20..0.45).contains(&reduction),
            "reduction {reduction} (posix {posix_t}, iolite {iolite_t})"
        );
    }
}
