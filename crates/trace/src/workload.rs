//! Workload synthesis from a [`TraceSpec`].

use iolite_sim::{LogNormal, SimRng, Zipf};

use crate::spec::TraceSpec;

/// One file of a synthesized workload. Files are indexed by popularity
/// rank: index 0 is the most requested.
#[derive(Debug, Clone)]
pub struct WorkloadFile {
    /// Server path ("/fNNNNN").
    pub name: String,
    /// Size in bytes.
    pub bytes: u64,
    /// Probability that a request targets this file.
    pub weight: f64,
}

/// A synthesized trace workload: files with sizes and popularity.
#[derive(Debug, Clone)]
pub struct Workload {
    name: String,
    files: Vec<WorkloadFile>,
    popularity: Zipf,
    requests_in_log: u64,
}

impl Workload {
    /// Synthesizes a workload matching `spec` (deterministic in `seed`).
    pub fn synthesize(spec: &TraceSpec, seed: u64) -> Workload {
        let mut rng = SimRng::new(seed ^ 0x10_117E);
        let n = spec.files;
        // --- file sizes: log-normal scaled to the exact total ---
        let mean = spec.mean_file_bytes() as f64;
        let median = mean / (spec.size_sigma * spec.size_sigma / 2.0).exp();
        let dist = LogNormal::new(median.ln(), spec.size_sigma);
        let mut sizes: Vec<u64> = (0..n)
            .map(|_| (dist.sample(&mut rng).max(128.0)) as u64)
            .collect();
        let raw_total: u64 = sizes.iter().sum();
        let scale = spec.total_bytes as f64 / raw_total as f64;
        for s in &mut sizes {
            *s = ((*s as f64 * scale) as u64).max(128);
        }
        sizes.sort_unstable();
        // --- popularity ---
        let popularity = Zipf::new(n, spec.zipf_s);
        // --- size assignment: calibrate anti-correlation so the mean
        // request size hits the published value ---
        let assignment = calibrate_assignment(&sizes, &popularity, spec, &mut rng);
        let files: Vec<WorkloadFile> = assignment
            .iter()
            .enumerate()
            .map(|(rank, &size_idx)| WorkloadFile {
                name: format!("/f{rank:05}"),
                bytes: sizes[size_idx],
                weight: popularity.pmf(rank + 1),
            })
            .collect();
        Workload {
            name: spec.name.to_string(),
            files,
            popularity,
            requests_in_log: spec.requests,
        }
    }

    /// The files, most popular first.
    pub fn files(&self) -> &[WorkloadFile] {
        &self.files
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether the workload has no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Total bytes across files.
    pub fn total_bytes(&self) -> u64 {
        self.files.iter().map(|f| f.bytes).sum()
    }

    /// Samples one request: returns the file index (popularity rank).
    pub fn sample_request(&self, rng: &mut SimRng) -> usize {
        self.popularity.sample(rng) - 1
    }

    /// Expected request size `Σ pᵢ·sizeᵢ`.
    pub fn mean_request_bytes(&self) -> f64 {
        self.files.iter().map(|f| f.weight * f.bytes as f64).sum()
    }

    /// Fraction of requests going to the `k` most popular files.
    pub fn request_share_of_top(&self, k: usize) -> f64 {
        self.files.iter().take(k).map(|f| f.weight).sum()
    }

    /// Fraction of total bytes held by the `k` most popular files.
    pub fn byte_share_of_top(&self, k: usize) -> f64 {
        let top: u64 = self.files.iter().take(k).map(|f| f.bytes).sum();
        top as f64 / self.total_bytes() as f64
    }

    /// A stratified sub-workload of roughly `target_bytes`: every k-th
    /// file by popularity rank, preserving both the size distribution
    /// and the popularity profile of the full trace.
    ///
    /// The §5.5 sweep varies the data-set size while the workload's
    /// *character* (Fig. 9's curves, 17KB mean request) stays fixed;
    /// literal log prefixes skew toward small popular files, so the
    /// sweep uses this sampler instead (documented in DESIGN.md).
    pub fn stratified_subset(&self, target_bytes: u64) -> Workload {
        let total = self.total_bytes();
        if target_bytes >= total {
            return self.clone();
        }
        // Every (1/density)-th file by rank; bisect the density until the
        // byte total lands on target. Rank-striding keeps the subset's
        // size distribution and popularity profile equal to the trace's.
        let select = |density: f64| -> (Vec<usize>, u64) {
            let mut picked = Vec::new();
            let mut bytes = 0u64;
            // Start full so the head ranks (which carry most request
            // mass) are always present; the tail is strided.
            let mut acc = 1.0f64;
            for (i, f) in self.files.iter().enumerate() {
                if acc >= 1.0 {
                    acc -= 1.0;
                    picked.push(i);
                    bytes += f.bytes;
                }
                acc += density;
            }
            (picked, bytes)
        };
        let (mut lo, mut hi) = (0.0f64, 1.0f64);
        let mut best = select(target_bytes as f64 / total as f64);
        for _ in 0..24 {
            let mid = (lo + hi) / 2.0;
            let cand = select(mid);
            if (cand.1 as i64 - target_bytes as i64).abs()
                < (best.1 as i64 - target_bytes as i64).abs()
            {
                best = cand.clone();
            }
            if cand.1 < target_bytes {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let picked = best.0;
        let total_weight: f64 = picked.iter().map(|&i| self.files[i].weight).sum();
        let files: Vec<WorkloadFile> = picked
            .iter()
            .map(|&i| {
                let f = &self.files[i];
                WorkloadFile {
                    name: f.name.clone(),
                    bytes: f.bytes,
                    weight: f.weight / total_weight,
                }
            })
            .collect();
        let weights: Vec<f64> = files.iter().map(|f| f.weight).collect();
        Workload {
            name: format!("{}-{}MB", self.name, target_bytes >> 20),
            popularity: zipf_from_weights(&weights),
            files,
            requests_in_log: self.requests_in_log,
        }
    }

    /// A prefix sub-workload covering roughly `target_bytes` of data,
    /// built from first-appearance order of a simulated log (the §5.5
    /// "prefixes of the log" methodology). Weights are renormalized.
    pub fn log_prefix(&self, target_bytes: u64, seed: u64) -> Workload {
        let mut rng = SimRng::new(seed ^ 0xF1F0);
        let mut seen = vec![false; self.files.len()];
        let mut order = Vec::new();
        let mut bytes = 0u64;
        // Walk a sampled log, collecting first appearances, until the
        // appeared files cover the target data-set size. The tail beyond
        // the target is dropped.
        let mut guard = 0u64;
        while bytes < target_bytes && guard < 100_000_000 {
            guard += 1;
            let idx = self.sample_request(&mut rng);
            if !seen[idx] {
                seen[idx] = true;
                bytes += self.files[idx].bytes;
                order.push(idx);
            }
        }
        let total_weight: f64 = order.iter().map(|&i| self.files[i].weight).sum();
        let mut files: Vec<WorkloadFile> = order
            .iter()
            .map(|&i| {
                let f = &self.files[i];
                WorkloadFile {
                    name: f.name.clone(),
                    bytes: f.bytes,
                    weight: f.weight / total_weight,
                }
            })
            .collect();
        // Keep popularity order so rank-based helpers stay meaningful.
        files.sort_by(|a, b| b.weight.partial_cmp(&a.weight).expect("no NaN"));
        let weights: Vec<f64> = files.iter().map(|f| f.weight).collect();
        Workload {
            name: format!("{}-{}MB", self.name, target_bytes >> 20),
            popularity: zipf_from_weights(&weights),
            files,
            requests_in_log: self.requests_in_log,
        }
    }
}

/// Builds an exact sampler over arbitrary normalized weights by abusing
/// `Zipf`'s cumulative machinery (it is just an inverse-CDF table).
fn zipf_from_weights(weights: &[f64]) -> Zipf {
    // Zipf::new only supports the k^-s family, so build a tiny shim: a
    // Zipf with s=0 has uniform pmf; we need the real weights, so we
    // construct via the public API obtainable path: sample by rejection
    // would be wasteful. Instead approximate: the files are already in
    // descending-weight order and renormalized; fit is unnecessary
    // because `sample_request` only needs *some* consistent sampler.
    // We therefore build an explicit CDF Zipf replacement below.
    Zipf::from_cdf(weights)
}

/// Calibrates the size↔rank assignment so the workload's expected
/// request size matches the spec, by bisection on the fraction of
/// popular ranks whose sizes are anti-sorted (popular → small).
fn calibrate_assignment(
    sizes_sorted: &[u64],
    popularity: &Zipf,
    spec: &TraceSpec,
    rng: &mut SimRng,
) -> Vec<usize> {
    let n = sizes_sorted.len();
    // Base: a deterministic random permutation (no correlation).
    let mut base: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut base);
    let target = spec.mean_request_bytes as f64;

    let build = |fraction: f64| -> Vec<usize> {
        let k = ((n as f64) * fraction).round() as usize;
        let mut assign = base.clone();
        // The k most popular ranks swap their sizes for the k smallest
        // size indices, anti-sorted (most popular gets the smallest).
        // The displaced sizes go to the ranks that held the small ones.
        let mut holders: Vec<(usize, usize)> = assign
            .iter()
            .enumerate()
            .filter(|&(_, &sidx)| sidx < k)
            .map(|(rank, &sidx)| (rank, sidx))
            .collect();
        // Ranks 0..k take size indices 0..k in order; previous holders
        // receive the sizes ranks 0..k held, preserving the multiset.
        let displaced: Vec<usize> = (0..k.min(n)).map(|r| assign[r]).collect();
        for (r, slot) in assign.iter_mut().enumerate().take(k.min(n)) {
            *slot = r;
        }
        let mut spare = displaced
            .into_iter()
            .filter(|&s| s >= k)
            .collect::<Vec<_>>();
        for (rank, _) in holders.drain(..) {
            if rank >= k {
                if let Some(s) = spare.pop() {
                    assign[rank] = s;
                }
            }
        }
        assign
    };

    let mean_of = |assign: &[usize]| -> f64 {
        assign
            .iter()
            .enumerate()
            .map(|(rank, &sidx)| popularity.pmf(rank + 1) * sizes_sorted[sidx] as f64)
            .sum()
    };

    // Bisection: fraction 0 gives the uncorrelated mean (≈ mean file
    // size), fraction 1 gives the fully anti-sorted minimum.
    let (mut lo, mut hi) = (0.0f64, 1.0f64);
    let mut best = build(1.0);
    let mut best_err = (mean_of(&best) - target).abs();
    for _ in 0..24 {
        let mid = (lo + hi) / 2.0;
        let cand = build(mid);
        let m = mean_of(&cand);
        let err = (m - target).abs();
        if err < best_err {
            best_err = err;
            best = cand;
        }
        if m > target {
            // Too large: need more anti-correlation.
            lo = mid;
        } else {
            hi = mid;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subtrace_matches_published_stats() {
        let spec = TraceSpec::subtrace_150mb();
        let w = Workload::synthesize(&spec, 42);
        assert_eq!(w.len(), spec.files);
        // Total within rounding of 150MB.
        let total = w.total_bytes() as f64;
        assert!(
            (total / spec.total_bytes as f64 - 1.0).abs() < 0.02,
            "{total}"
        );
        // Mean request size within 10% of 17KB.
        let mean_req = w.mean_request_bytes();
        assert!(
            (mean_req / spec.mean_request_bytes as f64 - 1.0).abs() < 0.10,
            "mean request {mean_req}"
        );
        // Fig. 9 anchors: top 1000 files ≈ 74% of requests, ≈20% of bytes.
        let req_share = w.request_share_of_top(1000);
        assert!((req_share - 0.74).abs() < 0.08, "request share {req_share}");
        let byte_share = w.byte_share_of_top(1000);
        assert!(byte_share < 0.45, "byte share {byte_share}");
    }

    #[test]
    fn ece_concentration_anchor() {
        let spec = TraceSpec::ece();
        let w = Workload::synthesize(&spec, 7);
        // Fig. 7: top 5000 files ≈ 95% of requests.
        let share = w.request_share_of_top(5000);
        assert!((share - 0.95).abs() < 0.04, "share {share}");
    }

    #[test]
    fn sampling_follows_weights() {
        let spec = TraceSpec::subtrace_150mb();
        let w = Workload::synthesize(&spec, 11);
        let mut rng = SimRng::new(3);
        let n = 50_000;
        let hits_top = (0..n).filter(|_| w.sample_request(&mut rng) < 1000).count();
        let expect = w.request_share_of_top(1000);
        let got = hits_top as f64 / n as f64;
        assert!((got - expect).abs() < 0.02, "got {got} expect {expect}");
    }

    #[test]
    fn determinism() {
        let spec = TraceSpec::subtrace_150mb();
        let a = Workload::synthesize(&spec, 1);
        let b = Workload::synthesize(&spec, 1);
        assert_eq!(a.files()[0].bytes, b.files()[0].bytes);
        assert_eq!(a.total_bytes(), b.total_bytes());
    }

    #[test]
    fn stratified_subset_preserves_character() {
        let spec = TraceSpec::subtrace_150mb();
        let w = Workload::synthesize(&spec, 42);
        let sub = w.stratified_subset(30 << 20);
        let total = sub.total_bytes();
        let target = 30u64 << 20;
        assert!(
            total.abs_diff(target) < target / 5,
            "total {total} vs target {target}"
        );
        // Mean request size stays near the full trace's.
        let full_mean = w.mean_request_bytes();
        let sub_mean = sub.mean_request_bytes();
        assert!(
            (sub_mean / full_mean - 1.0).abs() < 0.35,
            "sub mean {sub_mean} vs full {full_mean}"
        );
        let sum: f64 = sub.files().iter().map(|f| f.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Requesting more than the trace returns the trace.
        assert_eq!(w.stratified_subset(1 << 40).len(), w.len());
    }

    #[test]
    fn log_prefix_scales_dataset() {
        let spec = TraceSpec::subtrace_150mb();
        let w = Workload::synthesize(&spec, 42);
        let half = w.log_prefix(75 << 20, 9);
        let total = half.total_bytes();
        assert!(total >= 75 << 20, "prefix covers the target");
        assert!(
            total < 100 << 20,
            "prefix does not overshoot wildly: {total}"
        );
        // Weights renormalized.
        let sum: f64 = half.files().iter().map(|f| f.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Popular files appear early in a log, so the prefix skews
        // popular: its mean request size stays in the same ballpark.
        let m = half.mean_request_bytes();
        assert!(m > 2_000.0 && m < 80_000.0, "mean {m}");
    }
}
