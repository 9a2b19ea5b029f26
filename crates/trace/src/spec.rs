//! Published trace statistics (Figures 7 and 9).

/// The summary statistics of one access-log trace, as published.
#[derive(Debug, Clone)]
pub struct TraceSpec {
    /// Trace name as used in the paper.
    pub name: &'static str,
    /// Number of distinct files.
    pub files: usize,
    /// Total static data size in bytes.
    pub total_bytes: u64,
    /// Number of requests in the log.
    pub requests: u64,
    /// Mean request size in bytes.
    pub mean_request_bytes: u64,
    /// Zipf popularity exponent (chosen to match the published
    /// request-concentration anchors; see crate docs).
    pub zipf_s: f64,
    /// Log-normal shape of the file-size distribution.
    pub size_sigma: f64,
}

impl TraceSpec {
    /// The ECE department trace: "783529 requests, 10195 files, 523 MB
    /// total", mean request 23KB; "the 5000 most heavily requested files
    /// ... constituted 39% of the total static data size and 95% of all
    /// requests" (Fig. 7).
    pub fn ece() -> Self {
        TraceSpec {
            name: "ECE",
            files: 10_195,
            total_bytes: 523 << 20,
            requests: 783_529,
            mean_request_bytes: 23 << 10,
            zipf_s: 1.10,
            size_sigma: 1.4,
        }
    }

    /// The CS department trace: "3746842 requests, 26948 files, 933 MB
    /// total", mean request 20KB (Fig. 7).
    pub fn cs() -> Self {
        TraceSpec {
            name: "CS",
            files: 26_948,
            total_bytes: 933 << 20,
            requests: 3_746_842,
            mean_request_bytes: 20 << 10,
            zipf_s: 1.05,
            size_sigma: 1.4,
        }
    }

    /// The MERGED trace (all Rice campus servers): "2290909 requests,
    /// 37703 files, 1418 MB total", mean request 17KB; the paper notes
    /// its "large working set and poor locality" (Fig. 7, §5.4).
    pub fn merged() -> Self {
        TraceSpec {
            name: "MERGED",
            files: 37_703,
            total_bytes: 1_418 << 20,
            requests: 2_290_909,
            mean_request_bytes: 17 << 10,
            zipf_s: 0.80,
            size_sigma: 1.4,
        }
    }

    /// The 150MB MERGED subtrace of §5.5: "28403 requests, 5459 files,
    /// 150 MB total"; "the 1000 most frequently requested files were
    /// responsible for 20% of the total static data size but 74% of all
    /// requests" (Fig. 9).
    pub fn subtrace_150mb() -> Self {
        TraceSpec {
            name: "MERGED-150MB",
            files: 5_459,
            total_bytes: 150 << 20,
            requests: 28_403,
            mean_request_bytes: 17 << 10,
            zipf_s: 0.90,
            size_sigma: 1.4,
        }
    }

    /// Mean file size implied by the spec.
    pub(crate) fn mean_file_bytes(&self) -> u64 {
        self.total_bytes / self.files as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_figures() {
        let ece = TraceSpec::ece();
        assert_eq!(ece.files, 10_195);
        assert_eq!(ece.requests, 783_529);
        assert_eq!(ece.total_bytes >> 20, 523);
        let cs = TraceSpec::cs();
        assert_eq!(cs.files, 26_948);
        let merged = TraceSpec::merged();
        assert_eq!(merged.files, 37_703);
        let sub = TraceSpec::subtrace_150mb();
        assert_eq!(sub.files, 5_459);
        assert_eq!(sub.requests, 28_403);
    }

    #[test]
    fn request_size_below_file_size() {
        // All traces: popular files are smaller than the average file.
        for spec in [
            TraceSpec::ece(),
            TraceSpec::cs(),
            TraceSpec::merged(),
            TraceSpec::subtrace_150mb(),
        ] {
            assert!(
                spec.mean_request_bytes < spec.mean_file_bytes(),
                "{}",
                spec.name
            );
        }
    }
}
