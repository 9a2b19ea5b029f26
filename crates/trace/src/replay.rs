//! Request-stream generation for the two replay methodologies of §5.4
//! and §5.5.

use iolite_sim::SimRng;

use crate::workload::Workload;

/// A source of requests: each call yields the index of the file the next
/// client request targets, or `None` when the stream is exhausted.
pub trait RequestStream {
    /// The next request's file index.
    fn next_request(&mut self, rng: &mut SimRng) -> Option<usize>;
}

/// The §5.4 methodology: "the clients share the access log, and as each
/// request finishes, the client issues the next unsent request from the
/// log". We pre-materialize a popularity-faithful log of bounded length
/// and hand entries out in order.
#[derive(Debug)]
pub struct SharedLogReplay {
    log: Vec<u32>,
    cursor: usize,
}

impl SharedLogReplay {
    /// Builds a log of `len` entries sampled from the workload's
    /// popularity distribution (a statistically equivalent prefix of the
    /// full multi-million-request log).
    pub fn new(workload: &Workload, len: u64, seed: u64) -> Self {
        let mut rng = SimRng::new(seed ^ 0x0106);
        let log = (0..len)
            .map(|_| workload.sample_request(&mut rng) as u32)
            .collect();
        SharedLogReplay { log, cursor: 0 }
    }
}

impl RequestStream for SharedLogReplay {
    fn next_request(&mut self, _rng: &mut SimRng) -> Option<usize> {
        let entry = self.log.get(self.cursor)?;
        self.cursor += 1;
        Some(*entry as usize)
    }
}

/// The §5.5 methodology ("similar to the SpecWeb96 benchmark"): clients
/// "randomly pick entries from the subtraces", i.e. sample the log with
/// replacement — equivalently, sample files by popularity weight.
#[derive(Debug)]
pub struct RandomSampler {
    workload: Workload,
}

impl RandomSampler {
    /// An unbounded sampler over the workload.
    pub fn new(workload: Workload) -> Self {
        RandomSampler { workload }
    }
}

impl RequestStream for RandomSampler {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<usize> {
        Some(self.workload.sample_request(rng))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::TraceSpec;

    fn workload() -> Workload {
        Workload::synthesize(&TraceSpec::subtrace_150mb(), 5)
    }

    #[test]
    fn shared_log_is_deterministic_and_ordered() {
        let w = workload();
        let mut a = SharedLogReplay::new(&w, 100, 1);
        let mut b = SharedLogReplay::new(&w, 100, 1);
        let mut rng = SimRng::new(0);
        for _ in 0..100 {
            assert_eq!(a.next_request(&mut rng), b.next_request(&mut rng));
        }
        assert_eq!(a.next_request(&mut rng), None);
    }

    #[test]
    fn unbounded_sampler_keeps_going() {
        let w = workload();
        let files = w.len();
        let mut s = RandomSampler::new(w);
        let mut rng = SimRng::new(3);
        for _ in 0..1000 {
            let idx = s.next_request(&mut rng).unwrap();
            assert!(idx < files);
        }
    }
}
