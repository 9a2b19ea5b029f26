//! The gcc compiler chain (§5.8).
//!
//! "For gcc, rather than modify the entire program, we simply replaced
//! the C stdio library with a version that uses IO-Lite for
//! communication over pipes. The C preprocessor's output, the compiler's
//! input and output, and the assembler's input all use the C stdio
//! library and were converted merely by relinking."
//!
//! Stages: driver → cpp → cc1 → as, connected by pipes. The
//! transformations are real byte transforms (so data integrity is
//! testable end-to-end) with compute rates that dwarf I/O — the reason
//! the paper observes *no* benefit for gcc: "(1) the computation time
//! dominates the cost of communication and (2) only the interprocess
//! data copying has been eliminated."

use iolite_buf::Aggregate;
use iolite_core::{Charge, CostCategory, Kernel, Pid};
use iolite_fs::FileId;
use iolite_sim::SimTime;

use crate::costs::AppCosts;
use crate::{push_through_pipe, ApiMode};

/// The compiler pipeline.
pub struct CompilePipeline {
    /// The driver process.
    pub driver: Pid,
    cpp: Pid,
    cc1: Pid,
    asm: Pid,
}

/// cpp: "macro expansion" — every 64-byte block is emitted twice
/// (deterministic, reversible enough to test).
fn cpp_transform(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() * 2);
    for block in input.chunks(64) {
        out.extend_from_slice(block);
        out.extend_from_slice(block);
    }
    out
}

/// cc1: "compilation" — keep ~3 of every 4 bytes, XOR-mixed.
fn cc1_transform(input: &[u8]) -> Vec<u8> {
    input
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 4 != 3)
        .map(|(i, &b)| b ^ (i as u8))
        .collect()
}

/// as: "assembly" — pack pairs of bytes into one.
fn as_transform(input: &[u8]) -> Vec<u8> {
    input
        .chunks(2)
        .map(|c| c.iter().fold(0u8, |a, &b| a.wrapping_add(b)))
        .collect()
}

impl CompilePipeline {
    /// Spawns the four compiler processes.
    pub fn new(kernel: &mut Kernel) -> Self {
        CompilePipeline {
            driver: kernel.spawn("gcc-driver"),
            cpp: kernel.spawn("cpp"),
            cc1: kernel.spawn("cc1"),
            asm: kernel.spawn("as"),
        }
    }

    /// Compiles one source file through the full chain, returning the
    /// "object code" bytes and the simulated runtime.
    pub fn compile(
        &self,
        kernel: &mut Kernel,
        source: FileId,
        mode: ApiMode,
        costs: &AppCosts,
    ) -> (Vec<u8>, SimTime) {
        let start = kernel.now();
        // Driver opens and reads the source through its descriptor.
        let src_fd = kernel.open_file(self.driver, source);
        let len = kernel.fd_len(self.driver, src_fd).unwrap_or(0);
        let source_bytes = match mode {
            ApiMode::Posix => {
                let (bytes, out) = kernel
                    .posix_read_fd(self.driver, src_fd, len)
                    .expect("open source");
                kernel.advance(out.disk_time);
                bytes
            }
            ApiMode::IoLite => {
                let (agg, out) = kernel
                    .iol_read_fd(self.driver, src_fd, len)
                    .expect("open source");
                kernel.advance(out.disk_time);
                agg.to_vec()
            }
        };
        kernel.close_fd(self.driver, src_fd).expect("close source");
        // Stage 1: cpp.
        let expanded = self.stage(kernel, self.driver, self.cpp, &source_bytes, mode, |b| {
            cpp_transform(b)
        });
        kernel.charge(
            CostCategory::AppCompute,
            Charge::us(source_bytes.len() as f64 * costs.cpp_ns_per_byte / 1000.0),
        );
        // Stage 2: cc1.
        let assembly = self.stage(kernel, self.cpp, self.cc1, &expanded, mode, |b| {
            cc1_transform(b)
        });
        kernel.charge(
            CostCategory::AppCompute,
            Charge::us(expanded.len() as f64 * costs.cc1_ns_per_byte / 1000.0),
        );
        // Stage 3: as.
        let object = self.stage(kernel, self.cc1, self.asm, &assembly, mode, |b| {
            as_transform(b)
        });
        kernel.charge(
            CostCategory::AppCompute,
            Charge::us(assembly.len() as f64 * costs.as_ns_per_byte / 1000.0),
        );
        (object, kernel.now().saturating_sub(start))
    }

    /// Moves `input` from `producer` to `consumer` through a pipe and
    /// applies the consumer's transformation.
    fn stage(
        &self,
        kernel: &mut Kernel,
        producer: Pid,
        consumer: Pid,
        input: &[u8],
        mode: ApiMode,
        transform: impl Fn(&[u8]) -> Vec<u8>,
    ) -> Vec<u8> {
        let (wfd, rfd) = kernel.pipe_between(producer, consumer, mode.pipe_mode());
        let pool = kernel.process(producer).pool().clone();
        let agg = Aggregate::from_bytes(&pool, input);
        let mut received = Vec::with_capacity(input.len());
        push_through_pipe(
            kernel,
            (producer, wfd),
            (consumer, rfd),
            &agg,
            |_, chunk| {
                // Consumer copy into its own contiguous working memory: one
                // copy per byte, no intermediate materialization.
                for run in chunk.chunks() {
                    received.extend_from_slice(run);
                }
            },
        );
        kernel
            .close_fd(producer, wfd)
            .expect("close stage write end");
        kernel
            .close_fd(consumer, rfd)
            .expect("close stage read end");
        transform(&received)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iolite_core::CostModel;

    fn setup(len: u64) -> (Kernel, CompilePipeline, FileId) {
        let mut k = Kernel::new(CostModel::pentium_ii_333());
        let pipeline = CompilePipeline::new(&mut k);
        let f = k.create_synthetic_file("/src/main.c", len, 77);
        (k, pipeline, f)
    }

    #[test]
    fn transforms_are_deterministic_and_sized() {
        let input: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        let e = cpp_transform(&input);
        assert_eq!(e.len(), 2000);
        let a = cc1_transform(&e);
        assert_eq!(a.len(), 1500);
        let o = as_transform(&a);
        assert_eq!(o.len(), 750);
        assert_eq!(as_transform(&cc1_transform(&cpp_transform(&input))), o);
    }

    #[test]
    fn both_modes_produce_identical_object_code() {
        let (mut k, pipeline, f) = setup(50_000);
        let costs = AppCosts::calibrated();
        let (a, _) = pipeline.compile(&mut k, f, ApiMode::Posix, &costs);
        let (b, _) = pipeline.compile(&mut k, f, ApiMode::IoLite, &costs);
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }

    #[test]
    fn gcc_shows_no_meaningful_benefit() {
        // Fig. 13: compute dominates; IO-Lite changes gcc by ~0%.
        let (mut k, pipeline, f) = setup(167_000);
        let costs = AppCosts::calibrated();
        pipeline.compile(&mut k, f, ApiMode::Posix, &costs);
        k.reset_clock();
        let (_, posix_t) = pipeline.compile(&mut k, f, ApiMode::Posix, &costs);
        k.reset_clock();
        let (_, iolite_t) = pipeline.compile(&mut k, f, ApiMode::IoLite, &costs);
        let delta = (posix_t.as_secs() - iolite_t.as_secs()).abs() / posix_t.as_secs();
        assert!(delta < 0.05, "gcc delta must be ~0: {delta}");
    }
}
