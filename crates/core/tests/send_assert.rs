//! Compile-time `Send` assertions for the sharded serving layer.
//!
//! Sharded fleets are driven on one host thread today, but shards share
//! nothing and talk only by message, so a driver could move each
//! shard's `Kernel` onto its own thread. That requires the whole
//! kernel-state object graph — buffer pools, slices, fd tables, caches
//! — to be `Send`. These assertions fail at `cargo test` compile time
//! if anyone reintroduces an `Rc`/`RefCell`/`Cell` anywhere inside that
//! graph, keeping a parallel driver possible.

use iolite_core::{Journal, Kernel, KernelState, Metrics};

fn assert_send<T: Send>() {}

#[test]
fn kernel_and_state_are_send() {
    assert_send::<Kernel>();
    assert_send::<KernelState>();
    assert_send::<Metrics>();
    assert_send::<Journal>();
}

#[test]
fn buffer_layer_is_send() {
    assert_send::<iolite_buf::BufferPool>();
    assert_send::<iolite_buf::Slice>();
    assert_send::<iolite_buf::Aggregate>();
    assert_send::<iolite_buf::PoolForker>();
}
