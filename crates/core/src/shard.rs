//! Shard routing and the cross-shard message fabric for sharded
//! serving.
//!
//! The sharded serving layer is shared-nothing: each shard owns its own
//! [`crate::Kernel`] (state, unified cache, fd tables, sockets), and
//! the *only* inter-shard communication is typed messages over the
//! channels built here — never a lock on kernel state. Fleets are
//! driven on one host thread in a fixed round order, so a run is a
//! function of its inputs; the channels and `Kernel: Send` keep a
//! parallel driver possible. Connections are assigned to shards by
//! [`shard_of_conn`], which mixes the **full 64-bit** connection id
//! through splitmix64 before reducing it: the PR 5 lesson (`id & 0xFF`
//! aliased structured id spaces into 4-tuple collisions) applies
//! verbatim to shard routing, where truncation would reappear as shard
//! skew. A uniformity regression test below locks that in.
//!
//! # Buffers cross by reference
//!
//! IO-Lite passes immutable buffers between domains by reference, and
//! so does the fabric: a [`ShardMsg::RemoteData`] carries the home
//! shard's [`Aggregate`] itself, and the requester sends those buffers
//! on its socket. That is sound because buffer identity is
//! fleet-unique: attaching shard `s` places every pool of its kernel in
//! chunk-id namespace `s` (the journaled `Kernel::id_namespace`), so
//! ⟨pool, buffer, generation⟩ names one buffer's contents across the
//! whole fleet and the requester's checksum cache (§3.9) can key on a
//! home shard's buffers without aliasing its own.
//!
//! # One owner, two exchanges
//!
//! Only a file's home shard caches or writes it
//! ([`iolite_fs::CacheOwnership`]), so the protocol is two
//! request/reply pairs: [`ShardMsg::RemoteRead`] answered by
//! [`ShardMsg::RemoteData`], and [`ShardMsg::RemoteWrite`] answered by
//! [`ShardMsg::RemoteWriteAck`]. No shard holds a copy another shard's
//! write could make stale, so there is nothing to invalidate. A parked
//! connection waits on one reply, so an inbox never holds more messages
//! than there are connections in flight.
//!
//! # The fabric's queues
//!
//! Each shard's inbox is one unbounded FIFO, filled in send order, so
//! the messages from one shard to another arrive in the order they were
//! sent. A send is never refused. On one thread every inbox is empty at
//! each `run_round` boundary (`iolite_http::sharded`), and `run_round`
//! measures the deepest inbox it drained instead of bounding it here.

use std::sync::mpsc::{channel, Receiver, Sender, SyncSender};

use iolite_buf::{splitmix64, Aggregate};
use iolite_fs::FileId;

use crate::pure::ConnId;

/// The shard a connection is served by: the full 64-bit conn id through
/// a full-avalanche mixer, reduced onto `shards`.
///
/// # Panics
///
/// Panics if `shards` is zero.
pub fn shard_of_conn(conn: ConnId, shards: usize) -> usize {
    assert!(shards > 0, "at least one shard");
    (splitmix64(conn.0) % shards as u64) as usize
}

/// One typed unit of cross-shard work.
#[derive(Debug, Clone)]
pub enum ShardMsg {
    /// Shard `from` asks the receiving (home) shard for `file`'s whole
    /// contents. The eventual [`ShardMsg::RemoteData`] reply is matched
    /// to its waiters by `file` (fetches are single-flight per file).
    RemoteRead {
        /// Requesting shard (where the reply goes).
        from: usize,
        /// The file whose bytes are wanted.
        file: FileId,
    },
    /// The home shard's reply to a [`ShardMsg::RemoteRead`]: the file's
    /// bytes, by reference, with `home_hit` reporting whether the home
    /// shard's unified cache satisfied the read.
    RemoteData {
        /// The file the bytes belong to.
        file: FileId,
        /// The file's whole contents: the home shard's own buffers,
        /// passed by reference (their identity is fleet-unique).
        body: Aggregate,
        /// Whether the home shard served this from its cache.
        home_hit: bool,
    },
    /// Shard `from` routes a PUT body to the receiving (home) shard:
    /// only the home shard ever writes a file, so writes serialize
    /// there without any cross-shard lock. The body travels by
    /// reference; the home copies it into its own pool before
    /// installing it, since the writer's buffers carry the writer's
    /// ACL.
    RemoteWrite {
        /// Writing shard (where the ack goes).
        from: usize,
        /// Correlation token chosen by the requester.
        token: u64,
        /// The file being replaced.
        file: FileId,
        /// The new contents: the writer's buffers, by reference.
        body: Aggregate,
    },
    /// The home shard's acknowledgement of a [`ShardMsg::RemoteWrite`]:
    /// the dirty install completed; the writer may answer its client.
    RemoteWriteAck {
        /// The requester's correlation token, echoed back.
        token: u64,
    },
}

/// One shard's endpoint of the fabric: its own inbox plus senders to
/// every shard (self included, which keeps indexing uniform).
pub struct ShardMailbox {
    /// This shard's index.
    pub id: usize,
    /// Inbound cross-shard messages.
    pub inbox: Receiver<ShardMsg>,
    peers: Vec<Sender<ShardMsg>>,
}

impl ShardMailbox {
    /// Sends `msg` to shard `to`'s inbox.
    ///
    /// A send to a dropped inbox is ignored: only a fleet being torn
    /// down has one, and nothing will read the message.
    pub fn send(&self, to: usize, msg: ShardMsg) {
        let _ = self.peers[to].send(msg);
    }
}

/// The whole fabric: one mailbox per shard.
pub struct ShardFabric {
    /// One mailbox per shard, to be attached to the shard's server.
    pub mailboxes: Vec<ShardMailbox>,
    /// Always empty: each mailbox holds its own senders. Kept, with its
    /// type, only for `perf/src/engine.rs`, which moves it into its
    /// fleet.
    pub senders: Vec<SyncSender<ShardMsg>>,
}

impl ShardFabric {
    /// Builds a fabric of `shards` unbounded inboxes (see module docs).
    /// `_capacity` is ignored; the parameter is kept only for
    /// `perf/src/engine.rs`, which passes one.
    pub fn new(shards: usize, _capacity: usize) -> ShardFabric {
        let (senders, receivers): (Vec<_>, Vec<_>) = (0..shards).map(|_| channel()).unzip();
        let mailboxes = receivers
            .into_iter()
            .enumerate()
            .map(|(id, inbox)| ShardMailbox {
                id,
                inbox,
                peers: senders.clone(),
            })
            .collect();
        ShardFabric {
            mailboxes,
            senders: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The PR 5 regression, restated for routing: ids that collide in
    /// their low bits (stride 256, so `id & 0xFF` is constant) must
    /// still spread uniformly, as must plain sequential ids.
    #[test]
    fn structured_conn_ids_spread_uniformly_across_shards() {
        for shards in [2usize, 4, 8] {
            for stride in [1u64, 256, 4096] {
                let n = 1usize << 14;
                let mut counts = vec![0usize; shards];
                for k in 0..n {
                    let conn = ConnId(k as u64 * stride);
                    counts[shard_of_conn(conn, shards)] += 1;
                }
                let mean = (n / shards) as f64;
                for (s, &c) in counts.iter().enumerate() {
                    let dev = (c as f64 - mean).abs() / mean;
                    assert!(
                        dev < 0.10,
                        "shard {s} holds {c} of {n} conns (stride {stride}, \
                         {shards} shards): {:.1}% off uniform",
                        dev * 100.0
                    );
                }
            }
        }
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        for shards in 1..=9 {
            for id in [0u64, 1, u64::MAX, 0xdead_beef] {
                let s = shard_of_conn(ConnId(id), shards);
                assert!(s < shards);
                assert_eq!(s, shard_of_conn(ConnId(id), shards));
            }
        }
    }

    #[test]
    fn fabric_routes_and_replies() {
        let pool = iolite_buf::BufferPool::new(
            iolite_buf::PoolId(1),
            iolite_buf::Acl::kernel_only(),
            4096,
        );
        let body = Aggregate::from_bytes(&pool, &[1, 2, 3]);
        let fabric = ShardFabric::new(2, 16);
        let mut boxes = fabric.mailboxes;
        let b1 = boxes.pop().unwrap();
        let b0 = boxes.pop().unwrap();
        b0.send(
            1,
            ShardMsg::RemoteRead {
                from: 0,
                file: FileId(42),
            },
        );
        match b1.inbox.try_recv().unwrap() {
            ShardMsg::RemoteRead { from, file } => {
                assert_eq!((from, file), (0, FileId(42)));
                b1.send(
                    from,
                    ShardMsg::RemoteData {
                        file,
                        body: body.clone(),
                        home_hit: true,
                    },
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        match b0.inbox.try_recv().unwrap() {
            ShardMsg::RemoteData {
                file, body: got, ..
            } => {
                assert_eq!(file, FileId(42));
                // The same buffer arrives, not a copy of it.
                assert_eq!(got.slice_at(0).id(), body.slice_at(0).id());
                assert_eq!(got.to_vec(), vec![1, 2, 3]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
