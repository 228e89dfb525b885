//! The router ↔ shard protocol plane (federated sharding).
//!
//! A federated deployment runs N scheduling shards — each a manager in
//! its own serve process, owning its own workers — behind one thin
//! routing front-end. The front-end speaks this plane: shards announce themselves with [`ShardToRouter::ShardJoin`],
//! the router forwards each submission with [`RouterToShard::Route`] to
//! the shard its function-context digest hashes to, results flow back as
//! [`ShardToRouter::UnitDone`], and load reports ride
//! [`ShardToRouter::ShardStats`]. Like the worker plane, the messages are
//! substrate-neutral serde types; the live path frames them with
//! [`crate::framing`], and the router serves them from the same epoll
//! reactor that serves the worker plane (`vine_runtime::federation`).

use serde::{Deserialize, Serialize};
use vine_core::ids::ShardId;
use vine_core::task::{Outcome, WorkUnit};

/// Messages the routing front-end sends a shard.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum RouterToShard {
    /// Forward a submission to the shard its function-context digest
    /// hashed to on the shard ring. Boxed so the two small control
    /// variants don't carry the full unit's footprint.
    Route { unit: Box<WorkUnit> },
    /// Ask for a load report; answered with [`ShardToRouter::ShardStats`].
    StatsRequest,
    /// Drain in-flight work and exit.
    Shutdown,
}

/// Messages a shard sends the routing front-end.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ShardToRouter {
    /// Handshake: announce this shard's identity and worker count. The id
    /// is the shard's ring position key, so it must be unique; the router
    /// rejects duplicate announcements.
    ShardJoin { shard: ShardId, workers: u32 },
    /// Graceful leave; the router re-routes whatever was in flight here.
    ShardLeave { shard: ShardId },
    /// One routed unit finished (success or failure).
    UnitDone { outcome: Outcome },
    /// A load report (answer to [`RouterToShard::StatsRequest`]).
    ShardStats { stats: ShardStats },
}

/// Per-shard load and wire aggregates — the shard runtime's scheduling
/// counters plus its worker-transport totals, rendered in the `repro
/// route` stderr table.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardStats {
    pub shard: ShardId,
    pub workers: u32,
    /// Units accepted from the router.
    pub routed: u64,
    /// Units completed.
    pub finished: u64,
    /// Units re-admitted after a worker loss inside the shard.
    pub requeued: u64,
    pub queued: u64,
    pub running: u64,
    /// Aggregate frames received from this shard's workers.
    pub frames_in: u64,
    /// Aggregate frames sent to this shard's workers.
    pub frames_out: u64,
    /// Aggregate bytes received from this shard's workers.
    pub bytes_in: u64,
    /// Aggregate bytes sent to this shard's workers.
    pub bytes_out: u64,
}

/// Render a fleet of shard reports as the fixed-width stderr table the
/// `repro route` front-end prints after a run.
pub fn render_shard_stats(stats: &[ShardStats]) -> String {
    let mut out = String::new();
    out.push_str(
        "# shard  workers   routed finished requeued  frames_in frames_out   bytes_in  bytes_out\n",
    );
    for s in stats {
        out.push_str(&format!(
            "# {:<6} {:>7} {:>8} {:>8} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            format!("{}", s.shard),
            s.workers,
            s.routed,
            s.finished,
            s.requeued,
            s.frames_in,
            s.frames_out,
            s.bytes_in,
            s.bytes_out,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framing::{decode_frame, encode_frame};
    use vine_core::ids::InvocationId;
    use vine_core::task::{FunctionCall, UnitId};

    #[test]
    fn routing_messages_roundtrip_the_codec() {
        let msgs = vec![
            RouterToShard::Route {
                unit: Box::new(WorkUnit::Call(FunctionCall::new(
                    InvocationId(7),
                    "lnni",
                    "infer",
                    vec![1, 2, 3],
                ))),
            },
            RouterToShard::StatsRequest,
            RouterToShard::Shutdown,
        ];
        for m in msgs {
            let bytes = encode_frame(&m).unwrap();
            let back: RouterToShard = decode_frame(&bytes).unwrap();
            assert_eq!(back, m);
        }
        let msgs = vec![
            ShardToRouter::ShardJoin {
                shard: ShardId(2),
                workers: 4,
            },
            ShardToRouter::ShardLeave { shard: ShardId(2) },
            ShardToRouter::UnitDone {
                outcome: Outcome::ok(UnitId::Call(InvocationId(7)), vec![9]),
            },
            ShardToRouter::ShardStats {
                stats: ShardStats {
                    shard: ShardId(1),
                    workers: 2,
                    routed: 100,
                    finished: 99,
                    ..Default::default()
                },
            },
        ];
        for m in msgs {
            let bytes = encode_frame(&m).unwrap();
            let back: ShardToRouter = decode_frame(&bytes).unwrap();
            assert_eq!(back, m);
        }
    }

    #[test]
    fn stats_table_lists_every_shard() {
        let t = render_shard_stats(&[
            ShardStats {
                shard: ShardId(0),
                workers: 2,
                routed: 60,
                finished: 60,
                ..Default::default()
            },
            ShardStats {
                shard: ShardId(1),
                workers: 2,
                routed: 40,
                finished: 40,
                ..Default::default()
            },
        ]);
        assert!(t.contains("s0"));
        assert!(t.contains("s1"));
        assert_eq!(t.lines().count(), 3);
    }
}
