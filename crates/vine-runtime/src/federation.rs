//! Federation, live: N scheduling shards behind one routing front-end.
//!
//! Each shard is an ordinary [`Runtime`] — one `Manager` over its own
//! workers — driven by [`serve_shard`], which dials the router, announces
//! itself with [`ShardToRouter::ShardJoin`], runs every
//! [`RouterToShard::Route`] submission it receives and reports each
//! outcome back as [`ShardToRouter::UnitDone`].
//!
//! The router ([`route`]) holds a [`ShardRouter`] and serves its shards
//! from a [`Hub`] over the [`RoutingPlane`]: the same epoll reactor that
//! serves a manager's workers, with the same handshake deadline,
//! per-peer backpressure and traffic metering. A shard whose connection
//! dies — graceful leave, `kill -9`, a send that cannot queue — has its
//! whole in-flight ledger re-routed onto the survivors, and the ledger
//! drops any completion a shard reports for a unit it does not hold, so
//! every unit completes exactly once.

use crate::reactor::{Hub, Plane};
use crate::runtime::Runtime;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read};
use std::net::TcpStream;
use std::time::Duration;
use vine_core::context::LibrarySpec;
use vine_core::ids::ShardId;
use vine_core::task::{Outcome, WorkUnit};
use vine_core::{Result, VineError};
use vine_manager::ShardRouter;
use vine_proto::{
    render_shard_stats, write_frame, FrameDecoder, RouterToShard, ShardStats, ShardToRouter,
};

/// How long the router waits for any shard to make progress (join, or
/// report an outcome) before giving up on the run.
const NO_PROGRESS: Duration = Duration::from_secs(60);

/// How long the router waits for each end-of-run load report.
const STATS_WAIT: Duration = Duration::from_secs(5);

/// The router ↔ shard plane: `ShardJoin` admits a shard under the id it
/// announces (a second connection announcing a taken id is rejected);
/// there is no welcome frame; drain broadcasts `Shutdown`.
pub enum RoutingPlane {}

/// What the router's hub reports.
#[derive(Debug)]
pub enum RouterEvent {
    Joined { shard: ShardId, workers: u32 },
    Message { shard: ShardId, msg: ShardToRouter },
    Left { shard: ShardId },
}

impl Plane for RoutingPlane {
    type Id = ShardId;
    type Up = ShardToRouter;
    type Down = RouterToShard;
    type Event = RouterEvent;

    fn admit(first: ShardToRouter, _seq: u32) -> Option<(ShardId, RouterEvent)> {
        let ShardToRouter::ShardJoin { shard, workers } = first else {
            return None;
        };
        Some((shard, RouterEvent::Joined { shard, workers }))
    }

    fn welcome(_shard: ShardId) -> Option<RouterToShard> {
        None
    }

    fn farewell() -> RouterToShard {
        RouterToShard::Shutdown
    }

    fn message(shard: ShardId, msg: ShardToRouter) -> RouterEvent {
        RouterEvent::Message { shard, msg }
    }

    fn left(shard: ShardId) -> RouterEvent {
        RouterEvent::Left { shard }
    }
}

/// The router's listening side: shards dial it.
pub type RouterHub = Hub<RoutingPlane>;

/// Run `units` on a federation: wait for `shards` shards to join `hub`,
/// route each unit by its library's function-context digest, and collect
/// one outcome per unit (in completion order). Re-routes the in-flight
/// ledger of any shard that leaves; fails if every shard leaves, or if no
/// shard makes progress for a minute. Joins beyond the first `shards` are
/// disconnected. Ends by printing the shards' load reports on stderr and
/// broadcasting `Shutdown`.
pub fn route(
    mut hub: RouterHub,
    shards: usize,
    libraries: &[LibrarySpec],
    units: Vec<WorkUnit>,
) -> Result<Vec<Outcome>> {
    let mut sr = ShardRouter::new();
    let mut joined = 0;
    while joined < shards {
        let ev = hub.next_event(NO_PROGRESS).map_err(|_| {
            VineError::Timeout(format!("router: {joined} of {shards} shard(s) joined"))
        })?;
        match ev {
            RouterEvent::Joined { shard, workers } => {
                eprintln!("# shard {shard} connected ({workers} worker(s))");
                sr.shard_joined(shard);
                joined += 1;
            }
            RouterEvent::Left { shard } => {
                sr.shard_left(shard);
            }
            RouterEvent::Message { .. } => {} // nothing routed yet
        }
    }

    for spec in libraries {
        sr.register_library(spec);
        // stderr breadcrumb: which shard owns each library's context — the
        // fault smoke reads this to pick its kill victim
        if let Some(owner) = sr.shard_for_library(&spec.name) {
            eprintln!("# route: {} -> {owner}", spec.name);
        }
    }

    let n = units.len();
    eprintln!(
        "# routing {n} submission(s) over {} librar(ies)",
        libraries.len()
    );
    dispatch_units(&mut sr, &hub, units.into())?;

    let mut outcomes: Vec<Outcome> = Vec::with_capacity(n);
    while outcomes.len() < n {
        let ev = hub.next_event(NO_PROGRESS).map_err(|_| {
            VineError::Timeout(format!(
                "router: no progress with {} of {n} outcome(s) collected",
                outcomes.len()
            ))
        })?;
        let gone = match ev {
            RouterEvent::Message {
                shard,
                msg: ShardToRouter::UnitDone { outcome },
            } => {
                // the ledger drops a unit the reporting shard does not
                // hold: one already re-routed away from it, or never its
                if sr.unit_done(shard, outcome.unit).is_some() {
                    outcomes.push(outcome);
                }
                continue;
            }
            RouterEvent::Message {
                shard,
                msg: ShardToRouter::ShardLeave { .. },
            } => {
                hub.disconnect_peer(shard);
                shard
            }
            RouterEvent::Left { shard } => shard,
            RouterEvent::Joined { shard, .. } => {
                // the fleet is complete: a late join gets no work
                hub.disconnect_peer(shard);
                continue;
            }
            RouterEvent::Message { .. } => continue, // late report, repeated join
        };
        if !sr.shards().any(|s| s == gone) {
            continue; // already re-routed, or never part of the fleet
        }
        let orphans = sr.shard_left(gone);
        eprintln!("# shard {gone} left, re-routing {} unit(s)", orphans.len());
        if sr.shard_count() == 0 {
            return Err(VineError::Internal(
                "every shard left before the run completed".to_string(),
            ));
        }
        dispatch_units(&mut sr, &hub, orphans.into())?;
    }

    // per-shard aggregates from the survivors, then shut the fleet down
    let survivors: Vec<ShardId> = sr.shards().collect();
    for &s in &survivors {
        let _ = hub.send_to(s, &RouterToShard::StatsRequest);
    }
    let mut reports: Vec<ShardStats> = Vec::new();
    while reports.len() < survivors.len() {
        match hub.next_event(STATS_WAIT) {
            Ok(RouterEvent::Message {
                msg: ShardToRouter::ShardStats { stats },
                ..
            }) => reports.push(stats),
            Ok(_) => {}
            Err(_) => break,
        }
    }
    reports.sort_by_key(|s| s.shard);
    if !reports.is_empty() {
        eprint!("{}", render_shard_stats(&reports));
    }
    eprintln!(
        "# router: {} routed ({} re-routed), {} of {shards} shard(s) survived",
        sr.routed(),
        sr.rerouted(),
        survivors.len()
    );
    hub.close();
    Ok(outcomes)
}

/// Route `queue` onto live shards. A shard a unit cannot be queued to is
/// dropped, and its whole in-flight ledger — the unit that just failed
/// included — rejoins the queue.
fn dispatch_units(
    sr: &mut ShardRouter,
    hub: &RouterHub,
    mut queue: VecDeque<WorkUnit>,
) -> Result<()> {
    while let Some(unit) = queue.pop_front() {
        let Some(sid) = sr.route(unit.clone()) else {
            return Err(VineError::Internal(
                "no shards left to route to".to_string(),
            ));
        };
        let route = RouterToShard::Route {
            unit: Box::new(unit),
        };
        if hub.send_to(sid, &route).is_err() {
            hub.disconnect_peer(sid);
            let orphans = sr.shard_left(sid);
            eprintln!(
                "# shard {sid} unreachable, re-routing {} unit(s)",
                orphans.len()
            );
            queue.extend(orphans);
        }
    }
    Ok(())
}

/// One scheduling shard of a federation: dial the router at
/// `router_addr`, announce `rt` as shard `shard`, then serve routed
/// submissions until `Shutdown` or the router connection drops. Consumes
/// and shuts down the runtime.
pub fn serve_shard(mut rt: Runtime, router_addr: &str, shard: ShardId) -> Result<()> {
    let workers = rt.worker_capacities().len() as u32;
    let mut link = TcpStream::connect(router_addr)
        .map_err(|e| VineError::Protocol(format!("dialing router {router_addr}: {e}")))?;
    link.set_nodelay(true).ok();
    write_frame(&mut link, &ShardToRouter::ShardJoin { shard, workers })
        .map_err(|e| VineError::Protocol(format!("shard join: {e}")))?;
    eprintln!("# shard {shard} joined router at {router_addr} ({workers} worker(s))");

    let mut downlink = FrameDecoder::new();
    let (mut routed, mut finished) = (0u64, 0u64);
    'serve: loop {
        // take what the router sent — blocking only when the shard has
        // nothing in flight (submissions batch up while units run)
        if !read_router(&mut link, &mut downlink, routed == finished) {
            break; // router gone
        }
        while let Some(cmd) = downlink
            .decode::<RouterToShard>()
            .map_err(|e| VineError::Protocol(format!("router frame: {e}")))?
        {
            match cmd {
                RouterToShard::Route { unit } => {
                    rt.submit(*unit);
                    routed += 1;
                }
                RouterToShard::StatsRequest => {
                    let stats = ShardToRouter::ShardStats {
                        stats: shard_stats(shard, &rt, workers, routed),
                    };
                    if write_frame(&mut link, &stats).is_err() {
                        break 'serve;
                    }
                }
                RouterToShard::Shutdown => break 'serve,
            }
        }
        if routed == finished {
            continue;
        }
        // commands drained and work outstanding: drive the next completion
        let Some(outcome) = rt.run_next()? else {
            return Err(VineError::Internal(format!(
                "shard {shard}: {} routed unit(s) vanished without an outcome",
                routed - finished
            )));
        };
        finished += 1;
        if write_frame(&mut link, &ShardToRouter::UnitDone { outcome }).is_err() {
            break; // router gone mid-run
        }
    }
    eprintln!("# shard {shard} done: {routed} routed, {finished} finished");
    rt.shutdown();
    Ok(())
}

/// Move the bytes the router has sent into `downlink`: wait for some if
/// `block`, else take only what has already arrived. False means the
/// router connection is gone. The link is left blocking, for writes.
fn read_router(link: &mut TcpStream, downlink: &mut FrameDecoder, block: bool) -> bool {
    let mut buf = [0u8; 16 * 1024];
    if link.set_nonblocking(!block).is_err() {
        return false;
    }
    let open = loop {
        match link.read(&mut buf) {
            Ok(0) => break false,
            Ok(n) => {
                downlink.extend(&buf[..n]);
                if block {
                    break true;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break true,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => break false,
        }
    };
    open && (block || link.set_nonblocking(false).is_ok())
}

/// A shard's load report: its scheduling counters plus its workers'
/// traffic totals.
fn shard_stats(shard: ShardId, rt: &Runtime, workers: u32, routed: u64) -> ShardStats {
    let ts = rt.transport_stats();
    let queued = rt.queued() as u64;
    let running = rt.running() as u64;
    ShardStats {
        shard,
        workers,
        routed,
        finished: routed - queued - running,
        requeued: rt.requeues(),
        queued,
        running,
        frames_in: ts.workers.iter().map(|w| w.frames_in).sum(),
        frames_out: ts.workers.iter().map(|w| w.frames_out).sum(),
        bytes_in: ts.workers.iter().map(|w| w.bytes_in).sum(),
        bytes_out: ts.workers.iter().map(|w| w.bytes_out).sum(),
    }
}
