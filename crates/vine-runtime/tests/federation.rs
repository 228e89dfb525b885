//! The live federation on loopback threads: a router plus two shards must
//! return exactly the outcomes one runtime returns, a shard dropped
//! mid-run must have its ledger re-routed, and hostile peers dialing the
//! router must neither panic it nor lose or duplicate a unit.

use std::io::{BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use std::time::Duration;
use vine_core::context::{ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::{InvocationId, ShardId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, UnitId, WorkUnit};
use vine_lang::pickle;
use vine_lang::Value;
use vine_manager::ShardRouter;
use vine_proto::{read_frame, write_frame, RouterToShard, ShardToRouter};
use vine_runtime::federation::{route, serve_shard, RouterHub};
use vine_runtime::{Runtime, RuntimeConfig, TcpConfig};

const LIB_SOURCE: &str = r#"
def context_setup(base) {
    global model
    model = base * 1000
}
def f(x) {
    return model + x
}
"#;

/// Distinct library names give the router distinct digests to spread.
const LIBS: u64 = 8;
const UNITS: u64 = 120;

fn specs() -> Vec<LibrarySpec> {
    (0..LIBS)
        .map(|l| {
            let mut spec = LibrarySpec::new(format!("lib-{l}"));
            spec.functions = vec!["f".into()];
            spec.resources = Some(Resources::new(2, 1024, 1024));
            spec.slots = Some(2);
            spec.exec_mode = ExecMode::Direct;
            spec.context = ContextSpec {
                setup: Some(SetupSpec {
                    function: "context_setup".into(),
                    args_blob: vec![],
                }),
                ..Default::default()
            };
            spec
        })
        .collect()
}

fn units() -> Vec<WorkUnit> {
    (0..UNITS)
        .map(|i| {
            let mut c = FunctionCall::new(
                InvocationId(i),
                format!("lib-{}", i % LIBS),
                "f",
                pickle::serialize_args(&[Value::Int(i as i64)]).unwrap(),
            );
            c.resources = Resources::new(1, 256, 256);
            WorkUnit::Call(c)
        })
        .collect()
}

/// A runtime of in-process workers with every library installed.
fn runtime(workers: usize) -> Runtime {
    let mut rt = Runtime::new(RuntimeConfig {
        workers,
        worker_resources: Resources::new(16, 16 * 1024, 16 * 1024),
        ..Default::default()
    });
    for spec in specs() {
        rt.install_library(spec, LIB_SOURCE, vec![], &[Value::Int(7)])
            .unwrap();
    }
    rt
}

fn sorted(mut outcomes: Vec<Outcome>) -> Vec<Outcome> {
    outcomes.sort_by_key(|o| o.unit);
    outcomes
}

/// The same units through one runtime: the federation's oracle.
fn single_runtime_outcomes() -> Vec<Outcome> {
    let mut rt = runtime(2);
    for u in units() {
        rt.submit(u);
    }
    let outcomes = rt.run_until_idle().unwrap();
    rt.shutdown();
    sorted(outcomes)
}

fn spawn_shard(router: SocketAddr, id: u32) -> JoinHandle<()> {
    std::thread::spawn(move || {
        serve_shard(runtime(1), &router.to_string(), ShardId(id)).unwrap();
    })
}

/// The router closes `sock` (read sees EOF or a reset) within the
/// timeout.
fn assert_closed(name: &str, mut sock: TcpStream) {
    sock.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut buf = [0u8; 64];
    match sock.read(&mut buf) {
        Ok(0) => {}
        Ok(n) => panic!("{name}: router sent {n} byte(s) instead of closing"),
        Err(e) => assert!(
            !matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            ),
            "{name}: still open after 10 s"
        ),
    }
}

fn join_as(router: SocketAddr, shard: u32) -> TcpStream {
    let mut s = TcpStream::connect(router).unwrap();
    write_frame(
        &mut s,
        &ShardToRouter::ShardJoin {
            shard: ShardId(shard),
            workers: 1,
        },
    )
    .unwrap();
    s
}

#[test]
fn two_shards_return_one_runtimes_outcomes() {
    let hub = RouterHub::listen("127.0.0.1:0").unwrap();
    let addr = hub.local_addr();
    let shards = [spawn_shard(addr, 0), spawn_shard(addr, 1)];
    let outcomes = route(hub, 2, &specs(), units()).unwrap();
    for s in shards {
        s.join().unwrap();
    }
    assert_eq!(sorted(outcomes), single_runtime_outcomes());
}

/// Shard s1 is a scripted peer: it joins, takes routed units, misbehaves,
/// opens hostile side connections, then dies mid-frame holding its whole
/// ledger. The real shard s0 must end up serving every unit, once.
#[test]
fn dropped_shard_and_hostile_peers_lose_no_unit() {
    // the scripted shard must own some work for its death to matter
    let mut probe = ShardRouter::new();
    probe.shard_joined(ShardId(0));
    probe.shard_joined(ShardId(1));
    for spec in specs() {
        probe.register_library(&spec);
    }
    assert!(
        (0..LIBS).any(|l| probe.shard_for_library(&format!("lib-{l}")) == Some(ShardId(1))),
        "no library routes to s1"
    );

    let hub = RouterHub::listen_with(
        "127.0.0.1:0",
        TcpConfig {
            handshake_timeout: Duration::from_millis(200),
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let addr = hub.local_addr();

    // peers that never complete a handshake: garbage bytes (a header far
    // beyond the frame cap), a frame that never finishes, and silence
    let mut garbage = TcpStream::connect(addr).unwrap();
    garbage.write_all(b"\xff\xff\xff\xffnot a frame").unwrap();
    let mut partial = TcpStream::connect(addr).unwrap();
    partial.write_all(&[100, 0, 0, 0, b'{']).unwrap();
    let mute = TcpStream::connect(addr).unwrap();

    let real = spawn_shard(addr, 0);
    let scripted = std::thread::spawn(move || {
        let link = join_as(addr, 1);
        let mut writer = link.try_clone().unwrap();
        let mut reader = BufReader::new(link);
        // the first routed unit proves both shards joined and routing began
        let first = read_frame::<RouterToShard>(&mut reader).unwrap();
        assert!(matches!(first, RouterToShard::Route { .. }));

        // a repeated join on the admitted link, and a completion for a
        // unit nobody routed: both ignored
        write_frame(
            &mut writer,
            &ShardToRouter::ShardJoin {
                shard: ShardId(1),
                workers: 1,
            },
        )
        .unwrap();
        write_frame(
            &mut writer,
            &ShardToRouter::UnitDone {
                outcome: Outcome::ok(UnitId::Call(InvocationId(UNITS + 7)), vec![]),
            },
        )
        .unwrap();

        // a second connection claiming a taken id is rejected at the
        // handshake; a join beyond the fleet is admitted, then dropped
        assert_closed("duplicate s0", join_as(addr, 0));
        assert_closed("late s9", join_as(addr, 9));
        // the handshake deadline reaps the rest while the run goes on
        assert_closed("garbage", garbage);
        assert_closed("partial", partial);
        assert_closed("mute", mute);

        // die mid-frame, holding every unit routed here
        writer.write_all(&[64, 0, 0, 0, b'{']).unwrap();
    });

    let outcomes = route(hub, 2, &specs(), units()).unwrap();
    scripted.join().unwrap();
    real.join().unwrap();

    let outcomes = sorted(outcomes);
    let ids: Vec<UnitId> = outcomes.iter().map(|o| o.unit).collect();
    let expected: Vec<UnitId> = (0..UNITS).map(|i| UnitId::Call(InvocationId(i))).collect();
    assert_eq!(ids, expected, "every unit completes exactly once");
    assert_eq!(outcomes, single_runtime_outcomes());
}
