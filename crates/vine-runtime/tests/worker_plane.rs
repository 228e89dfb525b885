//! Hostile peers on the worker plane: two real `run_tcp_worker` workers
//! serve a workload while scripted peers dial the same manager and break
//! the protocol — garbage before `Join`, a `Join` that never finishes, a
//! disconnect mid-frame, a second `Join`, `LibraryReady` for an instance
//! the sender does not host, forged completions. The run must finish with
//! every unit completed exactly once with its correct result, and a peer
//! that breaks the protocol must be dropped, not abort the run. A peer
//! still framing JSON text is refused at the handshake.

use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use vine_core::context::{ContextSpec, LibrarySpec, SetupSpec};
use vine_core::ids::{InvocationId, LibraryInstanceId, WorkerId};
use vine_core::resources::Resources;
use vine_core::task::{ExecMode, FunctionCall, Outcome, UnitId, WorkUnit};
use vine_lang::{pickle, ModuleRegistry, Value};
use vine_proto::{read_frame, write_frame, FrameError, ManagerToWorker, WorkerToManager};
use vine_runtime::{
    decode_result, run_tcp_worker, Runtime, RuntimeConfig, TcpConfig, TcpTransport,
};

/// `f(x) = model + x`, after a busy loop; unit 0, the one the forger
/// claims, loops a hundred times longer so it is in flight while forged
/// completions arrive.
const LIB_SOURCE: &str = r#"
def context_setup(base) {
    global model
    model = base * 1000
}
def f(x) {
    rounds = 2000
    if x == 0 {
        rounds = 200000
    }
    acc = 0
    for i in range(rounds) {
        acc = acc + i
    }
    return model + x + 0 * acc
}
"#;

const LIBS: u64 = 8;
const UNITS: u64 = 120;

fn full() -> Resources {
    Resources::new(16, 16 * 1024, 16 * 1024)
}

/// Too small to host any library instance: the manager never places work
/// on a peer announcing this.
fn tiny() -> Resources {
    Resources::new(1, 64, 64)
}

fn spec(l: u64) -> LibrarySpec {
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
}

fn call(i: u64) -> FunctionCall {
    let mut c = FunctionCall::new(
        InvocationId(i),
        format!("lib-{}", i % LIBS),
        "f",
        pickle::serialize_args(&[Value::Int(i as i64)]).unwrap(),
    );
    c.resources = Resources::new(1, 256, 256);
    c
}

/// Complete the handshake as a scripted worker.
fn dial(addr: SocketAddr, resources: Resources) -> (TcpStream, BufReader<TcpStream>, WorkerId) {
    let stream = TcpStream::connect(addr).unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    write_frame(&mut writer, &WorkerToManager::Join { resources }).unwrap();
    let ManagerToWorker::Welcome { worker } = read_frame(&mut reader).unwrap() else {
        panic!("expected Welcome");
    };
    (writer, reader, worker)
}

/// Check that every unit completed exactly once with its correct result.
fn assert_each_once(mut outcomes: Vec<Outcome>, units: u64) {
    outcomes.sort_by_key(|o| o.unit);
    let ids: Vec<UnitId> = outcomes.iter().map(|o| o.unit).collect();
    let expected: Vec<UnitId> = (0..units).map(|i| UnitId::Call(InvocationId(i))).collect();
    assert_eq!(ids, expected, "every unit completes exactly once");
    for o in &outcomes {
        let UnitId::Call(id) = o.unit else {
            unreachable!()
        };
        assert_eq!(
            decode_result(o).unwrap(),
            Value::Int(7000 + id.0 as i64),
            "{:?}",
            o.unit
        );
    }
}

/// Read whatever the manager still sends until it closes the connection,
/// failing if it stays open for 10 s.
fn until_closed(name: &str, reader: &mut BufReader<TcpStream>) {
    reader
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let start = Instant::now();
    while read_frame::<ManagerToWorker>(reader).is_ok() {}
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "{name}: still open after 10 s"
    );
}

/// Poll the transport until `worker`'s connection is down.
fn wait_dead(rt: &Runtime, name: &str, worker: WorkerId) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while rt
        .transport_stats()
        .workers
        .iter()
        .any(|w| w.worker == worker && w.alive)
    {
        assert!(
            Instant::now() < deadline,
            "{name} ({worker}) still connected"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// A scripted peer that waits for the run to start, does `act`, and
/// reports back through the barrier.
fn script(go: &Arc<Barrier>, act: impl FnOnce() -> bool + Send + 'static) -> JoinHandle<bool> {
    let go = Arc::clone(go);
    std::thread::spawn(move || {
        go.wait();
        act()
    })
}

#[test]
fn hostile_workers_lose_no_unit_and_abort_nothing() {
    let transport = TcpTransport::listen_with(
        "127.0.0.1:0",
        TcpConfig {
            handshake_timeout: Duration::from_millis(200),
            ..TcpConfig::default()
        },
    )
    .unwrap();
    let addr = transport.local_addr();

    // never admitted: a header far beyond the frame cap, and a `Join`
    // frame cut short
    let mut garbage = BufReader::new(TcpStream::connect(addr).unwrap());
    garbage
        .get_mut()
        .write_all(b"\xff\xff\xff\xffnot a frame")
        .unwrap();
    let mut partial = BufReader::new(TcpStream::connect(addr).unwrap());
    partial.get_mut().write_all(&[100, 0, 0, 0, b'{']).unwrap();

    // admitted peers, dialed in order so their ids are fixed; every one
    // acts once the barrier releases it, with the run under way
    let go = Arc::new(Barrier::new(6));

    // plays along (boots what it is sent), then answers its first
    // invocation with a second Join: dropped with that unit in flight
    let (mut w, mut r, _) = dial(addr, full());
    let impostor = script(&go, move || loop {
        match read_frame::<ManagerToWorker>(&mut r) {
            Ok(ManagerToWorker::InstallLibrary { image, .. }) => {
                let ready = WorkerToManager::LibraryReady {
                    instance: image.instance,
                };
                write_frame(&mut w, &ready).unwrap();
            }
            Ok(ManagerToWorker::Invoke { .. }) => {
                write_frame(&mut w, &WorkerToManager::Join { resources: full() }).unwrap();
                until_closed("impostor", &mut r);
                return true;
            }
            Ok(ManagerToWorker::Shutdown) | Err(_) => return false,
            Ok(_) => {}
        }
    });

    let (mut w, mut r, dup_id) = dial(addr, tiny());
    let dup_join = script(&go, move || {
        write_frame(&mut w, &WorkerToManager::Join { resources: tiny() }).unwrap();
        until_closed("second Join", &mut r);
        true
    });

    let (mut w, mut r, foreign_id) = dial(addr, tiny());
    let foreign_ready = script(&go, move || {
        // this peer hosts nothing, so every instance is foreign to it
        let ready = WorkerToManager::LibraryReady {
            instance: LibraryInstanceId(0),
        };
        write_frame(&mut w, &ready).unwrap();
        until_closed("foreign LibraryReady", &mut r);
        true
    });

    let (mut w, _r, mid_frame_id) = dial(addr, tiny());
    let mid_frame = script(&go, move || {
        w.write_all(&[64, 0, 0, 0, b'{']).unwrap();
        w.shutdown(Shutdown::Both).unwrap();
        true
    });

    // forges a completion (with a wrong result) and a requeue of unit 0
    // until told to stop: never placed anything, so never believed
    let stop = Arc::new(AtomicBool::new(false));
    let (mut w, _r, _) = dial(addr, tiny());
    let forger = script(&go, {
        let stop = Arc::clone(&stop);
        move || {
            let forged = Outcome::ok(
                UnitId::Call(InvocationId(0)),
                pickle::serialize_value(&Value::Int(-1)).unwrap(),
            );
            while !stop.load(Ordering::Relaxed) {
                let done = WorkerToManager::UnitDone {
                    outcome: forged.clone(),
                };
                let requeue = WorkerToManager::Requeue {
                    unit: WorkUnit::Call(call(0)),
                };
                if write_frame(&mut w, &done).is_err() || write_frame(&mut w, &requeue).is_err() {
                    break;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            true
        }
    });

    let real: Vec<JoinHandle<()>> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                run_tcp_worker(addr, full(), ModuleRegistry::new()).unwrap();
            })
        })
        .collect();

    let cfg = RuntimeConfig {
        workers: 7,
        idle_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::with_transport(cfg, Box::new(transport)).unwrap();
    for l in 0..LIBS {
        rt.install_library(spec(l), LIB_SOURCE, vec![], &[Value::Int(7)])
            .unwrap();
    }
    for i in 0..UNITS {
        rt.submit(WorkUnit::Call(call(i)));
    }
    go.wait();
    std::thread::sleep(Duration::from_millis(20));
    let outcomes = rt.run_until_idle().unwrap();

    assert_each_once(outcomes, UNITS);

    // the violators and the peer that died mid-frame are gone; the
    // handshake deadline reaped the two that never joined
    wait_dead(&rt, "second Join", dup_id);
    wait_dead(&rt, "foreign LibraryReady", foreign_id);
    wait_dead(&rt, "mid-frame", mid_frame_id);
    until_closed("garbage", &mut garbage);
    until_closed("partial Join", &mut partial);
    assert!(rt.transport_stats().handshake_rejects >= 2);

    stop.store(true, Ordering::Relaxed);
    assert!(forger.join().unwrap());
    // only the impostor's units were requeued: at most one per slot of
    // every library it could host; a believed forged requeue of unit 0
    // would count once per forgery
    let requeues = rt.requeues();
    assert!(requeues <= LIBS * 2, "{requeues} requeues");
    rt.shutdown();
    for h in real {
        h.join().unwrap();
    }
    for h in [dup_join, foreign_ready, mid_frame] {
        assert!(h.join().unwrap());
    }
    if impostor.join().unwrap() {
        // it was dropped holding a unit, which ran again elsewhere
        assert!(requeues >= 1, "impostor's unit was not requeued");
    }
}

#[test]
fn json_era_peer_is_refused_at_the_handshake() {
    let transport = TcpTransport::listen("127.0.0.1:0").unwrap();
    let addr = transport.local_addr();

    // dials first, so an admission would have given it the first id: a
    // `Join` whose payload is the JSON text frames used to carry
    let json = serde_json::to_string(&WorkerToManager::Join { resources: full() }).unwrap();
    let mut stale = TcpStream::connect(addr).unwrap();
    stale.write_all(&(json.len() as u32).to_le_bytes()).unwrap();
    stale.write_all(json.as_bytes()).unwrap();
    let mut stale = BufReader::new(stale);

    let real: Vec<JoinHandle<()>> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                run_tcp_worker(addr, full(), ModuleRegistry::new()).unwrap();
            })
        })
        .collect();
    let cfg = RuntimeConfig {
        workers: 2,
        idle_timeout: Duration::from_secs(30),
        ..Default::default()
    };
    let mut rt = Runtime::with_transport(cfg, Box::new(transport)).unwrap();
    for l in 0..LIBS {
        rt.install_library(spec(l), LIB_SOURCE, vec![], &[Value::Int(7)])
            .unwrap();
    }
    let units = 32;
    for i in 0..units {
        rt.submit(WorkUnit::Call(call(i)));
    }
    assert_each_once(rt.run_until_idle().unwrap(), units);

    // closed without a `Welcome`, counted, and never a worker
    stale
        .get_ref()
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(matches!(
        read_frame::<ManagerToWorker>(&mut stale),
        Err(FrameError::Closed)
    ));
    let stats = rt.transport_stats();
    assert_eq!(stats.handshake_rejects, 1);
    assert_eq!(stats.workers.len(), 2, "only the real workers joined");
    rt.shutdown();
    for h in real {
        h.join().unwrap();
    }
}
