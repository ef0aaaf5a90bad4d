//! End-to-end wire smoke: a real server on loopback, a real client
//! through every message type, injected wire faults, clean shutdown.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use tbs_distributed::snapshot::EpochCell;
use tbs_distributed::FaultPlan;
use tbs_server::client::{BlockingClient, ClientError};
use tbs_server::proto::{EpochOutcome, ErrorCode};
use tbs_server::server::{serve_on, ServerHandle};
use tbs_server::service::{CellService, LineFit, NoModel, SamplerService};
use temporal_sampling::api::{RetrainPolicy, SamplerConfig};
use temporal_sampling::core::frozen::FrozenSample;

fn start_line_server(fault_plan: Option<Arc<FaultPlan>>) -> ServerHandle {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let config = SamplerConfig::rtbs(0.05, 500).seed(7);
    let svc: SamplerService<[f64; 2], LineFit> =
        SamplerService::new(config, LineFit::new(), RetrainPolicy::EveryBatch).unwrap();
    serve_on(listener, svc, fault_plan).unwrap()
}

fn line_batch(range: std::ops::Range<i32>) -> Vec<[f64; 2]> {
    range.map(|i| [i as f64, 2.0 * i as f64 + 1.0]).collect()
}

#[test]
fn every_verb_roundtrips_on_loopback() {
    let server = start_line_server(None);
    let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();

    // PING before anything exists.
    client.ping().unwrap();

    // GET_SAMPLE before a publish is a typed Unavailable, not a hang.
    match client.get_sample() {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("expected Unavailable, got {other:?}"),
    }

    // PREDICT before any fit is likewise Unavailable.
    match client.predict(1.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("expected Unavailable, got {other:?}"),
    }

    // INGEST publishes an epoch per batch.
    let (batches, epoch1) = client.ingest(line_batch(0..400)).unwrap();
    assert_eq!(batches, 1);
    assert!(epoch1 >= 1);
    let (batches, epoch2) = client.ingest(line_batch(400..800)).unwrap();
    assert_eq!(batches, 2);
    assert!(epoch2 > epoch1);

    // GET_SAMPLE returns the latest publication.
    let (epoch, got_batches, items) = client.get_sample().unwrap();
    assert_eq!(epoch, epoch2);
    assert_eq!(got_batches, 2);
    assert!(!items.is_empty() && items.len() <= 500);
    assert!(items
        .iter()
        .all(|[x, y]| (y - (2.0 * x + 1.0)).abs() < 1e-9));

    // SUBSCRIBE_EPOCH for an already-published epoch resolves at once.
    let (outcome, sub_epoch, sub_batches) = client
        .subscribe_epoch(epoch1, Some(Duration::from_secs(2)))
        .unwrap();
    assert_eq!(outcome, EpochOutcome::Published);
    assert!(sub_epoch >= epoch1);
    assert!(sub_batches >= 1);

    // RETRAIN then PREDICT: the model saw y = 2x + 1. The retrain
    // freezes a fresh publication, so its epoch is at least epoch2.
    let trained_on = client.retrain().unwrap();
    assert!(trained_on.unwrap() >= epoch2, "trained on {trained_on:?}");
    let y = client.predict(10.0).unwrap();
    assert!((y - 21.0).abs() < 1e-6, "prediction {y}");

    // CHECKPOINT_PULL / PUSH round-trip, then state continues.
    let blob = client.checkpoint_pull().unwrap();
    assert!(!blob.is_empty());
    client.checkpoint_push(blob).unwrap();
    let (batches, _) = client.ingest(line_batch(800..1200)).unwrap();
    assert_eq!(batches, 3, "restored engine kept its batch count");

    // A garbage CHECKPOINT_PUSH is a typed Corrupt error...
    match client.checkpoint_push(Bytes::from_static(b"junk")) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Corrupt),
        other => panic!("expected Corrupt, got {other:?}"),
    }
    // ...and the live engine is untouched.
    let (_, got_batches, _) = client.get_sample().unwrap();
    assert_eq!(got_batches, 3);

    // Pipelined GET_SAMPLE: many requests, one write, all answered.
    assert_eq!(client.get_sample_pipelined(64).unwrap(), 64);

    // SHUTDOWN stops the serve loop.
    client.shutdown_server().unwrap();
    server.wait().unwrap();
}

#[test]
fn subscribe_epoch_long_polls_until_another_connection_publishes() {
    let server = start_line_server(None);
    let addr = server.addr();

    let waiter = std::thread::spawn(move || {
        let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(addr).unwrap();
        client.subscribe_epoch(1, Some(Duration::from_secs(10)))
    });

    // Give the subscriber time to park, then publish over a second
    // connection.
    std::thread::sleep(Duration::from_millis(100));
    let mut publisher: BlockingClient<[f64; 2]> = BlockingClient::connect(addr).unwrap();
    let (_, epoch) = publisher.ingest(line_batch(0..100)).unwrap();

    let (outcome, got_epoch, _) = waiter.join().unwrap().unwrap();
    assert_eq!(outcome, EpochOutcome::Published);
    assert_eq!(got_epoch, epoch);
}

#[test]
fn subscribe_epoch_times_out_when_nothing_publishes() {
    let server = start_line_server(None);
    let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();
    let start = std::time::Instant::now();
    let (outcome, epoch, batches) = client
        .subscribe_epoch(5, Some(Duration::from_millis(150)))
        .unwrap();
    assert_eq!(outcome, EpochOutcome::TimedOut);
    assert_eq!((epoch, batches), (0, 0));
    assert!(start.elapsed() >= Duration::from_millis(140));
    // The connection is still usable after a timed-out poll.
    client.ping().unwrap();
}

#[test]
fn injected_connection_drop_severs_at_the_exact_frame() {
    // Fault: connection 1 loses its 2nd reply frame.
    let plan = Arc::new(FaultPlan::new().drop_connection(1, 2));
    let server = start_line_server(Some(Arc::clone(&plan)));
    let mut client: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();

    // Frame 1 is delivered intact.
    client.ping().unwrap();

    // Frame 2 never arrives: the socket dies under the client.
    match client.ping() {
        Err(ClientError::Io(e)) => assert!(
            matches!(
                e.kind(),
                io::ErrorKind::UnexpectedEof
                    | io::ErrorKind::ConnectionReset
                    | io::ErrorKind::BrokenPipe
            ),
            "unexpected kind {:?}",
            e.kind()
        ),
        other => panic!("expected dropped connection, got {other:?}"),
    }
    assert_eq!(plan.fired_count(), 1, "fault fired exactly once");

    // The server itself survives: a fresh connection works.
    let mut client2: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();
    client2.ping().unwrap();
}

#[test]
fn half_open_socket_surfaces_as_a_client_read_timeout() {
    let plan = Arc::new(FaultPlan::new().half_open_socket(1, 1));
    let server = start_line_server(Some(plan));
    let mut client: BlockingClient<[f64; 2]> =
        BlockingClient::connect_timeout(server.addr(), Duration::from_millis(300)).unwrap();

    // The socket stays open but the reply never comes; the client's
    // read timeout must fire rather than hanging forever.
    match client.ping() {
        Err(ClientError::Io(e)) => assert!(
            matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
            ),
            "unexpected kind {:?}",
            e.kind()
        ),
        other => panic!("expected read timeout, got {other:?}"),
    }

    // Other connections are unaffected.
    let mut client2: BlockingClient<[f64; 2]> = BlockingClient::connect(server.addr()).unwrap();
    client2.ping().unwrap();
}

#[test]
fn cell_service_replica_serves_a_publisher_owned_elsewhere() {
    let cell: Arc<EpochCell<u64>> = Arc::new(EpochCell::new());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = serve_on(listener, CellService::new(Arc::clone(&cell)), None).unwrap();
    let mut client: BlockingClient<u64> = BlockingClient::connect(server.addr()).unwrap();

    // Mutating verbs are rejected on a replica.
    match client.ingest(vec![1, 2, 3]) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unsupported),
        other => panic!("expected Unsupported, got {other:?}"),
    }

    // Publish in-process; the wire sees it.
    cell.publish(Arc::new(FrozenSample::new(1, 4, None, 3.0, vec![7, 8, 9])));
    let (epoch, batches, items) = client.get_sample().unwrap();
    assert_eq!((epoch, batches), (1, 4));
    assert_eq!(items, vec![7, 8, 9]);

    // A subscriber parked on the wire wakes when the in-process
    // publisher advances the cell.
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        let mut c: BlockingClient<u64> = BlockingClient::connect(addr).unwrap();
        c.subscribe_epoch(2, Some(Duration::from_secs(10)))
    });
    std::thread::sleep(Duration::from_millis(100));
    cell.publish(Arc::new(FrozenSample::new(2, 8, None, 3.0, vec![10])));
    let (outcome, epoch, _) = waiter.join().unwrap().unwrap();
    assert_eq!(outcome, EpochOutcome::Published);
    assert_eq!(epoch, 2);

    // Publisher death resolves parked subscribers with PublisherGone.
    let addr = server.addr();
    let waiter = std::thread::spawn(move || {
        let mut c: BlockingClient<u64> = BlockingClient::connect(addr).unwrap();
        c.subscribe_epoch(99, Some(Duration::from_secs(10)))
    });
    std::thread::sleep(Duration::from_millis(100));
    cell.close();
    let (outcome, ..) = waiter.join().unwrap().unwrap();
    assert_eq!(outcome, EpochOutcome::PublisherGone);
}

#[test]
fn second_sampler_restores_from_a_pulled_checkpoint() {
    // Pull a checkpoint over the wire from one server, push it into a
    // fresh one: the replica continues the primary's stream position.
    let primary = start_line_server(None);
    let mut c1: BlockingClient<[f64; 2]> = BlockingClient::connect(primary.addr()).unwrap();
    c1.ingest(line_batch(0..500)).unwrap();
    c1.ingest(line_batch(500..900)).unwrap();
    let blob = c1.checkpoint_pull().unwrap();

    let replica = start_line_server(None);
    let mut c2: BlockingClient<[f64; 2]> = BlockingClient::connect(replica.addr()).unwrap();
    c2.checkpoint_push(blob).unwrap();
    let (batches, _) = c2.ingest(line_batch(900..1000)).unwrap();
    assert_eq!(batches, 3, "replica continued the primary's batch count");

    // A NoModel service reports Unavailable for PREDICT, proving the
    // model verbs are service-level, not protocol-level.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let svc: SamplerService<u64, NoModel> = SamplerService::new(
        SamplerConfig::rtbs(0.05, 100).seed(3),
        NoModel,
        RetrainPolicy::EveryBatch,
    )
    .unwrap();
    let plain = serve_on(listener, svc, None).unwrap();
    let mut c3: BlockingClient<u64> = BlockingClient::connect(plain.addr()).unwrap();
    match c3.predict(0.0) {
        Err(ClientError::Server { code, .. }) => assert_eq!(code, ErrorCode::Unavailable),
        other => panic!("expected Unavailable, got {other:?}"),
    }
}

#[test]
fn subscription_follows_a_checkpoint_push_from_another_connection() {
    let server = start_line_server(None);
    let addr = server.addr();
    let mut producer: BlockingClient<[f64; 2]> = BlockingClient::connect(addr).unwrap();
    producer.ingest(line_batch(0..300)).unwrap();
    let (_, e2) = producer.ingest(line_batch(300..600)).unwrap();
    let blob = producer.checkpoint_pull().unwrap();

    // Park a subscriber for the next epoch, then replace the engine it
    // waits on.
    let waiter = std::thread::spawn(move || {
        let mut c: BlockingClient<[f64; 2]> = BlockingClient::connect(addr).unwrap();
        c.subscribe_epoch(e2 + 1, Some(Duration::from_secs(10)))
    });
    std::thread::sleep(Duration::from_millis(100));
    producer.checkpoint_push(blob).unwrap();
    for t in 2..5 {
        let (batches, _) = producer.ingest(line_batch(t * 300..(t + 1) * 300)).unwrap();
        assert_eq!(batches as i32, t + 1);
    }

    // The first engine never got past batch 2: a publication carrying
    // more came from the restored one.
    let (outcome, epoch, batches) = waiter.join().unwrap().unwrap();
    assert_eq!(outcome, EpochOutcome::Published);
    assert!(epoch > e2, "epoch {epoch} must pass {e2}");
    assert!(batches > 2, "published before the push: {batches} batches");
}

#[test]
fn join_returns_promptly_with_parked_connections_and_drops_the_service() {
    let cell: Arc<EpochCell<u64>> = Arc::new(EpochCell::new());
    let plan = Arc::new(FaultPlan::new().half_open_socket(1, 1));
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let server = serve_on(listener, CellService::new(Arc::clone(&cell)), Some(plan)).unwrap();
    let addr = server.addr();

    // Connection 1 goes half-open on its first reply.
    let mut half_open: BlockingClient<u64> =
        BlockingClient::connect_timeout(addr, Duration::from_millis(200)).unwrap();
    assert!(matches!(half_open.ping(), Err(ClientError::Io(_))));
    // An untimed subscriber on an epoch that never comes.
    let subscriber = std::thread::spawn(move || {
        let mut c: BlockingClient<u64> = BlockingClient::connect(addr).unwrap();
        c.subscribe_epoch(99, None)
    });
    // And a connection that never sends anything.
    let idle = std::net::TcpStream::connect(addr).unwrap();
    std::thread::sleep(Duration::from_millis(100));

    let start = std::time::Instant::now();
    server.join().unwrap();
    assert!(
        start.elapsed() < Duration::from_secs(1),
        "join took {:?}",
        start.elapsed()
    );
    // Every connection thread is gone, and the service with them.
    assert_eq!(Arc::strong_count(&cell), 1);
    assert!(matches!(
        subscriber.join().unwrap(),
        Err(ClientError::Io(_))
    ));
    drop((half_open, idle));
}
