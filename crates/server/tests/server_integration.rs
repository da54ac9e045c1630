//! End-to-end fault tolerance over real sockets: a live server is
//! booted per test and driven through the failure modes the robustness
//! envelope exists for — corrupt hot reloads, worker panics, overload
//! shedding, slowloris clients, graceful shutdown — asserting each time
//! that valid queries keep answering correctly.

use std::io::{Read as _, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};
use surveyor::prelude::*;
use surveyor::{load_store, save_snapshot, CorpusSource, SubjectiveKb, Surveyor, SurveyorConfig};
use surveyor_obs::MetricsRegistry;
use surveyor_server::{percent_encode, start, ServedState, ServerConfig, ServerHandle};

/// A tiny mined world, deterministic per seed (different seeds produce
/// different snapshots, which the reload tests rely on).
fn snapshot_bytes(seed: u64) -> Vec<u8> {
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    b.add_entity("Kitten", animal).finish();
    b.add_entity("Spider", animal).finish();
    b.add_entity("Puppy", animal).finish();
    let kb = Arc::new(b.build());
    let world = WorldBuilder::new(kb.clone(), seed)
        .domain(
            "animal",
            Property::adjective("cute"),
            DomainParams::default(),
        )
        .build();
    let generator = CorpusGenerator::new(world, CorpusConfig::default());
    let surveyor = Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 5,
            ..Default::default()
        },
    );
    save_snapshot(&surveyor.run(&CorpusSource::new(&generator)))
}

fn boot(config: ServerConfig) -> ServerHandle {
    let bytes = snapshot_bytes(7);
    let state = Arc::new(ServedState::from_snapshot_bytes(&bytes, 1, "test-boot").unwrap());
    start(config, state, Arc::new(MetricsRegistry::new())).unwrap()
}

fn debug_config() -> ServerConfig {
    ServerConfig {
        debug_routes: true,
        ..ServerConfig::default()
    }
}

/// One full HTTP exchange: connect, send `request` verbatim, read the
/// whole reply (the server always closes), return (status, full reply).
fn exchange(addr: SocketAddr, request: &[u8]) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(request).expect("send request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    let status = reply
        .strip_prefix("HTTP/1.1 ")
        .and_then(|rest| rest.get(..3))
        .and_then(|code| code.parse::<u16>().ok())
        .unwrap_or_else(|| panic!("unparseable reply: {reply:?}"));
    (status, reply)
}

fn get(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(
        addr,
        format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
    )
}

fn post(addr: SocketAddr, path: &str) -> (u16, String) {
    exchange(
        addr,
        format!("POST {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes(),
    )
}

/// A `/decide` path plus the expected `"positive"` value for the first
/// stored opinion of the booted snapshot.
fn known_query(handle: &ServerHandle) -> (String, bool) {
    let state = handle.shared().load();
    let block = state
        .store
        .combinations()
        .find(|b| !b.is_empty())
        .expect("mined world has opinions");
    let opinion = block.opinions().next().expect("block is not empty");
    // Resolve through find_opinion: /decide answers with the most
    // confident block when an entity holds the property under several
    // types, so the expected bit must come from the same resolution.
    let property = block.property.to_string();
    let (_, resolved) = state
        .store
        .find_opinion(opinion.entity_name, block.property)
        .expect("enumerated opinion resolves");
    let path = format!(
        "/decide/{}/{}",
        percent_encode(opinion.entity_name),
        percent_encode(&property)
    );
    (path, resolved.positive)
}

fn assert_answers(addr: SocketAddr, query: &(String, bool)) {
    let (status, reply) = get(addr, &query.0);
    assert_eq!(status, 200, "known query failed: {reply}");
    let want = format!("\"positive\": {}", query.1);
    assert!(reply.contains(&want), "wrong verdict in {reply}");
}

/// `name` with the case of every other ASCII letter flipped.
fn mixed_case(name: &str) -> String {
    name.chars()
        .enumerate()
        .map(|(i, c)| match (i % 2, c.is_ascii_lowercase()) {
            (0, _) => c,
            (_, true) => c.to_ascii_uppercase(),
            (_, false) => c.to_ascii_lowercase(),
        })
        .collect()
}

#[test]
fn entity_paths_match_ignoring_ascii_case() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let (path, positive) = known_query(&handle);
    let (_, rest) = path.split_at("/decide/".len());
    let (entity, property) = rest.split_once('/').unwrap();
    let mixed = mixed_case(entity);
    assert_ne!(mixed, entity);

    // `/decide`: the same verdict, reported under the canonical name.
    assert_answers(addr, &(format!("/decide/{mixed}/{property}"), positive));
    let (_, reply) = get(addr, &format!("/decide/{mixed}/{property}"));
    assert!(
        reply.contains(&format!("\"entity\": \"{entity}\"")),
        "{reply}"
    );

    // `/entity?k=`: the entity's one property, whichever way it is spelt.
    for spelling in [entity, mixed.as_str()] {
        let (status, reply) = get(addr, &format!("/entity/{spelling}?k=1"));
        assert_eq!(status, 200, "{reply}");
        assert!(reply.contains("\"k\": 1"), "{reply}");
        assert!(
            reply.contains(&format!("\"entity\": \"{entity}\"")),
            "{reply}"
        );
        assert!(
            reply.contains(&format!("\"property\": \"{property}\"")),
            "{reply}"
        );
        assert!(
            reply.contains(&format!("\"positive\": {positive}")),
            "{reply}"
        );
    }
    let (status, _) = get(addr, "/entity/Nobody?k=1");
    assert_eq!(status, 404);
    let (status, _) = get(addr, &format!("/decide/{mixed}x/{property}"));
    assert_eq!(status, 404);
    handle.shutdown();
}

/// The body of a reply: what follows the blank line.
fn body(reply: &str) -> &str {
    reply.split_once("\r\n\r\n").expect("a head and a body").1
}

#[test]
fn reply_bodies_are_the_recorded_ones() {
    // Bodies recorded from the commit before the store became columns
    // (28e8e81), on this file's boot snapshot: what the routes render from
    // borrowed views is, byte for byte, what they rendered from owned
    // blocks.
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let kitten = "{\n  \"entity\": \"Kitten\",\n  \"negative_statements\": 6,\n  \"positive\": false,\n  \"positive_statements\": 6,\n  \"probability\": 0.000004526531174919894,\n  \"property\": \"cute\",\n  \"type\": \"animal\"\n}";
    let model = "{\n  \"decided_entities\": 3,\n  \"p_agree\": 0.86,\n  \"property\": \"cute\",\n  \"rate_neg\": 4.838718377867558,\n  \"rate_pos\": 21.92976022552201,\n  \"type\": \"animal\"\n}";
    let recorded = [
        ("/decide/Kitten/cute", 200, kitten),
        (
            "/decide/sPiDeR/cute",
            200,
            "{\n  \"entity\": \"Spider\",\n  \"negative_statements\": 0,\n  \"positive\": true,\n  \"positive_statements\": 18,\n  \"probability\": 0.9999999985758194,\n  \"property\": \"cute\",\n  \"type\": \"animal\"\n}",
        ),
        (
            "/entity/Puppy?k=5",
            200,
            "{\n  \"entity\": \"Puppy\",\n  \"k\": 5,\n  \"properties\": [\n    {\n      \"entity\": \"Puppy\",\n      \"negative_statements\": 3,\n      \"positive\": false,\n      \"positive_statements\": 1,\n      \"probability\": 0.00000011995727688140127,\n      \"property\": \"cute\",\n      \"type\": \"animal\"\n    }\n  ]\n}",
        ),
        (
            "/entity/kitten?k=1",
            200,
            "{\n  \"entity\": \"kitten\",\n  \"k\": 1,\n  \"properties\": [\n    {\n      \"entity\": \"Kitten\",\n      \"negative_statements\": 6,\n      \"positive\": false,\n      \"positive_statements\": 6,\n      \"probability\": 0.000004526531174919894,\n      \"property\": \"cute\",\n      \"type\": \"animal\"\n    }\n  ]\n}",
        ),
        ("/model/animal/cute", 200, model),
        ("/model/ANIMAL/cute", 200, model),
        (
            "/evidence/Kitten/cute",
            200,
            "{\n  \"entity\": \"Kitten\",\n  \"negative_statements\": 6,\n  \"positive_statements\": 6,\n  \"property\": \"cute\",\n  \"supporting_documents\": [\n    0,\n    4294967297,\n    4294967299,\n    12884901889,\n    12884901890\n  ],\n  \"type\": \"animal\"\n}",
        ),
        (
            "/evidence/spider/cute",
            200,
            "{\n  \"entity\": \"Spider\",\n  \"negative_statements\": 0,\n  \"positive_statements\": 18,\n  \"property\": \"cute\",\n  \"supporting_documents\": [\n    1,\n    4294967297,\n    4294967298,\n    8589934592,\n    8589934594\n  ],\n  \"type\": \"animal\"\n}",
        ),
        (
            "/decide/Ghost/cute",
            404,
            "{\n  \"error\": \"no stored opinion for entity/property\"\n}",
        ),
        (
            "/model/animal/big",
            404,
            "{\n  \"error\": \"no model for type/property\"\n}",
        ),
    ];
    for (path, want_status, want_body) in recorded {
        let (status, reply) = get(addr, path);
        assert_eq!(status, want_status, "{path}: {reply}");
        assert_eq!(body(&reply), want_body, "{path}");
    }
    // `/readyz` keeps its keys and gains one: what the store costs to keep.
    // `snapshot_bytes` is the file's length, 471 before the format stopped
    // storing decisions and EM traces.
    let (_, reply) = get(addr, "/readyz");
    let store_bytes = handle.shared().load().store.resident_bytes();
    assert_eq!(
        body(&reply),
        format!(
            "{{\n  \"associations\": 3,\n  \"epoch\": 0,\n  \"generation\": 1,\n  \"ready\": true,\n  \
             \"snapshot_bytes\": 340,\n  \"source\": \"test-boot\",\n  \"store_bytes\": {store_bytes}\n}}"
        )
    );
    assert_eq!(
        handle
            .metrics()
            .registry()
            .gauge("server.store_resident_bytes"),
        Some(store_bytes as f64),
        "the gauge is set at boot"
    );
    handle.shutdown();
}

/// A mined output with one decisive group (`animal`/`cute`) and one
/// modelled group in which every city carries the same counts, so EM fits
/// `pA = ½` exactly and every city is unsolved — what the long-tail world
/// holds at some seeds (`orchid group 8`/`brittle`).
fn output_with_an_all_unsolved_group() -> SurveyorOutput {
    use surveyor::extract::{EvidenceTable, Polarity, Statement};
    let mut b = KnowledgeBaseBuilder::new();
    let animal = b.add_type("animal", &["animal"], &[]);
    let city = b.add_type("city", &["city"], &[]);
    for name in ["Kitten", "Puppy", "Spider", "Rat"] {
        b.add_entity(name, animal).finish();
    }
    for name in ["Arlen", "Bedrock", "Quahog"] {
        b.add_entity(name, city).finish();
    }
    let kb = Arc::new(b.build());
    let mut table = EvidenceTable::new();
    let mut add = |name: &str, property: &str, positive: u64, negative: u64| {
        let entity = kb.entity_by_name(name).unwrap();
        let property = Property::adjective(property);
        for (n, polarity) in [
            (positive, Polarity::Positive),
            (negative, Polarity::Negative),
        ] {
            for _ in 0..n {
                table.add(&Statement::new(entity, &property, polarity));
            }
        }
    };
    add("Kitten", "cute", 40, 1);
    add("Puppy", "cute", 30, 2);
    add("Spider", "cute", 1, 12);
    for name in ["Arlen", "Bedrock", "Quahog"] {
        add(name, "big", 4, 4);
    }
    let surveyor = Surveyor::new(
        kb,
        SurveyorConfig {
            rho: 10,
            ..Default::default()
        },
    );
    surveyor.run_on_evidence(table)
}

#[test]
fn an_all_unsolved_modelled_group_has_a_model_and_no_opinion() {
    let output = output_with_an_all_unsolved_group();
    let unsolved = output
        .results
        .iter()
        .find(|r| r.key.property.resolve().to_string() == "big")
        .expect("the city group is modelled");
    assert_eq!(unsolved.fit.params.p_agree, 0.5);
    assert!(unsolved
        .decisions
        .iter()
        .all(|(_, d)| d.decision == Decision::Unsolved));

    let loaders = [
        ("load_store", load_store(&save_snapshot(&output)).unwrap()),
        (
            "from_output",
            SubjectiveKb::from_output(&output, output.kb()),
        ),
    ];
    for (loader, store) in loaders {
        let state = ServedState {
            store,
            generation: 1,
            source: loader.to_owned(),
            snapshot_bytes: 0,
        };
        let handle = start(
            ServerConfig::default(),
            Arc::new(state),
            Arc::new(MetricsRegistry::new()),
        )
        .unwrap();
        let addr = handle.addr();
        // The group was modelled: its parameters are served, with no
        // decided entity behind them.
        let (status, reply) = get(addr, "/model/city/big");
        assert_eq!(status, 200, "{loader}: {reply}");
        assert!(
            body(&reply).contains("\"decided_entities\": 0,"),
            "{loader}: {reply}"
        );
        assert!(
            body(&reply).contains("\"p_agree\": 0.5,"),
            "{loader}: {reply}"
        );
        // An unsolved entity has no stored opinion.
        for city in ["Arlen", "Bedrock", "Quahog"] {
            let (status, reply) = get(addr, &format!("/decide/{city}/big"));
            assert_eq!(status, 404, "{loader} {city}: {reply}");
        }
        // The decisive group beside it answers as usual.
        let (status, reply) = get(addr, "/model/animal/cute");
        assert_eq!(status, 200, "{loader}: {reply}");
        assert!(
            !body(&reply).contains("\"decided_entities\": 0,"),
            "{loader}: {reply}"
        );
        let (status, reply) = get(addr, "/decide/Kitten/cute");
        assert_eq!(status, 200, "{loader}: {reply}");
        handle.shutdown();
    }
}

#[test]
fn idle_workers_release_a_replaced_snapshot() {
    let bytes = snapshot_bytes(7);
    let initial = Arc::new(ServedState::from_snapshot_bytes(&bytes, 1, "old").unwrap());
    let old = Arc::downgrade(&initial);
    let handle = start(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        initial,
        Arc::new(MetricsRegistry::new()),
    )
    .unwrap();
    // One answered request proves the only worker is up and has served
    // from the boot snapshot.
    assert_eq!(get(handle.addr(), "/readyz").0, 200);
    assert!(old.upgrade().is_some(), "the slot serves the boot snapshot");

    // No further request is sent: once the slot moves on, the worker, idle
    // as soon as it is done with that one request, may not keep holding
    // the snapshot it served it from.
    let next = ServedState::from_snapshot_bytes(&bytes, 2, "new").unwrap();
    handle.shared().swap(Arc::new(next));
    let patience = Instant::now();
    while old.upgrade().is_some() {
        assert!(
            patience.elapsed() < Duration::from_secs(5),
            "an idle worker pins the replaced snapshot"
        );
        std::thread::yield_now();
    }
    assert_eq!(handle.shared().load().generation, 2);
    handle.shutdown();
}

#[test]
fn metrics_report_route_time_beside_latency() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    assert_answers(addr, &known_query(&handle));
    let (status, reply) = get(addr, "/metrics");
    assert_eq!(status, 200);
    for name in ["serve.latency_seconds", "serve.route_seconds"] {
        assert!(reply.contains(name), "/metrics lacks {name}: {reply}");
    }
    let route = handle
        .metrics()
        .registry()
        .histogram("serve.route_seconds")
        .summary();
    // The `/decide` and the `/metrics` request itself.
    assert_eq!(route.count, 2);
    assert!(route.max < 1.0, "route time is in seconds: {route:?}");
    handle.shutdown();
}

#[test]
fn corrupt_reload_is_rejected_and_serving_continues() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let query = known_query(&handle);
    assert_answers(addr, &query);

    let dir = std::env::temp_dir();
    let corrupt_path = dir.join(format!("surveyor_it_corrupt_{}.swire", std::process::id()));
    let valid_path = dir.join(format!("surveyor_it_valid_{}.swire", std::process::id()));
    let mut corrupt = snapshot_bytes(7);
    let mid = corrupt.len() / 2;
    corrupt[mid] ^= 0xff;
    std::fs::write(&corrupt_path, &corrupt).unwrap();
    std::fs::write(&valid_path, snapshot_bytes(11)).unwrap();

    // The corrupt candidate is rejected with a 422 and generation 1
    // keeps serving — validate-then-swap leaves no broken window.
    let (status, reply) = post(
        addr,
        &format!("/ctl/reload?path={}", corrupt_path.display()),
    );
    assert_eq!(status, 422, "corrupt reload not rejected: {reply}");
    assert!(reply.contains("\"reloaded\": false"), "{reply}");
    assert_answers(addr, &query);

    // So is one whose checksums hold and whose content does not: two
    // types of one lowercased name. The same 422, not a worker panic.
    let mut twins = surveyor::wire::decode(&snapshot_bytes(7)).unwrap();
    let mut twin = twins.types[0].clone();
    twin.name = twin.name.to_uppercase();
    twins.types.push(twin);
    std::fs::write(&corrupt_path, surveyor::wire::encode(&twins)).unwrap();
    let (status, reply) = post(
        addr,
        &format!("/ctl/reload?path={}", corrupt_path.display()),
    );
    assert_eq!(status, 422, "duplicate-type reload not rejected: {reply}");
    assert!(reply.contains("duplicate type name"), "{reply}");
    assert_answers(addr, &query);
    let (status, reply) = get(addr, "/readyz");
    assert_eq!(status, 200);
    assert!(reply.contains("\"generation\": 1"), "{reply}");

    // A valid candidate swaps in and bumps the generation.
    let (status, reply) = post(addr, &format!("/ctl/reload?path={}", valid_path.display()));
    assert_eq!(status, 200, "valid reload rejected: {reply}");
    assert!(reply.contains("\"generation\": 2"), "{reply}");
    // What the generation now serving costs to keep: in the reload's
    // reply, on `/readyz`, and as a gauge set by the swap.
    let serving = handle.shared().load();
    assert_eq!(serving.generation, 2);
    let store_bytes = format!("\"store_bytes\": {}", serving.store.resident_bytes());
    assert!(reply.contains(&store_bytes), "{reply}");
    let (status, reply) = get(addr, "/readyz");
    assert_eq!(status, 200);
    assert!(reply.contains("\"generation\": 2"), "{reply}");
    assert!(reply.contains(&store_bytes), "{reply}");

    let registry = handle.metrics().registry().clone();
    assert_eq!(
        registry.gauge("server.store_resident_bytes"),
        Some(serving.store.resident_bytes() as f64)
    );
    assert_eq!(registry.counter_value("serve.reload.rejected"), 2);
    assert_eq!(registry.counter_value("serve.reload.ok"), 1);
    assert_eq!(registry.counter_value("serve.panics"), 0);
    handle.shutdown();
    let _ = std::fs::remove_file(&corrupt_path);
    let _ = std::fs::remove_file(&valid_path);
}

#[test]
fn panic_is_isolated_to_one_request() {
    let handle = boot(debug_config());
    let addr = handle.addr();
    let query = known_query(&handle);

    let (status, reply) = post(addr, "/ctl/panic");
    assert_eq!(status, 500, "panic route should answer 500: {reply}");
    assert!(reply.contains("isolated"), "{reply}");

    // The worker pool survived; queries still answer correctly.
    assert_answers(addr, &query);
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    assert_eq!(handle.metrics().registry().counter_value("serve.panics"), 1);
    handle.shutdown();
}

#[test]
fn overload_sheds_with_retry_after() {
    let handle = boot(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        debug_routes: true,
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Wedge the single worker, then burst: capacity 1 means at most one
    // request can wait, so the rest are shed inline with Retry-After.
    let stall = std::thread::spawn(move || post(addr, "/ctl/stall?ms=600"));
    std::thread::sleep(Duration::from_millis(100));
    let replies: Vec<(u16, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8)
            .map(|_| scope.spawn(move || get(addr, "/healthz")))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let shed: Vec<&(u16, String)> = replies.iter().filter(|(s, _)| *s == 503).collect();
    assert!(!shed.is_empty(), "burst was not shed: {replies:?}");
    for (_, reply) in &shed {
        assert!(reply.contains("Retry-After:"), "shed without hint: {reply}");
    }
    let (status, reply) = stall.join().unwrap();
    assert_eq!(status, 200, "stalled request lost: {reply}");
    assert!(handle.metrics().registry().counter_value("serve.shed") >= 1);

    // Load lifts; the server admits requests again.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn slowloris_request_gets_408_not_a_wedged_worker() {
    let handle = boot(ServerConfig {
        request_budget: Duration::from_millis(300),
        ..ServerConfig::default()
    });
    let addr = handle.addr();

    // Trickle half a request line and stop. The deadline stamped at
    // accept expires and the worker answers 408 instead of waiting on
    // the socket forever.
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(b"GET /healthz HT").unwrap();
    let mut reply = String::new();
    stream.read_to_string(&mut reply).unwrap();
    assert!(reply.starts_with("HTTP/1.1 408"), "got: {reply:?}");
    assert_eq!(
        handle
            .metrics()
            .registry()
            .counter_value("serve.deadline_expired"),
        1
    );

    // The worker that timed the request out is back in rotation.
    let (status, _) = get(addr, "/healthz");
    assert_eq!(status, 200);
    handle.shutdown();
}

#[test]
fn graceful_shutdown_via_control_route() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();
    let (status, reply) = post(addr, "/ctl/shutdown");
    assert_eq!(status, 200);
    assert!(reply.contains("\"shutting_down\": true"), "{reply}");
    // join() returns only after the accept thread and every worker have
    // exited — this would hang (and the harness time out) otherwise.
    handle.join();
}

#[test]
fn protocol_errors_map_to_statuses() {
    let handle = boot(ServerConfig::default());
    let addr = handle.addr();

    let (status, _) = exchange(addr, b"BREW /coffee HTTP/1.1\r\n\r\n");
    assert_eq!(status, 400, "unknown method");
    let (status, _) = exchange(addr, b"not http at all\r\n\r\n");
    assert_eq!(status, 400, "garbage head");
    let (status, _) = get(addr, "/no/such/route");
    assert_eq!(status, 404, "unknown route");
    let (status, _) = post(addr, "/decide/Kitten/cute");
    assert_eq!(status, 405, "POST on a read route");
    let (status, _) = post(addr, "/ctl/panic");
    assert_eq!(status, 405, "debug route without debug_routes");
    // Blow the header-count cap (not the byte cap: that would leave
    // unread bytes in the kernel buffer and risk an RST eating the 431).
    let flooded = format!(
        "GET /healthz HTTP/1.1\r\n{}\r\n",
        "x-pad: 0123\r\n".repeat(100)
    );
    let (status, _) = exchange(addr, flooded.as_bytes());
    assert_eq!(status, 431, "header flood");

    let registry = handle.metrics().registry().clone();
    assert!(registry.counter_value("serve.malformed") >= 3);
    handle.shutdown();
}
