//! A server's live heap does not grow with the connections it has
//! answered. Each connection runs on a thread of its own, so anything a
//! thread leaves behind when it ends (a per-thread registration, say)
//! grows the process by that much per request. A test binary of its own,
//! so that its counting allocator sees only this test.

use pas_server::{Client, ResultCache, Server, ServerOptions};
use std::time::{Duration, Instant};

mod counting;

#[global_allocator]
static ALLOC: counting::Counting = counting::Counting;

/// Requests that warm the server's one-time state (metric series,
/// interned profile regions) before the count starts.
const WARM_UP: usize = 200;

/// Requests counted, each on a fresh connection.
const REQUESTS: usize = 2_000;

/// The most live heap [`REQUESTS`] answered connections may leave.
const RETAINED_BYTES: isize = 64 * 1024;

#[test]
fn answered_connections_leave_no_live_heap() {
    let dir = std::env::temp_dir().join(format!("pas_server_memory_{}", std::process::id()));
    let cache = ResultCache::open(&dir).expect("cache opens");
    let server = Server::bind("127.0.0.1:0", cache, ServerOptions::default()).expect("binds");
    let client = Client::new(server.local_addr().expect("bound").to_string());
    std::thread::spawn(move || server.run());
    let healthz = |n: usize| {
        for _ in 0..n {
            client.healthz().expect("answers");
        }
    };
    healthz(WARM_UP);
    let before = counting::live_bytes();
    healthz(REQUESTS);
    // A connection thread ends just after it answers; give the last few
    // time to free what they hold.
    let deadline = Instant::now() + Duration::from_secs(10);
    let retained = loop {
        let retained = counting::live_bytes() - before;
        if retained < RETAINED_BYTES || Instant::now() > deadline {
            break retained;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        retained < RETAINED_BYTES,
        "{REQUESTS} answered connections left {retained} bytes live ({} per request)",
        retained / REQUESTS as isize
    );
}
